(* In-memory spans recorded by the generator around calls into secdb's
   public entry points.  A span has a name, start, end, its parent span and
   the request id shared by every span of one operation.  Spans stay in
   memory and are written out once, at the end of a run. *)

type t = { id : int; parent : int; rid : int; name : string; start : float; stop : float }

let root = 0
let spans : t list ref = ref []
let count = ref 0
let mu = Mutex.create ()

let record ~rid ~parent name start stop =
  Mutex.lock mu;
  incr count;
  let id = !count in
  spans := { id; parent; rid; name; start; stop } :: !spans;
  Mutex.unlock mu;
  id

(* Run [f] inside a span; [f] receives the span's id so it can open
   children under it.  The id is reserved before [f] runs. *)
let with_span ~rid ~parent name f =
  Mutex.lock mu;
  incr count;
  let id = !count in
  Mutex.unlock mu;
  let start = Unix.gettimeofday () in
  let r = f id in
  let stop = Unix.gettimeofday () in
  Mutex.lock mu;
  spans := { id; parent; rid; name; start; stop } :: !spans;
  Mutex.unlock mu;
  r

let all () = List.rev !spans

(* Drops the recorded spans; ids keep counting, so a later batch never
   reuses an id of one already written out. *)
let clear () = spans := []

let duration s = s.stop -. s.start

(* Self time: the span's duration minus the part of its interval that its
   children cover (overlapping children are counted once). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> root then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, upto) (a, b) ->
            let a = Float.max a upto in
            if b > a then (acc +. (b -. a), b) else (acc, upto))
          (0., neg_infinity) kids
      in
      (s, Float.max 0. (duration s -. covered)))
    spans

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"rid\":%d,\"name\":\"%s\",\"start\":%.6f,\"end\":%.6f}\n" s.id
        s.parent s.rid s.name s.start s.stop)
    spans;
  close_out oc
