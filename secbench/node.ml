(* Server processes and the client side of the wire protocol.

   Every server is a `secdb_cli serve` child listening on a Unix socket
   named relative to the run directory (the generator chdirs there, which
   keeps socket paths short whatever the checkout's location). *)

module Wire = Secdb_net.Wire
module Client = Secdb_net.Client

let master = "secdb demo master key" (* serve's default --master *)
let auth_key = Wire.auth_key_of_master master
let shards = 2

type t = { name : string; args : string list; mutable pid : int }

let live : t list ref = ref []
let sock t = t.name ^ ".sock"
let addr t = Wire.Unix_sock (sock t)

let exec ~cli t =
  let out = Unix.openfile (t.name ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let argv =
    Array.of_list
      ([ cli; "serve"; "-a"; "unix:" ^ sock t; "--shards"; string_of_int shards ] @ t.args)
  in
  let pid = Unix.create_process cli argv Unix.stdin out out in
  Unix.close out;
  t.pid <- pid;
  live := t :: List.filter (fun n -> n != t) !live

let spawn ~cli ~name args =
  let t = { name; args; pid = 0 } in
  exec ~cli t;
  t

let exited t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Connect with one dial per attempt, polling every 2 ms: the client's own
   doubling backoff would quantise a restart time to its retry schedule. *)
let connect ?(deadline = 120.) t =
  let give_up = Unix.gettimeofday () +. deadline in
  let rec go () =
    match Client.connect ~attempts:1 ~auth_key (addr t) with
    | Ok c -> c
    | Error e ->
        if exited t then failwith (Printf.sprintf "%s exited during start-up (see %s.log)" t.name t.name);
        if Unix.gettimeofday () > give_up then failwith (t.name ^ ": not answering: " ^ e);
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let wait_exit t ~timeout =
  let give_up = Unix.gettimeofday () +. timeout in
  let rec go () =
    if exited t then true
    else if Unix.gettimeofday () > give_up then false
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(* SIGTERM drains the server; SIGKILL only if the drain hangs. *)
let stop t =
  if t.pid > 0 then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (wait_exit t ~timeout:20.) then begin
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_exit t ~timeout:5.)
    end;
    t.pid <- 0
  end;
  live := List.filter (fun n -> n != t) !live

let stop_all () = List.iter stop !live

(* Peak resident set of a server (VmHWM), in MB. *)
let rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let call_exn c req =
  match Client.call c req with
  | Ok r -> r
  | Error e -> failwith (Client.error_to_string e)

let root c =
  match call_exn c Wire.Repl_root with
  | Wire.Root { applied; root } -> (applied, root)
  | _ -> failwith "Repl_root: unexpected response"

(* --- the server's metric registry, through the Stats RPC ----------------- *)

type stats = {
  counters : (string, float) Hashtbl.t;
  hists : (string, int * float) Hashtbl.t;  (* count, sum of seconds *)
}

(* The JSON dump has one metric per line:
   {"name": "aead.decrypts", "value": 12}  or
   {"name": "net.rpc_latency{op=sql}", "count": 3, "sum_seconds": 0.001, ...} *)
let field line key =
  let pat = "\"" ^ key ^ "\": " in
  let lp = String.length pat and n = String.length line in
  let rec find i =
    if i + lp > n then None
    else if String.sub line i lp = pat then Some (i + lp)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let j = ref i in
      if !j < n && line.[!j] = '"' then begin
        let k = String.index_from line (!j + 1) '"' in
        Some (String.sub line (!j + 1) (k - !j - 1))
      end
      else begin
        while !j < n && (match line.[!j] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false) do
          incr j
        done;
        Some (String.sub line i (!j - i))
      end

let stats c =
  let dump = match call_exn c (Wire.Stats `Json) with Wire.Stats_dump s -> s | _ -> "" in
  let s = { counters = Hashtbl.create 64; hists = Hashtbl.create 16 } in
  List.iter
    (fun line ->
      match (field line "name", field line "value", field line "count", field line "sum_seconds") with
      | Some n, Some v, _, _ -> Hashtbl.replace s.counters n (float_of_string v)
      | Some n, None, Some cnt, Some sum ->
          Hashtbl.replace s.hists n (int_of_string cnt, float_of_string sum)
      | _ -> ())
    (String.split_on_char '\n' dump);
  s

let counter s name = Option.value ~default:0. (Hashtbl.find_opt s.counters name)
let hist s name = Option.value ~default:(0, 0.) (Hashtbl.find_opt s.hists name)
let counter_delta a b name = counter b name -. counter a name

let hist_delta a b name =
  let c0, s0 = hist a name and c1, s1 = hist b name in
  (c1 - c0, s1 -. s0)
