(* Process-wide metric registry: counters, gauges and log-scale latency
   histograms, addressable by a base name plus optional labels.

   Counters are striped: each counter owns a small array of atomics and an
   increment lands in the slot indexed by the calling domain's id, so
   parallel workloads (the shard executor domains) never contend on one cache line
   and never lose counts.  Reads sum the stripes, which makes [value] a
   racy-but-monotone snapshot — exactly what a monitoring read wants.

   Histograms bucket by the position of the highest set bit of the
   nanosecond value: bucket [i] covers durations in [2^(i-1), 2^i) ns, so
   64 slots span sub-nanosecond to centuries with constant memory and no
   configuration.  Histograms sit on cold paths (oplog appends, replays),
   so their slots are shared atomics rather than stripes.

   Every operation that mutates a metric checks [Obs.on] first and does
   nothing — and allocates nothing — while the switch is off. *)

let stripes = 8
let stripe_index () = (Domain.self () :> int) land (stripes - 1)

type counter = { c_full : string; c_cells : int Atomic.t array }
type gauge = { g_full : string; g_cell : int Atomic.t }

let hist_buckets = 64

type histogram = {
  h_full : string;
  h_slots : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum_ns : int Atomic.t;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let reg_mutex = Mutex.create ()

let valid_name name =
  name <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       name

let full_name name labels =
  if not (valid_name name) then invalid_arg ("Metrics: bad metric name " ^ name);
  match labels with
  | [] -> name
  | kvs ->
      let kvs = List.sort (fun (a, _) (b, _) -> compare a b) kvs in
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
      ^ "}"

(* Registration is idempotent: asking for an existing (name, labels) pair
   returns the same metric, so modules can declare their counters at init
   without coordinating. *)
let register full make cast pack =
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt registry full with
      | Some m -> (
          match cast m with
          | Some x -> x
          | None -> invalid_arg ("Metrics: " ^ full ^ " already registered as another kind"))
      | None ->
          let x = make () in
          Hashtbl.add registry full (pack x);
          x)

(* --- counters ------------------------------------------------------------ *)

let counter ?(labels = []) name =
  let full = full_name name labels in
  register full
    (fun () -> { c_full = full; c_cells = Array.init stripes (fun _ -> Atomic.make 0) })
    (function C c -> Some c | _ -> None)
    (fun c -> C c)

let add c n = if Obs.on () then ignore (Atomic.fetch_and_add c.c_cells.(stripe_index ()) n)
let incr c = add c 1
let value c = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.c_cells
let counter_name c = c.c_full

(* --- gauges -------------------------------------------------------------- *)

let gauge ?(labels = []) name =
  let full = full_name name labels in
  register full
    (fun () -> { g_full = full; g_cell = Atomic.make 0 })
    (function G g -> Some g | _ -> None)
    (fun g -> G g)

let set g n = if Obs.on () then Atomic.set g.g_cell n
let gauge_value g = Atomic.get g.g_cell

(* --- histograms ---------------------------------------------------------- *)

let histogram ?(labels = []) name =
  let full = full_name name labels in
  register full
    (fun () ->
      {
        h_full = full;
        h_slots = Array.init hist_buckets (fun _ -> Atomic.make 0);
        h_count = Atomic.make 0;
        h_sum_ns = Atomic.make 0;
      })
    (function H h -> Some h | _ -> None)
    (fun h -> H h)

let bucket_of_ns ns =
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
  min (hist_buckets - 1) (bits ns 0)

(* Upper edge of bucket [i] in seconds: 2^i ns. *)
let bucket_upper_s i = Int64.to_float (Int64.shift_left 1L i) *. 1e-9

let observe h seconds =
  if Obs.on () then begin
    let ns = int_of_float (seconds *. 1e9) in
    let ns = if ns < 0 then 0 else ns in
    ignore (Atomic.fetch_and_add h.h_slots.(bucket_of_ns ns) 1);
    ignore (Atomic.fetch_and_add h.h_count 1);
    ignore (Atomic.fetch_and_add h.h_sum_ns ns)
  end

let time h f =
  if Obs.on () then begin
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> observe h (Unix.gettimeofday () -. t0)) f
  end
  else f ()

type hist_view = { count : int; sum_seconds : float; buckets : (int * int) list }

let hist_view h =
  let buckets = ref [] in
  for i = hist_buckets - 1 downto 0 do
    let n = Atomic.get h.h_slots.(i) in
    if n > 0 then buckets := (i, n) :: !buckets
  done;
  {
    count = Atomic.get h.h_count;
    sum_seconds = float_of_int (Atomic.get h.h_sum_ns) *. 1e-9;
    buckets = !buckets;
  }

let hist_count h = Atomic.get h.h_count

(* --- registry snapshots --------------------------------------------------- *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_view) list;
}

let by_name (a, _) (b, _) = compare a b

let snapshot () =
  let metrics = Mutex.protect reg_mutex (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry []) in
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (function
      | C c -> counters := (c.c_full, value c) :: !counters
      | G g -> gauges := (g.g_full, gauge_value g) :: !gauges
      | H h -> hists := (h.h_full, hist_view h) :: !hists)
    metrics;
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !hists;
  }

let reset () =
  let metrics = Mutex.protect reg_mutex (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry []) in
  List.iter
    (function
      | C c -> Array.iter (fun cell -> Atomic.set cell 0) c.c_cells
      | G g -> Atomic.set g.g_cell 0
      | H h ->
          Array.iter (fun s -> Atomic.set s 0) h.h_slots;
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum_ns 0)
    metrics

(* --- rendering ------------------------------------------------------------ *)

(* Text format is deterministic for a deterministic workload: one sorted
   line per metric, histograms rendered as their event count only (sums
   are wall-clock and would not be reproducible). *)
let to_text s =
  let b = Buffer.create 1024 in
  List.iter (fun (n, v) -> Buffer.add_string b (Printf.sprintf "counter %s %d\n" n v)) s.counters;
  List.iter (fun (n, v) -> Buffer.add_string b (Printf.sprintf "gauge %s %d\n" n v)) s.gauges;
  List.iter
    (fun (n, h) -> Buffer.add_string b (Printf.sprintf "hist %s count=%d\n" n h.count))
    s.histograms;
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json s =
  let b = Buffer.create 4096 in
  let kv (n, v) = Printf.sprintf "    {\"name\": \"%s\", \"value\": %d}" (json_escape n) v in
  Buffer.add_string b "{\n  \"counters\": [\n";
  Buffer.add_string b (String.concat ",\n" (List.map kv s.counters));
  Buffer.add_string b "\n  ],\n  \"gauges\": [\n";
  Buffer.add_string b (String.concat ",\n" (List.map kv s.gauges));
  Buffer.add_string b "\n  ],\n  \"histograms\": [\n";
  Buffer.add_string b
    (String.concat ",\n"
       (List.map
          (fun (n, h) ->
            Printf.sprintf
              "    {\"name\": \"%s\", \"count\": %d, \"sum_seconds\": %.9f, \"buckets\": [%s]}"
              (json_escape n) h.count h.sum_seconds
              (String.concat ", "
                 (List.map
                    (fun (i, c) -> Printf.sprintf "{\"le\": %.9f, \"n\": %d}" (bucket_upper_s i) c)
                    h.buckets)))
          s.histograms));
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
