(* secbench load generator: one process, two threads, two connections.

   It starts `secdb_cli serve --shards 2` (and, for durable-write, an oplog
   primary plus a --replica-of replica), loads a seeded dataset, drives a
   closed loop of SQL requests over the authenticated Unix-socket wire
   protocol for a fixed window, checks every answer against a plaintext
   model, and prints every metric by name and unit.  The last stdout line is
   one JSON object: {"correct", "attempted", "failed", "metrics"}.

   --trace 0  end-to-end metrics: three rounds, each a timed set-up of
              fresh servers (setup_s is their median) and an untraced third
              of the window;
   --trace 1  per-layer metrics: an untraced and a traced half-window over
              the wire, then the same op stream replayed in process against
              identical shard databases (see Ladder).

   Servers run with --shards 2 whatever the machine; the generator uses two
   closed-loop connections, one per thread, as callers that each wait for
   their reply. *)

module Wire = Secdb_net.Wire
module Client = Secdb_net.Client
module W = Workload

let connections = 2
let setups = 3

(* --- arguments ----------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let cli = ref ""

let () =
  let spec =
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " W.names);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured window, in seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--cli", Arg.Set_string cli, " path to secdb_cli.exe");
    ]
  in
  let fail msg =
    prerr_endline ("loadgen: " ^ msg);
    exit 2
  in
  (try Arg.parse_argv Sys.argv (Arg.align spec) (fun a -> fail ("unexpected argument " ^ a)) "loadgen"
   with Arg.Bad m | Arg.Help m -> fail m);
  if not (List.mem !workload W.names) then fail ("--workload must be one of " ^ String.concat ", " W.names);
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !seconds <= 0. then fail "--seconds must be positive";
  if not (Sys.file_exists !cli) then fail "--cli must name the built secdb_cli.exe"

(* --- run directory and clean-up ------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let out_dir = Filename.concat (Sys.getcwd ()) "secbench/_out"
let run_dir = Filename.concat (Sys.getcwd ()) (Printf.sprintf "secbench/_run/%d" (Unix.getpid ()))
let cli = if Filename.is_relative !cli then Filename.concat (Sys.getcwd ()) !cli else !cli

let git_rev =
  let read f = In_channel.with_open_text f In_channel.input_all |> String.trim in
  try
    let head = read ".git/HEAD" in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))
    else head
  with Sys_error _ -> "unknown"

let () =
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ "secbench/_run"; run_dir; out_dir ];
  Sys.chdir run_dir;
  at_exit (fun () ->
      Node.stop_all ();
      rm_rf run_dir);
  let bail _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let now = Unix.gettimeofday
let attempted = ref 0
let failed = ref 0
let failures = ref []

let fail_op what =
  incr failed;
  if List.length !failures < 5 then failures := what :: !failures

(* --- set-up -------------------------------------------------------------- *)

type cluster = { primary : Node.t; replica : Node.t option }

let durable (wl : W.t) = wl.W.name = "durable-write"
let log_path = "primary.log"

let start_cluster wl =
  if durable wl then begin
    if Sys.file_exists log_path then Sys.remove log_path;
    let primary = Node.spawn ~cli ~name:"primary" [ "--oplog"; log_path ] in
    let replica = Node.spawn ~cli ~name:"replica" [ "--replica-of"; "unix:primary.sock" ] in
    { primary; replica = Some replica }
  end
  else { primary = Node.spawn ~cli ~name:"server" []; replica = None }

let stop_cluster cl =
  Node.stop cl.primary;
  Option.iter Node.stop cl.replica

(* Poll a node's Repl_root every 2 ms until it reflects [applied] ops. *)
let await_applied node applied =
  let c = Node.connect node in
  let rec go () =
    let a, root = Node.root c in
    if a >= applied then root
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  Fun.protect ~finally:(fun () -> Client.close c) go

let load_ok = function
  | Ok (Wire.Outcome (Secdb_sql.Engine.Affected 1 | Secdb_sql.Engine.Created)) -> ()
  | Ok _ -> failwith "set-up: unexpected response"
  | Error e -> failwith ("set-up: " ^ Client.error_to_string e)

(* Start the servers, load the dataset and build the indexes, one pipelined
   connection per statement list; on durable-write, until the replica holds
   the whole load. *)
let setup wl =
  let t0 = now () in
  let cl = start_cluster wl in
  let conns = Array.init connections (fun _ -> Node.connect cl.primary) in
  let error = ref None in
  let loaders =
    Array.mapi
      (fun c stmts ->
        Thread.create
          (fun () ->
            try
              List.iter load_ok
                (Client.pipeline ~window:32 conns.(c) (List.map (fun s -> Wire.Sql s) stmts))
            with e -> error := Some e)
          ())
      wl.W.load
  in
  Array.iter Thread.join loaders;
  Option.iter raise !error;
  (match cl.replica with
  | Some r ->
      let applied, _ = Node.root conns.(0) in
      ignore (await_applied r applied)
  | None -> ());
  (cl, conns, now () -. t0)

(* --- the closed loop ----------------------------------------------------- *)

type sample = { shape : W.shape; lat : float; at : float; ok : bool }

let rid = Atomic.make 0

let one_op (wl : W.t) conn c ~traced =
  let op = wl.W.next ~conn in
  let req = Wire.Sql op.W.sql in
  let t0 = now () in
  let resp =
    if not traced then Client.call c req
    else
      let rid = Atomic.fetch_and_add rid 1 in
      Span.with_span ~rid ~parent:Span.root ("client." ^ W.shape_name op.W.shape) (fun parent ->
          let s0 = now () in
          match Client.post c req with
          | Error _ as e -> e
          | Ok id ->
              let s1 = now () in
              ignore (Span.record ~rid ~parent "net.post" s0 s1);
              let r = Client.await c id in
              ignore (Span.record ~rid ~parent "net.await" s1 (now ()));
              r)
  in
  let t1 = now () in
  let verdict =
    match resp with
    | Ok (Wire.Outcome o) -> op.W.finish o
    | Ok _ -> Error "unexpected response kind"
    | Error e -> Error (Client.error_to_string e)
  in
  (match verdict with Ok () -> () | Error e -> fail_op (W.shape_name op.W.shape ^ ": " ^ e));
  { shape = op.W.shape; lat = t1 -. t0; at = t1; ok = verdict = Ok () }

let window wl conns ~seconds ~traced =
  let t_start = now () in
  let deadline = t_start +. seconds in
  let results = Array.make connections [] in
  let threads =
    Array.init connections (fun conn ->
        Thread.create
          (fun () ->
            let acc = ref [] in
            while now () < deadline do
              acc := one_op wl conn conns.(conn) ~traced :: !acc
            done;
            results.(conn) <- !acc)
          ())
  in
  Array.iter Thread.join threads;
  let samples = Array.of_list (List.concat (Array.to_list results)) in
  attempted := !attempted + Array.length samples;
  (samples, t_start, now () -. t_start)

let lats ?(pred = fun _ -> true) samples =
  Array.of_list
    (List.filter_map
       (fun s -> if s.ok && pred s.shape then Some (s.lat *. 1000.) else None)
       (Array.to_list samples))

let completed samples = Array.fold_left (fun n s -> if s.ok then n + 1 else n) 0 samples

(* The window cut into [slice]-second pieces by completion time; the
   samples of each whole piece. *)
let cut ~t_start ~seconds ~slice samples =
  let k = max 1 (int_of_float (seconds /. slice)) in
  let buckets = Array.make k [] in
  Array.iter
    (fun s ->
      let i = int_of_float ((s.at -. t_start) /. slice) in
      if i >= 0 && i < k then buckets.(i) <- s :: buckets.(i))
    samples;
  Array.map Array.of_list buckets

(* --- reporting ----------------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []
let extra : (string * float * string) list ref = ref []
let emit name v unit = metrics := (name, v, unit) :: !metrics
let note name v unit = extra := (name, v, unit) :: !extra

(* a metric that could not be measured reads 0 and makes the run incorrect *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let report () =
  let ms = List.rev !metrics and ex = List.rev !extra in
  Printf.printf
    "secbench workload=%s seed=%d seconds=%g trace=%d git=%s nproc=%d shards=%d connections=%d tables=%s\n"
    !workload !seed !seconds !trace git_rev (Domain.recommended_domain_count ()) Node.shards
    connections
    (String.concat ","
       (List.map
          (fun t -> Printf.sprintf "%s@%d" t (Secdb_db.Shard.key_index ~shards:Node.shards t))
          (W.make !workload ~seed:!seed).W.tables));
  List.iter (fun (n, v, u) -> Printf.printf "metric %s %.6g %s\n" n v u) (ms @ ex);
  List.iter (fun f -> Printf.printf "failure %s\n" f) (List.rev !failures);
  let correct = !failed = 0 && List.for_all (fun (_, v, _) -> Float.is_finite v) ms in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 !attempted) !failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          ms))

(* --- end-to-end run ------------------------------------------------------ *)

let run_probes (wl : W.t) c =
  List.iter
    (fun (op : W.op) ->
      incr attempted;
      match Client.call c (Wire.Sql op.W.sql) with
      | Ok (Wire.Outcome o) -> (
          match op.W.finish o with Ok () -> () | Error e -> fail_op e)
      | Ok _ -> fail_op "probe: unexpected response kind"
      | Error e -> fail_op ("probe: " ^ Client.error_to_string e))
    (wl.W.probes ())

let check what ok = if not ok then fail_op what

(* durable-write after the window: replica catch-up, model reads on both
   nodes, then SIGTERM the primary and time its restart on the same log. *)
let durable_epilogue wl cl ~last_ack ~writes ~log_before =
  let replica = Option.get cl.replica in
  let c = Node.connect cl.primary in
  let applied, root = Node.root c in
  let replica_root = await_applied replica applied in
  note "repl_catchup_s" (now () -. last_ack) "s";
  check "replica root differs from the primary's" (replica_root = root);
  note "log_bytes_per_write"
    (float_of_int ((Unix.stat log_path).Unix.st_size - log_before) /. float_of_int (max 1 writes))
    "B";
  run_probes wl c;
  let rc = Node.connect replica in
  run_probes wl rc;
  Client.close rc;
  Client.close c;
  let rss = Node.rss_mb cl.primary in
  Node.stop cl.primary;
  let t0 = now () in
  Node.exec ~cli cl.primary;
  let c = Node.connect cl.primary in
  (match wl.W.probes () with
  | op :: _ -> (
      incr attempted;
      match Client.call c (Wire.Sql op.W.sql) with
      | Ok (Wire.Outcome o) -> (
          note "restart_s" (now () -. t0) "s";
          match op.W.finish o with Ok () -> () | Error e -> fail_op ("after restart: " ^ e))
      | _ -> fail_op "restarted primary did not answer")
  | [] -> ());
  let applied', root' = Node.root c in
  check "restarted primary lost ops" (applied' = applied);
  check "restarted primary's root differs from its pre-stop root" (root' = root);
  Client.close c;
  rss

(* One round: a timed set-up, a short unmeasured warm-up (lazy set-up and
   the heap settle after the load), then a measured window. *)
type round = {
  wl : W.t;
  cl : cluster;
  setup_s : float;
  samples : sample array;
  t_start : float;
  decrypts : float;
  log_before : int;
}

let warmup = 1.0

let round ~secs =
  (* a fresh model per round: each round loads a fresh server *)
  let wl = W.make !workload ~seed:!seed in
  let cl, conns, setup_s = setup wl in
  ignore (window wl conns ~seconds:warmup ~traced:false);
  let s0 = Node.stats conns.(0) in
  let log_before = if durable wl then (Unix.stat log_path).Unix.st_size else 0 in
  let samples, t_start, _ = window wl conns ~seconds:secs ~traced:false in
  let s1 = Node.stats conns.(0) in
  Array.iter Client.close conns;
  { wl; cl; setup_s; samples; t_start; decrypts = Node.counter_delta s0 s1 "aead.decrypts"; log_before }

(* The window is split over [setups] independent server instances, each
   measured after its own timed set-up.  Each round's window is cut into
   pieces holding about [min_ops] of the ops a statistic reads (at least
   one second, at most the round); interference
   from the shared machine only ever slows a piece down, so rates are the
   75th percentile over pieces and latencies the 25th, which keeps a noisy
   stretch of the run from deciding the figure. *)
let end_to_end () =
  let secs = !seconds /. float_of_int setups in
  let rounds =
    List.init setups (fun i ->
        let r = round ~secs in
        if i < setups - 1 then begin
          let rss = Node.rss_mb r.cl.primary in
          stop_cluster r.cl;
          (r, Some rss)
        end
        else (r, None))
  in
  let last, _ = List.nth rounds (setups - 1) in
  let wl = last.wl in
  let rs = List.map fst rounds in
  let samples = Array.concat (List.map (fun r -> r.samples) rs) in
  let ops = completed samples in
  let pieces ?(pred = fun _ -> true) ~min_ops () =
    Array.concat
      (List.map
         (fun r ->
           let rate = float_of_int (Array.length (lats ~pred r.samples)) /. secs in
           let want = Float.max 1.0 (float_of_int min_ops /. Float.max rate 1e-3) in
           let len = secs /. Float.max 1. (Float.floor (secs /. want)) in
           Array.map (fun b -> (b, len)) (cut ~t_start:r.t_start ~seconds:secs ~slice:len r.samples))
         rs)
  in
  let quiet q f pieces =
    Stat.quantile (Array.of_list (List.filter Float.is_finite (Array.to_list (Array.map f pieces)))) q
  in
  let p99 l = Stat.quantile l 0.99 in
  let main s = s = wl.W.main in
  emit "setup_s" (Stat.median (Array.of_list (List.map (fun r -> r.setup_s) rs))) "s";
  emit "throughput_ops_s"
    (quiet 0.75 (fun (b, len) -> float_of_int (completed b) /. len) (pieces ~min_ops:100 ()))
    "ops/s";
  emit "main_op_p50_ms"
    (quiet 0.25 (fun (b, _) -> Stat.median (lats ~pred:main b)) (pieces ~pred:main ~min_ops:100 ()))
    "ms";
  emit "op_p99_ms" (quiet 0.25 (fun (b, _) -> p99 (lats b)) (pieces ~min_ops:1000 ())) "ms";
  emit "decrypts_per_op"
    (List.fold_left (fun a r -> a +. r.decrypts) 0. rs /. float_of_int (max 1 ops))
    "count";
  let rss_last =
    if durable wl then
      let last_ack =
        Array.fold_left (fun m s -> if s.ok && W.is_write s.shape then Float.max m s.at else m) 0. last.samples
      in
      durable_epilogue wl last.cl ~last_ack
        ~writes:(Array.length (lats ~pred:W.is_write last.samples))
        ~log_before:last.log_before
    else Node.rss_mb last.cl.primary
  in
  stop_cluster last.cl;
  let rss = List.map (fun (_, r) -> Option.value r ~default:rss_last) rounds in
  emit "server_rss_mb" (Stat.median (Array.of_list rss)) "MB";
  (* per-class latencies over the whole window, reported but not bounded *)
  List.iter
    (fun (cls, pred) ->
      let l = lats ~pred samples in
      if Array.length l > 0 then begin
        note (cls ^ "_p50_ms") (Stat.median l) "ms";
        note (cls ^ "_p99_ms") (p99 l) "ms"
      end)
    [ ("read", fun s -> not (W.is_write s)); ("write", W.is_write) ];
  note "failed_frac" (float_of_int !failed /. float_of_int (max 1 !attempted)) "share";
  note "window_ops" (float_of_int (Array.length samples)) "count"

(* --- traced run ---------------------------------------------------------- *)

let per_layer wl =
  let cl, conns, _ = setup wl in
  let half = !seconds /. 2. in
  ignore (window wl conns ~seconds:warmup ~traced:false);
  let plain, _, dt_plain = window wl conns ~seconds:half ~traced:false in
  let s0 = Node.stats conns.(0) in
  let traced, _, dt_traced = window wl conns ~seconds:half ~traced:true in
  let s1 = Node.stats conns.(0) in
  let pings =
    Array.init 200 (fun _ ->
        match Client.ping conns.(0) with Ok s -> s *. 1e6 | Error _ -> nan)
  in
  Array.iter Client.close conns;
  stop_cluster cl;
  let ops = completed traced in
  let tput_plain = float_of_int (completed plain) /. dt_plain in
  let tput_traced = float_of_int ops /. dt_traced in
  let n_rpc, rpc_s = Node.hist_delta s0 s1 "net.rpc_latency{op=sql}" in
  let server_us = rpc_s *. 1e6 /. float_of_int (max 1 n_rpc) in
  let client_us = Stat.mean (lats traced) *. 1000. in
  let hits = Node.counter_delta s0 s1 "shard.snapshot_hits"
  and misses = Node.counter_delta s0 s1 "shard.snapshot_misses" in
  emit "net.ping_rtt_us" (Stat.median pings) "us";
  emit "net.server_mean_us.sql" server_us "us";
  emit "net.queue_us" (client_us -. server_us) "us";
  emit "net.bytes_per_op"
    ((Node.counter_delta s0 s1 "net.bytes_in" +. Node.counter_delta s0 s1 "net.bytes_out")
    /. float_of_int (max 1 ops))
    "B";
  emit "shard.snapshot_hit_ratio" (if hits +. misses > 0. then hits /. (hits +. misses) else 0.) "share";
  emit "trace.overhead_frac" (1. -. (tput_traced /. tput_plain)) "share";
  (* client-observed latency per shape, for the attribution below *)
  let client_by_shape =
    List.map
      (fun sh ->
        let l = lats ~pred:(fun s -> s = sh) traced in
        (sh, (Array.length l, Stat.mean l *. 1000.)))
      W.shapes
  in
  let spans = Span.all () in
  let live_spans = List.filter (fun s -> s.Span.rid < 2000) spans in
  Span.clear ();
  List.iter (fun (n, v, u) -> emit n v u)
    (Ladder.run ~workload:!workload ~seed:!seed ~client_by_shape);
  Span.write (Filename.concat out_dir (!workload ^ ".spans.jsonl")) (live_spans @ Span.all ());
  note "failed_frac" (float_of_int !failed /. float_of_int (max 1 !attempted)) "share"

let () =
  (try if !trace = 0 then end_to_end () else per_layer (W.make !workload ~seed:!seed)
   with e ->
     Node.stop_all ();
     prerr_endline ("loadgen: " ^ Printexc.to_string e);
     exit 1);
  report ()
