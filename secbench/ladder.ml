(* The per-layer ladder of a traced run, measured in process from outside
   secdb's public entry points.

   A twin of the serving node is built from the same shard databases that
   `secdb_cli serve --shards 2` builds (same master key, profile, seeds and
   id ranges), loaded with the same statements, with the same per-shard
   read snapshots.  The workload's seeded op stream is then replayed on it
   the way the server routes each request: parse, the snapshot for point
   SELECTs, the locked executor (or the in-process [Server.dispatch]) for
   everything else, oplog appends on durable-write, wire encoding both
   ways.  Each replayed op is one request id with a span per layer.

   Every SQL shape is measured on the twin of its home workload — point
   and insert on oltp-point, range/agg/join on analytic-scan, update-by-key
   and delete-by-key on durable-write — so a shape's row means the same
   thing in every workload's output.  Cell, index, plan,
   snapshot, allocation and attribution rows come from the workload's own
   twin; crypto and durability rows from fixed cell-sized inputs and the
   twin's own logged history. *)

module Address = Secdb_db.Address
module Schema = Secdb_db.Schema
module Shard = Secdb_db.Shard
module Engine = Secdb_sql.Engine
module Parser = Secdb_sql.Parser
module Ast = Secdb_sql.Ast
module Snapshot = Secdb_sql.Snapshot
module Encdb = Secdb.Encdb
module Oplog = Secdb.Oplog
module Etable = Secdb_query.Encrypted_table
module Repl = Secdb_net.Repl
module Server = Secdb_net.Server
module Wire = Secdb_net.Wire
module Metrics = Secdb_obs.Metrics
module Rng = Secdb_util.Rng
module Vfs = Secdb_storage.Vfs
module W = Workload

let now = Unix.gettimeofday
let counter name = float_of_int (Metrics.value (Metrics.counter name))

(* the serve command's shard databases (see bin/secdb_cli.ml: shard_db) *)
let shard_db i =
  Encdb.create ~master:Node.master ~profile:(Encdb.Fixed Encdb.Eax)
    ~seed:(Int64.add 1L (Int64.of_int i))
    ~first_table_id:((i * 1_000_000) + 1)
    ~first_index_id:((i * 1_000_000) + 1000)
    ()

type twin = {
  dbs : Encdb.t array;
  snaps : Snapshot.t array;
  pending : Encdb.change list ref array;
  mutable history : Encdb.change list;  (* newest first *)
}

let route stmt = Shard.key_index ~shards:Node.shards (Ast.stmt_table stmt)

(* Fold a shard's new changes into its snapshot, as the server's executor
   does before it answers. *)
let settle tw i ~on_changes =
  match List.rev !(tw.pending.(i)) with
  | [] -> ()
  | changes ->
      tw.pending.(i) := [];
      on_changes changes;
      tw.snaps.(i) <- List.fold_left Snapshot.apply tw.snaps.(i) changes

let parse sql = match Parser.parse sql with Ok s -> s | Error e -> failwith (sql ^ ": " ^ e)

let build (wl : W.t) =
  let dbs = Array.init Node.shards shard_db in
  let pending = Array.map (fun _ -> ref []) dbs in
  let tw = { dbs; snaps = Array.map Snapshot.of_db dbs; pending; history = [] } in
  Array.iteri
    (fun i db ->
      Encdb.set_on_change db
        (Some
           (fun ch ->
             pending.(i) := ch :: !(pending.(i));
             tw.history <- ch :: tw.history)))
    dbs;
  Array.iter
    (List.iter (fun sql ->
         let stmt = parse sql in
         let i = route stmt in
         (match Engine.exec_stmt dbs.(i) stmt with Ok _ -> () | Error e -> failwith (sql ^ ": " ^ e));
         settle tw i ~on_changes:ignore))
    wl.W.load;
  tw

(* --- samples ------------------------------------------------------------- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64
let add key v = Hashtbl.replace samples key (v :: Option.value ~default:[] (Hashtbl.find_opt samples key))
let got key = List.length (Option.value ~default:[] (Hashtbl.find_opt samples key))

let mean_of key =
  match Hashtbl.find_opt samples key with
  | Some l -> Stat.mean (Array.of_list l)
  | None -> failwith ("ladder: no samples for " ^ key)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Run [f] counting the AEAD decrypts it causes. *)
let counting f =
  let d0 = counter "aead.decrypts" in
  let r = f () in
  (r, counter "aead.decrypts" -. d0)

(* --- replay -------------------------------------------------------------- *)

let outcome_of = function
  | Ok (Wire.Outcome o) -> o
  | Ok _ -> failwith "dispatch: unexpected response"
  | Error (_, e) -> failwith ("dispatch: " ^ e)

let ok_outcome = function Ok o -> o | Error e -> failwith e

(* The SELECT an UPDATE/DELETE plans to find its rows. *)
let where_select = function
  | Ast.Select s -> Some s
  | Ast.Update { table; where; _ } | Ast.Delete { table; where } ->
      Some { Ast.items = None; table; join = None; where; group_by = None; order_by = None; limit = None }
  | _ -> None

type replay_stats = {
  mutable ops : int;
  mutable failures : int;
  mutable words : float;
  mutable cells : float;
  mutable scanned : float;
  mutable rows_out : float;
}

(* Reads also get [extra] timed calls outside the op tree: the locked
   executor for a snapshot-served point read (a full-scan-priced call, so
   only a few), and in-process [Server.dispatch]. *)
let extra = 10

let home = function
  | W.Point | W.Insert -> "oltp-point"
  | W.Range | W.Agg | W.Join -> "analytic-scan"
  | W.Update | W.Delete -> "durable-write"

(* Replay [wl]'s stream on [tw] until every shape in [want] was sent
   [min_n] times ([want = []]: never), [max_ops] ops ran, or [budget]
   seconds passed.  Shape rows are taken only on a shape's home twin;
   [own] marks the workload's own twin, whose totals feed the
   workload-level rows. *)
let replay ~rid0 ~own ?log tw (wl : W.t) ~want ~min_n ~max_ops ~budget st =
  let t_end = now () +. budget in
  let seen = Hashtbl.create 8 in
  let enough () = want <> [] && List.for_all (fun sh -> Option.value ~default:0 (Hashtbl.find_opt seen sh) >= min_n) want in
  let i = ref 0 in
  while !i < max_ops && now () < t_end && not (enough ()) do
    let op = wl.W.next ~conn:0 in
    Hashtbl.replace seen op.W.shape (1 + Option.value ~default:0 (Hashtbl.find_opt seen op.W.shape));
    let sh = W.shape_name op.W.shape in
    let home_here = home op.W.shape = wl.W.name in
    let add_shape key v = if home_here then add (key ^ sh) v in
    let rid = rid0 + !i in
    let w0 = Gc.minor_words () in
    let c0 = counter "table.cells_decrypted" and r0 = counter "table.rows_scanned" in
    (* one request id, a span per layer the server would cross *)
    let stmt, o, hit =
      Span.with_span ~rid ~parent:Span.root ("op." ^ sh) (fun parent ->
          let span name f = Span.with_span ~rid ~parent name (fun _ -> f ()) in
          ignore (span "net.codec" (fun () -> Wire.decode_req (Wire.encode_req (Wire.Sql op.W.sql))));
          let stmt, dt_parse = timed (fun () -> span "sql.parse" (fun () -> parse op.W.sql)) in
          if own then add "parse" dt_parse;
          let shard = route stmt in
          let db = tw.dbs.(shard) in
          (* the server tries the lock-free snapshot first for SELECTs *)
          let via_snapshot =
            match stmt with
            | Ast.Select _ ->
                let r, dt =
                  timed (fun () -> span "sql.snapshot" (fun () -> Engine.exec_snapshot tw.snaps.(shard) stmt))
                in
                if r <> None then add_shape "snapshot." dt;
                r
            | _ -> None
          in
          (* writes alternate between the executor and in-process dispatch *)
          let run_counted key name f =
            let (o, dt), d = counting (fun () -> timed (fun () -> span name f)) in
            add_shape key dt;
            add_shape "decrypts." d;
            o
          in
          let o =
            match via_snapshot with
            | Some r -> ok_outcome r
            | None when W.is_write op.W.shape && got ("dispatch." ^ sh) < got ("exec." ^ sh) ->
                run_counted "dispatch." "net.dispatch" (fun () ->
                    outcome_of (Server.dispatch db (Wire.Sql op.W.sql)))
            | None -> run_counted "exec." "sql.exec" (fun () -> ok_outcome (Engine.exec_stmt db stmt))
          in
          settle tw shard ~on_changes:(fun changes ->
              match log with
              | None -> ()
              | Some w ->
                  span "oplog.append" (fun () ->
                      List.iter (fun ch -> ignore (Oplog.append w (Repl.op_of_change ch))) changes));
          ignore (span "net.codec" (fun () -> Wire.decode_resp (Wire.encode_resp (Wire.Outcome o))));
          (stmt, o, via_snapshot <> None))
    in
    if own then begin
      st.ops <- st.ops + 1;
      st.words <- st.words +. (Gc.minor_words () -. w0);
      st.cells <- st.cells +. (counter "table.cells_decrypted" -. c0);
      st.scanned <- st.scanned +. (counter "table.rows_scanned" -. r0);
      st.rows_out <-
        (st.rows_out
        +.
        match o with
        | Engine.Rows { rows; _ } -> float_of_int (List.length rows)
        | Engine.Affected k -> float_of_int k
        | _ -> 0.)
    end;
    (match op.W.finish o with Ok () -> () | Error _ -> st.failures <- st.failures + 1);
    let db = tw.dbs.(route stmt) in
    if home_here && (not (W.is_write op.W.shape)) && got ("dispatch." ^ sh) < extra then begin
      if hit then begin
        let (_, dt), d = counting (fun () -> timed (fun () -> Engine.exec_stmt db stmt)) in
        add_shape "exec." dt;
        add_shape "decrypts." d
      end;
      add_shape "dispatch." (snd (timed (fun () -> Server.dispatch db (Wire.Sql op.W.sql))))
    end;
    (if own then
       match where_select stmt with
       | Some s -> add "plan" (snd (timed (fun () -> Engine.plan_of_select db s)))
       | None -> ());
    incr i
  done

(* --- fixed-input rows ---------------------------------------------------- *)

(* EAX open/seal on 10-60 byte cells with the cell address as AD. *)
let crypto () =
  let rng = Rng.create ~seed:42L () in
  let aead = Secdb_aead.Eax.make (Secdb_cipher.Aes_fast.cipher ~key:(Rng.bytes rng 16)) in
  let n = 2000 in
  let cells =
    Array.init n (fun i ->
        let pt = Rng.bytes rng (10 + (10 * (i mod 6))) in
        let ad = Address.encode (Address.v ~table:1 ~row:i ~col:(i mod 4)) in
        let nonce = Rng.bytes rng aead.Secdb_aead.Aead.nonce_size in
        let ct, tag = Secdb_aead.Aead.encrypt aead ~nonce ~ad pt in
        (pt, ad, nonce, ct, tag))
  in
  let seal_us, _ =
    Stat.per_call ~n (fun i ->
        let pt, ad, nonce, _, _ = cells.(i) in
        ignore (Secdb_aead.Aead.encrypt aead ~nonce ~ad pt))
  in
  let open_us, open_words =
    Stat.per_call ~n (fun i ->
        let _, ad, nonce, ct, tag = cells.(i) in
        match Secdb_aead.Aead.decrypt aead ~nonce ~ad ~tag ct with
        | Ok _ -> ()
        | Error Secdb_aead.Aead.Invalid -> failwith "crypto: open failed")
  in
  [
    ("aead.open_us_cell", open_us, "us");
    ("aead.seal_us_cell", seal_us, "us");
    ("aead.open_words_cell", open_words, "words");
  ]

(* One protected cell read back through Encrypted_table.get: Fixed_cell
   decrypt with the address as AD, then the Value decode. *)
let cells tw (wl : W.t) =
  let db = tw.dbs.(Shard.key_index ~shards:Node.shards wl.W.cell_table) in
  let tbl = Encdb.table db wl.W.cell_table in
  let schema = Etable.schema tbl in
  let cols = Array.of_list (List.map (Schema.col_index schema) wl.W.cell_cols) in
  let rng = Rng.create ~seed:7L () in
  let n = 2000 in
  let picks =
    Array.init n (fun _ -> (Rng.int rng (Etable.nrows tbl), cols.(Rng.int rng (Array.length cols))))
  in
  let us, words =
    Stat.per_call ~n (fun i ->
        let row, col = picks.(i) in
        ignore (Etable.get tbl ~row ~col))
  in
  [ ("cell.decrypt_us", us, "us"); ("cell.decrypt_words", words, "words") ]

(* Encrypted index probe (with the row fetch) and indexed insert. *)
let index tw (wl : W.t) ~seed =
  let db = tw.dbs.(Shard.key_index ~shards:Node.shards wl.W.index_table) in
  let rng = Rng.create ~seed:(Int64.of_int seed) () in
  let n = 300 in
  let keys = Array.init n (fun _ -> wl.W.probe_key rng) in
  let (probe_us, _), probe_d =
    counting (fun () ->
        Stat.per_call ~reps:1 ~n (fun i ->
            match Encdb.select_eq db ~table:wl.W.index_table ~col:wl.W.index_col keys.(i) with
            | Ok _ -> ()
            | Error e -> failwith ("index probe: " ^ e)))
  in
  let (insert_us, _), insert_d =
    counting (fun () ->
        Stat.per_call ~reps:1 ~n (fun i -> ignore (Encdb.insert db ~table:wl.W.index_table (wl.W.fresh_row i))))
  in
  let per = float_of_int n in
  [
    ("index.probe_us", probe_us, "us");
    ("index.probe_decrypts", probe_d /. per, "count");
    ("index.insert_us", insert_us, "us");
    ("index.insert_decrypts", insert_d /. per, "count");
  ]

(* The oplog under the default Always policy, on the twin's own history:
   its first table creation and up to 600 logged loads. *)
let durability tw ~seed =
  let ops =
    List.rev tw.history |> List.filteri (fun i _ -> i < 600) |> List.map Repl.op_of_change
  in
  let n = List.length ops in
  let aead = Repl.log_aead ~master:Node.master in
  let path = "ladder.log" in
  let w =
    Oplog.create ~path ~aead ~nonce:(Repl.log_nonce ~rng:(Rng.create ~seed:(Int64.of_int seed) ())) ()
  in
  let s0 = counter "oplog.syncs" in
  let appends = Array.of_list (List.map (fun op -> snd (timed (fun () -> ignore (Oplog.append w op)))) ops) in
  let syncs = counter "oplog.syncs" -. s0 in
  let sealed = Oplog.read_sealed w ~from:0 ~max:n in
  Oplog.close w;
  let bytes = (Unix.stat path).Unix.st_size in
  let fresh () = Array.init Node.shards shard_db in
  let dbs = fresh () in
  let apply dbs op = match Repl.apply_routed dbs op with Ok () -> () | Error e -> failwith ("apply: " ^ e) in
  let _, verify_s =
    timed (fun () ->
        List.iter
          (fun (seq, record) ->
            match Oplog.verify_sealed ~aead ~seq record with
            | Ok op -> apply dbs op
            | Error e -> failwith ("verify: " ^ e))
          sealed)
  in
  let dbs = fresh () in
  let _, replay_s =
    timed (fun () ->
        match Oplog.recover ~path ~aead () with
        | Ok (ops, _) -> List.iter (fun (_, op) -> apply dbs op) ops
        | Error e -> failwith ("recover: " ^ e))
  in
  let f = Vfs.unix.Vfs.open_file ~path:"fsync.probe" ~mode:`Trunc in
  let block = String.make 128 'x' in
  let fsyncs =
    Array.init 200 (fun i ->
        Vfs.really_pwrite f ~pos:(i * 128) block;
        snd (timed f.Vfs.fsync))
  in
  f.Vfs.close ();
  let per = float_of_int (max 1 n) in
  [
    ("oplog.append_us", Stat.median appends *. 1e6, "us");
    ("vfs.fsync_us", Stat.median fsyncs *. 1e6, "us");
    ("oplog.fsyncs_per_write", syncs /. per, "count");
    ("oplog.bytes_per_write", float_of_int bytes /. per, "B");
    ("repl.verify_apply_us", verify_s *. 1e6 /. per, "us");
    ("oplog.replay_us_per_op", replay_s *. 1e6 /. per, "us");
  ]

(* --- the whole ladder ---------------------------------------------------- *)

(* [client_by_shape]: (sample count, mean client-observed latency in us)
   per shape, from the traced window over the wire. *)
let run ~workload ~seed ~client_by_shape =
  Secdb_obs.Obs.enable ();
  let wl = W.make workload ~seed in
  let tw = build wl in
  let log =
    if workload = "durable-write" then
      Some
        (Oplog.create ~path:"replay.log" ~aead:(Repl.log_aead ~master:Node.master)
           ~nonce:(Repl.log_nonce ~rng:(Rng.create ~seed:(Int64.of_int seed) ()))
           ())
    else None
  in
  let st = { ops = 0; failures = 0; words = 0.; cells = 0.; scanned = 0.; rows_out = 0. } in
  replay ~rid0:1_000_000 ~own:true ?log tw wl ~want:[] ~min_n:0 ~max_ops:400 ~budget:2.5 st;
  Option.iter Oplog.close log;
  (* the part of each replayed op its layer spans cover *)
  List.iter
    (fun (sp, self) -> if sp.Span.parent = Span.root then add sp.Span.name (Span.duration sp -. self))
    (Span.self_times (Span.all ()));
  (* the other shapes, each on its home workload's twin *)
  List.iteri
    (fun k name ->
      let want = List.filter (fun sh -> home sh = name) W.shapes in
      let other = W.make name ~seed in
      replay ~rid0:(2_000_000 + (k * 1_000_000)) ~own:false (build other) other ~want ~min_n:20
        ~max_ops:400 ~budget:2.5 st)
    (List.filter (fun n -> n <> workload) W.names);
  let rows = crypto () @ cells tw wl @ index tw wl ~seed @ durability tw ~seed in
  let us key = mean_of key *. 1e6 in
  let shape_rows =
    List.concat_map
      (fun sh ->
        let s = W.shape_name sh in
        [
          ("sql.exec_us." ^ s, us ("exec." ^ s), "us");
          ("sql.decrypts." ^ s, mean_of ("decrypts." ^ s), "count");
          ("net.dispatch_us." ^ s, us ("dispatch." ^ s), "us");
        ])
      W.shapes
  in
  (* attribution: how much of the client-observed time per op the layer
     spans of the same shape, replayed in process, cover *)
  let total, explained =
    List.fold_left
      (fun (t, e) (sh, (n, client_us)) ->
        if n = 0 then (t, e)
        else
          let layers = us ("op." ^ W.shape_name sh) in
          (t +. (float_of_int n *. client_us), e +. (float_of_int n *. Float.min layers client_us)))
      (0., 0.) client_by_shape
  in
  let per x = x /. float_of_int (max 1 st.ops) in
  if st.failures > 0 then
    failwith (Printf.sprintf "ladder: %d replayed answers differ from the model" st.failures);
  rows
  @ [
      ("table.cells_per_op", per st.cells, "count");
      ("sql.parse_us", us "parse", "us");
      ("sql.plan_us", us "plan", "us");
      ("sql.exec_us.point-snapshot", us "snapshot.point", "us");
    ]
  @ shape_rows
  @ [
      ("sql.rows_examined_per_row", (if st.rows_out > 0. then st.scanned /. st.rows_out else 0.), "count");
      ("gc.minor_words_per_op", per st.words, "words");
      ("trace.unattributed_frac", (if total > 0. then 1. -. (explained /. total) else 0.), "share");
    ]
