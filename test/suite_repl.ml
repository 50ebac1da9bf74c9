(* Replication and point-in-time recovery: sealed-record shipping between
   writers, the live primary → replica pull loop over the authenticated
   wire, Merkle-root attestation, crash matrices on both ends of the
   stream, and the two properties the design rests on — a replica is
   always an authenticated prefix of its primary, and [restore --to-op N]
   is indistinguishable from a fresh replay of the first N operations. *)

open Secdb_net
module Oplog = Secdb.Oplog
module Encdb = Secdb.Encdb
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Vfs = Secdb_storage.Vfs
module Fault = Secdb_storage.Vfs.Fault
module Xbytes = Secdb_util.Xbytes
module Rng = Secdb_util.Rng

let master = "suite-repl master key"
let auth_key = Wire.auth_key_of_master master
let seed = Int64.of_int Test_seed.seed
let aead = Repl.log_aead ~master
let nonce () = Secdb_aead.Nonce.counter ~size:16 ()

let mkdb ?(shard = 0) () =
  (* determinism is load-bearing here: primary, replica and restore build
     shard [i] with the same seed and id ranges, which is what makes the
     replayed ciphertexts — and therefore the Merkle roots — byte-equal *)
  Encdb.create
    ~seed:(Int64.add seed (Int64.of_int shard))
    ~master
    ~profile:(Encdb.Fixed Encdb.Eax)
    ~first_table_id:((shard * 1_000_000) + 1)
    ~first_index_id:((shard * 1_000_000) + 1000)
    ()

let schema =
  Schema.v ~table_name:"t"
    [ Schema.column ~protection:Schema.Clear "id" Value.Kint; Schema.column "v" Value.Ktext ]

let sample_ops n =
  let rng = Rng.create ~seed:417L () in
  Oplog.Create_table schema
  :: List.concat
       (List.init n (fun i ->
            let ins =
              Oplog.Insert
                { table = "t"; values = [ Value.Int (Int64.of_int i); Value.Text (Rng.alpha rng 8) ] }
            in
            if i mod 4 = 3 then
              [ ins; Oplog.Update { table = "t"; row = i - 1; col = "v"; value = Value.Text "e" } ]
            else [ ins ]))

let tmpdir () =
  let dir = Filename.temp_file "secdbrepl" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let with_dir f =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let contains ~affix s =
  let n = String.length affix in
  let rec go i = i + n <= String.length s && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- sealed-record shipping (no network) --------------------------------- *)

let test_ship_verify_copy () =
  with_dir @@ fun dir ->
  let ppath = Filename.concat dir "p.log" and rpath = Filename.concat dir "r.log" in
  let ops = sample_ops 12 in
  let w = Oplog.create ~path:ppath ~aead ~nonce:(nonce ()) () in
  List.iter (fun op -> ignore (Oplog.append w op)) ops;
  let records = Oplog.read_sealed w ~from:0 ~max:1000 in
  Alcotest.(check int) "all durable records ship" (Oplog.count w) (List.length records);
  (* stateless resume: a second read from any ack returns the suffix *)
  Alcotest.(check int) "resume from 5" (List.length records - 5)
    (List.length (Oplog.read_sealed w ~from:5 ~max:1000));
  (* every record verifies stand-alone at its sequence number *)
  List.iter
    (fun (seq, sealed) ->
      match Oplog.verify_sealed ~aead ~seq sealed with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "record %d rejected: %s" seq e)
    records;
  (* a replica copying them verbatim produces a byte-identical log *)
  let r = Oplog.create ~path:rpath ~aead ~nonce:(nonce ()) () in
  List.iter
    (fun (seq, sealed) ->
      match Oplog.append_sealed r sealed with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "copy of %d rejected: %s" seq e)
    records;
  Oplog.close w;
  Oplog.close r;
  let read p = In_channel.with_open_bin p In_channel.input_all in
  Alcotest.(check bool) "replica log is byte-identical" true (String.equal (read ppath) (read rpath))

let test_ship_rejects_tamper_and_splice () =
  with_dir @@ fun dir ->
  let w = Oplog.create ~path:(Filename.concat dir "p.log") ~aead ~nonce:(nonce ()) () in
  List.iter (fun op -> ignore (Oplog.append w op)) (sample_ops 4);
  let records = Oplog.read_sealed w ~from:0 ~max:1000 in
  let seq0, r0 = List.nth records 0 and seq1, r1 = List.nth records 1 in
  (* bit flip anywhere in the sealed bytes *)
  let flipped = Bytes.of_string r0 in
  Bytes.set flipped (String.length r0 / 2)
    (Char.chr (Char.code (Bytes.get flipped (String.length r0 / 2)) lxor 1));
  (match Oplog.verify_sealed ~aead ~seq:seq0 (Bytes.to_string flipped) with
  | Ok _ -> Alcotest.fail "tampered record verified"
  | Error _ -> ());
  (* a valid record presented at the wrong position (reorder/splice) *)
  (match Oplog.verify_sealed ~aead ~seq:seq0 r1 with
  | Ok _ -> Alcotest.fail "reordered record verified"
  | Error _ -> ());
  (* a replica writer enforces contiguity: next must be its own count *)
  let r = Oplog.create ~path:(Filename.concat dir "r.log") ~aead ~nonce:(nonce ()) () in
  (match Oplog.append_sealed r r1 with
  | Ok _ -> Alcotest.failf "gap accepted (record %d as first)" seq1
  | Error _ -> ());
  Alcotest.(check int) "nothing was written" 0 (Oplog.count r);
  Oplog.close w;
  Oplog.close r

let test_durable_only_ships () =
  (* a failed fsync leaves its record written but not durable *)
  let ctl = Fault.make ~seed:3 () in
  let w = Oplog.create ~vfs:(Fault.vfs ctl) ~path:"mem:p.log" ~aead ~nonce:(nonce ()) () in
  let shipped () = List.map fst (Oplog.read_sealed w ~from:0 ~max:1000) in
  let ops = sample_ops 2 in
  ignore (Oplog.append w (List.hd ops));
  Fault.fail_op ctl ~op:`Fsync ~after:1 ~err:`EIO;
  (match Oplog.append w (List.nth ops 1) with
  | _ -> Alcotest.fail "injected fsync failure did not surface"
  | exception Vfs.Io_error _ -> ());
  Alcotest.(check (pair int int)) "count and durable" (2, 1) (Oplog.count w, Oplog.durable w);
  Alcotest.(check (list int)) "unsynced records do not ship" [ 0 ] (shipped ());
  Oplog.sync w;
  Alcotest.(check (list int)) "synced records ship" [ 0; 1 ] (shipped ());
  Oplog.close w

let test_resume_continues_history () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "p.log" in
  let rng = Rng.create ~seed:9L () in
  let w = Oplog.create ~mode:`Resume ~path ~aead ~nonce:(Repl.log_nonce ~rng) () in
  Alcotest.(check int) "fresh resume starts empty" 0 (Oplog.count w);
  List.iter (fun op -> ignore (Oplog.append w op)) (sample_ops 5);
  let n = Oplog.count w in
  Oplog.close w;
  let w = Oplog.create ~mode:`Resume ~path ~aead ~nonce:(Repl.log_nonce ~rng) () in
  Alcotest.(check int) "resume seats the recovered count" n (Oplog.count w);
  ignore (Oplog.append w (Oplog.Insert { table = "t"; values = [ Value.Int 99L; Value.Text "x" ] }));
  Oplog.close w;
  match Oplog.replay ~path ~aead () with
  | Ok ops -> Alcotest.(check int) "whole log still authenticates" (n + 1) (List.length ops)
  | Error e -> Alcotest.failf "replay after resume: %s" e

(* --- live primary → replica over the wire -------------------------------- *)

let shards = 2

let with_cluster ?(replica_log = false) f =
  with_dir @@ fun dir ->
  let ppath = Filename.concat dir "primary.log" in
  let w = Oplog.create ~path:ppath ~aead ~nonce:(nonce ()) () in
  let config = Server.config ~auth_key ~shards () in
  let psock = Filename.concat dir "p.sock" in
  let primary =
    match
      Server.create ~seed:7L ~role:(Server.Primary w) ~config
        ~db:(fun shard -> mkdb ~shard ())
        (Wire.Unix_sock psock)
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "primary: %s" e
  in
  Server.start primary;
  let rsock = Filename.concat dir "r.sock" in
  let rwriter =
    if replica_log then
      Some (Oplog.create ~path:(Filename.concat dir "replica.log") ~aead ~nonce:(nonce ()) ())
    else None
  in
  let replica =
    match
      Server.create ~seed:8L ~role:(Server.Replica { initial_applied = 0 }) ~config
        ~db:(fun shard -> mkdb ~shard ())
        (Wire.Unix_sock rsock)
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "replica: %s" e
  in
  Server.start replica;
  let stop_pull = Atomic.make false in
  let applied = ref 0 in
  let puller =
    Thread.create
      (fun () ->
        Repl.run_replica
          ~connect:(fun () ->
            Client.connect ~attempts:1 ~backoff:0.01 ~seed ~auth_key (Wire.Unix_sock psock))
          ~aead ?writer:rwriter
          ~ack:(fun () ->
            match rwriter with Some w -> Oplog.count w | None -> !applied)
          ~apply:(fun op ->
            match Server.apply_op replica op with
            | Ok () ->
                incr applied;
                Ok ()
            | Error _ as e -> e)
          ~poll:0.01
          ~stop:(fun () -> Atomic.get stop_pull)
          ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop_pull true;
      (match Thread.join puller with () -> () | exception _ -> ());
      Server.stop primary;
      Server.stop replica;
      (match rwriter with Some w -> (try Oplog.close w with _ -> ()) | None -> ());
      try Oplog.close w with _ -> ())
    (fun () -> f ~primary:(Wire.Unix_sock psock) ~replica:(Wire.Unix_sock rsock) ~pwriter:w)

let connect ?(key = auth_key) addr =
  match Client.connect ~attempts:20 ~backoff:0.02 ~seed ~auth_key:key addr with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let sql c stmt =
  match Client.call c (Wire.Sql stmt) with
  | Ok (Wire.Outcome o) -> o
  | Ok _ -> Alcotest.failf "sql %S: unexpected response" stmt
  | Error e -> Alcotest.failf "sql %S: %s" stmt (Client.error_to_string e)

let root_of c =
  match Client.call c Wire.Repl_root with
  | Ok (Wire.Root { applied; root }) -> (applied, root)
  | Ok _ -> Alcotest.fail "repl_root: unexpected response"
  | Error e -> Alcotest.failf "repl_root: %s" (Client.error_to_string e)

(* wait (bounded) until the replica has applied [n] ops *)
let await_applied c n =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let applied, root = root_of c in
    if applied >= n then (applied, root)
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "replica stuck at %d/%d ops" applied n
    else (
      Thread.delay 0.02;
      go ())
  in
  go ()

let test_replica_catches_up () =
  with_cluster ~replica_log:true @@ fun ~primary ~replica ~pwriter:_ ->
  let pc = connect primary in
  ignore (sql pc "CREATE TABLE users (id INT, name TEXT)");
  ignore (sql pc "CREATE TABLE orders (id INT, item TEXT)");
  for i = 1 to 20 do
    ignore (sql pc (Printf.sprintf "INSERT INTO users VALUES (%d, 'u%d')" i i));
    ignore (sql pc (Printf.sprintf "INSERT INTO orders VALUES (%d, 'o%d')" i i))
  done;
  let pc_applied, proot = root_of pc in
  let rc = connect replica in
  let r_applied, rroot = await_applied rc pc_applied in
  Alcotest.(check int) "replica reaches the primary's op count" pc_applied r_applied;
  Alcotest.(check string) "attested roots agree" (Xbytes.to_hex proot) (Xbytes.to_hex rroot);
  (* the replica answers the same SQL with the same rows *)
  let q = "SELECT name FROM users WHERE id = 7" in
  Alcotest.(check string) "replica serves the primary's data"
    (Fmt.str "%a" Secdb_sql.Engine.pp_result (sql pc q))
    (Fmt.str "%a" Secdb_sql.Engine.pp_result (sql rc q));
  Client.close pc;
  Client.close rc

let test_replica_rejects_writes () =
  with_cluster @@ fun ~primary ~replica ~pwriter:_ ->
  let pc = connect primary in
  ignore (sql pc "CREATE TABLE t (id INT, v TEXT)");
  ignore (sql pc "INSERT INTO t VALUES (1, 'a')");
  let _, _ = root_of pc in
  let rc = connect replica in
  ignore (await_applied rc 2);
  (* every mutating form is refused with a structured error *)
  List.iter
    (fun req ->
      match Client.call rc req with
      | Error (Client.Remote (Wire.App, msg)) when contains ~affix:"read-only" msg -> ()
      | Ok _ -> Alcotest.failf "replica accepted a mutation (%s)" (Wire.op_name req)
      | Error e ->
          Alcotest.failf "unexpected rejection for %s: %s" (Wire.op_name req)
            (Client.error_to_string e))
    [
      Wire.Sql "INSERT INTO t VALUES (2, 'b')";
      Wire.Sql "UPDATE t SET v = 'z' WHERE id = 1";
      Wire.Sql "DELETE FROM t WHERE id = 1";
      Wire.Sql "CREATE TABLE u (id INT)";
    ];
  (* reads still work *)
  (match Client.call rc (Wire.Sql "SELECT v FROM t WHERE id = 1") with
  | Ok (Wire.Outcome _) -> ()
  | _ -> Alcotest.fail "replica refused a SELECT");
  (* and a replica is not a primary: pulls are refused *)
  (match Client.call rc (Wire.Repl_pull { ack = 0; max = 10 }) with
  | Error (Client.Remote (Wire.App, msg)) when contains ~affix:"primary" msg -> ()
  | _ -> Alcotest.fail "replica answered a pull");
  Client.close pc;
  Client.close rc

let test_two_replicas_one_primary () =
  with_cluster @@ fun ~primary ~replica ~pwriter:_ ->
  (* the second replica keeps no local log: verify-then-apply only *)
  let applied2 = ref 0 in
  let dbs2 = Array.init shards (fun shard -> mkdb ~shard ()) in
  let stop2 = Atomic.make false in
  let p2 =
    Thread.create
      (fun () ->
        Repl.run_replica
          ~connect:(fun () -> Client.connect ~attempts:1 ~backoff:0.01 ~seed ~auth_key primary)
          ~aead
          ~ack:(fun () -> !applied2)
          ~apply:(fun op ->
            match Repl.apply_routed dbs2 op with
            | Ok () ->
                incr applied2;
                Ok ()
            | Error _ as e -> e)
          ~poll:0.01
          ~stop:(fun () -> Atomic.get stop2)
          ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop2 true;
      try Thread.join p2 with _ -> ())
    (fun () ->
      let pc = connect primary in
      ignore (sql pc "CREATE TABLE t (id INT, v TEXT)");
      for i = 1 to 15 do
        ignore (sql pc (Printf.sprintf "INSERT INTO t VALUES (%d, 'v%d')" i i))
      done;
      let n, proot = root_of pc in
      let rc = connect replica in
      let _, rroot = await_applied rc n in
      Alcotest.(check string) "server replica root" (Xbytes.to_hex proot) (Xbytes.to_hex rroot);
      let deadline = Unix.gettimeofday () +. 10. in
      while !applied2 < n && Unix.gettimeofday () < deadline do
        Thread.delay 0.02
      done;
      Alcotest.(check int) "logless replica caught up" n !applied2;
      Alcotest.(check string) "logless replica root" (Xbytes.to_hex proot)
        (Xbytes.to_hex (Repl.root_of_dbs dbs2));
      Client.close pc;
      Client.close rc)

(* --- crash matrices -------------------------------------------------------

   The fault VFS makes every pwrite of a replicated workload a crash
   point.  Shipping only durable records is what makes the matrices pass:
   whatever the moment of the crash, a replica can hold at most what the
   primary's surviving image still authenticates. *)

(* ship every durable record the replica does not have yet, verbatim *)
let ship_all w r =
  let rec go () =
    match Oplog.read_sealed w ~from:(Oplog.count r) ~max:64 with
    | [] -> ()
    | records ->
        List.iter
          (fun (seq, sealed) ->
            match Oplog.append_sealed r sealed with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "ship of %d: %s" seq e)
          records;
        go ()
  in
  go ()

let is_string_prefix ~of_:s p =
  String.length p <= String.length s && String.equal (String.sub s 0 (String.length p)) p

(* Primary on a disk that crashes at pwrite [k], continuously shipping to
   a replica on its own healthy disk.  Returns (primary image, replica
   image, crashed).  The replica log is a verbatim copy, so "replica is
   an authenticated prefix of the primary" is literally a byte-prefix
   check on the two durable images. *)
let primary_crash_run ~seed ~k ops =
  let ctl = Fault.make ~seed () in
  Fault.crash_after_writes ctl k;
  let rctl = Fault.make ~seed:(seed + 1) () in
  let r = Oplog.create ~vfs:(Fault.vfs rctl) ~path:"mem:r.log" ~aead ~nonce:(nonce ()) () in
  (try
     let w = Oplog.create ~vfs:(Fault.vfs ctl) ~path:"mem:p.log" ~aead ~nonce:(nonce ()) () in
     List.iter
       (fun op ->
         ignore (Oplog.append w op);
         ship_all w r)
       ops;
     Oplog.close w
   with Vfs.Crashed _ | Vfs.Io_error _ -> ());
  (try Oplog.close r with Vfs.Crashed _ | Vfs.Io_error _ -> ());
  let img ctl path = try Fault.dump ctl ~path with Vfs.Io_error _ -> "" in
  (img ctl "mem:p.log", img rctl "mem:r.log", Fault.crashed ctl)

let test_crash_matrix_primary () =
  let ops = sample_ops 8 in
  let k = ref 1 and live = ref true in
  while !live do
    let pimg, rimg, crashed = primary_crash_run ~seed:(1100 + !k) ~k:!k ops in
    if not crashed then live := false
    else begin
      if not (is_string_prefix ~of_:pimg rimg) then
        Alcotest.failf "crash at write %d: replica is not a byte-prefix of the primary" !k;
      (* the surviving primary image must itself recover, and a resumed
         writer must seat exactly the recovered history *)
      with_dir (fun dir ->
          let path = Filename.concat dir "p.log" in
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc pimg);
          match Oplog.recover ~path ~aead () with
          | Error e -> Alcotest.failf "crash at write %d: recover: %s" !k e
          | Ok (recovered, _) ->
              let rng = Rng.create ~seed:(Int64.of_int !k) () in
              let w = Oplog.create ~mode:`Resume ~path ~aead ~nonce:(Repl.log_nonce ~rng) () in
              Alcotest.(check int)
                (Printf.sprintf "crash at write %d: resume count" !k)
                (List.length recovered) (Oplog.count w);
              Oplog.close w)
    end;
    incr k
  done

let test_crash_matrix_replica () =
  with_dir @@ fun dir ->
  (* healthy primary: its full log is the reference bytes *)
  let ppath = Filename.concat dir "p.log" in
  let w = Oplog.create ~path:ppath ~aead ~nonce:(nonce ()) () in
  List.iter (fun op -> ignore (Oplog.append w op)) (sample_ops 6);
  let records = Oplog.read_sealed w ~from:0 ~max:1000 in
  Oplog.close w;
  let pbytes = In_channel.with_open_bin ppath In_channel.input_all in
  let k = ref 1 and live = ref true in
  while !live do
    let ctl = Fault.make ~seed:(2200 + !k) () in
    Fault.crash_after_writes ctl !k;
    let copied = ref 0 in
    (try
       let r = Oplog.create ~vfs:(Fault.vfs ctl) ~path:"mem:r.log" ~aead ~nonce:(nonce ()) () in
       List.iter
         (fun (seq, sealed) ->
           match Oplog.append_sealed r sealed with
           | Ok _ -> copied := seq + 1
           | Error e -> Alcotest.failf "copy of %d: %s" seq e)
         records;
       Oplog.close r
     with Vfs.Crashed _ | Vfs.Io_error _ -> ());
    if not (Fault.crashed ctl) then live := false
    else begin
      (* the torn replica image recovers to an authenticated prefix; a
         resumed writer catches up from the primary and ends byte-identical *)
      let rpath = Filename.concat dir (Printf.sprintf "r%d.log" !k) in
      Out_channel.with_open_bin rpath (fun oc ->
          Out_channel.output_string oc (try Fault.dump ctl ~path:"mem:r.log" with Vfs.Io_error _ -> ""));
      let rng = Rng.create ~seed:(Int64.of_int (77 + !k)) () in
      let r = Oplog.create ~mode:`Resume ~path:rpath ~aead ~nonce:(Repl.log_nonce ~rng) () in
      List.iter
        (fun (seq, sealed) ->
          if seq >= Oplog.count r then
            match Oplog.append_sealed r sealed with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "crash at write %d: catch-up of %d: %s" !k seq e)
        records;
      Oplog.close r;
      let rbytes = In_channel.with_open_bin rpath In_channel.input_all in
      if not (String.equal pbytes rbytes) then
        Alcotest.failf "crash at write %d: resumed replica diverges from the primary" !k;
      Sys.remove rpath
    end;
    incr k
  done

(* --- properties ----------------------------------------------------------- *)

let qc = Test_seed.qc

let prop_replica_prefix =
  QCheck2.Test.make ~name:"replica is a byte-prefix of the primary under any fault schedule"
    ~count:60
    QCheck2.Gen.(triple (int_range 1 15) (int_range 1 90) (int_range 0 1000))
    (fun (nops, k, seed) ->
      let pimg, rimg, _ = primary_crash_run ~seed ~k (sample_ops nops) in
      is_string_prefix ~of_:pimg rimg)

let prop_restore_equiv =
  (* the ops a random script encodes, via two tables on different shards *)
  let script_ops script =
    let schema name =
      Schema.v ~table_name:name
        [ Schema.column ~protection:Schema.Clear "id" Value.Kint; Schema.column "v" Value.Ktext ]
    in
    Oplog.Create_table (schema "a")
    :: Oplog.Create_table (schema "b")
    :: List.map
         (fun (t, v) ->
           Oplog.Insert
             {
               table = (if t = 0 then "a" else "b");
               values = [ Value.Int (Int64.of_int v); Value.Text (string_of_int v) ];
             })
         script
  in
  QCheck2.Test.make ~name:"restore --to-op N = fresh replay of the first N ops" ~count:25
    QCheck2.Gen.(pair (list_size (int_range 0 20) (pair (int_bound 1) small_int)) (int_bound 100))
    (fun (script, pick) ->
      with_dir @@ fun dir ->
      let path = Filename.concat dir "p.log" in
      let ops = script_ops script in
      let w = Oplog.create ~path ~aead ~nonce:(nonce ()) () in
      List.iter (fun op -> ignore (Oplog.append w op)) ops;
      Oplog.close w;
      let total = List.length ops in
      let n = pick mod (total + 1) in
      match
        Repl.restore ~path ~aead ~shards ~mkdb:(fun shard -> mkdb ~shard ()) ~to_op:n ()
      with
      | Error e -> QCheck2.Test.fail_reportf "restore: %s" e
      | Ok (restored, applied) ->
          let fresh = Array.init shards (fun shard -> mkdb ~shard ()) in
          List.iteri
            (fun i op ->
              if i < n then
                match Repl.apply_routed fresh op with
                | Ok () -> ()
                | Error e -> QCheck2.Test.fail_reportf "replay op %d: %s" i e)
            ops;
          applied = n
          && String.equal
               (Xbytes.to_hex (Repl.root_of_dbs restored))
               (Xbytes.to_hex (Repl.root_of_dbs fresh)))

let test_restore_beyond_prefix_fails () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "p.log" in
  let w = Oplog.create ~path ~aead ~nonce:(nonce ()) () in
  List.iter (fun op -> ignore (Oplog.append w op)) (sample_ops 3);
  let total = Oplog.count w in
  Oplog.close w;
  match Repl.restore ~path ~aead ~shards ~mkdb:(fun shard -> mkdb ~shard ()) ~to_op:(total + 1) () with
  | Ok _ -> Alcotest.fail "restore past the authenticated prefix succeeded"
  | Error e ->
      Alcotest.(check bool) "error names the prefix length" true
        (contains ~affix:(string_of_int total) e)

(* --- client retry classification ------------------------------------------ *)

(* a listener that accepts and immediately hangs up: every dial is a
   transient I/O failure, so the client must burn its attempts *)
let test_connect_retries_transient_io () =
  (* the handshake write can land on an already-closed socket *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_dir @@ fun dir ->
  let path = Filename.concat dir "slam.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  let accepts = ref 0 in
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ fd ] [] [] 0.05 with
          | [ _ ], _, _ ->
              let c, _ = Unix.accept fd in
              incr accepts;
              Unix.close c
          | _ -> ()
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th;
      Unix.close fd)
    (fun () ->
      match Client.connect ~attempts:3 ~backoff:0.01 ~seed ~auth_key (Wire.Unix_sock path) with
      | Ok _ -> Alcotest.fail "connected to a connection-slamming listener"
      | Error _ -> Alcotest.(check bool) "retried on fresh sockets" true (!accepts >= 2))

let test_connect_refusal_is_immediate () =
  with_dir @@ fun dir ->
  let sock = Filename.concat dir "s.sock" in
  let srv =
    match
      Server.create ~seed:7L ~config:(Server.config ~auth_key ())
        ~db:(fun shard -> mkdb ~shard ())
        (Wire.Unix_sock sock)
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "server: %s" e
  in
  Server.start srv;
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match
     Client.connect ~attempts:8 ~backoff:0.3 ~seed
       ~auth_key:(Wire.auth_key_of_master "some other master")
       (Wire.Unix_sock sock)
   with
  | Ok _ -> Alcotest.fail "authenticated with the wrong credential"
  | Error msg ->
      Alcotest.(check bool) "the error names authentication" true
        (contains ~affix:"auth" (String.lowercase_ascii msg)));
  (* 8 attempts at 0.3 s doubling backoff would take half a minute: a
     credential rejection must fail without touching the retry budget *)
  Alcotest.(check bool) "refusal did not retry" true (Unix.gettimeofday () -. t0 < 1.0)

let suites =
  [
    ( "repl:ship",
      [
        Alcotest.test_case "verify and copy" `Quick test_ship_verify_copy;
        Alcotest.test_case "tamper and splice rejected" `Quick test_ship_rejects_tamper_and_splice;
        Alcotest.test_case "only durable records ship" `Quick test_durable_only_ships;
        Alcotest.test_case "resume continues history" `Quick test_resume_continues_history;
      ] );
    ( "repl:live",
      [
        Alcotest.test_case "replica catches up, roots agree" `Quick test_replica_catches_up;
        Alcotest.test_case "replica is read-only" `Quick test_replica_rejects_writes;
        Alcotest.test_case "two replicas, one primary" `Quick test_two_replicas_one_primary;
      ] );
    ( "repl:crash",
      [
        Alcotest.test_case "primary crash matrix" `Quick test_crash_matrix_primary;
        Alcotest.test_case "replica crash matrix" `Quick test_crash_matrix_replica;
        Alcotest.test_case "restore past the prefix fails" `Quick test_restore_beyond_prefix_fails;
      ] );
    ("repl:props", [ qc prop_replica_prefix; qc prop_restore_equiv ]);
    ( "repl:client",
      [
        Alcotest.test_case "transient I/O retries" `Quick test_connect_retries_transient_io;
        Alcotest.test_case "credential refusal is immediate" `Quick test_connect_refusal_is_immediate;
      ] );
  ]
