(* Equivalence gate and primitive throughput suite for the encryption stack:

     - [--check]: byte-for-byte equivalence of the kernel and fallback cipher
       paths, GCM against a reference construction, the degraded fault VFS,
       every candidate SQL plan (with pinned cell-decrypt counts) and the wire
       against in-process dispatch;
     - cipher x mode MB/s on the [Block.into] kernel path, against the same
       T-table AES forced through the generic string fallback — the kernel
       speedup numbers;
     - AEAD and GHASH MB/s over the fast AES;
     - observability and VFS passthrough overhead.

   The serving, replication and per-statement SQL costs are measured end to
   end against the real server by [secbench/], not here.

   Usage:

     dune exec bench/perf.exe              # full run, writes BENCH_perf.json
     dune exec bench/perf.exe -- --fast    # reduced workloads
     dune exec bench/perf.exe -- --check   # equality checks only, output is
                                           # deterministic (used by cram)

   [--check] prints nothing but the verdict, so the cram test stays stable
   while still running every equivalence check end to end. *)

open Secdb_util
module Block = Secdb_cipher.Block
module Mode = Secdb_modes.Mode
module Value = Secdb_db.Value
module Address = Secdb_db.Address
module Vfs = Secdb_storage.Vfs
module Pager = Secdb_storage.Pager
module Blob_store = Secdb_storage.Blob_store

let key = Xbytes.of_hex "000102030405060708090a0b0c0d0e0f"
let key_mac = Xbytes.of_hex "ffeeddccbbaa99887766554433221100"
let aes_fast = Secdb_cipher.Aes_fast.cipher ~key

(* The same keyed T-table AES with the fast path stripped: every mode then
   runs block-at-a-time through the [string -> string] closures, exactly as
   the pre-kernel code did.  Comparing against this isolates the kernel win
   from the (identical) round function. *)
let aes_string =
  Block.v ~name:"aes-string" ~block_size:16 ~encrypt:aes_fast.Block.encrypt
    ~decrypt:aes_fast.Block.decrypt ()

let aes_ref = Secdb_cipher.Aes.cipher ~key
let des = Secdb_cipher.Des.cipher ~key:(String.sub key 0 8)
let des3 = Secdb_cipher.Des3.cipher ~key:(key ^ String.sub key_mac 0 8)

(* ------------------------------------------------------------ timing -- *)

let now = Unix.gettimeofday

(* Seconds per call: double the repetition count until a batch runs for at
   least [min_time], then keep the fastest of three batches at that count
   (minimum-of-N damps scheduler and GC noise on a shared machine). *)
let time_per_call ~min_time f =
  ignore (f ());
  let batch reps =
    let t0 = now () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    now () -. t0
  in
  let rec calibrate reps =
    let dt = batch reps in
    if dt >= min_time then (reps, dt) else calibrate (reps * 2)
  in
  let reps, dt0 = calibrate 1 in
  let best = min (min dt0 (batch reps)) (batch reps) in
  best /. float_of_int reps

(* -------------------------------------------------------- workloads -- *)

let payload n =
  String.init n (fun i -> Char.chr (((i * 131) + (i lsr 8)) land 0xff))

let nonce16 = String.init 16 (fun i -> Char.chr (0xf0 lxor i))

(* The payload is built once per (cipher, mode) pair, outside the timed
   closure, so the numbers measure the mode and nothing else. *)
let modes (c : Block.t) len =
  let iv = String.sub nonce16 0 c.Block.block_size in
  let data = payload len in
  [
    ("ecb", fun () -> Mode.ecb_encrypt c data);
    ("cbc-enc", fun () -> Mode.cbc_encrypt c ~iv data);
    ("cbc-dec", fun () -> Mode.cbc_decrypt c ~iv data);
    ("ctr", fun () -> Mode.ctr c ~nonce:iv data);
    ("ofb", fun () -> Mode.ofb c ~iv data);
    ("cfb-enc", fun () -> Mode.cfb_encrypt c ~iv data);
  ]

let aeads =
  [
    ("eax", Secdb_aead.Eax.make aes_fast);
    ("ocb+pmac", Secdb_aead.Ocb.make aes_fast);
    ("ccfb", Secdb_aead.Ccfb.make aes_fast);
    ("gcm", Secdb_aead.Gcm.make aes_fast);
    ( "etm(hmac)",
      Secdb_aead.Compose.encrypt_then_mac ~cipher:aes_fast ~mac_key:key_mac () );
    ( "siv",
      Secdb_aead.Siv.make (Secdb_cipher.Aes_fast.cipher ~key:key_mac) aes_fast );
  ]

(* ------------------------------------------------------------ checks -- *)

let check_failures = ref []
let fail_check fmt = Printf.ksprintf (fun s -> check_failures := s :: !check_failures) fmt

let check_kernel_vs_string () =
  (* the kernel path and the string fallback must agree byte for byte on
     every mode, for both directions *)
  let data = payload 1024 in
  List.iter2
    (fun (name, f) (_, g) ->
      if f () <> g () then fail_check "kernel/string mismatch: %s" name)
    (modes aes_fast 1024) (modes aes_string 1024);
  let ct = Mode.cbc_encrypt aes_fast ~iv:nonce16 data in
  if Mode.cbc_decrypt aes_string ~iv:nonce16 ct <> data then
    fail_check "cbc roundtrip across paths";
  (* the byte-wise reference AES agrees with the kernel *)
  if Mode.ctr aes_ref ~nonce:nonce16 data <> Mode.ctr aes_fast ~nonce:nonce16 data then
    fail_check "aes-ref vs aes-fast ctr"

(* GCM reference construction, assembled from the bit-by-bit GHASH oracle
   and block-at-a-time CTR on the string closure: j0 = nonce || 00000001,
   keystream counts from 2, tag = E(j0) xor GHASH(pad(A) || pad(C) || lens).
   The table-driven AEAD must reproduce this byte for byte. *)
let gcm_reference ~nonce ~ad msg =
  let enc = aes_fast.Block.encrypt in
  let h = enc (String.make 16 '\000') in
  let cblock i =
    let b = Bytes.create 16 in
    Bytes.blit_string nonce 0 b 0 12;
    Xbytes.set_uint32_be b 12 i;
    enc (Bytes.unsafe_to_string b)
  in
  let n = String.length msg in
  let ct = Bytes.of_string msg in
  let i = ref 2 and off = ref 0 in
  while !off < n do
    let l = min 16 (n - !off) in
    Xbytes.xor_into ~src:(Xbytes.take l (cblock !i)) ~dst:ct ~dst_off:!off;
    incr i;
    off := !off + l
  done;
  let ct = Bytes.unsafe_to_string ct in
  let pad16 s =
    let r = String.length s mod 16 in
    if r = 0 then s else s ^ String.make (16 - r) '\000'
  in
  let len64 s = Xbytes.int64_to_be_string (Int64.of_int (8 * String.length s)) in
  let s =
    Secdb_aead.Gcm.ghash_ref ~h (pad16 ad ^ pad16 ct ^ len64 ad ^ len64 ct)
  in
  (ct, Xbytes.xor_exact (cblock 1) s)

let check_gcm_vs_reference () =
  (* the Shoup-table GHASH against the bit-by-bit oracle, on lengths that
     exercise the word loop and the single-block path *)
  let h = String.sub (payload 48) 16 16 in
  List.iter
    (fun n ->
      let data = payload n in
      if Secdb_aead.Gcm.ghash ~h data <> Secdb_aead.Gcm.ghash_ref ~h data then
        fail_check "ghash table vs bit-by-bit reference at %d bytes" n)
    [ 0; 16; 160; 1024 ];
  (* the production GCM against the independent reference construction,
     including the partial-block tail and empty edge cases *)
  let gcm = List.assoc "gcm" aeads in
  let nonce = String.make 12 'G' in
  List.iter
    (fun n ->
      let msg = payload n in
      let ad = payload (n mod 37) in
      let ct, tag = Secdb_aead.Aead.encrypt gcm ~nonce ~ad msg in
      let ct', tag' = gcm_reference ~nonce ~ad msg in
      if ct <> ct' || tag <> tag' then
        fail_check "gcm vs reference construction at %d bytes" n;
      (match Secdb_aead.Aead.decrypt gcm ~nonce ~ad ~tag ct with
      | Ok m when m = msg -> ()
      | Ok _ | Error _ -> fail_check "gcm decrypt roundtrip at %d bytes" n);
      if n > 0 then
        match
          Secdb_aead.Aead.decrypt gcm ~nonce ~ad ~tag (Xbytes.flip_bit ct 3)
        with
        | Error Secdb_aead.Aead.Invalid -> ()
        | Ok _ -> fail_check "gcm accepted tampered ciphertext at %d bytes" n)
    [ 0; 1; 16; 33; 1024 ]

let check_fault_vfs () =
  (* the fault backend with every degradation on — short reads and torn
     writes at every call — must be functionally invisible, because the
     storage layer loops through the robust helpers; the durable images
     must come out byte-identical *)
  let image degraded =
    let ctl = Vfs.Fault.make ~seed:11 () in
    if degraded then begin
      Vfs.Fault.set_short_reads ctl true;
      Vfs.Fault.set_torn_writes ctl true
    end;
    let vfs = Vfs.Fault.vfs ctl in
    let p = Pager.create ~path:"mem:perf.pg" ~page_size:128 ~vfs () in
    let store = Blob_store.attach p in
    let id = Blob_store.store store (String.make 1500 'p') in
    (match Blob_store.load store id with
    | Ok s when s = String.make 1500 'p' -> ()
    | Ok _ | Error _ -> fail_check "fault vfs: blob roundtrip");
    Pager.close p;
    Vfs.Fault.dump ctl ~path:"mem:perf.pg"
  in
  if image false <> image true then fail_check "fault vfs: degraded image differs"

(* --- networked path: in-process server + client over a Unix socket ------ *)

let net_master = "perf wire master key"

let net_db ?(shard = 0) () =
  Secdb.Encdb.create
    ~seed:(Int64.add 5L (Int64.of_int shard))
    ~master:net_master
    ~profile:(Secdb.Encdb.Fixed Secdb.Encdb.Eax)
    ~first_table_id:((shard * 1_000_000) + 1)
    ~first_index_id:((shard * 1_000_000) + 1000)
    ()

let with_net_server f =
  let dir = Filename.temp_file "secdb_perf_net" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "s.sock" in
  let auth_key = Secdb_net.Wire.auth_key_of_master net_master in
  let srv =
    match
      Secdb_net.Server.create ~seed:9L
        ~config:(Secdb_net.Server.config ~auth_key ())
        ~db:(fun shard -> net_db ~shard ())
        (Secdb_net.Wire.Unix_sock path)
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  Secdb_net.Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Secdb_net.Server.stop srv;
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f (Secdb_net.Wire.Unix_sock path) auth_key)

let with_net_client f =
  with_net_server (fun addr auth_key ->
      let c =
        match Secdb_net.Client.connect ~attempts:20 ~backoff:0.02 ~seed:3L ~auth_key addr with
        | Ok c -> c
        | Error e -> failwith e
      in
      Fun.protect ~finally:(fun () -> Secdb_net.Client.close c) (fun () -> f c))

let check_net () =
  (* a pipelined burst over the socket must return, byte for byte, what the
     server's own dispatcher produces in process on an identical database *)
  let reqs =
    [
      Secdb_net.Wire.Sql "CREATE TABLE n (id INT CLEAR, v TEXT)";
      Secdb_net.Wire.Sql "INSERT INTO n VALUES (0, 'zero')";
      Secdb_net.Wire.Sql "INSERT INTO n VALUES (1, 'one')";
      Secdb_net.Wire.Sql "SELECT v FROM n WHERE id = 1";
      Secdb_net.Wire.Sql "SELECT count(*) FROM n";
      Secdb_net.Wire.Sql "SELECT no_such_fn(1) FROM n";
    ]
  in
  with_net_client (fun c ->
      let over_wire = Secdb_net.Client.pipeline c reqs in
      let ref_db = net_db () in
      List.iter2
        (fun got req ->
          match (got, Secdb_net.Server.dispatch ref_db req) with
          | Ok a, Ok b when Secdb_net.Wire.encode_resp a = Secdb_net.Wire.encode_resp b -> ()
          | Error (Secdb_net.Client.Remote (ca, ma)), Error (cb, mb) when ca = cb && ma = mb -> ()
          | _ -> fail_check "net: wire result differs from in-process dispatch")
        over_wire reqs)

(* --- adaptive planner byte-identity -------------------------------------- *)

module SE = Secdb_sql.Engine
module SA = Secdb_sql.Ast
module SPl = Secdb_sql.Plan
module SP = Secdb_sql.Parser
module SSnap = Secdb_sql.Snapshot

(* two tables with an exact index, a range index and a joinable key, so
   every access path and both join strategies are live candidates *)
let planner_db () =
  let db =
    Secdb.Encdb.create ~master:"perf planner" ~profile:(Secdb.Encdb.Fixed Secdb.Encdb.Eax) ()
  in
  let run sql =
    match SE.exec db sql with Ok _ -> () | Error e -> failwith ("planner db: " ^ sql ^ ": " ^ e)
  in
  run "CREATE TABLE orders (id INT CLEAR, cust INT, total INT)";
  run "CREATE TABLE custs (id INT CLEAR, cust INT, region INT)";
  for i = 0 to 159 do
    run (Printf.sprintf "INSERT INTO orders VALUES (%d, %d, %d)" i (i mod 40) (i * 7 mod 1000))
  done;
  for i = 0 to 39 do
    run (Printf.sprintf "INSERT INTO custs VALUES (%d, %d, %d)" i (i mod 40) (i mod 5))
  done;
  run "CREATE INDEX ON orders (total)";
  run "CREATE RANGE INDEX ON orders (total) BUCKETS 8";
  run "CREATE INDEX ON custs (cust)";
  db

(* label, query, and the exact [table.cells_decrypted] its adaptive plan
   costs on [planner_db ()]: a cell is decrypted the first time the
   statement reads it, so these counts pin the executor's evaluation order
   as well as its plan *)
let planner_queries =
  [
    ("point", "SELECT * FROM orders WHERE total = 630", 2);
    ( "range",
      "SELECT id, total FROM orders WHERE total BETWEEN 100 AND 220 ORDER BY total DESC",
      19 );
    ("order-limit", "SELECT * FROM orders ORDER BY total DESC LIMIT 5", 165);
    ( "join",
      "SELECT * FROM orders JOIN custs ON orders.cust = custs.cust WHERE total BETWEEN 0 AND \
       400 ORDER BY region LIMIT 20",
      230 );
    ( "group-by",
      "SELECT cust, COUNT(*), SUM(total) FROM orders WHERE total < 300 GROUP BY cust",
      120 );
    ("or-not", "SELECT id, total FROM orders WHERE total < 100 OR NOT cust < 30", 290);
  ]

(* UPDATE/DELETE by the unindexed [cust] column (each value on 4 of the
   160 rows), run after the SELECTs: label, statement, its pinned
   [table.cells_decrypted], and a count every plan must agree on after it *)
let planner_dml =
  [
    ( "update-by-cust",
      "UPDATE orders SET total = 999 WHERE cust = 7",
      164,
      ("cust = 7 AND total = 999", 4) );
    ("delete-by-cust", "DELETE FROM orders WHERE NOT cust < 39", 168, ("cust = 39", 0));
  ]

let planner_select sql =
  match SP.parse sql with Ok (SA.Select s) -> s | _ -> failwith ("planner parse: " ^ sql)

let cells_decrypted () = Secdb_obs.Metrics.(value (counter "table.cells_decrypted"))

(* [f ()]'s result and the cells it decrypted *)
let counting_cells f =
  let c0 = cells_decrypted () in
  let r = f () in
  (r, cells_decrypted () - c0)

let check_cells label ~pinned cells =
  if cells <> pinned then
    fail_check "planner %s: %d cells decrypted, pinned %d" label cells pinned

(* whatever the cost model picks, every candidate plan — and the lock-free
   snapshot path, where it volunteers — must return the same bytes; a
   planner bug may cost latency, never answers *)
let check_plans db snap label s ~adaptive =
  List.iter
    (fun p ->
      match SE.exec_plan db s p with
      | Ok r ->
          if r <> adaptive then
            fail_check "planner %s: plan %s returns different bytes" label (SPl.name p)
      | Error e -> fail_check "planner %s: plan %s: %s" label (SPl.name p) e)
    (SE.candidate_plans db s);
  match SE.exec_snapshot snap (SA.Select s) with
  | Some (Ok r) -> if r <> adaptive then fail_check "planner %s: snapshot differs" label
  | Some (Error e) -> fail_check "planner %s: snapshot: %s" label e
  | None -> ()

let check_planner () =
  let db = planner_db () in
  let snap = SSnap.of_db db in
  List.iter
    (fun (label, sql, pinned) ->
      let s = planner_select sql in
      match counting_cells (fun () -> SE.exec_stmt db (SA.Select s)) with
      | Error e, _ -> fail_check "planner %s: %s" label e
      | Ok adaptive, cells ->
          check_cells label ~pinned cells;
          check_plans db snap label s ~adaptive)
    planner_queries;
  List.iter
    (fun (label, sql, pinned, (where, want)) ->
      match counting_cells (fun () -> SE.exec db sql) with
      | Error e, _ -> fail_check "planner %s: %s" label e
      | Ok (SE.Affected 4), cells -> (
          check_cells label ~pinned cells;
          let s = planner_select ("SELECT COUNT(*) FROM orders WHERE " ^ where) in
          match SE.exec_stmt db (SA.Select s) with
          | Ok (SE.Rows { rows = [ [ Value.Int n ] ]; _ } as adaptive) ->
              if Int64.to_int n <> want then
                fail_check "planner %s: %s counts %Ld rows afterwards, not %d" label where n want;
              check_plans db (SSnap.of_db db) label s ~adaptive
          | _ -> fail_check "planner %s: count afterwards failed" label)
      | Ok _, _ -> fail_check "planner %s: expected 4 rows affected" label)
    planner_dml

(* The checks run with observability on, so the counter snapshot embedded
   in BENCH_perf.json reflects exactly the work the equivalence checks did;
   the timed sections below run with it off (the default), so they time the
   primitives alone. *)
let check_snapshot = ref None

let run_checks () =
  Secdb_obs.Obs.with_enabled (fun () ->
      check_kernel_vs_string ();
      check_gcm_vs_reference ();
      check_fault_vfs ();
      check_planner ();
      check_net ());
  check_snapshot := Some (Secdb_obs.Metrics.snapshot ());
  match !check_failures with
  | [] ->
      print_endline "perf check: OK";
      true
  | fs ->
      List.iter (fun f -> Printf.printf "perf check FAILED: %s\n" f) (List.rev fs);
      false

(* ------------------------------------------------------- measurement -- *)

type sample = { section : string; name : string; qualifier : string; value : float; unit_ : string }

let samples : sample list ref = ref []
let sample ~section ~name ~qualifier ~unit_ value =
  samples := { section; name; qualifier; value; unit_ } :: !samples

let header fmt = Printf.printf ("\n" ^^ fmt ^^ "\n%!")
let row fmt = Printf.printf (fmt ^^ "\n%!")

let bench_modes ~fast =
  let len = if fast then 16_384 else 262_144 in
  let min_time = if fast then 0.02 else 0.2 in
  header "Cipher x mode throughput, %d KiB buffers (MB/s)" (len / 1024);
  let mode_names = List.map fst (modes aes_fast len) in
  row "  %-12s %s" "cipher"
    (String.concat "" (List.map (Printf.sprintf "%9s") mode_names));
  let per_cipher =
    List.map
      (fun (cname, c) ->
        let rates =
          List.map
            (fun (mname, f) ->
              let s = time_per_call ~min_time f in
              let mbs = float_of_int len /. s /. 1e6 in
              sample ~section:"modes" ~name:cname ~qualifier:mname ~unit_:"MB/s" mbs;
              mbs)
            (modes c len)
        in
        row "  %-12s %s" cname
          (String.concat "" (List.map (Printf.sprintf "%9.1f") rates));
        (cname, rates))
      [
        ("aes-fast", aes_fast);
        ("aes-string", aes_string);
        ("aes-ref", aes_ref);
        ("des", des);
        ("des3", des3);
      ]
  in
  let rate cipher mode =
    let rates = List.assoc cipher per_cipher in
    List.nth rates (Option.get (List.find_index (( = ) mode) mode_names))
  in
  let fallback_speedup = rate "aes-fast" "ctr" /. rate "aes-string" "ctr" in
  let cbc_speedup = rate "aes-fast" "cbc-enc" /. rate "aes-string" "cbc-enc" in
  sample ~section:"kernel" ~name:"ctr-speedup-fallback" ~qualifier:"aes-fast/aes-string"
    ~unit_:"x" fallback_speedup;
  sample ~section:"kernel" ~name:"cbc-enc-speedup" ~qualifier:"aes-fast/aes-string" ~unit_:"x"
    cbc_speedup;
  row "  kernel vs generic fallback: ctr %.2fx, cbc-enc %.2fx" fallback_speedup cbc_speedup

let bench_aead ~fast =
  let len = if fast then 1024 else 4096 in
  let min_time = if fast then 0.02 else 0.2 in
  header "AEAD throughput over aes-fast, %d-byte messages (MB/s)" len;
  row "  %-12s %9s %9s" "scheme" "encrypt" "decrypt";
  let ad = Address.encode (Address.v ~table:1 ~row:42 ~col:3) in
  let msg = payload len in
  List.iter
    (fun (name, (a : Secdb_aead.Aead.t)) ->
      let nonce = String.make a.Secdb_aead.Aead.nonce_size 'N' in
      let s = time_per_call ~min_time (fun () -> Secdb_aead.Aead.encrypt a ~nonce ~ad msg) in
      let enc_mbs = float_of_int len /. s /. 1e6 in
      sample ~section:"aead" ~name ~qualifier:(string_of_int len) ~unit_:"MB/s" enc_mbs;
      let ct, tag = Secdb_aead.Aead.encrypt a ~nonce ~ad msg in
      let s =
        time_per_call ~min_time (fun () ->
            Secdb_aead.Aead.decrypt a ~nonce ~ad ~tag ct)
      in
      let dec_mbs = float_of_int len /. s /. 1e6 in
      sample ~section:"aead" ~name
        ~qualifier:(Printf.sprintf "%d-decrypt" len)
        ~unit_:"MB/s" dec_mbs;
      row "  %-12s %9.1f %9.1f" name enc_mbs dec_mbs)
    aeads;
  (* the GHASH primitive on its own, over big buffers: the ceiling the
     table-driven GCM authenticates at, independent of AES *)
  let glen = if fast then 16_384 else 262_144 in
  let h = aes_fast.Block.encrypt (String.make 16 '\000') in
  let t = Secdb_aead.Gcm.htable h in
  let data = Bytes.of_string (payload glen) in
  let acc = Bytes.create 16 in
  let s =
    time_per_call ~min_time (fun () ->
        Bytes.fill acc 0 16 '\000';
        Secdb_aead.Gcm.ghash_into t ~acc data ~off:0 ~nblocks:(glen / 16))
  in
  let mbs = float_of_int glen /. s /. 1e6 in
  sample ~section:"aead" ~name:"ghash" ~qualifier:(string_of_int glen) ~unit_:"MB/s" mbs;
  row "  %-12s %9.1f           (keyed table, %d KiB buffers)" "ghash" mbs
    (glen / 1024)

(* The disabled observability path must be free: the same CTR workload
   with the switch off (the default above) and on should time the same,
   and the off number is the one every other section was measured under. *)
let bench_obs_overhead ~fast =
  let len = if fast then 16_384 else 262_144 in
  let min_time = if fast then 0.02 else 0.2 in
  let data = payload len in
  let run () = Mode.ctr aes_fast ~nonce:nonce16 data in
  header "Observability overhead on kernel CTR, %d KiB buffers (MB/s)" (len / 1024);
  let rate_off = float_of_int len /. time_per_call ~min_time run /. 1e6 in
  let rate_on =
    Secdb_obs.Obs.with_enabled (fun () ->
        float_of_int len /. time_per_call ~min_time run /. 1e6)
  in
  sample ~section:"obs" ~name:"ctr-obs-off" ~qualifier:"disabled" ~unit_:"MB/s" rate_off;
  sample ~section:"obs" ~name:"ctr-obs-on" ~qualifier:"enabled" ~unit_:"MB/s" rate_on;
  sample ~section:"obs" ~name:"ctr-obs-ratio" ~qualifier:"off/on" ~unit_:"x"
    (rate_off /. rate_on);
  row "  obs off %9.1f   obs on %9.1f   off/on %.3fx" rate_off rate_on (rate_off /. rate_on)

let bench_vfs_overhead ~fast =
  (* the storage engine now routes every byte through Vfs; this measures
     what the indirection costs against the same syscall pattern on a bare
     file descriptor (the pre-VFS code path) *)
  let pages = if fast then 64 else 512 in
  let psize = 4096 in
  let min_time = if fast then 0.02 else 0.2 in
  let bytes = 2 * pages * psize in
  header "VFS passthrough overhead, %d x %d B pwrite+pread (MB/s)" pages psize;
  let data = String.make psize 'v' in
  let buf = Bytes.create psize in
  let with_tmp f =
    let path = Filename.temp_file "secdb_vfs" ".bin" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () -> f path)
  in
  let raw () =
    with_tmp (fun path ->
        let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_TRUNC ] 0o600 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            for i = 0 to pages - 1 do
              ignore (Unix.lseek fd (i * psize) Unix.SEEK_SET);
              ignore (Unix.write_substring fd data 0 psize)
            done;
            for i = 0 to pages - 1 do
              ignore (Unix.lseek fd (i * psize) Unix.SEEK_SET);
              ignore (Unix.read fd buf 0 psize)
            done))
  in
  let through_vfs () =
    with_tmp (fun path ->
        let f = Vfs.unix.Vfs.open_file ~path ~mode:`Trunc in
        Fun.protect
          ~finally:(fun () -> f.Vfs.close ())
          (fun () ->
            for i = 0 to pages - 1 do
              Vfs.really_pwrite f ~pos:(i * psize) data
            done;
            for i = 0 to pages - 1 do
              ignore (Vfs.really_pread f ~pos:(i * psize) buf ~off:0 ~len:psize)
            done))
  in
  let rate_raw = float_of_int bytes /. time_per_call ~min_time raw /. 1e6 in
  let rate_vfs = float_of_int bytes /. time_per_call ~min_time through_vfs /. 1e6 in
  sample ~section:"vfs" ~name:"raw-fd" ~qualifier:"baseline" ~unit_:"MB/s" rate_raw;
  sample ~section:"vfs" ~name:"vfs-unix" ~qualifier:"passthrough" ~unit_:"MB/s" rate_vfs;
  sample ~section:"vfs" ~name:"vfs-ratio" ~qualifier:"raw/vfs" ~unit_:"x" (rate_raw /. rate_vfs);
  row "  raw fd %9.1f   vfs %9.1f   raw/vfs %.3fx" rate_raw rate_vfs (rate_raw /. rate_vfs)

(* ------------------------------------------------------------- JSON -- *)

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

let write_json ~fast path =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"suite\": \"secdb-perf\",\n");
  Buffer.add_string b (Printf.sprintf "  \"fast\": %b,\n" fast);
  Buffer.add_string b "  \"samples\": [\n";
  let entries =
    List.rev_map
      (fun s ->
        Printf.sprintf
          "    {\"section\": \"%s\", \"name\": \"%s\", \"qualifier\": \"%s\", \
           \"value\": %.3f, \"unit\": \"%s\"}"
          (json_escape s.section) (json_escape s.name) (json_escape s.qualifier)
          s.value (json_escape s.unit_))
      !samples
  in
  Buffer.add_string b (String.concat ",\n" entries);
  Buffer.add_string b "\n  ],\n";
  (* counter snapshot from the equivalence checks: how much work the
     checked paths actually did (cells, AEAD calls) alongside how fast *)
  let counters =
    match !check_snapshot with Some s -> s.Secdb_obs.Metrics.counters | None -> []
  in
  Buffer.add_string b "  \"check_counters\": [\n";
  Buffer.add_string b
    (String.concat ",\n"
       (List.map
          (fun (name, v) ->
            Printf.sprintf "    {\"name\": \"%s\", \"value\": %d}" (json_escape name) v)
          counters));
  Buffer.add_string b "\n  ]\n}\n";
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Buffer.contents b));
  row "\nwrote %s (%d samples)" path (List.length entries)

(* -------------------------------------------------------------- cli -- *)

let () =
  (* [check_net] writes to a socket the peer may already have closed;
     surface that as EPIPE instead of dying on SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv in
  let fast = List.mem "--fast" args in
  let check_only = List.mem "--check" args in
  let ok = run_checks () in
  if not ok then exit 1;
  if not check_only then begin
    bench_modes ~fast;
    bench_aead ~fast;
    bench_obs_overhead ~fast;
    bench_vfs_overhead ~fast;
    write_json ~fast "BENCH_perf.json"
  end
