(* Cross-component integration tests: full encrypted-database life cycles,
   persistence, and the remaining attack/primitive combinations. *)

open Secdb
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module B = Secdb_index.Bptree
module Etable = Secdb_query.Encrypted_table
module Xbytes = Secdb_util.Xbytes
module Rng = Secdb_util.Rng
module Einst = Secdb_schemes.Einst

let tmpfile name =
  Filename.concat (Filename.get_temp_dir_name ()) ("secdb_itest_" ^ name ^ ".db")

let schema =
  Schema.v ~table_name:"accounts"
    [
      Schema.column ~protection:Schema.Clear "id" Value.Kint;
      Schema.column "owner" Value.Ktext;
      Schema.column "balance" Value.Kint;
    ]

let populate db n =
  let rng = Rng.create ~seed:77L () in
  Encdb.create_table db schema;
  for i = 0 to n - 1 do
    ignore
      (Encdb.insert db ~table:"accounts"
         [
           Value.Int (Int64.of_int i);
           Value.Text (Rng.alpha rng 12);
           Value.Int (Int64.of_int (Rng.int rng 10_000));
         ])
  done;
  Encdb.create_index db ~table:"accounts" ~col:"balance"

let find s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i =
    if i + m > n then None else if String.sub s i m = sub then Some i else loop (i + 1)
  in
  loop 0

let test_save_load_roundtrip () =
  List.iter
    (fun profile ->
      let name = Encdb.profile_name profile in
      let path = tmpfile name in
      let db = Encdb.create ~master:"persist me" ~profile () in
      populate db 120;
      let expected =
        match
          Encdb.select_range db ~table:"accounts" ~col:"balance" ~lo:(Value.Int 2000L)
            ~hi:(Value.Int 4000L) ()
        with
        | Ok rows -> List.map fst rows
        | Error e -> Alcotest.fail e
      in
      let owners =
        match Etable.select_result (Encdb.table db "accounts") (fun _ -> true) with
        | Ok rows ->
            List.map
              (fun (_, values) ->
                match values.(1) with Value.Text o -> o | _ -> Alcotest.fail "owner kind")
              rows
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check int) (name ^ " owners") 120 (List.length owners);
      Encdb.save db ~path ();
      Encdb.close db;
      (* encryption configured must mean no protected plaintext at rest *)
      let image = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun owner ->
          if find image owner <> None then
            Alcotest.failf "%s: protected owner %S stored in the clear" name owner)
        owners;
      match Encdb.load ~master:"persist me" ~profile ~path ~seed:99L () with
      | Error e -> Alcotest.fail e
      | Ok db' -> (
          (match
             Encdb.select_range db' ~table:"accounts" ~col:"balance" ~lo:(Value.Int 2000L)
               ~hi:(Value.Int 4000L) ()
           with
          | Ok rows ->
              Alcotest.(check (list int))
                (name ^ " same answers after reload")
                expected (List.map fst rows)
          | Error e -> Alcotest.fail e);
          (* the reloaded database stays writable and consistent *)
          let row =
            Encdb.insert db' ~table:"accounts"
              [ Value.Int 999L; Value.Text "newcomer"; Value.Int 3000L ]
          in
          match
            Encdb.select_range db' ~table:"accounts" ~col:"balance" ~lo:(Value.Int 3000L)
              ~hi:(Value.Int 3000L) ()
          with
          | Ok rows -> Alcotest.(check bool) "new row indexed" true (List.mem_assoc row rows)
          | Error e -> Alcotest.fail e))
    [ Encdb.Elovici_append; Encdb.Shmueli_improved; Encdb.Fixed Encdb.Eax; Encdb.Fixed Encdb.Ccfb ]

let test_load_wrong_master_fails_closed () =
  let profile = Encdb.Fixed Encdb.Eax in
  let path = tmpfile "wrongkey" in
  let db = Encdb.create ~master:"right key" ~profile () in
  populate db 30;
  Encdb.save db ~path ();
  match Encdb.load ~master:"wrong key" ~profile ~path () with
  | Error _ -> () (* also acceptable: fail at load *)
  | Ok db' -> (
      match Encdb.select_range db' ~table:"accounts" ~col:"balance" ~lo:(Value.Int 0L) () with
      | Error _ -> () (* decryption failure = indistinguishable from tampering *)
      | Ok rows -> if rows <> [] then Alcotest.fail "wrong master key decrypted data")

let test_load_wrong_profile_rejected () =
  let path = tmpfile "wrongprofile" in
  let db = Encdb.create ~master:"k" ~profile:(Encdb.Fixed Encdb.Eax) () in
  populate db 10;
  Encdb.save db ~path ();
  match Encdb.load ~master:"k" ~profile:Encdb.Elovici_append ~path () with
  | Error e -> Alcotest.(check bool) "mentions profile" true (find e "profile" <> None)
  | Ok _ -> Alcotest.fail "profile mismatch accepted"

let test_offline_file_tampering () =
  (* the adversary edits the saved image; the session detects it on query *)
  let profile = Encdb.Fixed Encdb.Ocb in
  let path = tmpfile "tamperfiles" in
  let db = Encdb.create ~master:"k2" ~profile () in
  populate db 60;
  let ct = Option.get (Etable.raw_ciphertext (Encdb.table db "accounts") ~row:0 ~col:1) in
  Encdb.save db ~path ();
  Encdb.close db;
  (* flip a byte of row 0's owner ciphertext inside the table's blob:
     framing stays intact, so only the AEAD can notice *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  let pos = Option.get (find data ct) + (String.length ct / 2) in
  let b = Bytes.of_string data in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  match Encdb.load ~master:"k2" ~profile ~path ~seed:7L () with
  | Error e -> Alcotest.failf "framing intact, yet load failed: %s" e
  | Ok db' -> (
      let tbl = Encdb.table db' "accounts" in
      match Etable.select_result tbl (fun _ -> true) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "tampered image fully decrypted")

(* --- frequency analysis -------------------------------------------------- *)

let census =
  [
    (String.make 24 'A' ^ "common-diagnosis-one", 40);
    (String.make 24 'B' ^ "common-diagnosis-two", 25);
    (String.make 24 'C' ^ "rarer-diagnosis-three", 12);
    (String.make 24 'D' ^ "rare-diagnosis-four..", 5);
    (String.make 24 'E' ^ "unique-diagnosis-five", 1);
  ]

let test_frequency_attack () =
  let key = Xbytes.of_hex "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf" in
  let aes = Secdb_cipher.Aes.cipher ~key in
  let mu = Secdb_db.Address.mu_sha1 ~width:16 in
  let broken = Secdb_schemes.Cell_append.make ~e:(Einst.cbc_zero_iv aes) ~mu in
  let rng = Rng.create ~seed:88L () in
  let r =
    Secdb_attacks.Frequency.attack ~scheme:broken ~block:16 ~table:1 ~col:2
      ~distribution:census rng
  in
  Alcotest.(check int) "one bucket per value" (List.length census) r.Secdb_attacks.Frequency.buckets;
  Alcotest.(check int) "every cell recovered" 83 r.Secdb_attacks.Frequency.recovered;
  let fixed =
    Secdb_schemes.Fixed_cell.make ~aead:(Secdb_aead.Eax.make aes)
      ~nonce:(Secdb_aead.Nonce.counter ~size:16 ()) ()
  in
  let rf =
    Secdb_attacks.Frequency.attack ~scheme:fixed
      ~extract:Secdb_attacks.Pattern_matching.extract_fixed_cell ~block:16 ~table:1 ~col:2
      ~distribution:census rng
  in
  Alcotest.(check int) "fix: one bucket per cell" 83 rf.Secdb_attacks.Frequency.buckets;
  (* every bucket is a singleton, so no frequency rank is unique: nothing
     can be credited *)
  Alcotest.(check int) "fix: nothing recoverable" 0 rf.Secdb_attacks.Frequency.recovered

(* --- 3DES ---------------------------------------------------------------- *)

let test_3des () =
  let k1 = Xbytes.of_hex "0123456789abcdef" in
  let k2 = Xbytes.of_hex "23456789abcdef01" in
  let k3 = Xbytes.of_hex "456789abcdef0123" in
  let c2 = Secdb_cipher.Des3.cipher ~key:(k1 ^ k2) in
  let c3 = Secdb_cipher.Des3.cipher ~key:(k1 ^ k2 ^ k3) in
  Alcotest.(check string) "names" "3des-ede2" c2.Secdb_cipher.Block.name;
  Alcotest.(check string) "names3" "3des-ede3" c3.Secdb_cipher.Block.name;
  (* 3DES with K1=K2 degenerates to single DES *)
  let degen = Secdb_cipher.Des3.cipher ~key:(k1 ^ k1) in
  let single = Secdb_cipher.Des.cipher ~key:k1 in
  let pt = "8bytes!!" in
  Alcotest.(check string) "EDE(k,k) = DES(k)"
    (Xbytes.to_hex (single.Secdb_cipher.Block.encrypt pt))
    (Xbytes.to_hex (degen.Secdb_cipher.Block.encrypt pt));
  (* roundtrips and distinctness *)
  let rng = Rng.create ~seed:3L () in
  for _ = 1 to 50 do
    let b = Rng.bytes rng 8 in
    if c2.Secdb_cipher.Block.decrypt (c2.Secdb_cipher.Block.encrypt b) <> b then
      Alcotest.fail "ede2 roundtrip";
    if c3.Secdb_cipher.Block.decrypt (c3.Secdb_cipher.Block.encrypt b) <> b then
      Alcotest.fail "ede3 roundtrip"
  done;
  Alcotest.(check bool) "ede2 <> ede3" false
    (c2.Secdb_cipher.Block.encrypt pt = c3.Secdb_cipher.Block.encrypt pt);
  Alcotest.check_raises "bad key size"
    (Invalid_argument "Des3.cipher: key must be 16 or 24 bytes, got 8") (fun () ->
      ignore (Secdb_cipher.Des3.cipher ~key:k1))

let test_scheme_over_3des () =
  (* the paper's attacks work identically over a 64-bit-block cipher *)
  let c = Secdb_cipher.Des3.cipher ~key:(String.make 16 'k') in
  let mu8 = Secdb_db.Address.mu_sha1 ~width:8 in
  let scheme = Secdb_schemes.Cell_append.make ~e:(Einst.cbc_zero_iv c) ~mu:mu8 in
  let addr = Secdb_db.Address.v ~table:1 ~row:4 ~col:0 in
  (match Secdb_schemes.Cell_scheme.decrypt scheme addr
           (Secdb_schemes.Cell_scheme.encrypt scheme addr "triple des value") with
  | Ok "triple des value" -> ()
  | _ -> Alcotest.fail "3des scheme roundtrip");
  let rng = Rng.create ~seed:4L () in
  match
    Secdb_attacks.Forgery.forge ~scheme ~block:8 ~addr ~value:(Rng.ascii rng 32) ~rng
  with
  | Ok o ->
      Alcotest.(check bool) "forgery works over 8-byte blocks too" true
        (o.Secdb_attacks.Forgery.accepted && o.Secdb_attacks.Forgery.changed)
  | Error e -> Alcotest.fail e

let suites =
  [
    ( "integration:persistence",
      [
        Alcotest.test_case "save/load across profiles" `Quick test_save_load_roundtrip;
        Alcotest.test_case "wrong master fails closed" `Quick test_load_wrong_master_fails_closed;
        Alcotest.test_case "wrong profile rejected" `Quick test_load_wrong_profile_rejected;
        Alcotest.test_case "offline file tampering" `Quick test_offline_file_tampering;
      ] );
    ( "integration:frequency",
      [ Alcotest.test_case "rank-matching attack & fix" `Quick test_frequency_attack ] );
    ( "integration:3des",
      [
        Alcotest.test_case "triple DES" `Quick test_3des;
        Alcotest.test_case "schemes over 64-bit blocks" `Quick test_scheme_over_3des;
      ] );
  ]

let test_paged_save_load () =
  let profile = Encdb.Fixed Encdb.Gcm in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "secdb_paged.db" in
  let db = Encdb.create ~master:"paged" ~profile () in
  populate db 80;
  let expected =
    match
      Encdb.select_range db ~table:"accounts" ~col:"balance" ~lo:(Value.Int 1000L)
        ~hi:(Value.Int 5000L) ()
    with
    | Ok rows -> List.map fst rows
    | Error e -> Alcotest.fail e
  in
  Encdb.save db ~path ();
  Encdb.close db;
  (match Encdb.load ~master:"paged" ~profile ~path ~seed:31L () with
  | Error e -> Alcotest.fail e
  | Ok db' -> (
      match
        Encdb.select_range db' ~table:"accounts" ~col:"balance" ~lo:(Value.Int 1000L)
          ~hi:(Value.Int 5000L) ()
      with
      | Ok rows ->
          Alcotest.(check (list int)) "same answers from the paged file" expected
            (List.map fst rows)
      | Error e -> Alcotest.fail e));
  (* wrong profile is refused *)
  (match Encdb.load ~master:"paged" ~profile:Encdb.Elovici_append ~path () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "profile mismatch accepted");
  (* damaged files fail closed: an [Error], never an exception, and the
     pager file is released on the way out *)
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then Some (Array.length (Sys.readdir "/proc/self/fd"))
    else None
  in
  let refused what =
    let before = open_fds () in
    (match Encdb.load ~master:"paged" ~profile ~path () with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: load accepted" what
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e));
    Alcotest.(check (option int)) (what ^ ": no descriptor leaked") before (open_fds ())
  in
  (* a directory pointer to a page that does not exist *)
  let pager =
    match Secdb_storage.Pager.open_file ~path () with Ok p -> p | Error e -> Alcotest.fail e
  in
  Secdb_storage.Pager.write pager 1 (Secdb_util.Xbytes.int_to_be_string ~width:8 999);
  Secdb_storage.Pager.close pager;
  refused "out-of-range directory pointer";
  (* a valid pager file without the pointer page *)
  Secdb_storage.Pager.close (Secdb_storage.Pager.create ~path ());
  refused "empty pager file";
  Sys.remove path

(* --- the pager image under an adversary and under faults ------------------ *)

let read_image path = In_channel.with_open_bin path In_channel.input_all

let write_image path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let reload ~master ~profile path =
  match Encdb.load ~master ~profile ~path ~seed:41L () with
  | Ok db -> db
  | Error e -> Alcotest.fail e

let eq_rows db v =
  match Encdb.select_eq db ~table:"accounts" ~col:"balance" v with
  | Ok rows -> rows
  | Error e -> Alcotest.fail e

(* A damaged image may be refused, or may load as exactly the database
   that was saved; it must never raise, and never load as a different
   database.  [Some msg] reports the violation. *)
let fails_closed_or_same ~master ~profile ~digest path =
  match Encdb.load ~master ~profile ~path ~seed:43L () with
  | Error _ -> None
  | exception e -> Some ("load raised " ^ Printexc.to_string e)
  | Ok db ->
      let d = Encdb.digest db in
      Encdb.close db;
      if d = digest then None else Some "loaded a database other than the one saved"

let test_paged_empty_image () =
  let profile = Encdb.Fixed Encdb.Eax in
  let path = tmpfile "paged_empty" in
  let db = Encdb.create ~master:"empty" ~profile () in
  Encdb.save db ~path ();
  let db' = reload ~master:"empty" ~profile path in
  Alcotest.(check (list string)) "no tables" [] (Encdb.table_names db');
  (* a table with a schema and an index but no rows *)
  Encdb.create_table db schema;
  Encdb.create_index db ~table:"accounts" ~col:"balance";
  Encdb.save db ~path ();
  let db' = reload ~master:"empty" ~profile path in
  Alcotest.(check (list string)) "one table" [ "accounts" ] (Encdb.table_names db');
  Alcotest.(check int) "no live rows" 0 (Encdb.live_rows db' ~table:"accounts");
  Alcotest.(check bool) "index survives" true (Encdb.has_index db' ~table:"accounts" ~col:"balance");
  Alcotest.(check int) "empty lookup" 0 (List.length (eq_rows db' (Value.Int 1L)));
  Alcotest.(check string) "same anchor" (Encdb.digest db) (Encdb.digest db')

let test_paged_duplicate_order () =
  (* duplicate keys come back in insertion order, before and after reload *)
  let profile = Encdb.Fixed Encdb.Gcm in
  let path = tmpfile "paged_dups" in
  let db = Encdb.create ~master:"dups" ~profile () in
  Encdb.create_table db schema;
  Encdb.create_index db ~table:"accounts" ~col:"balance";
  for i = 0 to 59 do
    ignore
      (Encdb.insert db ~table:"accounts"
         [ Value.Int (Int64.of_int i); Value.Text "dup"; Value.Int (Int64.of_int (i mod 3)) ])
  done;
  (match Encdb.delete_row db ~table:"accounts" ~row:9 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let rows db v = List.map fst (eq_rows db (Value.Int v)) in
  let want = List.filter (fun i -> i mod 3 = 0 && i <> 9) (List.init 60 Fun.id) in
  Alcotest.(check (list int)) "before save" want (rows db 0L);
  Encdb.save db ~path ();
  let db' = reload ~master:"dups" ~profile path in
  Alcotest.(check bool) "index survives" true (Encdb.has_index db' ~table:"accounts" ~col:"balance");
  List.iter
    (fun v ->
      Alcotest.(check (list int)) (Printf.sprintf "key %Ld after reload" v) (rows db v) (rows db' v))
    [ 0L; 1L; 2L; 3L ]

let test_paged_many_page_image () =
  (* small pages: the image spans many pages and every lookup still
     answers exactly *)
  let profile = Encdb.Fixed Encdb.Ocb in
  let path = tmpfile "paged_large" in
  let db = Encdb.create ~master:"large" ~profile () in
  populate db 150;
  Encdb.save db ~path ~page_size:128 ();
  let pages =
    match Secdb_storage.Pager.open_file ~path () with
    | Ok p ->
        let n = Secdb_storage.Pager.page_count p in
        Secdb_storage.Pager.close p;
        n
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "image spans many pages" true (pages > 100);
  let db' = reload ~master:"large" ~profile path in
  Alcotest.(check int) "live rows" 150 (Encdb.live_rows db' ~table:"accounts");
  let balances =
    match Etable.select_result (Encdb.table db "accounts") (fun _ -> true) with
    | Ok rows -> List.sort_uniq compare (List.map (fun (_, v) -> v.(2)) rows)
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun v ->
      if eq_rows db v <> eq_rows db' v then
        Alcotest.failf "lookup of %s differs after reload" (Value.to_string v))
    balances;
  Alcotest.(check string) "same anchor" (Encdb.digest db) (Encdb.digest db')

let test_paged_swapped_cells () =
  (* the adversary exchanges two rows' owner ciphertexts inside the image:
     framing is untouched, and only the address binding can notice *)
  let profile = Encdb.Fixed Encdb.Eax in
  let path = tmpfile "paged_swap" in
  let db = Encdb.create ~master:"swap" ~profile () in
  populate db 20;
  let tbl = Encdb.table db "accounts" in
  let c0 = Option.get (Etable.raw_ciphertext tbl ~row:0 ~col:1) in
  let c1 = Option.get (Etable.raw_ciphertext tbl ~row:1 ~col:1) in
  Alcotest.(check int) "same length" (String.length c0) (String.length c1);
  Encdb.save db ~path ();
  let data = read_image path in
  let p0 = Option.get (find data c0) and p1 = Option.get (find data c1) in
  let b = Bytes.of_string data in
  Bytes.blit_string c1 0 b p0 (String.length c1);
  Bytes.blit_string c0 0 b p1 (String.length c0);
  write_image path (Bytes.to_string b);
  let db' = reload ~master:"swap" ~profile path in
  let tbl' = Encdb.table db' "accounts" in
  Alcotest.(check (option string)) "swap landed" (Some c1) (Etable.raw_ciphertext tbl' ~row:0 ~col:1);
  match Etable.select_result tbl' (fun _ -> true) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "swapped ciphertexts decrypted under each other's address"

let test_paged_truncated_image () =
  let profile = Encdb.Fixed Encdb.Gcm in
  let path = tmpfile "paged_trunc" in
  let db = Encdb.create ~master:"trunc" ~profile () in
  populate db 40;
  Encdb.save db ~path ~page_size:256 ();
  let digest = Encdb.digest db in
  let full = read_image path in
  let n = String.length full in
  let cuts = List.sort_uniq compare (List.init 40 (fun i -> i * n / 40) @ [ 19; 20; 255; 256; 257; n - 1 ]) in
  List.iter
    (fun cut ->
      write_image path (String.sub full 0 cut);
      match fails_closed_or_same ~master:"trunc" ~profile ~digest path with
      | None -> ()
      | Some msg -> Alcotest.failf "cut at %d of %d: %s" cut n msg)
    cuts

let test_paged_save_crash_matrix () =
  (* crash [Encdb.save] at every write: whatever survives fails closed or is
     the saved database *)
  let profile = Encdb.Fixed Encdb.Eax in
  let db = Encdb.create ~master:"crash" ~profile () in
  populate db 25;
  let digest = Encdb.digest db in
  let disk = "mem:save.pg" and path = tmpfile "paged_crash" in
  let rec loop k =
    if k > 400 then Alcotest.fail "crash never stopped firing"
    else begin
      let ctl = Secdb_storage.Vfs.Fault.make ~seed:(5000 + k) () in
      Secdb_storage.Vfs.Fault.crash_after_writes ctl k;
      (try Encdb.save db ~path:disk ~page_size:256 ~vfs:(Secdb_storage.Vfs.Fault.vfs ctl) ()
       with Secdb_storage.Vfs.Crashed _ -> ());
      let crashed = Secdb_storage.Vfs.Fault.crashed ctl in
      write_image path (Secdb_storage.Vfs.Fault.dump ctl ~path:disk);
      (match fails_closed_or_same ~master:"crash" ~profile ~digest path with
      | None -> ()
      | Some msg -> Alcotest.failf "crash at write %d: %s" k msg);
      if crashed then loop (k + 1) else k
    end
  in
  let total = loop 1 in
  Alcotest.(check bool) "matrix covered the save" true (total > 10);
  (* past the last write the image is whole *)
  let db' = reload ~master:"crash" ~profile path in
  Alcotest.(check string) "uncrashed save reloads" digest (Encdb.digest db')

(* The image format is pinned byte for byte: a fixed-seed database saves to
   exactly these bytes, so any change to how pages are laid out, linked or
   padded shows up here rather than as an unreadable file in the field.
   The save writes every page once, plus the header at create and at
   close, and reads nothing back. *)
let pinned_image_sha256 =
  "f6d029f897f674f0a1f05f4ae5357422efe3e2dbc89e378138909f581163410d"

let test_paged_image_pinned () =
  let module Metrics = Secdb_obs.Metrics in
  let profile = Encdb.Fixed Encdb.Gcm in
  let path = tmpfile "paged_pinned" in
  let image () =
    let db = Encdb.create ~seed:5L ~master:"pinned" ~profile () in
    populate db 60;
    Encdb.save db ~path ~page_size:256 ();
    read_image path
  in
  let reads = Metrics.counter "pager.disk_reads" and writes = Metrics.counter "pager.disk_writes" in
  let a, (nreads, nwrites) =
    Secdb_obs.Obs.with_enabled (fun () ->
        let r0 = Metrics.value reads and w0 = Metrics.value writes in
        let a = image () in
        (a, (Metrics.value reads - r0, Metrics.value writes - w0)))
  in
  Alcotest.(check string) "two saves are byte-identical" a (image ());
  Alcotest.(check string) "image matches the pinned format" pinned_image_sha256
    (Secdb_hash.Sha256.hex a);
  let pages = (String.length a / 256) - 1 in
  Alcotest.(check int) "save reads no page" 0 nreads;
  Alcotest.(check int) "save writes each page once, the header twice" (pages + 2) nwrites

let prop_paged_roundtrip =
  QCheck2.Test.make ~name:"random workloads answer the same after save/load" ~count:15
    QCheck2.Gen.(list_size (int_range 1 60) (int_range (-400) 400))
    (fun ops ->
      let profile = Encdb.Fixed Encdb.Eax in
      let path = tmpfile "paged_prop" in
      let db = Encdb.create ~master:"prop" ~profile () in
      Encdb.create_table db schema;
      Encdb.create_index db ~table:"accounts" ~col:"balance";
      let rows = ref [] in
      let ok = function Ok () -> () | Error e -> failwith e in
      List.iter
        (fun n ->
          let v = Value.Int (Int64.of_int (abs n mod 11)) in
          match !rows with
          | r :: rest when n < 0 && n mod 2 = 0 ->
              ok (Encdb.delete_row db ~table:"accounts" ~row:r);
              rows := rest
          | r :: _ when n < 0 -> ok (Encdb.update db ~table:"accounts" ~row:r ~col:"balance" v)
          | _ ->
              let r =
                Encdb.insert db ~table:"accounts"
                  [ Value.Int (Int64.of_int n); Value.Text (string_of_int n); v ]
              in
              rows := r :: !rows)
        ops;
      Encdb.save db ~path ~page_size:256 ();
      match Encdb.load ~master:"prop" ~profile ~path ~seed:47L () with
      | Error e -> QCheck2.Test.fail_report e
      | Ok db' ->
          let same v =
            Encdb.select_eq db ~table:"accounts" ~col:"balance" v
            = Encdb.select_eq db' ~table:"accounts" ~col:"balance" v
          in
          if not (List.for_all (fun k -> same (Value.Int (Int64.of_int k))) (List.init 12 Fun.id))
          then QCheck2.Test.fail_report "lookup differs after reload"
          else if Encdb.live_rows db ~table:"accounts" <> Encdb.live_rows db' ~table:"accounts"
          then QCheck2.Test.fail_report "live row count differs"
          else if Encdb.digest db <> Encdb.digest db' then
            QCheck2.Test.fail_report "anchor differs"
          else true)

let suites =
  suites
  @ [
      ( "integration:paged",
        [
          Alcotest.test_case "paged save/load" `Quick test_paged_save_load;
          Alcotest.test_case "empty image" `Quick test_paged_empty_image;
          Alcotest.test_case "duplicate keys keep their order" `Quick test_paged_duplicate_order;
          Alcotest.test_case "image spanning many pages" `Quick test_paged_many_page_image;
          Alcotest.test_case "swapped cells rejected" `Quick test_paged_swapped_cells;
          Alcotest.test_case "truncated image fails closed" `Quick test_paged_truncated_image;
          Alcotest.test_case "save crash matrix" `Quick test_paged_save_crash_matrix;
          Alcotest.test_case "image bytes are pinned" `Quick test_paged_image_pinned;
          Test_seed.qc prop_paged_roundtrip;
        ] );
    ]
