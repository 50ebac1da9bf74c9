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

let tmpdir name =
  let d = Filename.concat (Filename.get_temp_dir_name ()) ("secdb_itest_" ^ name) in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Sys.mkdir d 0o755;
  d

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

let test_save_load_roundtrip () =
  List.iter
    (fun profile ->
      let dir = tmpdir (Encdb.profile_name profile) in
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
      Encdb.save db ~dir;
      Encdb.close db;
      match Encdb.load ~master:"persist me" ~profile ~dir ~seed:99L () with
      | Error e -> Alcotest.fail e
      | Ok db' -> (
          (match
             Encdb.select_range db' ~table:"accounts" ~col:"balance" ~lo:(Value.Int 2000L)
               ~hi:(Value.Int 4000L) ()
           with
          | Ok rows ->
              Alcotest.(check (list int))
                (Encdb.profile_name profile ^ " same answers after reload")
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
  let dir = tmpdir "wrongkey" in
  let db = Encdb.create ~master:"right key" ~profile () in
  populate db 30;
  Encdb.save db ~dir;
  match Encdb.load ~master:"wrong key" ~profile ~dir () with
  | Error _ -> () (* also acceptable: fail at load *)
  | Ok db' -> (
      match Encdb.select_range db' ~table:"accounts" ~col:"balance" ~lo:(Value.Int 0L) () with
      | Error _ -> () (* decryption failure = indistinguishable from tampering *)
      | Ok rows -> if rows <> [] then Alcotest.fail "wrong master key decrypted data")

let test_load_wrong_profile_rejected () =
  let dir = tmpdir "wrongprofile" in
  let db = Encdb.create ~master:"k" ~profile:(Encdb.Fixed Encdb.Eax) () in
  populate db 10;
  Encdb.save db ~dir;
  match Encdb.load ~master:"k" ~profile:Encdb.Elovici_append ~dir () with
  | Error e -> Alcotest.(check bool) "mentions profile" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "profile mismatch accepted"

let test_offline_file_tampering () =
  (* the adversary edits the saved files; the session detects it on query *)
  let profile = Encdb.Fixed Encdb.Ocb in
  let dir = tmpdir "tamperfiles" in
  let db = Encdb.create ~master:"k2" ~profile () in
  populate db 60;
  Encdb.save db ~dir;
  Encdb.close db;
  (* flip a byte near the end of the table file (inside some ciphertext) *)
  let path = Filename.concat dir "accounts.table" in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string data in
  let pos = Bytes.length b - 3 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  match Encdb.load ~master:"k2" ~profile ~dir ~seed:7L () with
  | Error _ -> () (* framing corruption detected at load: fine *)
  | Ok db' -> (
      let tbl = Encdb.table db' "accounts" in
      match Etable.select_result tbl (fun _ -> true) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "tampered file fully decrypted")

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
  Encdb.save_paged db ~path ();
  Encdb.close db;
  (match Encdb.load_paged ~master:"paged" ~profile ~path ~seed:31L () with
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
  (match Encdb.load_paged ~master:"paged" ~profile:Encdb.Elovici_append ~path () with
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
    (match Encdb.load_paged ~master:"paged" ~profile ~path () with
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

let suites =
  suites
  @ [
      ( "integration:paged",
        [ Alcotest.test_case "paged save/load" `Quick test_paged_save_load ] );
    ]
