open Secdb_util
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module B = Secdb_index.Bptree
module Etable = Secdb_query.Encrypted_table
module Storage = Secdb_storage.Storage
module Einst = Secdb_schemes.Einst

let key = Xbytes.of_hex "00112233445566778899aabbccddeeff"
let aes = Secdb_cipher.Aes.cipher ~key
let mu = Secdb_db.Address.mu_sha1 ~width:16

let fixed_scheme () =
  Secdb_schemes.Fixed_cell.make
    ~aead:(Secdb_aead.Eax.make aes)
    ~nonce:(Secdb_aead.Nonce.counter ~size:16 ()) ()

let schema =
  Schema.v ~table_name:"records"
    [
      Schema.column ~protection:Schema.Clear "id" Value.Kint;
      Schema.column "payload" Value.Ktext;
    ]

let sample_table scheme =
  let t = Etable.create ~id:7 schema ~scheme:(fun _ -> scheme) in
  for i = 0 to 49 do
    ignore
      (Etable.insert t
         [ Value.Int (Int64.of_int i); Value.Text (Printf.sprintf "record body %04d" i) ])
  done;
  t

let test_table_roundtrip () =
  List.iter
    (fun scheme ->
      let t = sample_table scheme in
      match Storage.decode_table ~scheme:(fun _ -> scheme) (Storage.encode_table t) with
      | Error e -> Alcotest.fail e
      | Ok t' ->
          Alcotest.(check int) "id" (Etable.id t) (Etable.id t');
          Alcotest.(check int) "rows" (Etable.nrows t) (Etable.nrows t');
          for row = 0 to Etable.nrows t - 1 do
            for col = 0 to 1 do
              if not (Value.equal (Etable.get_exn t ~row ~col) (Etable.get_exn t' ~row ~col))
              then Alcotest.fail "cell mismatch after reload"
            done
          done;
          (* stored bytes identical, so ciphertexts survived untouched *)
          Alcotest.(check (option string)) "raw ciphertext preserved"
            (Etable.raw_ciphertext t ~row:3 ~col:1)
            (Etable.raw_ciphertext t' ~row:3 ~col:1))
    [ Secdb_schemes.Cell_append.make ~e:(Einst.cbc_zero_iv aes) ~mu; fixed_scheme () ]

let index_codec () =
  Secdb_schemes.Fixed_index.codec
    ~aead:(Secdb_aead.Eax.make aes)
    ~nonce:(Secdb_aead.Nonce.counter ~size:16 ())
    ~indexed_table:7 ~indexed_col:1 ()

let sample_index codec =
  let tree = B.create ~order:3 ~id:1000 ~codec () in
  for i = 0 to 199 do
    B.insert tree (Value.Int (Int64.of_int ((i * 17) mod 50))) ~table_row:i
  done;
  (* exercise deletions so the snapshot contains freed rows *)
  for i = 0 to 49 do
    ignore (B.delete tree (Value.Int (Int64.of_int ((i * 17) mod 50))) ~table_row:i)
  done;
  tree

let test_index_roundtrip () =
  let codec = index_codec () in
  let tree = sample_index codec in
  match Storage.decode_index ~codec (Storage.encode_index tree) with
  | Error e -> Alcotest.fail e
  | Ok tree' ->
      Alcotest.(check int) "size" (B.size tree) (B.size tree');
      Alcotest.(check int) "height" (B.height tree) (B.height tree');
      (match B.validate tree' with Ok () -> () | Error e -> Alcotest.fail e);
      for probe = 0 to 49 do
        let v = Value.Int (Int64.of_int probe) in
        Alcotest.(check (list int))
          (Printf.sprintf "find %d" probe)
          (B.find tree v) (B.find tree' v)
      done;
      (* reloaded tree keeps working: inserts land in fresh rows *)
      B.insert tree' (Value.Int 999L) ~table_row:777;
      Alcotest.(check (list int)) "insert after reload" [ 777 ] (B.find tree' (Value.Int 999L))

let test_snapshot_structure_checks () =
  let codec = index_codec () in
  let tree = sample_index codec in
  let snap = B.snapshot tree in
  (* dangling root *)
  (match B.of_snapshot ~codec { snap with B.snap_root = 100_000 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling root accepted");
  (* dangling child *)
  let bad_slots = Array.copy snap.B.snap_slots in
  let patched = ref false in
  Array.iteri
    (fun i slot ->
      match slot with
      | Some v when v.B.node_kind = B.Inner && not !patched ->
          let children = Array.copy v.B.children in
          children.(0) <- 99_999;
          bad_slots.(i) <- Some { v with B.children = children };
          patched := true
      | _ -> ())
    bad_slots;
  match B.of_snapshot ~codec { snap with B.snap_slots = bad_slots } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling child accepted"

let test_file_tampering_detected_at_query_time () =
  (* flip one byte of an encrypted payload inside the stored bytes: they
     parse (framing intact) but the AEAD rejects the entry when decoded *)
  let codec = index_codec () in
  let tree = sample_index codec in
  let data = Storage.encode_index tree in
  (* find some leaf payload bytes to corrupt: flip a byte deep in the data *)
  let pos = String.length data - 40 in
  let corrupted = Bytes.of_string data in
  Bytes.set corrupted pos (Char.chr (Char.code data.[pos] lxor 0x01));
  match Storage.decode_index ~codec (Bytes.to_string corrupted) with
  | Error _ -> () (* corruption hit framing: also fine, reported *)
  | Ok tree' -> (
      (* corruption hit ciphertext: must surface as Integrity on scan *)
      match B.range tree' () with
      | exception B.Integrity _ -> ()
      | _ -> (
          match B.validate tree' with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "tampered file passed full scan and validation"))

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

let test_format_errors () =
  (match Storage.decode_table ~scheme:(fun _ -> fixed_scheme ()) "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match
     Storage.decode_table ~scheme:(fun _ -> fixed_scheme ())
       (Secdb_db.Codec.frame [ "WRONGMAG"; "table"; String.make 8 '\000'; ""; "" ])
   with
  | Error e -> Alcotest.(check bool) "mentions magic" true (contains_substring e "magic")
  | Ok _ -> Alcotest.fail "bad magic accepted");
  (* table bytes fed to the index decoder *)
  let t = sample_table (fixed_scheme ()) in
  match Storage.decode_index ~codec:(index_codec ()) (Storage.encode_table t) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "table section accepted as index"

let suites =
  [
    ( "storage:files",
      [
        Alcotest.test_case "table save/load roundtrip" `Quick test_table_roundtrip;
        Alcotest.test_case "index save/load roundtrip" `Quick test_index_roundtrip;
        Alcotest.test_case "snapshot structure checks" `Quick test_snapshot_structure_checks;
        Alcotest.test_case "file tampering surfaces at query time" `Quick
          test_file_tampering_detected_at_query_time;
        Alcotest.test_case "format errors" `Quick test_format_errors;
      ] );
  ]
