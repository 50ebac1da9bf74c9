open Secdb
module M = Secdb_storage.Merkle
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Etable = Secdb_query.Encrypted_table

let test_merkle_roots () =
  Alcotest.(check int) "root size" 32 (String.length (M.root [ "a"; "b"; "c" ]));
  Alcotest.(check string) "deterministic"
    (Secdb_util.Xbytes.to_hex (M.root [ "a"; "b" ]))
    (Secdb_util.Xbytes.to_hex (M.root [ "a"; "b" ]));
  Alcotest.(check bool) "order matters" false (M.root [ "a"; "b" ] = M.root [ "b"; "a" ]);
  Alcotest.(check bool) "content matters" false (M.root [ "a" ] = M.root [ "b" ]);
  Alcotest.(check bool) "length matters" false (M.root [ "a" ] = M.root [ "a"; "a" ]);
  Alcotest.(check bool) "empty distinguished" false (M.root [] = M.root [ "" ]);
  (* concatenation ambiguity is broken by per-leaf hashing *)
  Alcotest.(check bool) "no splice" false (M.root [ "ab"; "c" ] = M.root [ "a"; "bc" ])

let test_merkle_proofs () =
  let leaves = List.init 11 (fun i -> Printf.sprintf "leaf-%d" i) in
  let root = M.root leaves in
  List.iteri
    (fun i leaf ->
      let proof = M.prove leaves ~index:i in
      if not (M.verify ~root ~leaf proof) then Alcotest.fail (Printf.sprintf "proof %d" i);
      (* a proof does not validate a different leaf *)
      if M.verify ~root ~leaf:"forged" proof then Alcotest.fail "forged leaf accepted")
    leaves;
  Alcotest.check_raises "out of range" (Invalid_argument "Merkle.prove: index out of range")
    (fun () -> ignore (M.prove leaves ~index:11));
  (* single-leaf tree: empty proof *)
  Alcotest.(check bool) "singleton" true
    (M.verify ~root:(M.root [ "only" ]) ~leaf:"only" (M.prove [ "only" ] ~index:0))

let make_db () =
  let db = Encdb.create ~master:"anchor" ~profile:(Encdb.Fixed Encdb.Eax) () in
  Encdb.create_table db
    (Schema.v ~table_name:"t"
       [ Schema.column ~protection:Schema.Clear "id" Value.Kint; Schema.column "v" Value.Ktext ]);
  for i = 0 to 19 do
    ignore (Encdb.insert db ~table:"t" [ Value.Int (Int64.of_int i); Value.Text (Printf.sprintf "v%02d" i) ])
  done;
  Encdb.create_index db ~table:"t" ~col:"v";
  db

let test_db_digest () =
  let db = make_db () in
  let d0 = Encdb.digest db in
  Alcotest.(check string) "stable" (Secdb_util.Xbytes.to_hex d0)
    (Secdb_util.Xbytes.to_hex (Encdb.digest db));
  (* every kind of change moves the digest *)
  ignore (Encdb.insert db ~table:"t" [ Value.Int 99L; Value.Text "new" ]);
  let d1 = Encdb.digest db in
  Alcotest.(check bool) "insert changes digest" false (d0 = d1);
  (match Encdb.update db ~table:"t" ~row:3 ~col:"v" (Value.Text "edited") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let d2 = Encdb.digest db in
  Alcotest.(check bool) "update changes digest" false (d1 = d2);
  (match Encdb.delete_row db ~table:"t" ~row:5 with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "delete changes digest" false (d2 = Encdb.digest db)

let test_suppression_attack_and_anchor () =
  (* EXP22 in miniature: per-cell AEAD misses row suppression; the anchor
     catches it *)
  let path = Filename.concat (Filename.get_temp_dir_name ()) "secdb_anchor_test.db" in
  let db = make_db () in
  let anchor = Encdb.digest db in
  Encdb.save db ~path ();
  Encdb.close db;
  (* the adversary tombstones row 7 in the stored image, editing structure
     only (no keys needed): follow the directory pointer on page 1 to the
     table's blob, reparse it with an identity scheme, tombstone the
     victim row, append the re-serialised table as a fresh blob and
     repoint the directory at it *)
  let pager =
    match Secdb_storage.Pager.open_file ~path () with Ok p -> p | Error e -> Alcotest.fail e
  in
  let blobs = Secdb_storage.Blob_store.attach pager in
  let blob id =
    match Secdb_storage.Blob_store.load blobs id with
    | Ok data -> data
    | Error e -> Alcotest.fail (Secdb_storage.Blob_store.chain_error_to_string e)
  in
  let ok = function Ok x -> x | Error e -> Alcotest.fail e in
  let dir_id =
    Secdb_util.Xbytes.be_string_to_int (String.sub (Secdb_storage.Pager.read pager 1) 0 8)
  in
  let dir_head, entries =
    match ok (Secdb_db.Codec.unframe (blob dir_id)) with
    | magic :: section :: profile :: entries -> ([ magic; section; profile ], entries)
    | _ -> Alcotest.fail "malformed directory"
  in
  let table_id =
    List.find_map
      (fun entry ->
        match ok (Secdb_db.Codec.unframe entry) with
        | [ "T"; "t"; _; id ] -> Some (Secdb_util.Xbytes.be_string_to_int id)
        | _ -> None)
      entries
    |> Option.get
  in
  let tampered =
    let t =
      ok
        (Secdb_storage.Storage.decode_table
           ~scheme:(fun _ ->
             Secdb_schemes.Cell_scheme.
               { name = "raw"; deterministic = true;
                 encrypt = (fun _ v -> v); decrypt = (fun _ v -> Ok v) })
           (blob table_id))
    in
    Etable.delete_row t ~row:7;
    Secdb_storage.Storage.encode_table t
  in
  let be8 = Secdb_util.Xbytes.int_to_be_string ~width:8 in
  let tampered_id = Secdb_storage.Blob_store.store blobs tampered in
  let entries' =
    List.map
      (fun entry ->
        match ok (Secdb_db.Codec.unframe entry) with
        | [ "T"; "t"; col; _ ] -> Secdb_db.Codec.frame [ "T"; "t"; col; be8 tampered_id ]
        | _ -> entry)
      entries
  in
  let dir_id' = Secdb_storage.Blob_store.store blobs (Secdb_db.Codec.frame (dir_head @ entries')) in
  Secdb_storage.Pager.write pager 1 (be8 dir_id');
  Secdb_storage.Pager.close pager;
  (* also drop the victim's index entries so the index stays consistent *)
  let db' =
    match Encdb.load ~master:"anchor" ~profile:(Encdb.Fixed Encdb.Eax) ~path ~seed:9L () with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  (match Encdb.index db' ~table:"t" ~col:"v" with
  | tree -> ignore (Secdb_index.Bptree.delete tree (Value.Text "v07") ~table_row:7)
  | exception Not_found -> Alcotest.fail "index missing");
  (* silent suppression: every remaining cell verifies, queries succeed *)
  (match Etable.select_result (Encdb.table db' "t") (fun _ -> true) with
  | Ok rows -> Alcotest.(check int) "19 rows verify" 19 (List.length rows)
  | Error e -> Alcotest.fail e);
  (match Encdb.select_eq db' ~table:"t" ~col:"v" (Value.Text "v03") with
  | Ok [ _ ] -> ()
  | _ -> Alcotest.fail "reload broken");
  (match Encdb.select_eq db' ~table:"t" ~col:"v" (Value.Text "v07") with
  | Ok [] -> () (* the victim's record is just... gone, and nothing failed *)
  | _ -> Alcotest.fail "suppression visible without anchor?");
  (* the out-of-band anchor catches it *)
  Alcotest.(check bool) "digest mismatch" false (Encdb.digest db' = anchor)

(* The verifier must reject implausible proofs outright: a SHA-256 tree
   never needs more than 64 levels, and every sibling (and the root) is
   exactly 32 bytes.  The 65-level proof below is honestly computed — its
   root matches the hash chain — so only the length cap can refuse it. *)
let test_implausible_proofs_rejected () =
  let h = Secdb_hash.Sha256.digest in
  let node acc sib = h ("\x01" ^ acc ^ sib) in
  let sib = String.make 32 's' in
  let leaf = "deep" in
  let chain_root n = List.init n (fun _ -> sib) |> List.fold_left node (h ("\x00" ^ leaf)) in
  let chain n = List.init n (fun _ -> (sib, `Right)) in
  if not (M.verify ~root:(chain_root 64) ~leaf (chain 64)) then
    Alcotest.fail "64-level proof rejected (within the bound)";
  if M.verify ~root:(chain_root 65) ~leaf (chain 65) then
    Alcotest.fail "65-level proof accepted";
  let leaves = [ "a"; "b"; "c" ] in
  let root = M.root leaves in
  let proof = M.prove leaves ~index:0 in
  if M.verify ~root ~leaf:"a" ((String.make 31 'x', `Left) :: proof) then
    Alcotest.fail "31-byte sibling accepted";
  if M.verify ~root ~leaf:"a" ((String.make 33 'x', `Right) :: proof) then
    Alcotest.fail "33-byte sibling accepted";
  if M.verify ~root:"not 32 bytes" ~leaf:"a" proof then Alcotest.fail "short root accepted"

let suites =
  [
    ( "storage:merkle",
      [
        Alcotest.test_case "roots" `Quick test_merkle_roots;
        Alcotest.test_case "inclusion proofs" `Quick test_merkle_proofs;
        Alcotest.test_case "implausible proofs rejected" `Quick test_implausible_proofs_rejected;
      ] );
    ( "storage:anchor",
      [
        Alcotest.test_case "database digest" `Quick test_db_digest;
        Alcotest.test_case "suppression attack and anchor" `Quick
          test_suppression_attack_and_anchor;
      ] );
  ]

let qc = Test_seed.qc

let prop_merkle_proofs =
  QCheck2.Test.make ~name:"random proofs verify; mutations break them" ~count:100
    QCheck2.Gen.(pair (list_size (int_range 1 40) (string_size (int_range 0 20))) (int_bound 1000))
    (fun (leaves, pick) ->
      let root = M.root leaves in
      let i = pick mod List.length leaves in
      let proof = M.prove leaves ~index:i in
      let leaf = List.nth leaves i in
      M.verify ~root ~leaf proof
      && (not (M.verify ~root ~leaf:(leaf ^ "!") proof))
      &&
      (* changing any other leaf changes the root *)
      let mutated = List.mapi (fun j l -> if j = (i + 1) mod List.length leaves then l ^ "x" else l) leaves in
      M.root mutated <> root || List.length leaves = 0)

let test_digest_survives_save_load () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "secdb_anchor_roundtrip.db" in
  let db = make_db () in
  let anchor = Encdb.digest db in
  Encdb.save db ~path ();
  match Encdb.load ~master:"anchor" ~profile:(Encdb.Fixed Encdb.Eax) ~path ~seed:17L () with
  | Error e -> Alcotest.fail e
  | Ok db' ->
      Alcotest.(check string) "anchor matches after faithful save/load"
        (Secdb_util.Xbytes.to_hex anchor)
        (Secdb_util.Xbytes.to_hex (Encdb.digest db'))

let suites =
  suites
  @ [
      ( "storage:merkle-props",
        [
          qc prop_merkle_proofs;
          Alcotest.test_case "anchor survives save/load" `Quick test_digest_survives_save_load;
        ] );
    ]
