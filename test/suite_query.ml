open Secdb_util
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module B = Secdb_index.Bptree
module Etable = Secdb_query.Encrypted_table
module Walker = Secdb_query.Walker
module Einst = Secdb_schemes.Einst

let hex = Xbytes.of_hex
let key = hex "0f0e0d0c0b0a09080706050403020100"
let aes = Secdb_cipher.Aes.cipher ~key
let mu = Secdb_db.Address.mu_sha1 ~width:16
let append_scheme = Secdb_schemes.Cell_append.make ~e:(Einst.cbc_zero_iv aes) ~mu

let fixed_scheme () =
  Secdb_schemes.Fixed_cell.make
    ~aead:(Secdb_aead.Eax.make aes)
    ~nonce:(Secdb_aead.Nonce.counter ~size:16 ()) ()

let schema =
  Schema.v ~table_name:"people"
    [
      Schema.column ~protection:Schema.Clear "id" Value.Kint;
      Schema.column "name" Value.Ktext;
      Schema.column "age" Value.Kint;
    ]

let sample ?(scheme = append_scheme) () =
  let t = Etable.create ~id:4 schema ~scheme:(fun _ -> scheme) in
  List.iteri
    (fun i (n, a) ->
      ignore (Etable.insert t [ Value.Int (Int64.of_int i); Value.Text n; Value.Int (Int64.of_int a) ]))
    [ ("alice", 54); ("bob", 61); ("carol", 47); ("dave", 33); ("erin", 58) ];
  t

let test_etable_basics () =
  let t = sample () in
  Alcotest.(check int) "nrows" 5 (Etable.nrows t);
  Alcotest.(check string) "decrypt" "carol" (Value.text_exn (Etable.get_exn t ~row:2 ~col:1));
  Alcotest.(check int64) "clear column" 2L (Value.int_exn (Etable.get_exn t ~row:2 ~col:0));
  (* clear column stored in the clear *)
  Alcotest.(check bool) "no ciphertext for clear col" true
    (Etable.raw_ciphertext t ~row:0 ~col:0 = None);
  Alcotest.(check bool) "ciphertext for protected col" true
    (Etable.raw_ciphertext t ~row:0 ~col:1 <> None);
  (* update re-encrypts *)
  let before = Option.get (Etable.raw_ciphertext t ~row:0 ~col:1) in
  Etable.update t ~row:0 ~col:1 (Value.Text "alicia");
  Alcotest.(check string) "updated" "alicia" (Value.text_exn (Etable.get_exn t ~row:0 ~col:1));
  Alcotest.(check bool) "ciphertext changed" false
    (Etable.raw_ciphertext t ~row:0 ~col:1 = Some before);
  (* select *)
  let rows = Etable.select t (fun vs -> Value.compare vs.(2) (Value.Int 50L) > 0) in
  Alcotest.(check (list int)) "select" [ 0; 1; 4 ] (List.map fst rows)

let test_etable_tamper () =
  let t = sample () in
  (* swapping two cells: append scheme detects (address checksum) *)
  Etable.swap_cells t ~col:1 ~row_a:0 ~row_b:1;
  (match Etable.get t ~row:0 ~col:1 with
  | Error _ -> ()
  | Ok v -> Alcotest.fail ("swap accepted: " ^ Value.to_string v));
  (match Etable.select_result t (fun _ -> true) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "select_result missed tamper");
  (* set_raw on a clear column is refused *)
  Alcotest.check_raises "set_raw clear col"
    (Invalid_argument "Encrypted_table.set_raw: column is not protected") (fun () ->
      Etable.set_raw t ~row:0 ~col:0 "junk")

let test_etable_errors () =
  let t = sample () in
  Alcotest.check_raises "arity"
    (Invalid_argument "Encrypted_table.insert: expected 3 values, got 0") (fun () ->
      ignore (Etable.insert t []));
  (match Etable.insert t [ Value.Text "x"; Value.Text "y"; Value.Int 1L ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type mismatch accepted");
  Alcotest.(check int) "rejected inserts append nothing" 5 (Etable.nrows t)

let test_etable_deleted_row () =
  let t = sample ~scheme:(fixed_scheme ()) () in
  Etable.delete_row t ~row:1;
  Alcotest.(check bool) "tombstoned" false (Etable.is_live t ~row:1);
  Alcotest.(check int) "row numbers kept" 5 (Etable.nrows t);
  (match Etable.get t ~row:1 ~col:1 with
  | Error _ -> ()
  | Ok v -> Alcotest.fail ("deleted cell readable: " ^ Value.to_string v));
  Alcotest.(check (option string)) "no stored cell" None (Etable.raw_ciphertext t ~row:1 ~col:1);
  Alcotest.(check (list int)) "scan skips it" [ 0; 2; 3; 4 ]
    (List.map fst (Etable.select t (fun _ -> true)));
  Alcotest.check_raises "update refused"
    (Invalid_argument "Encrypted_table.update: row 1 is deleted") (fun () ->
      Etable.update t ~row:1 ~col:1 (Value.Text "zombie"))

let test_etable_storage_accounting () =
  let broken = sample () in
  let fixed = sample ~scheme:(fixed_scheme ()) () in
  let pt = Etable.plaintext_bytes broken ~col:1 in
  Alcotest.(check int) "same plaintext bytes" pt (Etable.plaintext_bytes fixed ~col:1);
  (* fixed adds a constant 44-byte overhead (nonce 16 + tag 16 + framing 12)
     while append adds the 16-byte checksum + padding *)
  let per_cell_fixed = (Etable.storage_bytes fixed ~col:1 - pt) / 5 in
  Alcotest.(check int) "fixed overhead per cell" 44 per_cell_fixed;
  Alcotest.(check bool) "broken also expands" true (Etable.storage_bytes broken ~col:1 > pt)

(* --- walker ------------------------------------------------------------ *)

let build_indexed_tree codec =
  let tree = B.create ~order:4 ~id:1000 ~codec () in
  for i = 0 to 99 do
    B.insert tree (Value.Int (Int64.of_int (i mod 20))) ~table_row:i
  done;
  tree

let index12_codec () =
  Secdb_schemes.Index12.codec ~e:(Einst.cbc_zero_iv aes) ~mac_cipher:aes
    ~rng:(Rng.create ~seed:51L ()) ~indexed_table:4 ~indexed_col:2 ()

let test_walker_agrees_with_tree () =
  let tree = build_indexed_tree (index12_codec ()) in
  List.iter
    (fun mode ->
      (* equality *)
      (match Walker.equal tree ~mode (Value.Int 7L) with
      | Ok a ->
          Alcotest.(check int) "eq count" 5 (List.length a.Walker.results);
          Alcotest.(check bool) "rows correct" true
            (List.for_all (fun (_, r) -> r mod 20 = 7) a.Walker.results)
      | Error e -> Alcotest.fail e);
      (* range *)
      match Walker.range tree ~mode ~lo:(Value.Int 5L) ~hi:(Value.Int 8L) () with
      | Ok a ->
          Alcotest.(check int) "range count" 20 (List.length a.Walker.results);
          Alcotest.(check (list (pair string int)))
            "matches Bptree.range"
            (List.map (fun (v, r) -> (Value.to_string v, r))
               (B.range tree ~lo:(Value.Int 5L) ~hi:(Value.Int 8L) ()))
            (List.map (fun (v, r) -> (Value.to_string v, r)) a.Walker.results)
      | Error e -> Alcotest.fail e)
    [ Walker.Published; Walker.Corrected ]

let test_walker_check_accounting () =
  let tree = build_indexed_tree (index12_codec ()) in
  (match Walker.equal tree ~mode:Walker.Published (Value.Int 3L) with
  | Ok a ->
      Alcotest.(check bool) "inner nodes verified" true (a.Walker.inner_checked > 0);
      Alcotest.(check bool) "leaves unverified (the bug)" true (a.Walker.leaf_unchecked > 0);
      Alcotest.(check int) "no verified leaves" 0 a.Walker.leaf_checked
  | Error e -> Alcotest.fail e);
  match Walker.equal tree ~mode:Walker.Corrected (Value.Int 3L) with
  | Ok a ->
      Alcotest.(check int) "no unverified leaves" 0 a.Walker.leaf_unchecked;
      Alcotest.(check bool) "leaves verified" true (a.Walker.leaf_checked > 0)
  | Error e -> Alcotest.fail e

let tamper_one_leaf tree =
  let leaves = ref [] in
  B.iter_nodes
    (fun v -> if v.B.node_kind = B.Leaf && Array.length v.B.payloads > 0 then leaves := v :: !leaves)
    tree;
  match !leaves with
  | a :: b :: _ -> B.set_payload tree ~row:a.B.row ~slot:0 b.B.payloads.(0)
  | _ -> failwith "need two leaves"

let test_walker_leaf_bug () =
  (* footnote 1: the published pseudo-code misses leaf-level tampering *)
  let tree = build_indexed_tree (index12_codec ()) in
  tamper_one_leaf tree;
  (match Walker.range tree ~mode:Walker.Published () with
  | Ok a -> Alcotest.(check int) "published: silently complete" 100 (List.length a.Walker.results)
  | Error _ -> Alcotest.fail "published mode detected leaf tampering (it must not)");
  match Walker.range tree ~mode:Walker.Corrected () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrected mode missed leaf tampering"

let test_walker_aead_immune_to_bug () =
  (* with the AEAD codec the unverified path does not exist: Published mode
     detects the tampering anyway *)
  let codec =
    Secdb_schemes.Fixed_index.codec
      ~aead:(Secdb_aead.Eax.make aes)
      ~nonce:(Secdb_aead.Nonce.counter ~size:16 ())
      ~indexed_table:4 ~indexed_col:2 ()
  in
  let tree = build_indexed_tree codec in
  tamper_one_leaf tree;
  match Walker.range tree ~mode:Walker.Published () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "AEAD index accepted tampered leaf"

let test_walker_inner_tamper_detected_in_both_modes () =
  let tree = build_indexed_tree (index12_codec ()) in
  (* tamper an inner node payload *)
  let inner = ref None in
  B.iter_nodes
    (fun v -> if v.B.node_kind = B.Inner && !inner = None then inner := Some v)
    tree;
  (match !inner with
  | Some v -> B.set_payload tree ~row:v.B.row ~slot:0 (String.make 40 'Z')
  | None -> failwith "no inner node");
  List.iter
    (fun mode ->
      match Walker.range tree ~mode ~lo:(Value.Int 0L) () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "inner tampering missed")
    [ Walker.Published; Walker.Corrected ]

let suites =
  [
    ( "query:encrypted-table",
      [
        Alcotest.test_case "basics" `Quick test_etable_basics;
        Alcotest.test_case "tamper detection" `Quick test_etable_tamper;
        Alcotest.test_case "errors" `Quick test_etable_errors;
        Alcotest.test_case "deleted rows" `Quick test_etable_deleted_row;
        Alcotest.test_case "storage accounting" `Quick test_etable_storage_accounting;
      ] );
    ( "query:walker",
      [
        Alcotest.test_case "agrees with the tree" `Quick test_walker_agrees_with_tree;
        Alcotest.test_case "integrity-check accounting" `Quick test_walker_check_accounting;
        Alcotest.test_case "footnote-1 leaf bug" `Quick test_walker_leaf_bug;
        Alcotest.test_case "AEAD immune to the bug" `Quick test_walker_aead_immune_to_bug;
        Alcotest.test_case "inner tampering always caught" `Quick
          test_walker_inner_tamper_detected_in_both_modes;
      ] );
  ]

(* --- histograms -------------------------------------------------------- *)

let test_histogram_estimates () =
  let module H = Secdb_query.Histogram in
  Alcotest.(check (float 1e-9)) "empty = no information" 1.0
    (H.selectivity (H.create ()) ~lo:(Some (Value.Int 0L)) ~hi:(Some (Value.Int 1L)));
  let h = H.of_values ~buckets:10 (List.init 1000 (fun i -> Value.Int (Int64.of_int i))) in
  Alcotest.(check int) "total" 1000 (H.total h);
  let sel lo hi = H.selectivity h ~lo:(Some (Value.Int lo)) ~hi:(Some (Value.Int hi)) in
  Alcotest.(check bool) "half-range ~ 0.5" true (Float.abs (sel 0L 499L -. 0.5) < 0.15);
  Alcotest.(check bool) "narrow ~ small" true (sel 100L 120L < 0.2);
  Alcotest.(check (float 1e-9)) "everything" 1.0 (sel (-10L) 2000L);
  Alcotest.(check (float 1e-9)) "empty window" 0.0 (sel 900L 100L);
  (* unbounded sides *)
  Alcotest.(check bool) "open low end" true
    (H.selectivity h ~lo:None ~hi:(Some (Value.Int 499L)) > 0.3);
  (* removal shrinks mass *)
  for i = 0 to 499 do
    H.remove h (Value.Int (Int64.of_int i))
  done;
  Alcotest.(check int) "total after removal" 500 (H.total h);
  Alcotest.(check bool) "low half emptied" true (sel 0L 400L < 0.2);
  (* text projection is order-consistent *)
  (match (H.to_float (Value.Text "apple"), H.to_float (Value.Text "zebra")) with
  | Some a, Some z -> Alcotest.(check bool) "lexicographic" true (a < z)
  | _ -> Alcotest.fail "text projection");
  Alcotest.(check (option (float 0.0))) "null unprojected" None (H.to_float Value.Null)

(* a value removed while the range is still being sampled must be the
   one that goes, so the histogram equals one that never saw it *)
let test_histogram_bootstrap_remove () =
  let module H = Secdb_query.Histogram in
  let v i = Value.Int (Int64.of_int i) in
  let removed = H.create ~buckets:4 () in
  List.iter (fun i -> H.add removed (v i)) [ 0; 10; 20; 30; 40; 50; 60 ];
  H.remove removed (v 0);
  List.iter (fun i -> H.add removed (v i)) [ 70; 80 ];
  let never = H.create ~buckets:4 () in
  List.iter (fun i -> H.add never (v i)) [ 10; 20; 30; 40; 50; 60; 70; 80 ];
  Alcotest.(check int) "total" (H.total never) (H.total removed);
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "selectivity [%d, %d]" lo hi)
        (H.selectivity never ~lo:(Some (v lo)) ~hi:(Some (v hi)))
        (H.selectivity removed ~lo:(Some (v lo)) ~hi:(Some (v hi))))
    [ (0, 9); (10, 30); (50, 60); (61, 80); (0, 80) ]

let suites =
  suites
  @ [
      ( "query:histogram",
        [
          Alcotest.test_case "selectivity estimation" `Quick test_histogram_estimates;
          Alcotest.test_case "removal during bootstrap" `Quick test_histogram_bootstrap_remove;
        ] );
    ]
