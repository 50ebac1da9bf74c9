open Secdb_util
module Value = Secdb_db.Value
module Address = Secdb_db.Address
module B = Secdb_index.Bptree
module Einst = Secdb_schemes.Einst
module Cell_scheme = Secdb_schemes.Cell_scheme

let hex = Xbytes.of_hex
let key = hex "000102030405060708090a0b0c0d0e0f"
let key2 = hex "ffeeddccbbaa99887766554433221100"
let aes k = Secdb_cipher.Aes.cipher ~key:k
let mu = Address.mu_sha1 ~width:16
let addr = Address.v ~table:1 ~row:5 ~col:2
let addr' = Address.v ~table:1 ~row:6 ~col:2

(* --- E instantiations -------------------------------------------------- *)

let einsts rng =
  [
    Einst.cbc_zero_iv (aes key);
    Einst.ecb (aes key);
    Einst.ctr_zero (aes key);
    Einst.ofb_zero (aes key);
    Einst.cbc_random_iv (aes key) rng;
  ]

let test_einst_roundtrips () =
  let rng = Rng.create ~seed:2L () in
  List.iter
    (fun (e : Einst.t) ->
      List.iter
        (fun n ->
          let m = Rng.bytes rng n in
          match e.dec (e.enc m) with
          | Ok m' when m' = m -> ()
          | _ -> Alcotest.fail (e.name ^ ": roundtrip failed"))
        [ 0; 1; 15; 16; 17; 64; 100 ])
    (einsts rng)

let test_einst_determinism () =
  (* assumption (3) of the analysed scheme *)
  let rng = Rng.create ~seed:3L () in
  List.iter
    (fun (e : Einst.t) ->
      let m = "a fixed plaintext spanning blocks.." in
      if e.deterministic then
        Alcotest.(check string) (e.name ^ " deterministic") (e.enc m) (e.enc m)
      else
        Alcotest.(check bool) (e.name ^ " randomised") false (e.enc m = e.enc m))
    (einsts rng)

let test_einst_prefix_leak () =
  (* the structural fact behind all the pattern-matching attacks: under
     CBC/zero-IV, shared plaintext block prefixes give shared ciphertext
     block prefixes *)
  let e = Einst.cbc_zero_iv (aes key) in
  let a = String.make 32 'P' ^ "suffix one........." in
  let b = String.make 32 'P' ^ "another suffix!!!!!" in
  Alcotest.(check int) "two shared blocks" 2
    (Xbytes.common_block_prefix ~block:16 (e.enc a) (e.enc b));
  let e' = Einst.cbc_random_iv (aes key) (Rng.create ()) in
  Alcotest.(check int) "random IV hides prefixes" 0
    (Xbytes.common_block_prefix ~block:16 (e'.enc a) (e'.enc b))

let test_einst_dec_errors () =
  let e = Einst.cbc_zero_iv (aes key) in
  (match e.dec "" with Error _ -> () | Ok _ -> Alcotest.fail "empty accepted");
  (match e.dec "123" with Error _ -> () | Ok _ -> Alcotest.fail "unaligned accepted");
  let e' = Einst.cbc_random_iv (aes key) (Rng.create ()) in
  match e'.dec (String.make 16 'x') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "iv-only ciphertext accepted"

(* --- cell schemes ------------------------------------------------------ *)

let append_scheme () = Secdb_schemes.Cell_append.make ~e:(Einst.cbc_zero_iv (aes key)) ~mu

let xor_scheme () =
  Secdb_schemes.Cell_xor.make ~e:(Einst.cbc_zero_iv (aes key)) ~mu ~validate:Xbytes.is_ascii7 ()

let fixed_scheme () =
  Secdb_schemes.Fixed_cell.make
    ~aead:(Secdb_aead.Eax.make (aes key))
    ~nonce:(Secdb_aead.Nonce.counter ~size:16 ()) ()

let test_append_roundtrip () =
  let s = append_scheme () in
  List.iter
    (fun v ->
      match Cell_scheme.decrypt s addr (Cell_scheme.encrypt s addr v) with
      | Ok v' when v' = v -> ()
      | _ -> Alcotest.fail "append roundtrip")
    [ ""; "x"; String.make 16 'a'; String.make 100 'b' ]

let test_append_position_binding () =
  let s = append_scheme () in
  let ct = Cell_scheme.encrypt s addr "attribute value" in
  match Cell_scheme.decrypt s addr' ct with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "append scheme accepted relocation"

let test_append_deterministic () =
  let s = append_scheme () in
  Alcotest.(check bool) "flag" true s.Cell_scheme.deterministic;
  Alcotest.(check string) "equal cells equal ciphertexts"
    (Cell_scheme.encrypt s addr "v") (Cell_scheme.encrypt s addr "v")

let test_xor_roundtrip_and_binding () =
  let s = xor_scheme () in
  let v = "sixteen byte str" in
  (match Cell_scheme.decrypt s addr (Cell_scheme.encrypt s addr v) with
  | Ok v' when v' = v -> ()
  | _ -> Alcotest.fail "xor roundtrip");
  (* wrong address: accepted only on high-bit collisions, overwhelmingly
     rejected for a random pair *)
  let accepted = ref 0 in
  for row = 100 to 140 do
    let target = Address.v ~table:1 ~row ~col:2 in
    match Cell_scheme.decrypt s target (Cell_scheme.encrypt s addr v) with
    | Ok _ -> incr accepted
    | Error _ -> ()
  done;
  Alcotest.(check bool) "relocations mostly rejected" true (!accepted <= 1)

let test_xor_zero_extension_lossiness () =
  (* the scheme's documented lossiness for values shorter than mu's width *)
  let s = xor_scheme () in
  match Cell_scheme.decrypt s addr (Cell_scheme.encrypt s addr "abc") with
  | Ok v ->
      Alcotest.(check string) "zero-extended" ("abc" ^ String.make 13 '\000') v
  | Error _ -> Alcotest.fail "short value rejected outright"

let test_fixed_cell () =
  let s = fixed_scheme () in
  Alcotest.(check bool) "randomised" false s.Cell_scheme.deterministic;
  List.iter
    (fun v ->
      (match Cell_scheme.decrypt s addr (Cell_scheme.encrypt s addr v) with
      | Ok v' when v' = v -> ()
      | _ -> Alcotest.fail "fixed roundtrip");
      (* relocation rejected *)
      (match Cell_scheme.decrypt s addr' (Cell_scheme.encrypt s addr v) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "fixed scheme accepted relocation");
      (* nondeterminism *)
      Alcotest.(check bool) "fresh nonces" false
        (Cell_scheme.encrypt s addr v = Cell_scheme.encrypt s addr v))
    [ ""; "v"; String.make 64 'z' ];
  (* bit flips anywhere are rejected *)
  let ct = Cell_scheme.encrypt s addr "protect me" in
  for i = 0 to (8 * String.length ct) - 1 do
    match Cell_scheme.decrypt s addr (Xbytes.flip_bit ct i) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "bit flip %d accepted" i)
  done;
  Alcotest.(check int) "storage overhead = aead + framing"
    (32 + 12)
    (Secdb_schemes.Fixed_cell.storage_overhead ~aead:(Secdb_aead.Eax.make (aes key)))

(* --- index codecs ------------------------------------------------------ *)

let leaf_ctx = { B.index_table = 1000; node_row = 7; kind = B.Leaf }
let inner_ctx = { B.index_table = 1000; node_row = 3; kind = B.Inner }
let other_leaf_ctx = { B.index_table = 1000; node_row = 8; kind = B.Leaf }

let codec3 () = Secdb_schemes.Index3.codec ~e:(Einst.cbc_zero_iv (aes key))

let codec12 ?(mac_key = key) () =
  Secdb_schemes.Index12.codec
    ~e:(Einst.cbc_zero_iv (aes key))
    ~mac_cipher:(aes mac_key) ~rng:(Rng.create ~seed:5L ()) ~indexed_table:1 ~indexed_col:2 ()

let codec_fixed () =
  Secdb_schemes.Fixed_index.codec
    ~aead:(Secdb_aead.Ocb.make (aes key))
    ~nonce:(Secdb_aead.Nonce.counter ~size:16 ())
    ~indexed_table:1 ~indexed_col:2 ()

let codec12_repaired () = codec12 ~mac_key:key2 ()

let codec_fixed_siv () =
  Secdb_schemes.Fixed_index.codec
    ~aead:(Secdb_aead.Siv.make (aes key2) (aes key))
    ~nonce:(Secdb_aead.Nonce.counter ~size:16 ())
    ~indexed_table:1 ~indexed_col:2 ()

let codec_fixed_gcm () =
  Secdb_schemes.Fixed_index.codec
    ~aead:(Secdb_aead.Gcm.make (aes key))
    ~nonce:(Secdb_aead.Nonce.counter ~size:12 ())
    ~indexed_table:1 ~indexed_col:2 ()

let all_codecs () =
  [
    (codec3 (), true);
    (codec12 (), true);
    (codec12_repaired (), true);
    (codec_fixed (), false);
    (codec_fixed_siv (), false);
    (codec_fixed_gcm (), false);
  ]

let test_codec_roundtrips () =
  List.iter
    (fun ((c : B.codec), _) ->
      let v = Value.Text "an indexed attribute value" in
      (match c.decode leaf_ctx (c.encode leaf_ctx ~value:v ~table_row:(Some 42)) with
      | Ok (v', Some 42) when Value.equal v v' -> ()
      | _ -> Alcotest.fail (c.codec_name ^ ": leaf roundtrip"));
      match c.decode inner_ctx (c.encode inner_ctx ~value:v ~table_row:None) with
      | Ok (v', None) when Value.equal v v' -> ()
      | _ -> Alcotest.fail (c.codec_name ^ ": inner roundtrip"))
    (all_codecs ())

let test_codec_position_binding () =
  (* moving a payload to a different node row must be rejected: [3] binds
     r_I in the plaintext, [12] MACs Ref_S, the fix authenticates the AD *)
  List.iter
    (fun ((c : B.codec), _) ->
      let payload =
        c.encode leaf_ctx ~value:(Value.Text "bound to node 7") ~table_row:(Some 1)
      in
      match c.decode other_leaf_ctx payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (c.codec_name ^ ": relocation accepted"))
    (all_codecs ())

let test_codec_unverified_variants () =
  List.iter
    (fun ((c : B.codec), has_unverified) ->
      Alcotest.(check bool)
        (c.codec_name ^ " unverified decode availability")
        has_unverified
        (c.decode_unverified <> None);
      match c.decode_unverified with
      | None -> ()
      | Some unverified -> (
          (* the buggy leaf handling accepts a relocated payload *)
          let payload =
            c.encode leaf_ctx ~value:(Value.Text "bound to node 7") ~table_row:(Some 1)
          in
          match unverified other_leaf_ctx payload with
          | Ok (Value.Text "bound to node 7", Some 1) -> ()
          | _ -> Alcotest.fail (c.codec_name ^ ": unverified decode failed")))
    (all_codecs ())

let test_index12_mac_coverage () =
  let c = codec12 () in
  let payload = c.encode leaf_ctx ~value:(Value.Text "cover me") ~table_row:(Some 9) in
  (* tamper the encrypted table reference: MAC must catch it *)
  (match Secdb_db.Codec.unframe3 payload with
  | Ok (etilde, e_reft, tag) -> (
      let flipped = Xbytes.flip_bit e_reft 3 in
      match c.decode leaf_ctx (Secdb_db.Codec.frame [ etilde; flipped; tag ]) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "tampered Ref_T accepted")
  | Error _ -> Alcotest.fail "unframe");
  (* tampering the tag itself *)
  match Secdb_db.Codec.unframe3 payload with
  | Ok (etilde, e_reft, tag) -> (
      match c.decode leaf_ctx (Secdb_db.Codec.frame [ etilde; e_reft; Xbytes.flip_bit tag 0 ]) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "tampered MAC accepted")
  | Error _ -> Alcotest.fail "unframe"

let test_index12_randomised_etilde () =
  (* Ẽ appends fresh randomness: two encodings of the same entry differ *)
  let c = codec12 () in
  let p1 = c.encode leaf_ctx ~value:(Value.Text "same") ~table_row:(Some 1) in
  let p2 = c.encode leaf_ctx ~value:(Value.Text "same") ~table_row:(Some 1) in
  Alcotest.(check bool) "payloads differ" false (p1 = p2);
  (* ... but, as the paper shows, their leading blocks coincide for long
     values: the appended randomness only touches the tail *)
  let long = Value.Text (String.make 48 'L') in
  let q1 = c.encode leaf_ctx ~value:long ~table_row:(Some 1) in
  let q2 = c.encode leaf_ctx ~value:long ~table_row:(Some 1) in
  match (Secdb_db.Codec.unframe3 q1, Secdb_db.Codec.unframe3 q2) with
  | Ok (e1, _, _), Ok (e2, _, _) ->
      Alcotest.(check int) "3 shared leading blocks" 3
        (Xbytes.common_block_prefix ~block:16 e1 e2)
  | _ -> Alcotest.fail "unframe"

let test_index12_kind_confusion () =
  (* an inner payload (no Ref_T) decoded as a leaf (or vice versa) *)
  let c = codec12 () in
  let inner_payload = c.encode inner_ctx ~value:(Value.Text "sep") ~table_row:None in
  match c.decode { inner_ctx with kind = B.Leaf } inner_payload with
  | Error _ -> ()
  | Ok (_, None) -> () (* acceptable: entry correctly reports no table row *)
  | Ok (_, Some _) -> Alcotest.fail "kind confusion produced a table row"

let test_index12_bulk_load_reproducible () =
  (* the codec draws from its RNG on every encode; one seed must give one
     tree, byte for byte *)
  let entries = List.init 97 (fun i -> (Value.Text (Printf.sprintf "k%04d" (i / 3)), i)) in
  let build seed =
    let codec =
      Secdb_schemes.Index12.codec
        ~e:(Einst.cbc_zero_iv (aes key))
        ~mac_cipher:(aes key2) ~rng:(Rng.create ~seed ()) ~indexed_table:1 ~indexed_col:2 ()
    in
    B.bulk_load ~id:1000 ~codec entries
  in
  let t = build 7L in
  (match B.validate t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check (list int)) "duplicates found" [ 30; 31; 32 ] (B.find t (Value.Text "k0010"));
  Alcotest.(check bool) "same seed, same tree" true (B.snapshot t = B.snapshot (build 7L));
  Alcotest.(check bool) "other seed, other bytes" false (B.snapshot t = B.snapshot (build 8L))

(* --- trees over encrypted codecs --------------------------------------- *)

let build_tree codec n =
  let t = B.create ~order:4 ~id:1000 ~codec () in
  for i = 0 to n - 1 do
    B.insert t (Value.Text (Printf.sprintf "value-%03d" (i * 7 mod n))) ~table_row:i
  done;
  t

let test_trees_over_codecs () =
  List.iter
    (fun ((c : B.codec), _) ->
      let t = build_tree c 150 in
      (match B.validate t with
      | Ok () -> ()
      | Error e -> Alcotest.fail (c.codec_name ^ ": " ^ e));
      Alcotest.(check int) (c.codec_name ^ " size") 150 (B.size t);
      (* every value findable *)
      for i = 0 to 149 do
        let v = Value.Text (Printf.sprintf "value-%03d" i) in
        if B.find t v = [] then Alcotest.fail (c.codec_name ^ ": lost " ^ Value.to_string v)
      done;
      (* range scan is globally sorted *)
      let all = B.range t () in
      Alcotest.(check int) (c.codec_name ^ " range size") 150 (List.length all);
      (* relocating a payload between leaves is detected on search *)
      let leaves = ref [] in
      B.iter_nodes
        (fun v -> if v.B.node_kind = B.Leaf && Array.length v.B.payloads > 0 then leaves := v :: !leaves)
        t;
      match !leaves with
      | a :: b :: _ ->
          B.set_payload t ~row:a.B.row ~slot:0 b.B.payloads.(0);
          (match B.validate t with
          | Error _ -> ()
          | Ok () -> Alcotest.fail (c.codec_name ^ ": relocation survived validate"))
      | _ -> Alcotest.fail "not enough leaves")
    (all_codecs ())

let test_index3_inner_leaf_shapes () =
  let c = codec3 () in
  Alcotest.check_raises "inner with table row"
    (Invalid_argument "index3: inner entries carry no table row") (fun () ->
      ignore (c.encode inner_ctx ~value:(Value.Int 1L) ~table_row:(Some 3)));
  Alcotest.check_raises "leaf without table row"
    (Invalid_argument "index3: leaf entries need a table row") (fun () ->
      ignore (c.encode leaf_ctx ~value:(Value.Int 1L) ~table_row:None))

let qc = Test_seed.qc

let prop_append_roundtrip =
  QCheck2.Test.make ~name:"append scheme roundtrip" ~count:200
    QCheck2.Gen.(pair (string_size (int_range 0 100)) (int_bound 1000))
    (fun (v, row) ->
      let s = append_scheme () in
      let a = Address.v ~table:1 ~row ~col:0 in
      Cell_scheme.decrypt s a (Cell_scheme.encrypt s a v) = Ok v)

let prop_fixed_rejects_cross_cell =
  QCheck2.Test.make ~name:"fixed scheme rejects any cross-cell move" ~count:100
    QCheck2.Gen.(triple (string_size (int_range 0 60)) (int_bound 500) (int_bound 500))
    (fun (v, r1, r2) ->
      r1 = r2
      ||
      let s = fixed_scheme () in
      let a1 = Address.v ~table:1 ~row:r1 ~col:0 and a2 = Address.v ~table:1 ~row:r2 ~col:0 in
      match Cell_scheme.decrypt s a2 (Cell_scheme.encrypt s a1 v) with
      | Error _ -> true
      | Ok _ -> false)

let suites =
  [
    ( "schemes:einst",
      [
        Alcotest.test_case "roundtrips" `Quick test_einst_roundtrips;
        Alcotest.test_case "determinism (assumption 3)" `Quick test_einst_determinism;
        Alcotest.test_case "prefix leak under CBC0" `Quick test_einst_prefix_leak;
        Alcotest.test_case "decode errors" `Quick test_einst_dec_errors;
      ] );
    ( "schemes:cells",
      [
        Alcotest.test_case "append roundtrip" `Quick test_append_roundtrip;
        Alcotest.test_case "append position binding" `Quick test_append_position_binding;
        Alcotest.test_case "append determinism" `Quick test_append_deterministic;
        Alcotest.test_case "xor roundtrip + binding" `Quick test_xor_roundtrip_and_binding;
        Alcotest.test_case "xor zero-extension lossiness" `Quick
          test_xor_zero_extension_lossiness;
        Alcotest.test_case "fixed cell scheme" `Quick test_fixed_cell;
        qc prop_append_roundtrip;
        qc prop_fixed_rejects_cross_cell;
      ] );
    ( "schemes:index-codecs",
      [
        Alcotest.test_case "roundtrips" `Quick test_codec_roundtrips;
        Alcotest.test_case "position binding" `Quick test_codec_position_binding;
        Alcotest.test_case "unverified decode variants" `Quick test_codec_unverified_variants;
        Alcotest.test_case "index12 MAC coverage" `Quick test_index12_mac_coverage;
        Alcotest.test_case "index12 randomised etilde" `Quick test_index12_randomised_etilde;
        Alcotest.test_case "index12 kind confusion" `Quick test_index12_kind_confusion;
        Alcotest.test_case "index12 bulk load reproducible under one seed" `Quick
          test_index12_bulk_load_reproducible;
        Alcotest.test_case "index3 shape validation" `Quick test_index3_inner_leaf_shapes;
        Alcotest.test_case "trees over all codecs" `Quick test_trees_over_codecs;
      ] );
  ]
