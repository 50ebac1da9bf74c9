module Value = Secdb_db.Value
module B = Secdb_index.Bptree
module CW = Secdb_index.Client_walk

let iv i = Value.Int (Int64.of_int i)

let fill ?(order = 4) n =
  let t = B.create ~order ~id:1 ~codec:B.plain_codec () in
  for i = 0 to n - 1 do
    B.insert t (iv ((i * 37) mod n)) ~table_row:i
  done;
  t

let test_empty_tree () =
  let t = B.create ~id:1 ~codec:B.plain_codec () in
  Alcotest.(check int) "size" 0 (B.size t);
  Alcotest.(check int) "height" 1 (B.height t);
  Alcotest.(check (list int)) "find" [] (B.find t (iv 3));
  Alcotest.(check int) "range" 0 (List.length (B.range t ()));
  (match B.validate t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "delete on empty" false (B.delete t (iv 3) ~table_row:0)

let test_single () =
  let t = B.create ~id:1 ~codec:B.plain_codec () in
  B.insert t (iv 5) ~table_row:42;
  Alcotest.(check (list int)) "find" [ 42 ] (B.find t (iv 5));
  Alcotest.(check (list int)) "miss" [] (B.find t (iv 6));
  Alcotest.(check bool) "delete" true (B.delete t (iv 5) ~table_row:42);
  Alcotest.(check int) "empty again" 0 (B.size t)

let test_duplicates () =
  let t = B.create ~order:3 ~id:1 ~codec:B.plain_codec () in
  for i = 0 to 30 do
    B.insert t (iv (i mod 3)) ~table_row:i
  done;
  let rows = B.find t (iv 1) in
  Alcotest.(check int) "all duplicates found" 10 (List.length rows);
  Alcotest.(check bool) "rows correct" true (List.for_all (fun r -> r mod 3 = 1) rows);
  (match B.validate t with Ok () -> () | Error e -> Alcotest.fail e);
  (* delete one specific duplicate *)
  Alcotest.(check bool) "delete (1, 13)" true (B.delete t (iv 1) ~table_row:13);
  Alcotest.(check bool) "gone" true (not (List.mem 13 (B.find t (iv 1))));
  Alcotest.(check int) "others remain" 9 (List.length (B.find t (iv 1)))

let test_range_scans () =
  let t = fill 200 in
  let all = B.range t () in
  Alcotest.(check int) "full range" 200 (List.length all);
  let keys = List.map fst all in
  Alcotest.(check bool) "sorted" true
    (List.for_all2 (fun a b -> Value.compare a b <= 0)
       (List.filteri (fun i _ -> i < List.length keys - 1) keys)
       (List.tl keys));
  let sub = B.range t ~lo:(iv 50) ~hi:(iv 60) () in
  Alcotest.(check int) "inclusive bounds" 11 (List.length sub);
  Alcotest.(check int) "lo only" 150 (List.length (B.range t ~lo:(iv 50) ()));
  Alcotest.(check int) "hi only" 50 (List.length (B.range t ~hi:(iv 49) ()));
  Alcotest.(check int) "empty window" 0 (List.length (B.range t ~lo:(iv 60) ~hi:(iv 50) ()))

let test_structure () =
  let t = fill ~order:4 500 in
  (match B.validate t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "height logarithmic" true (B.height t <= 7);
  Alcotest.(check int) "path length = height" (B.height t)
    (List.length (B.path_to t (iv 123)));
  (* deep tree at order 2 *)
  let t2 = fill ~order:2 500 in
  Alcotest.(check bool) "order-2 deeper" true (B.height t2 > B.height t);
  match B.validate t2 with Ok () -> () | Error e -> Alcotest.fail e

let test_delete_to_empty () =
  let t = fill ~order:3 120 in
  for i = 0 to 119 do
    let v = iv ((i * 37) mod 120) in
    if not (B.delete t v ~table_row:i) then Alcotest.fail "delete missed";
    match B.validate t with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "invalid after delete %d: %s" i e)
  done;
  Alcotest.(check int) "empty" 0 (B.size t);
  Alcotest.(check int) "root collapsed" 1 (B.height t)

let test_tamper_detection_via_plain_codec () =
  (* plain codec has no integrity, but garbage payloads still fail decode *)
  let t = fill 50 in
  let leaf = B.node_view t (B.first_leaf t) in
  B.set_payload t ~row:leaf.B.row ~slot:0 "garbage!";
  match B.find t (iv 0) with
  | exception B.Integrity _ -> ()
  | _ -> Alcotest.fail "garbage payload survived decode"

let test_node_views () =
  let t = fill 100 in
  let nodes = ref 0 and leaves = ref 0 and entries = ref 0 in
  B.iter_nodes
    (fun v ->
      incr nodes;
      if v.B.node_kind = B.Leaf then begin
        incr leaves;
        entries := !entries + Array.length v.B.payloads
      end
      else
        Alcotest.(check int) "inner fanout" (Array.length v.B.payloads + 1)
          (Array.length v.B.children))
    t;
  Alcotest.(check int) "nnodes consistent" !nodes (B.nnodes t);
  Alcotest.(check int) "leaf entries = size" 100 !entries;
  (* leaf chain covers all leaves *)
  let chain = ref 0 in
  let rec walk row =
    incr chain;
    match (B.node_view t row).B.next with Some n -> walk n | None -> ()
  in
  walk (B.first_leaf t);
  Alcotest.(check int) "chain covers leaves" !leaves !chain

let test_client_walk () =
  let t = fill ~order:4 300 in
  for probe = 0 to 20 do
    let rows, stats = CW.find t (iv probe) in
    Alcotest.(check (list int))
      (Printf.sprintf "client walk agrees with find (%d)" probe)
      (B.find t (iv probe)) rows;
    Alcotest.(check bool) "rounds >= height" true (stats.CW.rounds >= B.height t);
    Alcotest.(check bool) "rounds bounded" true (stats.CW.rounds <= B.height t + 3);
    Alcotest.(check bool) "bytes to client positive" true (stats.CW.bytes_to_client > 0);
    Alcotest.(check int) "one decision byte per round" stats.CW.rounds stats.CW.bytes_to_server
  done;
  Alcotest.(check int) "expected_rounds = height" (B.height t) (CW.expected_rounds t)

let test_create_errors () =
  Alcotest.check_raises "order too small" (Invalid_argument "Bptree.create: order must be >= 2")
    (fun () -> ignore (B.create ~order:1 ~id:1 ~codec:B.plain_codec ()))

(* model-based property test *)

let prop_model ~order =
  QCheck2.Test.make
    ~name:(Printf.sprintf "model equivalence (order %d)" order)
    ~count:30
    QCheck2.Gen.(list_size (int_range 0 400) (pair (int_range 0 9) (int_bound 50)))
    (fun ops ->
      let t = B.create ~order ~id:1 ~codec:B.plain_codec () in
      let model = ref [] in
      let row = ref 0 in
      List.iter
        (fun (op, k) ->
          if op < 7 then begin
            incr row;
            B.insert t (iv k) ~table_row:!row;
            model := (k, !row) :: !model
          end
          else
            match List.find_opt (fun (k', _) -> k' = k) !model with
            | Some (_, r) ->
                if not (B.delete t (iv k) ~table_row:r) then failwith "delete missed";
                let removed = ref false in
                model :=
                  List.filter
                    (fun (k', r') ->
                      if (not !removed) && k' = k && r' = r then begin
                        removed := true;
                        false
                      end
                      else true)
                    !model
            | None -> ())
        ops;
      (match B.validate t with Ok () -> () | Error e -> failwith e);
      (* compare a few probes and a range against the model *)
      List.for_all
        (fun k ->
          List.sort compare (B.find t (iv k))
          = List.sort compare (List.filter_map (fun (k', r) -> if k' = k then Some r else None) !model))
        [ 0; 1; 25; 50 ]
      && List.length (B.range t ()) = List.length !model)

let qc = Test_seed.qc

let suites =
  [
    ( "index:bptree",
      [
        Alcotest.test_case "empty tree" `Quick test_empty_tree;
        Alcotest.test_case "single entry" `Quick test_single;
        Alcotest.test_case "duplicate keys" `Quick test_duplicates;
        Alcotest.test_case "range scans" `Quick test_range_scans;
        Alcotest.test_case "structure invariants" `Quick test_structure;
        Alcotest.test_case "delete to empty" `Quick test_delete_to_empty;
        Alcotest.test_case "garbage payload detected" `Quick
          test_tamper_detection_via_plain_codec;
        Alcotest.test_case "node views and leaf chain" `Quick test_node_views;
        Alcotest.test_case "creation errors" `Quick test_create_errors;
        qc (prop_model ~order:2);
        qc (prop_model ~order:3);
        qc (prop_model ~order:4);
        qc (prop_model ~order:8);
      ] );
    ( "index:client-walk",
      [ Alcotest.test_case "protocol simulation (Remark 1)" `Quick test_client_walk ] );
  ]

(* --- bulk loading --------------------------------------------------------- *)

let test_bulk_load_basics () =
  let entries = List.init 100 (fun i -> (iv (i / 3), i)) in
  let t = B.bulk_load ~order:4 ~id:1 ~codec:B.plain_codec entries in
  (match B.validate t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "size" 100 (B.size t);
  Alcotest.(check (list int)) "duplicates found" [ 30; 31; 32 ] (B.find t (iv 10));
  Alcotest.(check int) "range" 100 (List.length (B.range t ()));
  (* still mutable afterwards *)
  B.insert t (iv 7) ~table_row:777;
  Alcotest.(check bool) "insert works" true (List.mem 777 (B.find t (iv 7)));
  Alcotest.(check bool) "delete works" true (B.delete t (iv 7) ~table_row:777);
  match B.validate t with Ok () -> () | Error e -> Alcotest.fail e

let test_bulk_load_rejects_unsorted () =
  Alcotest.check_raises "unsorted input"
    (Invalid_argument "Bptree.bulk_load: input not sorted") (fun () ->
      ignore (B.bulk_load ~id:1 ~codec:B.plain_codec [ (iv 2, 0); (iv 1, 1) ]))

let test_bulk_load_encode_order () =
  (* leaves are encoded once each, in entry order, so a stateful codec
     draws its nonces or randomness in input order *)
  let leaf_encodes = ref [] in
  let codec =
    {
      B.plain_codec with
      encode =
        (fun ctx ~value ~table_row ->
          (match (ctx.B.kind, table_row) with
          | B.Leaf, Some r -> leaf_encodes := (value, r) :: !leaf_encodes
          | _ -> ());
          B.plain_codec.encode ctx ~value ~table_row);
    }
  in
  let entries = List.init 50 (fun i -> (iv (i / 4), i)) in
  ignore (B.bulk_load ~order:4 ~id:1 ~codec entries);
  Alcotest.(check bool) "leaf encodes in entry order" true (List.rev !leaf_encodes = entries)

let prop_bulk_equals_incremental =
  QCheck2.Test.make ~name:"bulk load = incremental inserts" ~count:60
    QCheck2.Gen.(pair (int_range 2 9) (list_size (int_range 0 300) (int_bound 40)))
    (fun (order, keys) ->
      let entries = List.mapi (fun i k -> (iv k, i)) keys in
      let sorted = List.stable_sort (fun (a, _) (b, _) -> Secdb_db.Value.compare a b) entries in
      let bulk = B.bulk_load ~order ~id:1 ~codec:B.plain_codec sorted in
      let inc = B.create ~order ~id:1 ~codec:B.plain_codec () in
      List.iter (fun (v, r) -> B.insert inc v ~table_row:r) entries;
      (match B.validate bulk with Ok () -> () | Error e -> failwith e);
      B.size bulk = B.size inc
      && List.for_all
           (fun k ->
             List.sort compare (B.find bulk (iv k)) = List.sort compare (B.find inc (iv k)))
           (List.sort_uniq compare keys)
      && B.range bulk () = B.range inc ())

let suites =
  suites
  @ [
      ( "index:bulk-load",
        [
          Alcotest.test_case "basics" `Quick test_bulk_load_basics;
          Alcotest.test_case "rejects unsorted" `Quick test_bulk_load_rejects_unsorted;
          Alcotest.test_case "leaves encoded in entry order" `Quick test_bulk_load_encode_order;
          qc prop_bulk_equals_incremental;
        ] );
    ]

let test_client_walk_range () =
  let t = fill ~order:4 300 in
  let lo = iv 40 and hi = iv 90 in
  let results, stats = CW.range t ~lo ~hi () in
  Alcotest.(check bool) "matches Bptree.range" true (results = B.range t ~lo ~hi ());
  Alcotest.(check bool) "costs descent + extra leaves" true
    (stats.CW.rounds >= B.height t && stats.CW.nodes_fetched = stats.CW.rounds);
  (* unbounded scan touches the whole chain *)
  let all, stats_all = CW.range t () in
  Alcotest.(check int) "full scan" 300 (List.length all);
  Alcotest.(check bool) "more rounds for bigger answers" true
    (stats_all.CW.rounds > stats.CW.rounds)

let suites =
  suites
  @ [
      ( "index:client-walk-range",
        [ Alcotest.test_case "range over the protocol" `Quick test_client_walk_range ] );
    ]

(* --- bucketized range tree -------------------------------------------------- *)

module RT = Secdb_index.Range_tree

(* an AEAD sealer binding each payload to (tree id, seq, bucket) — the
   configuration Encdb deploys, so tamper/relocate detection is real *)
let rt_sealer ~tree_id =
  let rng = Secdb_util.Rng.create ~seed:77L () in
  let aead = Secdb_aead.Eax.make (Secdb_cipher.Aes_fast.cipher ~key:(Secdb_util.Rng.bytes rng 16)) in
  let nonce = Secdb_aead.Nonce.of_rng rng ~size:aead.Secdb_aead.Aead.nonce_size in
  let scheme = Secdb_schemes.Fixed_cell.make ~aead ~nonce () in
  let addr ~seq ~bucket = Secdb_db.Address.v ~table:tree_id ~row:seq ~col:bucket in
  {
    RT.sealer_name = scheme.Secdb_schemes.Cell_scheme.name;
    seal = (fun ~seq ~bucket p -> scheme.Secdb_schemes.Cell_scheme.encrypt (addr ~seq ~bucket) p);
    unseal =
      (fun ~seq ~bucket c -> scheme.Secdb_schemes.Cell_scheme.decrypt (addr ~seq ~bucket) c);
  }

let rt_fill ?(sealer = rt_sealer ~tree_id:9) ?(boundaries = [| iv 25; iv 50; iv 75 |]) n =
  let t = RT.create ~id:9 ~sealer ~boundaries () in
  for row = 0 to n - 1 do
    RT.insert t (iv ((row * 37) mod 100)) ~table_row:row
  done;
  t

let test_range_tree_roundtrip () =
  let t = rt_fill 200 in
  Alcotest.(check int) "buckets" 4 (RT.nbuckets t);
  Alcotest.(check int) "size" 200 (RT.size t);
  (* unbounded query = everything, ascending table row *)
  let all = RT.query t () in
  Alcotest.(check int) "all entries" 200 (List.length all);
  Alcotest.(check bool) "row ascending" true
    (List.for_all2
       (fun (_, r1) (_, r2) -> r1 < r2)
       (List.filteri (fun i _ -> i < List.length all - 1) all)
       (List.tl all));
  (* windows are inclusive and exact (bucket overlap filtered away) *)
  let w = RT.query t ~lo:(iv 30) ~hi:(iv 40) () in
  Alcotest.(check bool) "window exact" true
    (List.for_all (fun (v, _) -> Value.compare (iv 30) v <= 0 && Value.compare v (iv 40) <= 0) w);
  (* (row*37) mod 100 cycles with period 100, so each value occurs twice *)
  Alcotest.(check int) "window count" (2 * 11) (List.length w);
  Alcotest.(check int) "inverted window" 0 (List.length (RT.query t ~lo:(iv 40) ~hi:(iv 30) ()));
  (* the leakage surface has the right shape *)
  Alcotest.(check int) "histogram total" 200 (Array.fold_left ( + ) 0 (RT.bucket_counts t));
  let obs = RT.observed t in
  Alcotest.(check int) "observed per entry" 200 (List.length obs);
  Alcotest.(check bool) "buckets match boundaries" true
    (List.for_all (fun (seq, bucket) -> bucket = RT.bucket_of t (iv ((seq * 37) mod 100))) obs)

let test_range_tree_delete () =
  let t = rt_fill 50 in
  Alcotest.(check bool) "delete hits" true (RT.delete t (iv ((7 * 37) mod 100)) ~table_row:7);
  Alcotest.(check int) "size down" 49 (RT.size t);
  Alcotest.(check bool) "row gone" true
    (List.for_all (fun (_, r) -> r <> 7) (RT.query t ()));
  Alcotest.(check bool) "absent pair misses" false (RT.delete t (iv 1) ~table_row:999)

let test_range_tree_boundaries () =
  (match RT.create ~id:1 ~sealer:RT.plain_sealer ~boundaries:[| iv 5; iv 5 |] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing boundaries accepted");
  let b = RT.quantile_boundaries ~buckets:4 (List.init 100 (fun i -> iv (i mod 10))) in
  Alcotest.(check bool) "deduplicated, strictly increasing" true
    (Array.for_all (fun _ -> true) b
    && Array.length b <= 3
    && Array.for_all2 (fun x y -> Value.compare x y < 0)
         (Array.sub b 0 (max 0 (Array.length b - 1)))
         (Array.sub b (min 1 (Array.length b)) (max 0 (Array.length b - 1))));
  Alcotest.(check int) "single bucket" 0 (Array.length (RT.quantile_boundaries ~buckets:1 [ iv 1 ]));
  Alcotest.(check int) "empty input" 0 (Array.length (RT.quantile_boundaries [] ))

let test_range_tree_tamper () =
  let t = rt_fill 40 in
  RT.tamper t ~seq:11 ~f:(fun stored -> String.mapi (fun i c -> if i = String.length stored / 2 then Char.chr (Char.code c lxor 1) else c) stored);
  (match RT.query t () with
  | exception RT.Integrity _ -> ()
  | _ -> Alcotest.fail "tampered payload unsealed");
  (* relocation (rank shifting) also fails: the bucket is associated data *)
  let t2 = rt_fill 40 in
  let _, bucket11 = List.nth (RT.observed t2) 11 in
  let target = if bucket11 = 0 then RT.nbuckets t2 - 1 else 0 in
  RT.relocate t2 ~seq:11 ~bucket:target;
  (match RT.query t2 () with
  | exception RT.Integrity _ -> ()
  | _ -> Alcotest.fail "relocated payload unsealed");
  (* the plain sealer detects nothing, by design *)
  let t3 = rt_fill ~sealer:RT.plain_sealer 40 in
  let _, b11 = List.nth (RT.observed t3) 11 in
  RT.relocate t3 ~seq:11 ~bucket:(if b11 = 0 then 1 else 0);
  Alcotest.(check int) "plain sealer: relocation invisible" 40 (List.length (RT.query t3 ()))

let suites =
  suites
  @ [
      ( "index:range-tree",
        [
          Alcotest.test_case "roundtrip and leakage surface" `Quick test_range_tree_roundtrip;
          Alcotest.test_case "delete" `Quick test_range_tree_delete;
          Alcotest.test_case "boundaries and quantiles" `Quick test_range_tree_boundaries;
          Alcotest.test_case "tamper and relocate fail AEAD" `Quick test_range_tree_tamper;
        ] );
    ]
