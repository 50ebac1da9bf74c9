(* Cost-model planner: deterministic tie-breaking, the cardinality
   gauges, and an oracle that compares the adaptive executor, every
   forced candidate plan, the snapshot fast path and a plaintext
   decrypt-all reference on random tables and random JOIN / ORDER BY /
   BETWEEN workloads. *)

open Secdb
module Value = Secdb_db.Value
module A = Secdb_sql.Ast
module P = Secdb_sql.Parser
module E = Secdb_sql.Engine
module Pl = Secdb_sql.Plan
module Snap = Secdb_sql.Snapshot
module Metrics = Secdb_obs.Metrics
module Schema = Secdb_db.Schema
module Etable = Secdb_query.Encrypted_table

let exec db sql =
  match E.exec db sql with Ok r -> r | Error e -> Alcotest.fail (sql ^ ": " ^ e)

(* --- deterministic tie-breaking ------------------------------------------- *)

let test_tie_break () =
  (* equal-cost candidates fall to the pinned ranks, never to float noise
     or hash order *)
  let scan access cost = Pl.Scan { table = "t"; access; cost } in
  let ip = Pl.Index_probe { col = "c"; lo = None; hi = None; estimate = 0.5 } in
  let bs = Pl.Bucket_scan { col = "c"; lo = None; hi = None; buckets = 4; estimate = 0.5 } in
  Alcotest.(check bool) "exact index beats bucket at equal cost" true
    (Pl.compare (scan ip 10.) (scan bs 10.) < 0);
  Alcotest.(check bool) "bucket beats full scan at equal cost" true
    (Pl.compare (scan bs 10.) (scan Pl.Seq_scan 10.) < 0);
  Alcotest.(check bool) "cheaper wins regardless of rank" true
    (Pl.compare (scan Pl.Seq_scan 9.) (scan ip 10.) < 0);
  (* a column carrying BOTH an exact and a range index: the choice is a
     function of the maintained stats alone, identical across session
     seeds and repeated calls, and the exact index is the pinned winner *)
  let build seed =
    let db =
      Encdb.create ~seed:(Int64.of_int seed) ~master:"tie" ~profile:(Encdb.Fixed Encdb.Eax) ()
    in
    ignore (exec db "CREATE TABLE t (id INT CLEAR, v INT)");
    for i = 0 to 49 do
      ignore (exec db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * 2)))
    done;
    ignore (exec db "CREATE INDEX ON t (v)");
    ignore (exec db "CREATE RANGE INDEX ON t (v) BUCKETS 4");
    db
  in
  let q = "SELECT * FROM t WHERE v BETWEEN 10 AND 20" in
  let plan db =
    match P.parse q with Ok (A.Select s) -> E.plan_of_select db s | _ -> Alcotest.fail "parse"
  in
  let db1 = build 1 and db2 = build 999 in
  Alcotest.(check string) "same plan across seeds" (Pl.name (plan db1)) (Pl.name (plan db2));
  Alcotest.(check string) "stable across calls" (Pl.name (plan db1)) (Pl.name (plan db1));
  (match plan db1 with
  | Pl.Scan { access = Pl.Index_probe _; _ } -> ()
  | p -> Alcotest.failf "expected the exact index to win, got %s" (Pl.name p));
  (* both paths stay live candidates *)
  let names =
    match P.parse q with
    | Ok (A.Select s) -> List.map Pl.name (E.candidate_plans db1 s)
    | _ -> Alcotest.fail "parse"
  in
  Alcotest.(check bool) "bucket still a candidate" true (List.mem "bucket" names);
  Alcotest.(check bool) "seq still a candidate" true (List.mem "seq" names)

(* --- cardinality gauges ---------------------------------------------------- *)

let test_row_gauges () =
  Secdb_obs.Obs.with_enabled @@ fun () ->
  let db = Encdb.create ~master:"gauges" ~profile:(Encdb.Fixed Encdb.Eax) () in
  ignore (exec db "CREATE TABLE g (id INT CLEAR, v INT)");
  for i = 0 to 9 do
    ignore (exec db (Printf.sprintf "INSERT INTO g VALUES (%d, %d)" i i))
  done;
  ignore (exec db "DELETE FROM g WHERE v BETWEEN 0 AND 2");
  Alcotest.(check int) "live_rows tracks inserts and deletes" 7
    (Encdb.live_rows db ~table:"g");
  Alcotest.(check int) "db.rows gauge mirrors live_rows" 7
    (Metrics.gauge_value (Metrics.gauge ~labels:[ ("table", "g") ] "db.rows"))

(* --- plan labels ------------------------------------------------------------ *)

let test_join_labels_distinct () =
  (* the outer table has an exact and a range index on the filtered column
     and the inner table an exact index on the join key, so every outer
     access path meets both join strategies *)
  let db = Encdb.create ~master:"labels" ~profile:(Encdb.Fixed Encdb.Eax) () in
  ignore (exec db "CREATE TABLE orders (id INT CLEAR, cust INT, total INT)");
  ignore (exec db "CREATE TABLE custs (id INT CLEAR, cust INT, region INT)");
  for i = 0 to 39 do
    ignore
      (exec db (Printf.sprintf "INSERT INTO orders VALUES (%d, %d, %d)" i (i mod 8) (i * 7)))
  done;
  for i = 0 to 9 do
    ignore (exec db (Printf.sprintf "INSERT INTO custs VALUES (%d, %d, %d)" i (i mod 8) (i mod 3)))
  done;
  ignore (exec db "CREATE INDEX ON orders (total)");
  ignore (exec db "CREATE RANGE INDEX ON orders (total) BUCKETS 4");
  ignore (exec db "CREATE INDEX ON custs (cust)");
  let q =
    "SELECT * FROM orders JOIN custs ON orders.cust = custs.cust WHERE total BETWEEN 0 AND 100"
  in
  let names =
    match P.parse q with
    | Ok (A.Select s) -> List.map Pl.name (E.candidate_plans db s)
    | _ -> Alcotest.fail "parse"
  in
  Alcotest.(check int) "candidates" 7 (List.length names);
  Alcotest.(check (list string)) "every label distinct"
    (List.sort compare names) (List.sort_uniq compare names);
  Alcotest.(check bool) "outer access path in the label" true
    (List.mem "index-loop-join@bucket:total" names)

(* --- lazy reads --------------------------------------------------------------

   Every plan reads the cells a statement uses through the same lazy
   reader, which decrypts a cell on its first read and never otherwise. *)

(* orders (40 rows, cust = i mod 8) with exact and range indexes on total
   and an exact index on cust; custs (10 rows) with an exact index on cust,
   so every access path and both join strategies on both sides are live *)
let orders_custs_db () =
  let db = Encdb.create ~master:"tamper" ~profile:(Encdb.Fixed Encdb.Eax) () in
  ignore (exec db "CREATE TABLE orders (id INT CLEAR, cust INT, total INT, note TEXT)");
  ignore (exec db "CREATE TABLE custs (id INT CLEAR, cust INT, region INT)");
  for i = 0 to 39 do
    ignore
      (exec db
         (Printf.sprintf "INSERT INTO orders VALUES (%d, %d, %d, 'n%d')" i (i mod 8) (i * 7) i))
  done;
  for i = 0 to 9 do
    ignore
      (exec db (Printf.sprintf "INSERT INTO custs VALUES (%d, %d, %d)" i (i mod 8) (i mod 3)))
  done;
  List.iter
    (fun sql -> ignore (exec db sql))
    [
      "CREATE INDEX ON orders (total)";
      "CREATE RANGE INDEX ON orders (total) BUCKETS 4";
      "CREATE INDEX ON orders (cust)";
      "CREATE INDEX ON custs (cust)";
    ];
  db

(* one tampered cell gives every candidate plan the same error, naming the
   cell; a statement that never reads the cell is answered *)
let test_tampered_cell_one_error () =
  (* every candidate plan returns what the adaptive executor returns *)
  let plans_agree db sql =
    match P.parse sql with
    | Ok (A.Select s) ->
        let adaptive = E.exec_stmt db (A.Select s) in
        List.iter
          (fun p ->
            if E.exec_plan db s p <> adaptive then
              Alcotest.failf "%s: plan %s answers differently" sql (Pl.name p))
          (E.candidate_plans db s);
        adaptive
    | _ -> Alcotest.fail ("parse: " ^ sql)
  in
  (* row 5 of [table.col] gets row 6's ciphertext: one relocated cell *)
  let case ~table ~col ~reads ~skips =
    let db = orders_custs_db () in
    let tbl = Encdb.table db table in
    let c = Schema.col_index (Etable.schema tbl) col in
    Etable.set_raw tbl ~row:5 ~col:c (Option.get (Etable.raw_ciphertext tbl ~row:6 ~col:c));
    let cell = Printf.sprintf "cell (%d,5,%d): " (Etable.id tbl) c in
    List.iter
      (fun sql ->
        match plans_agree db sql with
        | Error e when String.starts_with ~prefix:cell e -> ()
        | Error e -> Alcotest.failf "%s: error %S does not name %s.%s" sql e table col
        | Ok _ -> Alcotest.failf "%s: answered over tampered %s.%s" sql table col)
      reads;
    List.iter
      (fun sql ->
        match plans_agree db sql with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s never reads %s.%s, yet: %s" sql table col e)
      skips;
    db
  in
  let join what = "SELECT " ^ what ^ " FROM orders JOIN custs ON orders.cust = custs.cust" in
  let window = " WHERE total BETWEEN 30 AND 60" in
  let db =
    case ~table:"orders" ~col:"total"
      ~reads:[ "SELECT id FROM orders" ^ window; "SELECT id FROM orders ORDER BY total LIMIT 3" ]
      ~skips:
        [
          "SELECT id, note FROM orders WHERE cust = 5";
          "SELECT cust, COUNT(*) FROM orders GROUP BY cust";
        ]
  in
  (match E.exec db "UPDATE orders SET note = 'x' WHERE cust = 5" with
  | Ok (E.Affected 5) -> ()
  | Ok r -> Alcotest.failf "update: %a" E.pp_result r
  | Error e -> Alcotest.failf "update by cust never reads total, yet: %s" e);
  ignore
    (case ~table:"orders" ~col:"cust"
       ~reads:
         [
           join "orders.id, region" ^ window;
           "SELECT cust, COUNT(*) FROM orders" ^ window ^ " GROUP BY cust";
           "SELECT id FROM orders" ^ window ^ " ORDER BY cust";
           "SELECT id, cust FROM orders" ^ window;
         ]
       ~skips:[ "SELECT id, note FROM orders" ^ window; "SELECT SUM(total) FROM orders" ]);
  ignore
    (case ~table:"orders" ~col:"note"
       ~reads:[ "SELECT note FROM orders" ^ window; "SELECT * FROM orders WHERE cust = 5" ]
       ~skips:[ "SELECT id, cust FROM orders" ^ window; join "orders.id, region" ^ window ]);
  ignore
    (case ~table:"custs" ~col:"region"
       ~reads:
         [
           join "orders.id, region" ^ window;
           "SELECT region, COUNT(*) FROM custs GROUP BY region";
         ]
       ~skips:[ join "orders.id" ^ window; "SELECT id FROM custs WHERE cust = 5" ])

(* every plan of this join reads orders.cust (40 cells), custs.cust and
   custs.region (10 each): a cell read twice in one statement, e.g. an
   inner row met again by a later index probe, is decrypted once *)
let test_cells_decrypted_once () =
  Secdb_obs.Obs.with_enabled @@ fun () ->
  let db = orders_custs_db () in
  let s =
    match P.parse "SELECT orders.id, region FROM orders JOIN custs ON orders.cust = custs.cust" with
    | Ok (A.Select s) -> s
    | _ -> Alcotest.fail "parse"
  in
  let cells = Metrics.counter "table.cells_decrypted" in
  List.iter
    (fun p ->
      let c0 = Metrics.value cells in
      (match E.exec_plan db s p with
      | Ok (E.Rows { rows; _ }) -> Alcotest.(check int) "join rows" 50 (List.length rows)
      | _ -> Alcotest.failf "plan %s failed" (Pl.name p));
      Alcotest.(check int) (Pl.name p ^ ": cells decrypted") 60 (Metrics.value cells - c0))
    (E.candidate_plans db s)

(* --- oracle ----------------------------------------------------------------

   t1 (id INT CLEAR, k INT, a INT) and t2 (id INT CLEAR, k INT, b INT)
   with random rows (k nullable), random index layouts, random queries.
   The plaintext reference replicates the engine's canonical semantics
   over plain value arrays: candidates ascending by row id — join outputs
   by (left row, right row) — then residual filter, stable ORDER BY sort,
   LIMIT.  Every result is compared as an ordered list; without ORDER BY
   the canonical order itself is the contract. *)

type query =
  | Single of A.expr option * (string * A.order) option * int option
  | Join of A.expr option * (string * A.order) option * int option

type scenario = {
  rows1 : (int option * int) list;  (* (k, a) — None = NULL key *)
  rows2 : (int option * int) list;  (* (k, b) *)
  idx1 : bool;  (* exact index on t1.k *)
  ridx1 : int option;  (* range index on t1.k with this many buckets *)
  idx2 : bool;  (* exact index on t2.k — enables the index loop join *)
  q : query;
}

let gen_scenario =
  QCheck2.Gen.(
    let row = pair (option (int_range 0 9)) (int_range 0 99) in
    let* rows1 = list_size (int_range 0 24) row in
    let* rows2 = list_size (int_range 0 24) row in
    let* idx1 = bool in
    let* ridx1 = option (int_range 1 6) in
    let* idx2 = bool in
    let between col =
      let* lo = int_range (-2) 11 in
      let* hi = int_range (-2) 11 in
      return (A.Between (A.Col col, A.Lit (Value.Int (Int64.of_int lo)),
                         A.Lit (Value.Int (Int64.of_int hi))))
    in
    let eq col =
      let* x = int_range 0 9 in
      return (A.Cmp (A.Eq, A.Col col, A.Lit (Value.Int (Int64.of_int x))))
    in
    let* q =
      oneof
        [
          (let* where = option (oneof [ between "k"; eq "k" ]) in
           let* order_by =
             option (pair (oneofl [ "a"; "k" ]) (oneofl [ A.Asc; A.Desc ]))
           in
           let* limit = option (int_bound 10) in
           return (Single (where, order_by, limit)));
          (let* where = option (between "a") in
           let* order_by = option (pair (oneofl [ "b"; "a" ]) (oneofl [ A.Asc; A.Desc ])) in
           let* limit = option (int_bound 10) in
           return (Join (where, order_by, limit)));
        ]
    in
    return { rows1; rows2; idx1; ridx1; idx2; q })

let print_scenario sc =
  let rows l =
    String.concat ";"
      (List.map
         (fun (k, x) ->
           Printf.sprintf "(%s,%d)" (match k with Some k -> string_of_int k | None -> "_") x)
         l)
  in
  let sel =
    match sc.q with
    | Single (where, order_by, limit) | Join (where, order_by, limit) ->
        A.to_sql
          (A.Select
             {
               A.items = None;
               table = "t1";
               join =
                 (match sc.q with
                 | Join _ -> Some { A.jtable = "t2"; on_left = "t1.k"; on_right = "t2.k" }
                 | Single _ -> None);
               where;
               group_by = None;
               order_by;
               limit;
             })
  in
  Printf.sprintf "t1=[%s] t2=[%s] idx1=%b ridx1=%s idx2=%b q=%s" (rows sc.rows1)
    (rows sc.rows2) sc.idx1
    (match sc.ridx1 with Some b -> string_of_int b | None -> "-")
    sc.idx2 sel

let build_db sc =
  let db = Encdb.create ~master:"planner-oracle" ~profile:(Encdb.Fixed Encdb.Eax) () in
  let run sql = match E.exec db sql with Ok _ -> () | Error e -> failwith (sql ^ ": " ^ e) in
  run "CREATE TABLE t1 (id INT CLEAR, k INT, a INT)";
  run "CREATE TABLE t2 (id INT CLEAR, k INT, b INT)";
  let ins t i (k, x) =
    run
      (Printf.sprintf "INSERT INTO %s VALUES (%d, %s, %d)" t i
         (match k with Some k -> string_of_int k | None -> "NULL")
         x)
  in
  List.iteri (ins "t1") sc.rows1;
  List.iteri (ins "t2") sc.rows2;
  if sc.idx1 then run "CREATE INDEX ON t1 (k)";
  (match sc.ridx1 with
  | Some b -> run (Printf.sprintf "CREATE RANGE INDEX ON t1 (k) BUCKETS %d" b)
  | None -> ());
  if sc.idx2 then run "CREATE INDEX ON t2 (k)";
  db

let select_of sc =
  match sc.q with
  | Single (where, order_by, limit) ->
      { A.items = None; table = "t1"; join = None; where; group_by = None; order_by; limit }
  | Join (where, order_by, limit) ->
      {
        A.items = None;
        table = "t1";
        join = Some { A.jtable = "t2"; on_left = "t1.k"; on_right = "t2.k" };
        where;
        group_by = None;
        order_by;
        limit;
      }

(* plaintext reference over plain arrays *)
let reference sc =
  let v = function Some k -> Value.Int (Int64.of_int k) | None -> Value.Null in
  let arr1 i (k, a) = [| Value.Int (Int64.of_int i); v k; Value.Int (Int64.of_int a) |] in
  let t1 = List.mapi arr1 sc.rows1 in
  let t2 = List.mapi arr1 sc.rows2 in
  (* column positions in the (possibly combined) result row *)
  let col joined = function
    | "k" -> 1
    | "a" -> 2
    | "b" -> if joined then 5 else failwith "b unjoined"
    | c -> failwith c
  in
  let cmp_ok op a b =
    a <> Value.Null && b <> Value.Null
    &&
    let d = Value.compare a b in
    match op with A.Ge -> d >= 0 | A.Le -> d <= 0 | A.Eq -> d = 0 | _ -> failwith "op"
  in
  let keep joined row = function
    | None -> true
    | Some (A.Between (A.Col c, A.Lit lo, A.Lit hi)) ->
        let x = row.(col joined c) in
        cmp_ok A.Ge x lo && cmp_ok A.Le x hi
    | Some (A.Cmp (A.Eq, A.Col c, A.Lit x)) -> cmp_ok A.Eq row.(col joined c) x
    | Some _ -> failwith "where shape"
  in
  let finish joined where order_by limit rows =
    let rows = List.filter (fun (_, r) -> keep joined r where) rows in
    let rows =
      match order_by with
      | None -> rows
      | Some (c, dir) ->
          let i = col joined c in
          List.stable_sort
            (fun (_, x) (_, y) ->
              let d = Value.compare x.(i) y.(i) in
              match dir with A.Asc -> d | A.Desc -> -d)
            rows
    in
    let rows = match limit with None -> rows | Some n -> List.filteri (fun i _ -> i < n) rows in
    List.map (fun (_, r) -> Array.to_list r) rows
  in
  match sc.q with
  | Single (where, order_by, limit) ->
      finish false where order_by limit (List.mapi (fun i r -> (i, r)) t1)
  | Join (where, order_by, limit) ->
      let pairs =
        List.concat
          (List.mapi
             (fun i r1 ->
               if r1.(1) = Value.Null then []
               else
                 List.concat
                   (List.mapi
                      (fun j r2 ->
                        if r2.(1) <> Value.Null && Value.compare r1.(1) r2.(1) = 0 then
                          [ ((i, j), Array.append r1 r2) ]
                        else [])
                      t2))
             t1)
      in
      finish true where order_by limit pairs

let prop_oracle =
  QCheck2.Test.make ~name:"adaptive = every forced plan = snapshot = plaintext oracle"
    ~count:60 ~print:print_scenario gen_scenario (fun sc ->
      let db = build_db sc in
      let s = select_of sc in
      let adaptive =
        match E.exec_stmt db (A.Select s) with Ok r -> r | Error e -> failwith e
      in
      (* ordered-list agreement with the plaintext reference *)
      (match adaptive with
      | E.Rows { rows; _ } -> if rows <> reference sc then failwith "reference mismatch"
      | _ -> failwith "rows expected");
      (* every candidate plan returns the same bytes *)
      let plans = E.candidate_plans db s in
      List.iter
        (fun p ->
          match E.exec_plan db s p with
          | Ok r -> if r <> adaptive then failwith ("plan diverges: " ^ Pl.name p)
          | Error e -> failwith (Pl.name p ^ ": " ^ e))
        plans;
      (* joins must offer both nesting orders, and the index loop when the
         inner key is exact-indexed *)
      (match sc.q with
      | Join _ ->
          let names = List.map Pl.name plans in
          if not (List.mem "loop-join@seq" names) then failwith "no loop-join";
          if not (List.mem "loop-join-rev@seq" names) then failwith "no reversed loop-join";
          if sc.idx2 && not (List.mem "index-loop-join@seq" names) then
            failwith "no index-loop-join despite inner index"
      | Single _ -> ());
      (* the lock-free snapshot path, when it volunteers, matches too *)
      (match E.exec_snapshot (Snap.of_db db) (A.Select s) with
      | Some (Ok fast) -> if fast <> adaptive then failwith "snapshot diverges"
      | Some (Error e) -> failwith ("snapshot: " ^ e)
      | None -> ());
      (* EXPLAIN names the plan the executor would run *)
      (match E.exec_stmt db (A.Explain s) with
      | Ok (E.Plan p) ->
          if p <> Fmt.str "%a" Pl.pp (E.plan_of_select db s) then failwith "EXPLAIN mismatch"
      | _ -> failwith "explain");
      true)

let suites =
  [
    ( "sql:planner-oracle",
      [
        Alcotest.test_case "deterministic tie-breaking" `Quick test_tie_break;
        Alcotest.test_case "db.rows gauge tracks live rows" `Quick test_row_gauges;
        Alcotest.test_case "join plan labels are distinct" `Quick test_join_labels_distinct;
        Alcotest.test_case "one error per tampered cell, whatever the plan" `Quick
          test_tampered_cell_one_error;
        Alcotest.test_case "each cell read is decrypted once, whatever the plan" `Quick
          test_cells_decrypted_once;
        Test_seed.qc prop_oracle;
      ] );
  ]
