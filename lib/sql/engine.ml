module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Etable = Secdb_query.Encrypted_table
module Encdb = Secdb.Encdb
module Metrics = Secdb_obs.Metrics
module Obs = Secdb_obs.Obs

type outcome =
  | Rows of { columns : string list; rows : Value.t list list }
  | Affected of int
  | Created
  | Plan of string

let ( let* ) = Result.bind

(* --- predicate evaluation ------------------------------------------------ *)

(* [row] is an {!Etable.row}: a cell is decrypted the first time it is read *)
let eval_operand schema row = function
  | Ast.Col c -> (
      match Schema.col_index schema c with
      | i -> Ok (Etable.cell row i)
      | exception Not_found -> Error (Printf.sprintf "unknown column %s" c))
  | Ast.Lit v -> Ok v
  | e -> Error (Fmt.str "expected a column or literal, got %a" Ast.pp_expr e)

(* SQL-ish semantics: any comparison involving NULL is false *)
let compare_values op a b =
  if a = Value.Null || b = Value.Null then false
  else
    let c = Value.compare a b in
    match op with
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0

let rec eval schema row = function
  | Ast.Cmp (op, a, b) ->
      let* va = eval_operand schema row a in
      let* vb = eval_operand schema row b in
      Ok (compare_values op va vb)
  | Ast.Between (e, lo, hi) ->
      let* v = eval_operand schema row e in
      let* vlo = eval_operand schema row lo in
      let* vhi = eval_operand schema row hi in
      Ok (compare_values Ast.Ge v vlo && compare_values Ast.Le v vhi)
  | Ast.And (a, b) ->
      let* va = eval schema row a in
      if va then eval schema row b else Ok false
  | Ast.Or (a, b) ->
      let* va = eval schema row a in
      if va then Ok true else eval schema row b
  | Ast.Not e ->
      let* v = eval schema row e in
      Ok (not v)
  | (Ast.Col _ | Ast.Lit _) as e ->
      Error (Fmt.str "not a predicate: %a" Ast.pp_expr e)

(* --- name resolution ------------------------------------------------------

   The planner and executor work on a [resolved] select: for a single
   table every [table.column] reference is stripped back to the bare
   column; for a join every reference is qualified (unqualified names
   resolve against both schemas, erroring when ambiguous) and the result
   schema is the two tables' columns under their qualified names, left
   table first — declared order, independent of which side the planner
   later makes the outer. *)

type resolved = {
  rs : Ast.select;
  schema : Schema.t;
  join : (string * string * string * string) option;
      (** (left table, left col, right table, right col) of the ON clause,
          base column names *)
}

exception Resolve of string

let schema_of_exn db table =
  match Encdb.table db table with
  | t -> Etable.schema t
  | exception Not_found -> raise (Resolve (Printf.sprintf "unknown table %s" table))

let map_cols f s =
  let rec expr = function
    | Ast.Col c -> Ast.Col (f c)
    | Ast.Lit _ as e -> e
    | Ast.Cmp (op, a, b) -> Ast.Cmp (op, expr a, expr b)
    | Ast.Between (a, lo, hi) -> Ast.Between (expr a, expr lo, expr hi)
    | Ast.And (a, b) -> Ast.And (expr a, expr b)
    | Ast.Or (a, b) -> Ast.Or (expr a, expr b)
    | Ast.Not a -> Ast.Not (expr a)
  in
  let item = function
    | Ast.Field c -> Ast.Field (f c)
    | Ast.Aggregate (fn, col) -> Ast.Aggregate (fn, Option.map f col)
  in
  {
    s with
    Ast.items = Option.map (List.map item) s.Ast.items;
    where = Option.map expr s.Ast.where;
    group_by = Option.map f s.Ast.group_by;
    order_by = Option.map (fun (c, d) -> (f c, d)) s.Ast.order_by;
  }

let resolve_exn db (s : Ast.select) =
  match s.Ast.join with
  | None ->
      let schema = schema_of_exn db s.Ast.table in
      let strip c =
        match Planner.split_qual c with
        | Some (t, b) when t = s.Ast.table -> b
        | Some (t, _) -> raise (Resolve (Printf.sprintf "unknown table %s in reference %s" t c))
        | None -> c
      in
      { rs = map_cols strip s; schema; join = None }
  | Some j ->
      let t1 = s.Ast.table and t2 = j.Ast.jtable in
      if t1 = t2 then raise (Resolve (Printf.sprintf "self-join on %s is not supported" t1));
      let s1 = schema_of_exn db t1 and s2 = schema_of_exn db t2 in
      let has sc b = match Schema.col_index sc b with _ -> true | exception Not_found -> false in
      let qualify c =
        match Planner.split_qual c with
        | Some (t, _) when t <> t1 && t <> t2 ->
            raise (Resolve (Printf.sprintf "unknown table %s in reference %s" t c))
        | Some _ -> c
        | None ->
            let in1 = has s1 c and in2 = has s2 c in
            if in1 && in2 then raise (Resolve (Printf.sprintf "ambiguous column %s" c))
            else if in1 then t1 ^ "." ^ c
            else if in2 then t2 ^ "." ^ c
            else raise (Resolve (Printf.sprintf "unknown column %s" c))
      in
      (* the ON clause's two sides must land on the two distinct tables;
         normalize to (left table, left col, right table, right col) *)
      let on_side c =
        match Planner.split_qual (qualify c) with
        | Some tb -> tb
        | None -> assert false
      in
      let (ta, ca) = on_side j.Ast.on_left and (tb, cb) = on_side j.Ast.on_right in
      if ta = tb then
        raise (Resolve (Printf.sprintf "join ON must relate %s to %s" t1 t2));
      let c1, c2 = if ta = t1 then (ca, cb) else (cb, ca) in
      let qualified t sc =
        List.init (Schema.ncols sc) (fun i ->
            let c = Schema.col sc i in
            { c with Schema.name = t ^ "." ^ c.Schema.name })
      in
      let schema =
        Schema.v ~table_name:(t1 ^ "+" ^ t2) (qualified t1 s1 @ qualified t2 s2)
      in
      { rs = map_cols qualify s; schema; join = Some (t1, c1, t2, c2) }

let resolve db s = try Ok (resolve_exn db s) with Resolve e -> Error e

(* --- planning ------------------------------------------------------------ *)

let plan_of_select db (s : Ast.select) =
  match resolve db s with
  | Ok r -> Planner.choose db r.rs ~join:r.join
  | Error e -> failwith e

let candidate_plans db (s : Ast.select) =
  match resolve db s with
  | Ok r -> Planner.candidates db r.rs ~join:r.join
  | Error e -> failwith e

(* --- projection and aggregation ------------------------------------------ *)

let is_aggregate = function Ast.Aggregate _ -> true | Ast.Field _ -> false

let col_index_res schema c =
  match Schema.col_index schema c with
  | i -> Ok i
  | exception Not_found -> Error (Printf.sprintf "unknown column %s" c)

(* fold an aggregate over a group of rows *)
let aggregate schema fn col rows =
  let* values =
    match col with
    | None -> Ok None
    | Some c ->
        let* i = col_index_res schema c in
        Ok (Some (List.map (fun (_, r) -> Etable.cell r i) rows))
  in
  match (fn, values) with
  | Ast.Count, None -> Ok (Value.Int (Int64.of_int (List.length rows)))
  | Ast.Count, Some vs ->
      Ok (Value.Int (Int64.of_int (List.length (List.filter (fun v -> v <> Value.Null) vs))))
  | (Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), None ->
      Error "aggregate requires a column"
  | (Ast.Min | Ast.Max), Some vs -> (
      let vs = List.filter (fun v -> v <> Value.Null) vs in
      match vs with
      | [] -> Ok Value.Null
      | v :: rest ->
          let pick cmp a b = if cmp (Value.compare a b) then a else b in
          Ok
            (List.fold_left
               (pick (if fn = Ast.Min then fun d -> d < 0 else fun d -> d > 0))
               v rest))
  | (Ast.Sum | Ast.Avg), Some vs -> (
      let ints =
        List.filter_map (function Value.Int i -> Some i | _ -> None)
          (List.filter (fun v -> v <> Value.Null) vs)
      in
      let non_int = List.exists (function Value.Null | Value.Int _ -> false | _ -> true) vs in
      if non_int then Error "SUM/AVG require an INT column"
      else
        match (fn, ints) with
        | _, [] -> Ok Value.Null
        | Ast.Sum, ints -> Ok (Value.Int (List.fold_left Int64.add 0L ints))
        | Ast.Avg, ints ->
            Ok
              (Value.Int
                 (Int64.div (List.fold_left Int64.add 0L ints)
                    (Int64.of_int (List.length ints))))
        | _ -> assert false)

(* final projection: plain fields, or aggregates (optionally grouped) *)
let project schema (s : Ast.select) rows =
  let items =
    match s.Ast.items with
    | None -> List.init (Schema.ncols schema) (fun i -> Ast.Field (Schema.col schema i).Schema.name)
    | Some items -> items
  in
  let columns = List.map Ast.sel_item_name items in
  if List.exists is_aggregate items then begin
    let* groups =
      match s.Ast.group_by with
      | None -> Ok [ (Value.Null, rows) ]
      | Some c ->
          let* i = col_index_res schema c in
          let tbl = Hashtbl.create 16 in
          let order = ref [] in
          List.iter
            (fun ((_, r) as row) ->
              let k = Etable.cell r i in
              match Hashtbl.find_opt tbl (Value.encode k) with
              | Some l -> l := row :: !l
              | None ->
                  Hashtbl.add tbl (Value.encode k) (ref [ row ]);
                  order := k :: !order)
            rows;
          Ok
            (List.rev_map
               (fun k -> (k, List.rev !(Hashtbl.find tbl (Value.encode k))))
               !order
            |> List.sort (fun (a, _) (b, _) -> Value.compare a b))
    in
    let* out =
      List.fold_left
        (fun acc (key, group) ->
          let* acc = acc in
          let* cells =
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                match item with
                | Ast.Field c ->
                    if s.Ast.group_by = Some c then Ok (key :: acc)
                    else
                      Error
                        (Printf.sprintf "column %s must appear in GROUP BY or an aggregate" c)
                | Ast.Aggregate (fn, col) ->
                    let* v = aggregate schema fn col group in
                    Ok (v :: acc))
              (Ok []) items
            |> Result.map List.rev
          in
          Ok (cells :: acc))
        (Ok []) groups
      |> Result.map List.rev
    in
    Ok (Rows { columns; rows = out })
  end
  else begin
    let* col_ids =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | Ast.Field c ->
              let* i = col_index_res schema c in
              Ok (i :: acc)
          | Ast.Aggregate _ -> assert false)
        (Ok []) items
      |> Result.map List.rev
    in
    if s.Ast.group_by <> None then Error "GROUP BY requires aggregates in the select list"
    else
      Ok
        (Rows
           {
             columns;
             rows = List.map (fun (_, r) -> List.map (Etable.cell r) col_ids) rows;
           })
  end

(* --- execution ------------------------------------------------------------ *)

(* every access path hands its candidates over in ascending row order —
   the canonical order that makes all plans (and the snapshot fast path)
   byte-identical before the shared filter/sort/limit tail.  Rows are
   lazy {!Etable.row}s: the tail decrypts only the cells it reads. *)
let canonical rows = List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) rows

let readers tbl ids = List.map (fun id -> (id, Etable.reader tbl id)) (List.sort Int.compare ids)

let access_rows db ~table access =
  let tbl = Encdb.table db table in
  match access with
  | Plan.Index_probe { col; lo; hi; _ } ->
      Result.map (readers tbl) (Encdb.index_rows db ~table ~col ?lo ?hi ())
  | Plan.Bucket_scan { col; lo; hi; _ } ->
      Result.map (readers tbl) (Encdb.bucket_rows db ~table ~col ?lo ?hi ())
  | Plan.Seq_scan -> Ok (Etable.scan tbl)

(* inner equi-join.  Output rows are keyed (left row, right row) and the
   cells are left table's then right table's, whatever side the plan made
   the outer; Null join keys match nothing on either side. *)
let join_rows db ~outer ~outer_access ~inner ~strategy ~outer_col ~inner_col ~swapped =
  let itbl = Encdb.table db inner in
  let* oi = col_index_res (Etable.schema (Encdb.table db outer)) outer_col in
  let* ii = col_index_res (Etable.schema itbl) inner_col in
  let combine (orow, o) (irow, i) =
    if swapped then ((irow, orow), Etable.append i o) else ((orow, irow), Etable.append o i)
  in
  let* outer_rows = access_rows db ~table:outer outer_access in
  let* pairs =
    match strategy with
    | Plan.Loop_join ->
        (* materialize the inner once, hash it on the join key *)
        let* inner_rows = access_rows db ~table:inner Plan.Seq_scan in
        let buckets = Hashtbl.create 64 in
        List.iter
          (fun ((_, ir) as irow) ->
            let k = Etable.cell ir ii in
            if k <> Value.Null then begin
              match Hashtbl.find_opt buckets (Value.encode k) with
              | Some l -> l := irow :: !l
              | None -> Hashtbl.add buckets (Value.encode k) (ref [ irow ])
            end)
          (List.rev inner_rows);
        Ok
          (List.concat_map
             (fun ((_, o) as orow) ->
               let k = Etable.cell o oi in
               if k = Value.Null then []
               else
                 match Hashtbl.find_opt buckets (Value.encode k) with
                 | None -> []
                 | Some l ->
                     List.filter_map
                       (fun ((_, ir) as irow) ->
                         if compare_values Ast.Eq (Etable.cell ir ii) k then
                           Some (combine orow irow)
                         else None)
                       !l)
             outer_rows)
    | Plan.Index_loop_join ->
        (* one exact-index probe on the inner table per outer row; an inner
           row matched by several outer rows is read through one reader *)
        let seen = Hashtbl.create 64 in
        let inner_row id =
          match Hashtbl.find_opt seen id with
          | Some r -> (id, r)
          | None ->
              let r = Etable.reader itbl id in
              Hashtbl.add seen id r;
              (id, r)
        in
        List.fold_left
          (fun acc ((_, o) as orow) ->
            let* acc = acc in
            let k = Etable.cell o oi in
            if k = Value.Null then Ok acc
            else
              let* ids = Encdb.index_rows db ~table:inner ~col:inner_col ~lo:k ~hi:k () in
              let matches =
                List.filter
                  (fun (_, ir) -> compare_values Ast.Eq (Etable.cell ir ii) k)
                  (List.map inner_row (List.sort Int.compare ids))
              in
              Ok (List.rev_append (List.rev_map (combine orow) matches) acc))
          (Ok []) outer_rows
        |> Result.map List.rev
  in
  Ok (canonical pairs)

(* residual filter, order, limit, projection — shared between the locked
   executor and the snapshot fast path, so both produce identical bytes *)
let finish_select schema (s : Ast.select) candidates =
  (* residual filter: the full predicate, always *)
  let* filtered =
    match s.Ast.where with
    | None -> Ok candidates
    | Some where ->
        List.fold_left
          (fun acc ((_, r) as row) ->
            let* acc = acc in
            let* keep = eval schema r where in
            Ok (if keep then row :: acc else acc))
          (Ok []) candidates
        |> Result.map List.rev
  in
  let* ordered =
    match s.Ast.order_by with
    | None -> Ok filtered
    | Some (c, dir) -> (
        match Schema.col_index schema c with
        | i ->
            let cmp (_, a) (_, b) =
              let d = Value.compare (Etable.cell a i) (Etable.cell b i) in
              match dir with Ast.Asc -> d | Ast.Desc -> -d
            in
            Ok (List.stable_sort cmp filtered)
        | exception Not_found -> Error (Printf.sprintf "unknown column %s" c))
  in
  let limited =
    match s.Ast.limit with
    | None -> ordered
    | Some n ->
        let rec take k = function
          | [] -> []
          | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
        in
        take n ordered
  in
  project schema s limited

(* a protected cell that fails authentication aborts the statement with
   {!Etable.cell}'s one error text, whichever plan read it *)
let reading f = try f () with Failure e -> Error e

(* per-plan latency histograms, for observability; only touched while obs
   is on so obs-off processes keep an empty registry *)
let timed plan f =
  if Obs.on () then
    Metrics.time (Metrics.histogram ~labels:[ ("plan", Plan.name plan) ] "sql.plan_latency") f
  else f ()

let exec_resolved db (r : resolved) plan =
  timed plan (fun () ->
      reading (fun () ->
          match (plan, r.join) with
          | Plan.Scan { table; access; _ }, None ->
              let* rows = access_rows db ~table access in
              finish_select r.schema r.rs rows
          | ( Plan.Join { outer; outer_access; inner; strategy; outer_col; inner_col; swapped; _ },
              Some _ ) ->
              let* rows =
                join_rows db ~outer ~outer_access ~inner ~strategy ~outer_col ~inner_col
                  ~swapped
              in
              finish_select r.schema r.rs rows
          | _ -> Error "plan does not match the query's shape"))

let run_select db (s : Ast.select) =
  let* r = resolve db s in
  let plan = Planner.choose db r.rs ~join:r.join in
  exec_resolved db r plan

(* execute under a caller-chosen plan (bench and oracle tests force every
   candidate and compare bytes) *)
let exec_plan db (s : Ast.select) plan =
  let* r = resolve db s in
  exec_resolved db r plan

(* --- snapshot fast path ---------------------------------------------------

   A point lookup — SELECT with WHERE exactly [col = literal] — or a
   single-column range — [col BETWEEN lo AND hi] — can be answered from a
   shard's published {!Snapshot.t} without the shard lock.  The candidate
   set is canonicalized to ascending row order — the same order every
   executor plan now presents — and the tail is {!finish_select} itself,
   so the bytes match the locked executor's.  JOINs, and selects using
   qualified [table.column] references (whose resolution needs the live
   catalog), return [None] and fall through to the locked engine — a
   structured fallback, never an exception. *)

let uses_qualified_names (s : Ast.select) =
  let qual c = String.contains c '.' in
  let rec expr = function
    | Ast.Col c -> qual c
    | Ast.Lit _ -> false
    | Ast.Cmp (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) -> expr a || expr b
    | Ast.Between (a, lo, hi) -> expr a || expr lo || expr hi
    | Ast.Not a -> expr a
  in
  let item = function
    | Ast.Field c -> qual c
    | Ast.Aggregate (_, col) -> Option.fold ~none:false ~some:qual col
  in
  (match s.Ast.items with Some items -> List.exists item items | None -> false)
  || Option.fold ~none:false ~some:expr s.Ast.where
  || Option.fold ~none:false ~some:qual s.Ast.group_by
  || (match s.Ast.order_by with Some (c, _) -> qual c | None -> false)

let snapshot_select snap (s : Ast.select) ~col candidates_of =
  match Snapshot.table snap s.Ast.table with
  | None -> None
  | Some ts -> (
      let schema = Snapshot.schema ts in
      match Schema.col_index schema col with
      | exception Not_found ->
          (* unknown-column errors depend on scan order; let the executor
             report them canonically *)
          None
      | ci ->
          let rows = List.map (fun (id, vs) -> (id, Etable.of_values vs)) (candidates_of ts ci) in
          Some (finish_select schema s (canonical rows)))

let exec_snapshot snap stmt =
  match stmt with
  | Ast.Select s when s.Ast.join <> None || uses_qualified_names s -> None
  | Ast.Select s -> (
      match s.Ast.where with
      | Some (Ast.Cmp (Ast.Eq, Ast.Col c, Ast.Lit v))
      | Some (Ast.Cmp (Ast.Eq, Ast.Lit v, Ast.Col c)) ->
          snapshot_select snap s ~col:c (fun ts ci ->
              match Snapshot.index_probe ts ~col:ci v with
              | Some rows -> rows
              | None -> Snapshot.all_rows ts)
      | Some (Ast.Between (Ast.Col c, Ast.Lit lo, Ast.Lit hi)) ->
          snapshot_select snap s ~col:c (fun ts ci ->
              match Snapshot.index_range ts ~col:ci ~lo ~hi with
              | Some rows -> rows
              | None -> Snapshot.all_rows ts)
      | _ -> None)
  | _ -> None

(* rows matching a WHERE clause, for UPDATE/DELETE *)
let matching_rows db ~table where =
  let s =
    {
      Ast.items = None;
      table;
      join = None;
      where;
      group_by = None;
      order_by = None;
      limit = None;
    }
  in
  let* r = resolve db s in
  let* candidates =
    match Planner.choose db r.rs ~join:None with
    | Plan.Scan { table = t; access; _ } -> access_rows db ~table:t access
    | Plan.Join _ -> assert false
  in
  match r.rs.Ast.where with
  | None -> Ok (List.map fst candidates)
  | Some w ->
      List.fold_left
        (fun acc (id, row) ->
          let* acc = acc in
          let* keep = eval r.schema row w in
          Ok (if keep then id :: acc else acc))
        (Ok []) candidates
      |> Result.map List.rev

let exec_stmt db stmt =
  let protect f =
    try f () with
    | Invalid_argument e | Failure e -> Error e
    | Not_found -> Error "no such table or column"
  in
  match stmt with
  | Ast.Select s -> protect (fun () -> run_select db s)
  | Ast.Explain s ->
      protect (fun () -> Ok (Plan (Fmt.str "%a" Plan.pp (plan_of_select db s))))
  | Ast.Insert { table; values } ->
      protect (fun () ->
          let _row = Encdb.insert db ~table values in
          Ok (Affected 1))
  | Ast.Update { table; col; value; where } ->
      protect (fun () ->
          let* rows = matching_rows db ~table where in
          let* () =
            List.fold_left
              (fun acc row ->
                let* () = acc in
                Encdb.update db ~table ~row ~col value)
              (Ok ()) rows
          in
          Ok (Affected (List.length rows)))
  | Ast.Delete { table; where } ->
      protect (fun () ->
          let* rows = matching_rows db ~table where in
          let* () =
            List.fold_left
              (fun acc row ->
                let* () = acc in
                Encdb.delete_row db ~table ~row)
              (Ok ()) rows
          in
          Ok (Affected (List.length rows)))
  | Ast.Create_table { name; cols } ->
      protect (fun () ->
          let columns =
            List.map
              (fun (c : Ast.column_def) ->
                Schema.column ~protection:c.Ast.col_protection c.Ast.col_name c.Ast.col_type)
              cols
          in
          Encdb.create_table db (Schema.v ~table_name:name columns);
          Ok Created)
  | Ast.Create_index { table; col } ->
      protect (fun () ->
          Encdb.create_index db ~table ~col;
          Ok Created)
  | Ast.Create_range_index { table; col; buckets } ->
      protect (fun () ->
          Encdb.create_range_index db ~table ~col ?buckets ();
          Ok Created)

let exec db input =
  let* stmt = Parser.parse input in
  exec_stmt db stmt

let exec_script db input =
  let* stmts = Parser.parse_many input in
  List.fold_left
    (fun acc stmt ->
      let* acc = acc in
      let* outcome = exec_stmt db stmt in
      Ok ((stmt, outcome) :: acc))
    (Ok []) stmts
  |> Result.map List.rev

let pp_result ppf = function
  | Affected n -> Fmt.pf ppf "%d row(s) affected" n
  | Created -> Fmt.string ppf "created"
  | Plan p -> Fmt.pf ppf "plan: %s" p
  | Rows { columns; rows } ->
      let cell v = Fmt.str "%a" Value.pp v in
      let table = List.map (List.map cell) rows in
      let widths =
        List.mapi
          (fun i c ->
            List.fold_left
              (fun w row -> max w (String.length (List.nth row i)))
              (String.length c) table)
          columns
      in
      let pad s w = s ^ String.make (w - String.length s) ' ' in
      let render_row cells =
        String.concat " | " (List.map2 pad cells widths)
      in
      Fmt.pf ppf "%s@." (render_row columns);
      Fmt.pf ppf "%s@." (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
      List.iter (fun row -> Fmt.pf ppf "%s@." (render_row row)) table;
      Fmt.pf ppf "(%d row(s))" (List.length rows)
