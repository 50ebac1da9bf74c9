(* The three workloads: their schemas and datasets, their seeded op mixes,
   and the plaintext model each keeps to check the server's answers.

   Every value in a dataset is a pure function of the seed and the row's
   key number, so a model only has to track which keys exist (and, for
   durable-write, each key's current balance).  Every response's shape is
   checked; a seeded one-in-four sample is also compared value by value
   against the model. *)

module Value = Secdb_db.Value
module Engine = Secdb_sql.Engine
module Shard = Secdb_db.Shard
module Rng = Secdb_util.Rng

type shape = Point | Range | Agg | Join | Insert | Update | Delete

let shapes = [ Point; Range; Agg; Join; Insert; Update; Delete ]

let shape_name = function
  | Point -> "point"
  | Range -> "range"
  | Agg -> "agg"
  | Join -> "join"
  | Insert -> "insert"
  | Update -> "update-by-key"
  | Delete -> "delete-by-key"

let is_write = function Insert | Update | Delete -> true | Point | Range | Agg | Join -> false

type op = {
  shape : shape;
  sql : string;
  finish : Engine.outcome -> (unit, string) result;
      (** check the answer and, on success, fold the op into the model *)
}

type t = {
  name : string;
  tables : string list;
  main : shape;  (** the request the workload exists to measure *)
  load : string list array;  (** set-up statements, one list per connection *)
  next : conn:int -> op;  (** the next op of that connection's stream *)
  probes : unit -> op list;  (** model reads to run once the load stops *)
  index_table : string;  (** an exact-indexed table and column, for the index layer *)
  index_col : string;
  probe_key : Rng.t -> Value.t;
  fresh_row : int -> Value.t list;  (** the i-th never-used row for [index_table] *)
  cell_table : string;  (** a table and its protected columns, for the cell layer *)
  cell_cols : string list;
}

let names = [ "oltp-point"; "analytic-scan"; "durable-write" ]
let key i = Printf.sprintf "owner-%07d" i
let mix seed i k = Hashtbl.hash (seed, i, k)
let sampled rng = Rng.int rng 4 = 0
let int i = Value.Int (Int64.of_int i)
let lit v = Secdb_sql.Ast.sql_literal v
let values vs = String.concat ", " (List.map lit vs)
let insert_sql table row = Printf.sprintf "INSERT INTO %s VALUES (%s)" table (values row)
let show o = Format.asprintf "%a" Engine.pp_result o
let ( let* ) = Result.bind

(* The first of prefix0, prefix1, ... that lands on shard [s]. *)
let on_shard s prefix =
  let rec go i =
    let n = Printf.sprintf "%s%d" prefix i in
    if Shard.key_index ~shards:Node.shards n = s then n else go (i + 1)
  in
  go 0

let rows = function
  | Engine.Rows { rows; _ } -> Ok rows
  | o -> Error ("expected rows, got " ^ show o)

let affected n = function
  | Engine.Affected k when k = n -> Ok ()
  | o -> Error (Printf.sprintf "expected %d row(s) affected, got %s" n (show o))

let expect what ok = if ok then Ok () else Error what

let same_rows what got want =
  expect (Printf.sprintf "%s: answer differs from the model" what) (got = want)

(* A set of key numbers with O(1) uniform pick and removal. *)
module Bag = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then b.a <- Array.append b.a (Array.make b.n 0);
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let pick b rng = Rng.int rng b.n

  let remove_at b i =
    b.n <- b.n - 1;
    b.a.(i) <- b.a.(b.n)
end

let conn_rngs seed = Array.init 2 (fun c -> Rng.create ~seed:(Int64.of_int ((seed * 7919) + c)) ())

(* The op mix as a deck dealt in seeded order and reshuffled when spent, one
   per connection: every run sends the mix's exact proportions, so a run's
   totals do not wander with the draw. *)
let dealer rngs cards =
  let decks = Array.map (fun _ -> Array.of_list cards) rngs and pos = Array.make (Array.length rngs) 0 in
  fun conn ->
    let d = decks.(conn) in
    if pos.(conn) = 0 then Rng.shuffle rngs.(conn) d;
    let card = d.(pos.(conn)) in
    pos.(conn) <- (pos.(conn) + 1) mod Array.length d;
    card

let deck counts = List.concat_map (fun (card, n) -> List.init n (fun _ -> card)) counts

(* --- oltp-point ---------------------------------------------------------- *)

let oltp_point ~seed =
  let n = 10_000 in
  let tables = [| on_shard 0 "accounts"; on_shard 1 "accounts" |] in
  let row i =
    [ int i; Value.Text (key i); int (mix seed i 1 mod 1_000_000);
      Value.Text (Printf.sprintf "note-%06d" (mix seed i 2 mod 1_000_000)) ]
  in
  let load =
    Array.map
      (fun t ->
        (Printf.sprintf "CREATE TABLE %s (id INT CLEAR, owner TEXT, balance INT, note TEXT)" t
        :: List.init n (fun i -> insert_sql t (row i)))
        @ [ Printf.sprintf "CREATE INDEX ON %s (owner)" t ])
      tables
  in
  let present = Array.map (fun _ -> Bag.create ()) tables in
  Array.iter (fun b -> for i = 0 to n - 1 do Bag.add b i done) present;
  let mu = Mutex.create () in
  let next_id = [| n; n + 1 |] in
  let rngs = conn_rngs seed in
  let deal = dealer rngs (deck [ (Point, 9); (Insert, 1) ]) in
  let next ~conn =
    let rng = rngs.(conn) in
    let ti = Rng.int rng 2 in
    let t = tables.(ti) in
    if deal conn = Insert then begin
      let id = next_id.(conn) in
      next_id.(conn) <- id + 2;
      {
        shape = Insert;
        sql = insert_sql t (row id);
        finish =
          (fun o ->
            let* () = affected 1 o in
            Mutex.protect mu (fun () -> Bag.add present.(ti) id);
            Ok ());
      }
    end
    else begin
      let id = Mutex.protect mu (fun () -> present.(ti).a.(Bag.pick present.(ti) rng)) in
      let check = sampled rng in
      {
        shape = Point;
        sql = Printf.sprintf "SELECT * FROM %s WHERE owner = '%s'" t (key id);
        finish =
          (fun o ->
            let* rs = rows o in
            match rs with
            | [ ([ _; Value.Text k; _; _ ] as r) ] when k = key id ->
                if check then same_rows "point select" r (row id) else Ok ()
            | _ -> Error ("point select: expected the one row of " ^ key id ^ ", got " ^ show o));
      }
    end
  in
  {
    name = "oltp-point";
    tables = Array.to_list tables;
    main = Point;
    load;
    next;
    probes = (fun () -> []);
    index_table = tables.(0);
    index_col = "owner";
    probe_key = (fun rng -> Value.Text (key (Rng.int rng n)));
    fresh_row = (fun i -> row (1_000_000 + i));
    cell_table = tables.(0);
    cell_cols = [ "owner"; "balance"; "note" ];
  }

(* --- analytic-scan ------------------------------------------------------- *)

let analytic_scan ~seed =
  let n = 5_000 and nregions = 50 and span = 250 in
  let facts = on_shard 0 "facts" in
  let dims = on_shard (Shard.key_index ~shards:Node.shards facts) "dims" in
  let perm = Array.init n Fun.id in
  Rng.shuffle (Rng.create ~seed:(Int64.of_int seed) ()) perm;
  (* distinct balances, so ORDER BY balance has exactly one answer *)
  let balance i = 10_000 + (3 * perm.(i)) in
  let region i = mix seed i 3 mod nregions in
  let score i = mix seed i 4 mod 1000 in
  let region_name r = Printf.sprintf "region-%02d" r in
  let load =
    [|
      (Printf.sprintf "CREATE TABLE %s (id INT CLEAR, balance INT, region INT, score INT)" facts
      :: List.init n (fun i -> insert_sql facts [ int i; int (balance i); int (region i); int (score i) ]))
      @ [ Printf.sprintf "CREATE RANGE INDEX ON %s (balance)" facts ];
      (Printf.sprintf "CREATE TABLE %s (region INT, name TEXT)" dims
      :: List.init nregions (fun r -> insert_sql dims [ int r; Value.Text (region_name r) ]))
      @ [ Printf.sprintf "CREATE INDEX ON %s (region)" dims ];
    |]
  in
  let ids_where p = List.filter p (List.init n Fun.id) in
  let rec take k = function [] -> [] | x :: xs -> if k = 0 then [] else x :: take (k - 1) xs in
  let rngs = conn_rngs seed in
  let window rng =
    let lo = 10_000 + (3 * Rng.int rng (n - span)) in
    (lo, lo + (3 * span) - 1)
  in
  let deal = dealer rngs (deck [ (Range, 4); (Agg, 3); (Join, 3) ]) in
  let next ~conn =
    let rng = rngs.(conn) in
    let card = deal conn in
    let check = sampled rng in
    if card = Range then begin
      let lo, hi = window rng and s = Rng.int rng 500 in
      {
        shape = Range;
        sql =
          Printf.sprintf
            "SELECT id, balance, score FROM %s WHERE balance BETWEEN %d AND %d AND score >= %d \
             ORDER BY balance LIMIT 20"
            facts lo hi s;
        finish =
          (fun o ->
            let* rs = rows o in
            let* () =
              expect "range: malformed rows"
                (List.length rs <= 20
                && List.for_all (function [ Value.Int _; Value.Int _; Value.Int _ ] -> true | _ -> false) rs)
            in
            if not check then Ok ()
            else
              ids_where (fun i -> balance i >= lo && balance i <= hi && score i >= s)
              |> List.sort (fun a b -> compare (balance a) (balance b))
              |> take 20
              |> List.map (fun i -> [ int i; int (balance i); int (score i) ])
              |> same_rows "range" rs);
      }
    end
    else if card = Agg then begin
      let s = 1 + Rng.int rng 999 in
      {
        shape = Agg;
        sql =
          Printf.sprintf
            "SELECT region, COUNT(*), SUM(balance) FROM %s WHERE score < %d GROUP BY region" facts s;
        finish =
          (fun o ->
            let* rs = rows o in
            let* () =
              expect "agg: malformed rows"
                (List.length rs <= nregions
                && List.for_all (function [ Value.Int _; Value.Int _; Value.Int _ ] -> true | _ -> false) rs)
            in
            if not check then Ok ()
            else begin
              let cnt = Array.make nregions 0 and sum = Array.make nregions 0 in
              List.iter
                (fun i ->
                  cnt.(region i) <- cnt.(region i) + 1;
                  sum.(region i) <- sum.(region i) + balance i)
                (ids_where (fun i -> score i < s));
              List.init nregions Fun.id
              |> List.filter (fun g -> cnt.(g) > 0)
              |> List.map (fun g -> [ int g; int cnt.(g); int sum.(g) ])
              |> same_rows "agg" rs
            end);
      }
    end
    else begin
      let lo, hi = window rng in
      {
        shape = Join;
        sql =
          Printf.sprintf
            "SELECT %s.id, %s.name FROM %s JOIN %s ON %s.region = %s.region WHERE %s.balance \
             BETWEEN %d AND %d LIMIT 20"
            facts dims facts dims facts dims facts lo hi;
        finish =
          (fun o ->
            let* rs = rows o in
            let ok_row = function
              | [ Value.Int id; Value.Text name ] ->
                  let i = Int64.to_int id in
                  (not check)
                  || i >= 0 && i < n && balance i >= lo && balance i <= hi
                     && name = region_name (region i)
              | _ -> false
            in
            let want = min 20 (List.length (ids_where (fun i -> balance i >= lo && balance i <= hi))) in
            expect "join: answer differs from the model"
              (List.for_all ok_row rs
              && List.length rs = want
              && List.length (List.sort_uniq compare rs) = want));
      }
    end
  in
  {
    name = "analytic-scan";
    tables = [ facts; dims ];
    main = Range;
    load;
    next;
    probes = (fun () -> []);
    index_table = dims;
    index_col = "region";
    probe_key = (fun rng -> int (Rng.int rng nregions));
    fresh_row = (fun i -> [ int (i mod nregions); Value.Text (Printf.sprintf "extra-%d" i) ]);
    cell_table = facts;
    cell_cols = [ "balance"; "region"; "score" ];
  }

(* --- durable-write ------------------------------------------------------- *)

(* Keys keep their shared "owner-" prefix: the planner's histogram projects
   text from its first bytes, so the by-key UPDATE/DELETE below plan as full
   scans today, and this workload keeps that cost visible. *)
let durable_write ~seed =
  let n = 5_000 and table = "ledger" in
  let row i bal =
    [ int i; Value.Text (key i); int bal;
      Value.Text (Printf.sprintf "memo-%06d" (mix seed i 2 mod 1_000_000)) ]
  in
  let balance0 i = mix seed i 1 mod 1_000_000 in
  let load =
    [|
      (Printf.sprintf "CREATE TABLE %s (id INT CLEAR, owner TEXT, balance INT, memo TEXT)" table
      :: List.init n (fun i -> insert_sql table (row i (balance0 i))))
      @ [ Printf.sprintf "CREATE INDEX ON %s (owner)" table ];
      [];
    |]
  in
  (* each connection owns the keys congruent to it mod 2, so the two
     streams never race on one key *)
  let live = Array.init 2 (fun _ -> Bag.create ()) in
  let bal = Array.init 2 (fun _ -> Hashtbl.create n) in
  let dead = Array.make 2 [] in
  for i = 0 to n - 1 do
    Bag.add live.(i mod 2) i;
    Hashtbl.replace bal.(i mod 2) i (balance0 i)
  done;
  let next_id = [| n; n + 1 |] in
  let rngs = conn_rngs seed in
  let deal = dealer rngs (deck [ (Insert, 17); (Update, 2); (Delete, 1) ]) in
  let next ~conn =
    let rng = rngs.(conn) and b = live.(conn) in
    let card = deal conn in
    if card = Insert || b.Bag.n = 0 then begin
      let id = next_id.(conn) in
      next_id.(conn) <- id + 2;
      {
        shape = Insert;
        sql = insert_sql table (row id (balance0 id));
        finish =
          (fun o ->
            let* () = affected 1 o in
            Bag.add b id;
            Hashtbl.replace bal.(conn) id (balance0 id);
            Ok ());
      }
    end
    else begin
      let at = Bag.pick b rng in
      let id = b.Bag.a.(at) in
      if card = Update then begin
        let v = Rng.int rng 1_000_000 in
        {
          shape = Update;
          sql = Printf.sprintf "UPDATE %s SET balance = %d WHERE owner = '%s'" table v (key id);
          finish =
            (fun o ->
              let* () = affected 1 o in
              Hashtbl.replace bal.(conn) id v;
              Ok ());
        }
      end
      else
        {
          shape = Delete;
          sql = Printf.sprintf "DELETE FROM %s WHERE owner = '%s'" table (key id);
          finish =
            (fun o ->
              let* () = affected 1 o in
              Bag.remove_at b at;
              Hashtbl.remove bal.(conn) id;
              dead.(conn) <- id :: dead.(conn);
              Ok ());
        }
    end
  in
  let probes () =
    let rng = Rng.create ~seed:(Int64.of_int (seed + 17)) () in
    let select id = Printf.sprintf "SELECT * FROM %s WHERE owner = '%s'" table (key id) in
    let live_probe () =
      let c = Rng.int rng 2 in
      let id = live.(c).Bag.a.(Bag.pick live.(c) rng) in
      {
        shape = Point;
        sql = select id;
        finish =
          (fun o ->
            let* rs = rows o in
            same_rows ("model read of " ^ key id) rs [ row id (Hashtbl.find bal.(c) id) ]);
      }
    in
    let dead_probe id =
      {
        shape = Point;
        sql = select id;
        finish = (fun o -> let* rs = rows o in same_rows ("deleted " ^ key id) rs []);
      }
    in
    let deleted = Array.of_list (dead.(0) @ dead.(1)) in
    List.init 100 (fun _ -> live_probe ())
    @ List.init (min 20 (Array.length deleted)) (fun i -> dead_probe deleted.(i))
  in
  {
    name = "durable-write";
    tables = [ table ];
    main = Update;
    load;
    next;
    probes;
    index_table = table;
    index_col = "owner";
    probe_key = (fun rng -> Value.Text (key (Rng.int rng n)));
    fresh_row = (fun i -> row (1_000_000 + i) 0);
    cell_table = table;
    cell_cols = [ "owner"; "balance"; "memo" ];
  }

let make name ~seed =
  match name with
  | "oltp-point" -> oltp_point ~seed
  | "analytic-scan" -> analytic_scan ~seed
  | "durable-write" -> durable_write ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
