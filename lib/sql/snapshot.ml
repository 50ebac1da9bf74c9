module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Etable = Secdb_query.Encrypted_table
module Encdb = Secdb.Encdb
module Imap = Map.Make (Int)
module Smap = Map.Make (String)
module Vmap = Map.Make (Value)
module Iset = Set.Make (Int)

(* [keys.(c)] is [Some m] when column [c] is indexed: [m] maps each value
   (ordered by {!Value.compare}) to the set of rows holding it.  The engine
   sorts candidates by row id, so no index order needs mirroring.  All maps
   are immutable, so publishing a snapshot is one atomic store and value
   arrays are copied before mutation. *)
type table_snap = {
  schema : Schema.t;
  rows : Value.t array Imap.t;
  keys : Iset.t Vmap.t option array;
}

type t = table_snap Smap.t

let empty = Smap.empty
let table t name = Smap.find_opt name t
let schema ts = ts.schema

let all_rows ts = Imap.bindings ts.rows
let with_rows ts rows = List.map (fun r -> (r, Imap.find r ts.rows)) (Iset.elements rows)

let index_probe ts ~col v =
  match ts.keys.(col) with
  | None -> None
  | Some m -> Some (with_rows ts (Option.value (Vmap.find_opt v m) ~default:Iset.empty))

(* a bounded walk: start at the first value >= [lo], stop past [hi] *)
let index_range ts ~col ~lo ~hi =
  match ts.keys.(col) with
  | None -> None
  | Some m ->
      Some
        (Vmap.to_seq_from lo m
        |> Seq.take_while (fun (v, _) -> Value.compare v hi <= 0)
        |> Seq.concat_map (fun (_, rows) -> List.to_seq (with_rows ts rows))
        |> List.of_seq)

let add_key m v row =
  Vmap.update v (fun rows -> Some (Iset.add row (Option.value rows ~default:Iset.empty))) m

let drop_key m v row =
  Vmap.update v
    (function
      | None -> None
      | Some rows ->
          let rows = Iset.remove row rows in
          if Iset.is_empty rows then None else Some rows)
    m

let build_keys rows col = Imap.fold (fun row vs m -> add_key m vs.(col) row) rows Vmap.empty

let with_table t name f =
  match Smap.find_opt name t with None -> t | Some ts -> Smap.add name (f ts) t

let apply t (change : Encdb.change) =
  match change with
  | Encdb.Created_table schema ->
      Smap.add schema.Schema.table_name
        { schema; rows = Imap.empty; keys = Array.make (Schema.ncols schema) None }
        t
  | Encdb.Created_index { table; col } ->
      with_table t table (fun ts ->
          match Schema.col_index ts.schema col with
          | ci ->
              let keys = Array.copy ts.keys in
              keys.(ci) <- Some (build_keys ts.rows ci);
              { ts with keys }
          | exception Not_found -> ts)
  | Encdb.Created_range_index _ ->
      (* the bucketized index's candidate sets come back in ascending row
         order — the same visible order as a full scan — so the snapshot
         needs no extra state to mirror a RANGE BUCKET SCAN: {!all_rows}
         already is that order *)
      t
  | Encdb.Inserted { table; row; values } ->
      with_table t table (fun ts ->
          let vs = Array.of_list values in
          let keys =
            Array.mapi
              (fun ci m ->
                Option.map (fun m -> add_key m vs.(ci) row) m)
              ts.keys
          in
          { ts with rows = Imap.add row vs ts.rows; keys })
  | Encdb.Updated { table; row; col; value } ->
      with_table t table (fun ts ->
          match (Imap.find_opt row ts.rows, Schema.col_index ts.schema col) with
          | Some old, ci ->
              let vs = Array.copy old in
              vs.(ci) <- value;
              let keys =
                match ts.keys.(ci) with
                | None -> ts.keys
                | Some m ->
                    let keys = Array.copy ts.keys in
                    keys.(ci) <- Some (add_key (drop_key m old.(ci) row) value row);
                    keys
              in
              { ts with rows = Imap.add row vs ts.rows; keys }
          | None, _ | (exception Not_found) -> ts)
  | Encdb.Deleted { table; row } ->
      with_table t table (fun ts ->
          match Imap.find_opt row ts.rows with
          | None -> ts
          | Some old ->
              let keys =
                Array.mapi
                  (fun ci m -> Option.map (fun m -> drop_key m old.(ci) row) m)
                  ts.keys
              in
              { ts with rows = Imap.remove row ts.rows; keys })

let of_db db =
  List.fold_left
    (fun t name ->
      let tbl = Encdb.table db name in
      let schema = Etable.schema tbl in
      match Etable.select_result tbl (fun _ -> true) with
      | Error _ -> t (* unreadable table: leave it to the locked path *)
      | Ok live ->
          let rows =
            List.fold_left (fun m (row, vs) -> Imap.add row vs m) Imap.empty live
          in
          let keys =
            Array.init (Schema.ncols schema) (fun ci ->
                if Encdb.has_index db ~table:name ~col:(Schema.col schema ci).Schema.name
                then Some (build_keys rows ci)
                else None)
          in
          Smap.add name { schema; rows; keys } t)
    empty (Encdb.table_names db)
