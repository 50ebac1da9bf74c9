open Secdb_util

type t = { id : int; schema : Schema.t; rows : Value.t array Vec.t }

let create ~id schema = { id; schema; rows = Vec.create () }
let id t = t.id
let schema t = t.schema
let nrows t = Vec.length t.rows

let insert t values =
  let n = Schema.ncols t.schema in
  if List.length values <> n then
    invalid_arg
      (Printf.sprintf "Table.insert: expected %d values, got %d" n (List.length values));
  List.iteri
    (fun i v ->
      match Schema.check_value (Schema.col t.schema i) v with
      | Ok () -> ()
      | Error e -> invalid_arg ("Table.insert: " ^ e))
    values;
  Vec.push t.rows (Array.of_list values)

let get t ~row ~col = (Vec.get t.rows row).(col)

let set t ~row ~col v =
  (match Schema.check_value (Schema.col t.schema col) v with
  | Ok () -> ()
  | Error e -> invalid_arg ("Table.set: " ^ e));
  (Vec.get t.rows row).(col) <- v

let row t r = Array.copy (Vec.get t.rows r)
let address t ~row ~col = Address.v ~table:t.id ~row ~col

let find_rows t pred =
  let acc = ref [] in
  Vec.iteri (fun r values -> if pred values then acc := r :: !acc) t.rows;
  List.rev !acc

let pp ppf t =
  Fmt.pf ppf "@[<v2>%a@,%d row(s)@]" Schema.pp t.schema (nrows t)
