open Secdb_util
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Address = Secdb_db.Address
module Metrics = Secdb_obs.Metrics

(* cells-touched traffic; scans count every decrypted row against the rows
   the predicate kept, so over-read (the false-positive surface the SoK
   paper says to measure, not assert) is visible as scanned - matched *)
let m_cells_encrypted = Metrics.counter "table.cells_encrypted"
let m_cells_decrypted = Metrics.counter "table.cells_decrypted"
let m_decrypt_failures = Metrics.counter "table.decrypt_failures"
let m_rows_scanned = Metrics.counter "table.rows_scanned"
let m_rows_matched = Metrics.counter "table.rows_matched"

type cell = Clear of Value.t | Cipher of string

type t = {
  id : int;
  schema : Schema.t;
  schemes : Secdb_schemes.Cell_scheme.t array; (* one per column *)
  rows : cell array option Vec.t; (* None = tombstoned row *)
}

let create ~id schema ~scheme =
  { id; schema; schemes = Array.init (Schema.ncols schema) scheme; rows = Vec.create () }

let id t = t.id
let schema t = t.schema
let scheme t ~col = t.schemes.(col)
let nrows t = Vec.length t.rows

let is_protected t col =
  (Schema.col t.schema col).Schema.protection = Schema.Encrypted

let encrypt_cell t ~row ~col value =
  Metrics.incr m_cells_encrypted;
  let addr = Address.v ~table:t.id ~row ~col in
  Cipher (t.schemes.(col).encrypt addr (Value.encode value))

let check_row_arity t values =
  let n = Schema.ncols t.schema in
  if List.length values <> n then
    invalid_arg
      (Printf.sprintf "Encrypted_table.insert: expected %d values, got %d" n
         (List.length values));
  List.iteri
    (fun col v ->
      match Schema.check_value (Schema.col t.schema col) v with
      | Ok () -> ()
      | Error e -> invalid_arg ("Encrypted_table.insert: " ^ e))
    values

let insert t values =
  check_row_arity t values;
  let row = Vec.length t.rows in
  let cells =
    List.mapi
      (fun col v -> if is_protected t col then encrypt_cell t ~row ~col v else Clear v)
      values
  in
  Vec.push t.rows (Some (Array.of_list cells))

let live_cells t row op =
  match Vec.get t.rows row with
  | Some cells -> cells
  | None -> invalid_arg (Printf.sprintf "Encrypted_table.%s: row %d is deleted" op row)

let is_live t ~row = Vec.get t.rows row <> None

(* the one decrypt path: every protected cell read, eager or lazy, is
   authenticated with its (t, r, c) address as associated data *)
let decrypt_cell t ~row ~col ct =
  Metrics.incr m_cells_decrypted;
  match t.schemes.(col).decrypt (Address.v ~table:t.id ~row ~col) ct with
  | Error e ->
      Metrics.incr m_decrypt_failures;
      Error e
  | Ok plain -> Value.decode plain

let get t ~row ~col =
  match Vec.get t.rows row with
  | None -> Error "row is deleted"
  | Some cells -> (
      match cells.(col) with Clear v -> Ok v | Cipher ct -> decrypt_cell t ~row ~col ct)

let cell_failure t ~row ~col e = failwith (Printf.sprintf "cell (%d,%d,%d): %s" t.id row col e)

let get_exn t ~row ~col =
  match get t ~row ~col with Ok v -> v | Error e -> cell_failure t ~row ~col e

let update t ~row ~col value =
  (match Schema.check_value (Schema.col t.schema col) value with
  | Ok () -> ()
  | Error e -> invalid_arg ("Encrypted_table.update: " ^ e));
  let cells = live_cells t row "update" in
  cells.(col) <- (if is_protected t col then encrypt_cell t ~row ~col value else Clear value)

let delete_row t ~row =
  ignore (Vec.get t.rows row);
  Vec.set t.rows row None

(* --- lazy rows ------------------------------------------------------------

   A [Stored] row holds a private copy of the row's stored cells; a cell
   read for the first time is decrypted and replaced in the copy by its
   clear value, so a statement pays one decrypt per cell it reads and none
   for the cells it never reads. *)

type row =
  | Plain of Value.t array
  | Stored of { table : t; id : int; cells : cell array }
  | Joined of { left : row; split : int; right : row }  (** [split] = width of [left] *)

let reader t row =
  match Vec.get t.rows row with
  | Some cells -> Stored { table = t; id = row; cells = Array.copy cells }
  | None -> failwith (Printf.sprintf "row (%d,%d): row is deleted" t.id row)

let of_values values = Plain values

let rec width = function
  | Plain vs -> Array.length vs
  | Stored { cells; _ } -> Array.length cells
  | Joined { split; right; _ } -> split + width right

let append left right = Joined { left; split = width left; right }

let rec cell r col =
  match r with
  | Plain vs -> vs.(col)
  | Joined { left; split; right } -> if col < split then cell left col else cell right (col - split)
  | Stored { table; id; cells } -> (
      match cells.(col) with
      | Clear v -> v
      | Cipher ct -> (
          match decrypt_cell table ~row:id ~col ct with
          | Ok v ->
              cells.(col) <- Clear v;
              v
          | Error e -> cell_failure table ~row:id ~col e))

let values r = Array.init (width r) (cell r)

(* every live row in ascending order; [keep] picks what a row contributes
   and whether it counts as matched *)
let scan_with t keep =
  let acc = ref [] in
  for row = 0 to nrows t - 1 do
    if is_live t ~row then begin
      Metrics.incr m_rows_scanned;
      match keep (reader t row) with
      | Some x ->
          Metrics.incr m_rows_matched;
          acc := (row, x) :: !acc
      | None -> ()
    end
  done;
  List.rev !acc

let scan t = scan_with t Option.some

let select t pred =
  scan_with t (fun r ->
      let vs = values r in
      if pred vs then Some vs else None)

let select_result t pred =
  match select t pred with
  | rows -> Ok rows
  | exception Failure e -> Error e

let raw_ciphertext t ~row ~col =
  match Vec.get t.rows row with
  | None -> None
  | Some cells -> ( match cells.(col) with Clear _ -> None | Cipher ct -> Some ct)

let set_raw t ~row ~col ct =
  let cells = live_cells t row "set_raw" in
  match cells.(col) with
  | Clear _ -> invalid_arg "Encrypted_table.set_raw: column is not protected"
  | Cipher _ -> cells.(col) <- Cipher ct

let swap_cells t ~col ~row_a ~row_b =
  match (raw_ciphertext t ~row:row_a ~col, raw_ciphertext t ~row:row_b ~col) with
  | Some a, Some b ->
      set_raw t ~row:row_a ~col b;
      set_raw t ~row:row_b ~col a
  | _ -> invalid_arg "Encrypted_table.swap_cells: column is not protected"

let storage_bytes t ~col =
  let acc = ref 0 in
  for row = 0 to nrows t - 1 do
    match raw_ciphertext t ~row ~col with
    | Some ct -> acc := !acc + String.length ct
    | None -> ()
  done;
  !acc

let plaintext_bytes t ~col =
  let acc = ref 0 in
  for row = 0 to nrows t - 1 do
    if is_live t ~row then
      acc := !acc + String.length (Value.encode (get_exn t ~row ~col))
  done;
  !acc

type stored_cell = Stored_clear of Value.t | Stored_cipher of string

let dump_rows t =
  List.init (nrows t) (fun row ->
      Option.map
        (Array.map (function Clear v -> Stored_clear v | Cipher ct -> Stored_cipher ct))
        (Vec.get t.rows row))

let restore ~id schema ~scheme ~rows =
  let t = create ~id schema ~scheme in
  let ncols = Schema.ncols schema in
  let rec load i = function
    | [] -> Ok t
    | None :: rest ->
        ignore (Vec.push t.rows None);
        load (i + 1) rest
    | Some row :: rest ->
        if Array.length row <> ncols then
          Error (Printf.sprintf "restore: row %d has %d cells, schema has %d columns" i
                   (Array.length row) ncols)
        else begin
          let ok = ref (Ok ()) in
          let cells =
            Array.mapi
              (fun col cell ->
                match (cell, (Schema.col schema col).Schema.protection) with
                | Stored_clear v, Schema.Clear -> Clear v
                | Stored_cipher ct, Schema.Encrypted -> Cipher ct
                | Stored_clear _, Schema.Encrypted ->
                    ok := Error (Printf.sprintf "restore: row %d col %d should be encrypted" i col);
                    Clear Value.Null
                | Stored_cipher _, Schema.Clear ->
                    ok := Error (Printf.sprintf "restore: row %d col %d should be clear" i col);
                    Clear Value.Null)
              row
          in
          match !ok with
          | Error e -> Error e
          | Ok () ->
              ignore (Vec.push t.rows (Some cells));
              load (i + 1) rest
        end
  in
  load 0 rows
