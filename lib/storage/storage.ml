open Secdb_util
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Codec = Secdb_db.Codec
module B = Secdb_index.Bptree
module Etable = Secdb_query.Encrypted_table

let magic = "SECDB\x00\x01\x00"

let be8 = Xbytes.int_to_be_string ~width:8

let int_of field s =
  if String.length s <> 8 then Error (Printf.sprintf "storage: malformed %s" field)
  else
    match Xbytes.be_string_to_int s with
    | v -> Ok v
    | exception Invalid_argument _ -> Error (Printf.sprintf "storage: malformed %s" field)

let ( let* ) = Result.bind
let ( >>= ) = Result.bind

(* --- schema ------------------------------------------------------------ *)

let kind_tag = function
  | Value.Knull -> "N"
  | Value.Kbool -> "b"
  | Value.Kint -> "i"
  | Value.Ktext -> "t"
  | Value.Kbytes -> "y"

let kind_of_tag = function
  | "N" -> Ok Value.Knull
  | "b" -> Ok Value.Kbool
  | "i" -> Ok Value.Kint
  | "t" -> Ok Value.Ktext
  | "y" -> Ok Value.Kbytes
  | s -> Error (Printf.sprintf "storage: unknown kind tag %S" s)

let encode_schema (s : Schema.t) =
  Codec.frame
    (s.Schema.table_name
    :: List.concat_map
         (fun (c : Schema.column) ->
           [
             c.Schema.name;
             kind_tag c.Schema.ty;
             (match c.Schema.protection with Schema.Clear -> "C" | Schema.Encrypted -> "E");
           ])
         (Array.to_list s.Schema.columns))

let decode_schema s =
  let* fields = Codec.unframe s in
  match fields with
  | name :: rest when List.length rest mod 3 = 0 && rest <> [] ->
      let rec cols acc = function
        | [] -> Ok (List.rev acc)
        | cname :: ktag :: prot :: more ->
            let* ty = kind_of_tag ktag in
            let* protection =
              match prot with
              | "C" -> Ok Schema.Clear
              | "E" -> Ok Schema.Encrypted
              | p -> Error (Printf.sprintf "storage: unknown protection tag %S" p)
            in
            cols ({ Schema.name = cname; ty; protection } :: acc) more
        | _ -> Error "storage: truncated column triple"
      in
      let* columns = cols [] rest in
      (try Ok (Schema.v ~table_name:name columns)
       with Invalid_argument e -> Error e)
  | _ -> Error "storage: malformed schema section"

(* --- tables ------------------------------------------------------------ *)

let encode_cell = function
  | Etable.Stored_clear v -> Codec.frame [ "C"; Value.encode v ]
  | Etable.Stored_cipher ct -> Codec.frame [ "E"; ct ]

let decode_cell s =
  let* tag, body = Codec.unframe2 s in
  match tag with
  | "C" ->
      let* v = Value.decode body in
      Ok (Etable.Stored_clear v)
  | "E" -> Ok (Etable.Stored_cipher body)
  | t -> Error (Printf.sprintf "storage: unknown cell tag %S" t)

let encode_row = function
  | None -> "D" (* tombstone *)
  | Some cells -> Codec.frame ("R" :: List.map encode_cell (Array.to_list cells))

let decode_row s =
  if s = "D" then Ok None
  else
    let* cells = Codec.unframe s in
    match cells with
    | "R" :: cells ->
        let rec loop acc = function
          | [] -> Ok (Some (Array.of_list (List.rev acc)))
          | c :: rest ->
              let* cell = decode_cell c in
              loop (cell :: acc) rest
        in
        loop [] cells
    | _ -> Error "storage: malformed row"


let encode_table t =
  Codec.frame
    (magic :: "table" :: be8 (Etable.id t)
    :: encode_schema (Etable.schema t)
    :: List.map encode_row (Etable.dump_rows t))

let peek_table s =
  let* fields = Codec.unframe s in
  match fields with
  | m :: section :: id :: schema :: _ ->
      if m <> magic then Error "storage: bad magic (not a secdb file or wrong version)"
      else if section <> "table" then Error "storage: expected a table section"
      else
        let* id = int_of "table id" id in
        let* schema = decode_schema schema in
        Ok (id, schema)
  | _ -> Error "storage: malformed table file"

let decode_table ~scheme s =
  let* fields = Codec.unframe s in
  match fields with
  | m :: section :: id :: schema :: rows ->
      if m <> magic then Error "storage: bad magic (not a secdb file or wrong version)"
      else if section <> "table" then Error "storage: expected a table section"
      else
        let* id = int_of "table id" id in
        let* schema = decode_schema schema in
        let rec loop acc = function
          | [] -> Ok (List.rev acc)
          | r :: rest ->
              let* row = decode_row r in
              loop (row :: acc) rest
        in
        let* rows = loop [] rows in
        Etable.restore ~id schema ~scheme ~rows
  | _ -> Error "storage: malformed table file"

(* --- indexes ------------------------------------------------------------ *)

let encode_node = function
  | None -> "F" (* freed row *)
  | Some (v : B.node_view) ->
      Codec.frame
        [
          (match v.B.node_kind with B.Inner -> "I" | B.Leaf -> "L");
          Codec.frame (Array.to_list v.B.payloads);
          Codec.frame (List.map be8 (Array.to_list v.B.children));
          (match v.B.next with None -> "" | Some nx -> be8 nx);
        ]

let decode_node row s =
  if s = "F" then Ok None
  else
    let* kind, payloads, children, next = Codec.unframe s >>= function
      | [ a; b; c; d ] -> Ok (a, b, c, d)
      | _ -> Error "storage: malformed node"
    in
    let* node_kind =
      match kind with
      | "I" -> Ok B.Inner
      | "L" -> Ok B.Leaf
      | k -> Error (Printf.sprintf "storage: unknown node kind %S" k)
    in
    let* payloads = Codec.unframe payloads in
    let* children = Codec.unframe children in
    let rec ints acc = function
      | [] -> Ok (List.rev acc)
      | c :: rest ->
          let* v = int_of "child" c in
          ints (v :: acc) rest
    in
    let* children = ints [] children in
    let* next =
      if next = "" then Ok None
      else
        let* v = int_of "sibling" next in
        Ok (Some v)
    in
    Ok
      (Some
         {
           B.row;
           node_kind;
           payloads = Array.of_list payloads;
           children = Array.of_list children;
           next;
         })


let encode_index t =
  let snap = B.snapshot t in
  Codec.frame
    (magic :: "index" :: be8 snap.B.snap_id :: be8 snap.B.snap_order :: be8 snap.B.snap_root
    :: be8 snap.B.snap_size
    :: List.map encode_node (Array.to_list snap.B.snap_slots))

let decode_index ~codec s =
  let* fields = Codec.unframe s in
  match fields with
  | m :: section :: id :: order :: root :: size :: slots ->
      if m <> magic then Error "storage: bad magic (not a secdb file or wrong version)"
      else if section <> "index" then Error "storage: expected an index section"
      else
        let* snap_id = int_of "index id" id in
        let* snap_order = int_of "order" order in
        let* snap_root = int_of "root" root in
        let* snap_size = int_of "size" size in
        let rec loop row acc = function
          | [] -> Ok (List.rev acc)
          | s :: rest ->
              let* node = decode_node row s in
              loop (row + 1) (node :: acc) rest
        in
        let* slots = loop 0 [] slots in
        B.of_snapshot ~codec
          { B.snap_id; snap_order; snap_root; snap_size; snap_slots = Array.of_list slots }
  | _ -> Error "storage: malformed index file"

(* --- merkle leaves -------------------------------------------------------- *)

let table_leaves t = List.map encode_row (Etable.dump_rows t)

let index_leaves t =
  let snap = B.snapshot t in
  let header = Codec.frame [ be8 snap.B.snap_root; be8 snap.B.snap_size; be8 snap.B.snap_order ] in
  header :: List.map encode_node (Array.to_list snap.B.snap_slots)
