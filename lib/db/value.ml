type t = Null | Bool of bool | Int of int64 | Text of string | Bytes of string
type kind = Knull | Kbool | Kint | Ktext | Kbytes

let kind = function
  | Null -> Knull
  | Bool _ -> Kbool
  | Int _ -> Kint
  | Text _ -> Ktext
  | Bytes _ -> Kbytes

let kind_name = function
  | Knull -> "null"
  | Kbool -> "bool"
  | Kint -> "int"
  | Ktext -> "text"
  | Kbytes -> "bytes"

let kind_rank = function Knull -> 0 | Kbool -> 1 | Kint -> 2 | Ktext -> 3 | Kbytes -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int64.compare x y
  | Text x, Text y -> String.compare x y
  | Bytes x, Bytes y -> String.compare x y
  | _ -> Int.compare (kind_rank (kind a)) (kind_rank (kind b))

let equal a b = compare a b = 0

let pp ppf = function
  | Null -> Fmt.string ppf "NULL"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int64 ppf i
  | Text s -> Fmt.pf ppf "%S" s
  | Bytes s -> Fmt.pf ppf "x'%s'" (Secdb_util.Xbytes.to_hex s)

let to_string v = Fmt.str "%a" pp v

let encode = function
  | Null -> "N"
  | Bool false -> "b\000"
  | Bool true -> "b\001"
  | Int i -> "i" ^ Secdb_util.Xbytes.int64_to_be_string i
  | Text s -> "t" ^ s
  | Bytes s -> "y" ^ s

let decode s =
  if s = "" then Error "Value.decode: empty input"
  else
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'N' -> if body = "" then Ok Null else Error "Value.decode: trailing bytes after NULL"
    | 'b' -> (
        match body with
        | "\000" -> Ok (Bool false)
        | "\001" -> Ok (Bool true)
        | _ -> Error "Value.decode: malformed bool")
    | 'i' ->
        if String.length body <> 8 then Error "Value.decode: malformed int"
        else Ok (Int (Secdb_util.Xbytes.get_uint64_be body 0))
    | 't' -> Ok (Text body)
    | 'y' -> Ok (Bytes body)
    | _ -> Error "Value.decode: unknown tag"

let text_exn = function Text s -> s | v -> invalid_arg ("Value.text_exn: " ^ to_string v)
let int_exn = function Int i -> i | v -> invalid_arg ("Value.int_exn: " ^ to_string v)
