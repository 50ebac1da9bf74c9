module Value = Secdb_db.Value
open Lexer

type state = { mutable toks : token list }

exception Syntax of string

let fail fmt = Printf.ksprintf (fun s -> raise (Syntax s)) fmt
let peek st = match st.toks with [] -> Eof | t :: _ -> t

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let next st =
  let t = peek st in
  advance st;
  t

let expect_kw st kw =
  match next st with
  | Kw k when k = kw -> ()
  | t -> fail "expected %s, got %s" kw (Fmt.str "%a" pp_token t)

let expect_sym st sym =
  match next st with
  | Sym s when s = sym -> ()
  | t -> fail "expected '%s', got %s" sym (Fmt.str "%a" pp_token t)

let expect_ident st what =
  match next st with
  | Ident s -> s
  | t -> fail "expected %s, got %s" what (Fmt.str "%a" pp_token t)

let accept_kw st kw =
  match peek st with
  | Kw k when k = kw ->
      advance st;
      true
  | _ -> false

let accept_sym st sym =
  match peek st with
  | Sym s when s = sym ->
      advance st;
      true
  | _ -> false

let literal st =
  match next st with
  | Int i -> Value.Int i
  | Str s -> Value.Text s
  | Blob b -> Value.Bytes b
  | Kw "TRUE" -> Value.Bool true
  | Kw "FALSE" -> Value.Bool false
  | Kw "NULL" -> Value.Null
  | t -> fail "expected a literal, got %s" (Fmt.str "%a" pp_token t)

let operand st =
  match peek st with
  | Ident s ->
      advance st;
      Ast.Col s
  | _ -> Ast.Lit (literal st)

let cmp_of_sym = function
  | "=" -> Some Ast.Eq
  | "!=" -> Some Ast.Ne
  | "<" -> Some Ast.Lt
  | "<=" -> Some Ast.Le
  | ">" -> Some Ast.Gt
  | ">=" -> Some Ast.Ge
  | _ -> None

let rec expr st = expr_or st

and expr_or st =
  let left = expr_and st in
  if accept_kw st "OR" then Ast.Or (left, expr_or st) else left

and expr_and st =
  let left = expr_not st in
  if accept_kw st "AND" then Ast.And (left, expr_and st) else left

and expr_not st = if accept_kw st "NOT" then Ast.Not (expr_not st) else atom st

and atom st =
  if accept_sym st "(" then begin
    let e = expr st in
    expect_sym st ")";
    e
  end
  else begin
    let left = operand st in
    match peek st with
    | Sym s when cmp_of_sym s <> None ->
        advance st;
        Ast.Cmp (Option.get (cmp_of_sym s), left, operand st)
    | Kw "BETWEEN" ->
        advance st;
        let lo = operand st in
        expect_kw st "AND";
        let hi = operand st in
        Ast.Between (left, lo, hi)
    | t -> fail "expected a comparison, got %s" (Fmt.str "%a" pp_token t)
  end

let agg_of_kw = function
  | "COUNT" -> Some Ast.Count
  | "SUM" -> Some Ast.Sum
  | "MIN" -> Some Ast.Min
  | "MAX" -> Some Ast.Max
  | "AVG" -> Some Ast.Avg
  | _ -> None

let sel_item st =
  match peek st with
  | Kw k when agg_of_kw k <> None ->
      advance st;
      let fn = Option.get (agg_of_kw k) in
      expect_sym st "(";
      let col =
        if accept_sym st "*" then
          if fn = Ast.Count then None else fail "%s requires a column, not *" k
        else Some (expect_ident st "a column name")
      in
      expect_sym st ")";
      Ast.Aggregate (fn, col)
  | _ -> Ast.Field (expect_ident st "a column name")

let select st =
  expect_kw st "SELECT";
  let items =
    if accept_sym st "*" then None
    else begin
      let rec loop acc =
        let item = sel_item st in
        if accept_sym st "," then loop (item :: acc) else List.rev (item :: acc)
      in
      Some (loop [])
    end
  in
  expect_kw st "FROM";
  let table = expect_ident st "a table name" in
  let join =
    if accept_kw st "JOIN" then begin
      let jtable = expect_ident st "a table name" in
      expect_kw st "ON";
      let on_left = expect_ident st "a column name" in
      expect_sym st "=";
      let on_right = expect_ident st "a column name" in
      Some { Ast.jtable; on_left; on_right }
    end
    else None
  in
  let where = if accept_kw st "WHERE" then Some (expr st) else None in
  let group_by =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      Some (expect_ident st "a column name")
    end
    else None
  in
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      let c = expect_ident st "a column name" in
      let dir = if accept_kw st "DESC" then Ast.Desc else (ignore (accept_kw st "ASC"); Ast.Asc) in
      Some (c, dir)
    end
    else None
  in
  let limit =
    if accept_kw st "LIMIT" then
      match next st with
      | Int i when i >= 0L -> Some (Int64.to_int i)
      | t -> fail "expected a non-negative LIMIT, got %s" (Fmt.str "%a" pp_token t)
    else None
  in
  { Ast.items; table; join; where; group_by; order_by; limit }

let column_def st =
  let col_name = expect_ident st "a column name" in
  let col_type =
    match next st with
    | Kw "INT" -> Value.Kint
    | Kw "TEXT" -> Value.Ktext
    | Kw "BYTES" -> Value.Kbytes
    | Kw "BOOL" -> Value.Kbool
    | t -> fail "expected a column type, got %s" (Fmt.str "%a" pp_token t)
  in
  let col_protection =
    if accept_kw st "CLEAR" then Secdb_db.Schema.Clear
    else begin
      ignore (accept_kw st "ENCRYPTED");
      Secdb_db.Schema.Encrypted
    end
  in
  { Ast.col_name; col_type; col_protection }

let statement st =
  match peek st with
  | Kw "SELECT" -> Ast.Select (select st)
  | Kw "EXPLAIN" ->
      advance st;
      Ast.Explain (select st)
  | Kw "INSERT" ->
      advance st;
      expect_kw st "INTO";
      let table = expect_ident st "a table name" in
      expect_kw st "VALUES";
      expect_sym st "(";
      let rec values acc =
        let v = literal st in
        if accept_sym st "," then values (v :: acc) else List.rev (v :: acc)
      in
      let vs = values [] in
      expect_sym st ")";
      Ast.Insert { table; values = vs }
  | Kw "UPDATE" ->
      advance st;
      let table = expect_ident st "a table name" in
      expect_kw st "SET";
      let col = expect_ident st "a column name" in
      expect_sym st "=";
      let value = literal st in
      let where = if accept_kw st "WHERE" then Some (expr st) else None in
      Ast.Update { table; col; value; where }
  | Kw "DELETE" ->
      advance st;
      expect_kw st "FROM";
      let table = expect_ident st "a table name" in
      let where = if accept_kw st "WHERE" then Some (expr st) else None in
      Ast.Delete { table; where }
  | Kw "CREATE" -> (
      advance st;
      match next st with
      | Kw "TABLE" ->
          let name = expect_ident st "a table name" in
          expect_sym st "(";
          let rec defs acc =
            let d = column_def st in
            if accept_sym st "," then defs (d :: acc) else List.rev (d :: acc)
          in
          let cols = defs [] in
          expect_sym st ")";
          Ast.Create_table { name; cols }
      | Kw "INDEX" ->
          expect_kw st "ON";
          let table = expect_ident st "a table name" in
          expect_sym st "(";
          let col = expect_ident st "a column name" in
          expect_sym st ")";
          Ast.Create_index { table; col }
      | Kw "RANGE" ->
          expect_kw st "INDEX";
          expect_kw st "ON";
          let table = expect_ident st "a table name" in
          expect_sym st "(";
          let col = expect_ident st "a column name" in
          expect_sym st ")";
          let buckets =
            if accept_kw st "BUCKETS" then
              match next st with
              | Int i when i >= 1L && i <= 4096L -> Some (Int64.to_int i)
              | t -> fail "expected a bucket count in 1..4096, got %s" (Fmt.str "%a" pp_token t)
            else None
          in
          Ast.Create_range_index { table; col; buckets }
      | t -> fail "expected TABLE, INDEX or RANGE INDEX, got %s" (Fmt.str "%a" pp_token t))
  | t -> fail "expected a statement, got %s" (Fmt.str "%a" pp_token t)

let finish st v =
  ignore (accept_sym st ";");
  match peek st with
  | Eof -> Ok v
  | t -> Error (Printf.sprintf "trailing input: %s" (Fmt.str "%a" pp_token t))

let with_tokens input f =
  match Lexer.tokens input with
  | Error e -> Error e
  | Ok toks -> (
      let st = { toks } in
      match f st with v -> finish st v | exception Syntax e -> Error e)

let parse input = with_tokens input statement

let parse_many input =
  match Lexer.tokens input with
  | Error e -> Error e
  | Ok toks -> (
      let st = { toks } in
      let rec loop acc =
        if accept_sym st ";" then loop acc
        else
          match peek st with
          | Eof -> Ok (List.rev acc)
          | _ -> (
              match statement st with
              | stmt -> (
                  match peek st with
                  | Eof -> Ok (List.rev (stmt :: acc))
                  | Sym ";" ->
                      advance st;
                      loop (stmt :: acc)
                  | t ->
                      Error
                        (Printf.sprintf "expected ';' between statements, got %s"
                           (Fmt.str "%a" pp_token t)))
              | exception Syntax e -> Error e)
      in
      loop [])
