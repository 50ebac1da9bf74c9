(** Recursive-descent parser for the SQL subset.

    Grammar (keywords case-insensitive, identifiers lower-cased):

    {v
    stmt     ::= select | EXPLAIN select | insert | update | delete
               | create_table | create_index
    select   ::= SELECT cols FROM ident [WHERE expr]
                 [ORDER BY ident [ASC|DESC]] [LIMIT int]
    cols     ::= '*' | ident (',' ident)*
    insert   ::= INSERT INTO ident VALUES '(' literal (',' literal)* ')'
    update   ::= UPDATE ident SET ident '=' literal [WHERE expr]
    delete   ::= DELETE FROM ident [WHERE expr]
    create_table ::= CREATE TABLE ident '(' coldef (',' coldef)* ')'
    coldef   ::= ident type [ENCRYPTED | CLEAR]         (default ENCRYPTED)
    type     ::= INT | TEXT | BYTES | BOOL
    create_index ::= CREATE INDEX ON ident '(' ident ')'
    expr     ::= or ;  or ::= and (OR and)* ;  and ::= not (AND not)*
    not      ::= NOT not | atom
    atom     ::= '(' expr ')' | operand cmpop operand
               | operand BETWEEN operand AND operand
    operand  ::= ident | literal
    literal  ::= int | string | blob | TRUE | FALSE | NULL
    cmpop    ::= '=' | '!=' | '<>' | '<' | '<=' | '>' | '>='
    v} *)

val parse : string -> (Ast.stmt, string) result
(** Parse one statement (an optional trailing [;] is accepted). *)

val parse_many : string -> (Ast.stmt list, string) result
(** Parse a [;]-separated script (trailing [;] optional, empty statements
    ignored). *)
