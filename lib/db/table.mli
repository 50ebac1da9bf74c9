(** In-memory tables with stable row numbers.

    Row numbers are append-order indices and never reused, so a cell's
    address (t, r, c) is stable — the property the analysed encryption
    scheme relies on for its position binding. *)

type t

val create : id:int -> Schema.t -> t
val id : t -> int
val schema : t -> Schema.t
val nrows : t -> int

val insert : t -> Value.t list -> int
(** Append a row; returns its row number.
    @raise Invalid_argument on arity or type mismatch. *)

val get : t -> row:int -> col:int -> Value.t
val set : t -> row:int -> col:int -> Value.t -> unit
val row : t -> int -> Value.t array
(** A copy of the row's values. *)

val address : t -> row:int -> col:int -> Address.t

val find_rows : t -> (Value.t array -> bool) -> int list
(** Full-scan selection returning row numbers. *)

val pp : Format.formatter -> t -> unit
