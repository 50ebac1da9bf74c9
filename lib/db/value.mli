(** Typed cell values. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Text of string  (** character data; the paper's attacks target ASCII text attributes *)
  | Bytes of string  (** opaque binary data *)

type kind = Knull | Kbool | Kint | Ktext | Kbytes

val kind : t -> kind
val kind_name : kind -> string

val compare : t -> t -> int
(** Total order: first by kind, then by natural value order (integers
    numerically, text/bytes lexicographically). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val encode : t -> string
(** Unambiguous binary encoding (1 tag byte + payload), used both for
    serialization and as the plaintext V fed to the encryption schemes. *)

val decode : string -> (t, string) result
(** Inverse of {!encode}; rejects trailing garbage. *)

val text_exn : t -> string
(** @raise Invalid_argument if not [Text]. *)

val int_exn : t -> int64
