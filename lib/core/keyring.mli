(** Session key management, after the trust model of [3]/[12] (paper
    Section 2.1): during a secure session the encryption keys are handed to
    the DBMS server and securely removed when the session ends.

    Per-purpose keys are derived from the master key by HMAC-SHA256 with
    distinct labels, so cell encryption, index encryption and MACs never
    share key material unless a caller deliberately asks for the paper's
    same-key counter-example. *)

type t

exception Session_closed

val open_session : master:string -> t
(** Derive a session keyring.  The master key may be any non-empty string
    (a password or a raw key); it is copied into a private mutable buffer
    so the session can zeroize it.  @raise Invalid_argument on empty
    input. *)

val open_session_bytes : master:bytes -> t
(** Like {!open_session} but {e adopts} the buffer: no copy is made, and
    {!close_session} zeroizes the caller's bytes in place.  Use this when
    the caller wants to verify — or rely on — the wipe.
    @raise Invalid_argument on empty input. *)

val close_session : t -> unit
(** Overwrite the master key material with zero bytes and drop it; any
    later use raises {!Session_closed}.  Models the "securely removed at
    the end of the session" step.  Idempotent. *)

val is_open : t -> bool

val cell_key : t -> table:int -> col:int -> string
(** 16-byte AES key for a protected column's cells. *)

val index_key : t -> table:int -> col:int -> string
(** 16-byte AES key for the column's index entries. *)

val mac_key : t -> table:int -> col:int -> string
(** Independent 16-byte MAC key (the repaired-keys [12] variant and the
    encrypt-then-MAC AEAD need one). *)

val derive : t -> label:string -> length:int -> string
(** Generic labelled derivation for anything else (nonce seeds, test
    fixtures). @raise Invalid_argument if [length > 32]. *)
