(** Authenticated encryption with associated data — the abstraction the
    paper's Section 4 fix is built on.

    Formally an AEAD scheme is a triple (Key-Gen, AEAD-Enc, AEAD-Dec) with

    {v
    AEAD-Enc : K x N x M x H -> C x T
    AEAD-Dec : K x N x C x T x H -> M + {invalid}
    v}

    A {!t} value is the keyed pair (AEAD-Enc_k, AEAD-Dec_k).  Neither the
    nonce nor the associated data is part of the ciphertext; the caller
    stores the nonce and the tag and re-supplies the associated data (in the
    database schemes: the cell address) at decryption time.  [decrypt]
    returns [Error Invalid] without revealing which of key, nonce,
    ciphertext, tag or associated data was wrong — exactly the paper's
    "invalid" result. *)

type invalid = Invalid

type t = {
  name : string;
  nonce_size : int;  (** required nonce length in bytes *)
  tag_size : int;  (** tag length in bytes *)
  expansion : int;  (** ciphertext length minus plaintext length (0 for all schemes here) *)
  encrypt : nonce:string -> ad:string -> string -> string * string;
      (** [encrypt ~nonce ~ad m] is [(ciphertext, tag)]. *)
  decrypt : nonce:string -> ad:string -> tag:string -> string -> (string, invalid) result;
}

val encrypt : t -> nonce:string -> ad:string -> string -> string * string
val decrypt : t -> nonce:string -> ad:string -> tag:string -> string -> (string, invalid) result

val stored_overhead : t -> int
(** Bytes of storage added per encrypted value: nonce + tag + expansion.
    This is the paper's Section 4 "storage overhead" figure (32 octets for
    EAX and OCB+PMAC, 16 for CCFB with a 96-bit nonce and 32-bit tag). *)

val check_nonce : t -> string -> unit
(** @raise Invalid_argument if the nonce has the wrong length. *)
