(** HMAC (RFC 2104) over any of the hash modules in this library. *)

type hash = {
  name : string;
  digest : string -> string;
  digest_size : int;
  block_size : int;
}

val sha1 : hash
val sha256 : hash
val md5 : hash

val mac : hash -> key:string -> string -> string
(** [mac h ~key msg] is the full-length HMAC tag. *)

val mac_truncated : hash -> key:string -> bytes:int -> string -> string
(** Tag truncated to the first [bytes] bytes. *)

val verify : hash -> key:string -> tag:string -> string -> bool
(** Constant-time verification of a (possibly truncated) tag. *)

type keyed
(** A key bound to a hash with the ipad/opad xor strings precomputed;
    immutable, safe to share across domains.  Lets long-lived users (a
    net session MACing every request) skip the per-message key
    preprocessing. *)

val keyed : hash -> key:string -> keyed

val mac_keyed : keyed -> string -> string
(** Same tag as {!mac} with the same hash and key.  For SHA-256 the
    keyed instance holds the ipad/opad midstates, so the two key-block
    compressions and the concatenation copies are already paid. *)

val mac_keyed_parts : keyed -> string list -> string
(** The tag over the concatenation of [parts], without materialising
    it — framed MACs (the etm AEAD, the wire protocol) feed their
    fields directly. *)

val mac_keyed_truncated : keyed -> bytes:int -> string -> string
