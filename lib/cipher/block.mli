(** First-class block-cipher values.

    A {!t} bundles a keyed block cipher: its block size and the two
    single-block permutations.  Modes, MACs and AEAD schemes are all
    parameterised over this record, which lets the experiments swap AES for
    DES, and wrap any cipher with the instrumentation of {!Counting}.

    Besides the original [string -> string] closures, a cipher may carry an
    allocation-free fast path ({!into}) that reads one block out of a
    [bytes] buffer and writes the permuted block into another (or the same)
    buffer.  The bulk mode and MAC kernels run entirely on that path; for
    ciphers that do not provide one, {!encrypt_into}/{!decrypt_into} fall
    back to a generic wrapper over the string closures, so every cipher
    works with the bulk kernels and the fast ones ({!Aes_fast}) avoid
    per-block allocation altogether. *)

type into = bytes -> src_off:int -> bytes -> dst_off:int -> unit
(** One-block permutation on raw buffers.  [src] and [dst] may be the same
    buffer when the offsets are equal (or the ranges do not overlap);
    implementations read the whole input block before writing. *)

type t = {
  name : string;  (** e.g. ["aes-128"] *)
  block_size : int;  (** in bytes *)
  encrypt : string -> string;  (** one block; input length = [block_size] *)
  decrypt : string -> string;  (** inverse permutation *)
  encrypt_into : into option;  (** zero-allocation fast path, if any *)
  decrypt_into : into option;
}

val v :
  name:string ->
  block_size:int ->
  encrypt:(string -> string) ->
  decrypt:(string -> string) ->
  ?encrypt_into:into ->
  ?decrypt_into:into ->
  unit ->
  t
(** Smart constructor; the [_into] fast paths default to absent. *)

val check_block : t -> string -> unit
(** @raise Invalid_argument if the string is not exactly one block. *)

val encrypt_into : t -> into
(** The cipher's fast path, or the generic fallback built from
    [t.encrypt].  Both agree byte-for-byte with the string closure (the
    bulk property suite enforces this). *)

val decrypt_into : t -> into

val zero_block : t -> string
(** A block of zero bytes. *)

val map_name : (string -> string) -> t -> t
(** Rename, keeping behaviour. *)
