(** Instrumented block ciphers.

    Wraps any {!Block.t} so that every single-block encryption and
    decryption is counted.  This is how the repository reproduces the
    paper's Section 4 performance analysis, which measures AEAD overhead in
    {e blockcipher invocations} (EAX: 2n+m+1, OCB+PMAC: n+m+5). *)

type counters = { mutable enc_calls : int; mutable dec_calls : int }

val wrap : Block.t -> Block.t * counters
(** [wrap c] is a cipher behaving exactly like [c] whose invocations are
    tallied in the returned counters. *)

val reset : counters -> unit
val total : counters -> int

val count_enc : Block.t -> (Block.t -> 'a) -> int * 'a
(** [count_enc c f] runs [f] with an instrumented copy of [c] and returns
    the number of single-block encryptions it performed together with [f]'s
    result. *)
