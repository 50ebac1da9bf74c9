(** The paper's fixed database encryption scheme (Section 4):

    {v (C, T) = AEAD-Enc_k(N, V, Ref_T)      with Ref_T = (t, r, c) v}

    The cell stores the triple (N, C, T); the cell address travels as
    associated data, so it is authenticated but never stored.  Decryption
    computes AEAD-Dec_k(N, C, T, Ref_T) and raises a decryption error on
    [invalid] — with no indication of which of key, address, nonce,
    ciphertext or tag was wrong, mirroring the paper's formalisation.

    Confidentiality and (data, position) authenticity reduce to the AEAD
    scheme's standard notions; every Section 3 attack is expected to fail
    here, which experiments EXP1–EXP6 verify. *)

val make :
  ?ad_of:(Secdb_db.Address.t -> string) ->
  aead:Secdb_aead.Aead.t ->
  nonce:Secdb_aead.Nonce.t ->
  unit ->
  Cell_scheme.t
(** The stored cell bytes are the {!Secdb_db.Codec.frame} of [N; C; T].

    [ad_of] maps the cell address to the associated data (default: the full
    canonical (t, r, c) encoding, the paper's fix).  A deterministic
    searchable profile (SIV with a constant nonce) passes a (t, c)-only
    encoding instead: equality of stored cells then reveals equality of
    values within a column — and, deliberately, within-column relocation is
    no longer detected at this layer.  That is the inherent trade of
    deterministic encryption; never weaken [ad_of] with a randomised
    AEAD.

    Each encryption draws its nonce from [nonce], never from the address,
    so with a counter or random source re-encrypting a cell in place never
    repeats a nonce under the same key. *)

val storage_overhead : aead:Secdb_aead.Aead.t -> int
(** Fixed per-cell storage cost in bytes beyond the plaintext length:
    nonce + tag + 12 bytes of framing. *)
