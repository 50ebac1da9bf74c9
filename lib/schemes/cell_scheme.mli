(** Common shape of a cell encryption scheme.

    A cell scheme turns the plaintext octets of an attribute value into the
    bytes stored in the table cell at a given address, and back.  Decryption
    performs whatever validity checking the scheme offers (the µ comparison
    of the Append-Scheme, the data-redundancy check of the XOR-Scheme, the
    AEAD tag of the fixed scheme) and fails — as the paper puts it, raises a
    decryption error — when the check does not pass. *)

type t = {
  name : string;
  deterministic : bool;
      (** ciphertexts of equal (value, address) pairs coincide — assumption
          (3) of the analysed scheme, broken on purpose by the fix *)
  encrypt : Secdb_db.Address.t -> string -> string;
  decrypt : Secdb_db.Address.t -> string -> (string, string) result;
}

val encrypt : t -> Secdb_db.Address.t -> string -> string
val decrypt : t -> Secdb_db.Address.t -> string -> (string, string) result

val roundtrips : t -> Secdb_db.Address.t -> string -> bool
(** [decrypt a (encrypt a v) = Ok v] — basic sanity used by tests. *)

