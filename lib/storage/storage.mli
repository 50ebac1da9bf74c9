(** On-disk format for encrypted tables and indexes.

    The paper's threat model is exactly this artefact: "anyone with
    physical access to the machine or storage system holding the actual
    data can copy or modify it."  This module serialises the stored
    representation — clear structure, ciphertext payloads, {e no} keys —
    to self-describing byte strings; [Encdb.save] stores each one as a
    {!Blob_store} blob of a single {!Pager} image, so the adversarial
    experiments can literally operate on bytes at rest.

    The format is deliberately unauthenticated as a whole: per-cell and
    per-entry protection is the scheme's job (that is the paper's point),
    and corruption of lengths or tags is reported as a parse error
    rather than masked. *)

val magic : string
(** ["SECDB\x00\x01\x00"] — format identifier and version. *)

(** {2 Schemas} *)

val encode_schema : Secdb_db.Schema.t -> string
(** Canonical byte encoding of a schema (names, kinds, protection) — also
    the payload of replicated [CREATE TABLE] oplog records. *)

val decode_schema : string -> (Secdb_db.Schema.t, string) result

(** {2 Tables} *)

val encode_table : Secdb_query.Encrypted_table.t -> string
(** Serialise a table's stored representation (schema + rows). *)

val decode_table :
  scheme:(int -> Secdb_schemes.Cell_scheme.t) ->
  string ->
  (Secdb_query.Encrypted_table.t, string) result
(** Rebuild a table; [scheme] re-attaches the session's cell schemes
    (the file never contains key material). *)

val peek_table : string -> (int * Secdb_db.Schema.t, string) result
(** Parse just the table id and schema of an encoded table — enough to
    derive the session keys before a full {!decode_table}. *)

(** {2 Indexes} *)

val encode_index : Secdb_index.Bptree.t -> string
val decode_index :
  codec:Secdb_index.Bptree.codec -> string -> (Secdb_index.Bptree.t, string) result

(** {2 Merkle leaves}

    Canonical per-row / per-node byte strings for {!Merkle} anchoring;
    tombstones and freed slots are included so suppression changes the
    root. *)

val table_leaves : Secdb_query.Encrypted_table.t -> string list
val index_leaves : Secdb_index.Bptree.t -> string list
