(** B⁺-tree index in the "table representation" of the analysed paper.

    Nodes occupy rows of an index table; the row number r_I of a node is
    stable for the node's lifetime and never reused.  Structural elements —
    child row numbers for inner nodes, the right sibling for leaf nodes —
    are stored {e in clear}, exactly as in [3]: "the index keys are the
    only encrypted parts".  Key material is opaque to the tree; a pluggable
    {!codec} encodes a (value, table-row) pair into the stored payload and
    back, so the same tree hosts a plaintext index, the [3] scheme, the
    [12] scheme and the paper's fixed AEAD scheme.

    Because payloads are cryptographically bound to their node row r_I,
    any operation that moves an entry to a different node (splits, borrows,
    merges) must decode under the old row and re-encode under the new one;
    the tree does this through the codec, which makes structural
    maintenance itself exercise the integrity checks. *)

type kind = Inner | Leaf

type ctx = { index_table : int; node_row : int; kind : kind }
(** Everything the index encryption schemes need to know about a payload's
    position: which index table, which node row, and whether the node is
    inner or leaf (inner payloads carry no table reference, eq. (4) vs
    (5)). *)

type codec = {
  codec_name : string;
  encode : ctx -> value:Secdb_db.Value.t -> table_row:int option -> string;
  decode : ctx -> string -> (Secdb_db.Value.t * int option, string) result;
  decode_unverified : (ctx -> string -> (Secdb_db.Value.t * int option, string) result) option;
      (** Decode {e without} the scheme's integrity verification, when the
          scheme permits it — what the buggy leaf-level handling of the
          published query pseudo-code amounts to (paper footnote 1).
          [None] for schemes (the AEAD fix) that cannot decrypt without
          authenticating: there the published bug is not even expressible. *)
}

exception Integrity of string
(** Raised when a payload fails to decode during tree operations —
    tampering detected (or, for the broken schemes, not). *)

val plain_codec : codec
(** Identity codec storing (value, row) with {!Secdb_db.Codec} framing. *)

type t

val create : ?order:int -> id:int -> codec:codec -> unit -> t
(** [order] is the maximal number of keys per node, default 4 (a small
    order keeps trees deep, which the paper's index attacks like);
    @raise Invalid_argument if [order < 2]. *)

val id : t -> int
val order : t -> int
val size : t -> int
val height : t -> int
val nnodes : t -> int
val codec : t -> codec

val insert : t -> Secdb_db.Value.t -> table_row:int -> unit

val bulk_load :
  ?order:int ->
  id:int ->
  codec:codec ->
  (Secdb_db.Value.t * int) list ->
  t
(** Build a tree bottom-up from entries sorted by value (stable for
    duplicates).  Each entry is encoded exactly once — against incremental
    {!insert}, which decodes O(log n) payloads per insertion and re-encodes
    on every split, this is the economical way to index an existing column
    (used by [Encdb.create_index]; measured by experiment EXP19).

    Leaf payloads are encoded in entry order, so a stateful codec (nonce
    counter, RNG) given the same initial state builds the same bytes.
    @raise Invalid_argument if the input is not sorted. *)

val find : t -> Secdb_db.Value.t -> int list
(** All table rows whose indexed value equals the probe, in leaf order. *)

val range :
  t -> ?lo:Secdb_db.Value.t -> ?hi:Secdb_db.Value.t -> unit -> (Secdb_db.Value.t * int) list
(** Inclusive range scan over the leaf chain. *)

val delete : t -> Secdb_db.Value.t -> table_row:int -> bool
(** Remove one (value, row) entry; [false] if absent. *)

val validate : t -> (unit, string) result
(** Check all structural invariants: sorted nodes, separator bounds,
    uniform leaf depth, minimal fill, consistent leaf chain. *)

val path_to : t -> Secdb_db.Value.t -> int list
(** Node rows visited by a leftmost descent for the probe — the basis for
    the client-walk round counting of the paper's Remark 1. *)

(** Raw node view, for the attack modules and the client-walk protocol. *)
type node_view = {
  row : int;
  node_kind : kind;
  payloads : string array;
  children : int array;  (** inner nodes; empty for leaves *)
  next : int option;  (** leaf chain *)
}

val root : t -> int
val node_view : t -> int -> node_view
val first_leaf : t -> int

val iter_nodes : (node_view -> unit) -> t -> unit

val set_payload : t -> row:int -> slot:int -> string -> unit
(** Overwrite a stored payload in place — the adversary's tampering hook.
    No integrity check is performed (the adversary writes to storage
    directly, below the DBMS). *)

val set_children : t -> row:int -> int array -> unit
(** Overwrite an inner node's child pointers — tampering with the
    {e structural} references, which [3], [12] {e and the fix} all leave
    unauthenticated (the Ref_I gap; see {!Secdb_schemes.Index12} and
    experiment EXP25).  @raise Invalid_argument on a leaf or arity
    mismatch. *)

val set_next : t -> row:int -> int option -> unit
(** Overwrite a leaf's right-sibling pointer (same caveat). *)

(** {2 Snapshots}

    A snapshot is the tree's full storage-level state: structure in clear,
    payloads as stored (i.e. encrypted).  It is what the untrusted storage
    actually holds, and what {!Secdb_storage} serialises.  Restoring does
    not touch any payload — integrity is (or is not) checked lazily by the
    codec when entries are next decoded, faithfully to the threat model. *)

type snapshot = {
  snap_id : int;
  snap_order : int;
  snap_root : int;
  snap_size : int;
  snap_slots : node_view option array;
      (** indexed by node row; [None] marks a freed row (row ids are never
          reused, so freed slots must survive serialisation) *)
}

val snapshot : t -> snapshot

val of_snapshot : codec:codec -> snapshot -> (t, string) result
(** Rebuild a tree over the given codec.  Checks structural well-formedness
    (root exists, children/next references resolve) but deliberately not
    payload integrity. *)
