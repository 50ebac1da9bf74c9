(** A persistent B+-tree over {!Pager} pages — the paper's Section 4
    fixed-AEAD index taken off the heap and onto the storage system the
    adversary owns.

    Every node is one pager page: serialized with length-prefixed framing,
    then passed through a {!seal} that (in the {!aead_seal} production
    configuration) AEAD-encrypts the whole node with the {e page address as
    associated data} — swapping, replaying or truncating node pages in the
    raw file is detected at read time, exactly the address-binding argument
    of the paper's Section 4 fix, applied per node instead of per cell.
    Keys inside a decoded node are probed by binary search, and decoded
    nodes live in an LRU cache in front of the pager so datasets larger
    than RAM stay serveable while hot paths never touch the AEAD.

    Query semantics are identical to the in-memory {!Secdb_index.Bptree}:
    leftmost descent on equality, duplicates inserted to the right,
    [find]/[range] results in the same order — the QCheck suite pins the
    two implementations against each other on random workloads.

    The tree is not journalled: mutations live in the node cache (dirty
    nodes are written back on eviction) until {!flush}; a crash between
    flushes is recovered by replaying the oplog into a fresh tree, which
    the crash-matrix suite exercises. *)

module Value = Secdb_db.Value

type kind = Inner | Leaf

(** How node plaintext becomes page bytes.  [seal ~page m] must be
    deterministic in length; [unseal ~page] inverts it or reports why
    not. *)
type seal = {
  seal_name : string;
  seal : page:int -> string -> string;
  unseal : page:int -> string -> (string, string) result;
}

val aead_seal :
  aead:Secdb_aead.Aead.t -> nonce:Secdb_aead.Nonce.t -> tree_id:int -> seal
(** Page bytes are [nonce ∥ tag ∥ ciphertext] with associated data
    ["pbt1" ∥ tree_id ∥ page address] — a node page only decrypts at the
    address it was written to, under the tree it was written for. *)

exception Integrity of string
(** A node page failed to unseal or parse (tampering, or a reopened file
    whose key/tree id does not match). *)

type t

val create :
  pager:Pager.t -> seal:seal -> ?order:int -> ?cache_nodes:int -> id:int -> unit -> t
(** Allocate a meta page and an empty root leaf in [pager].  [order]
    defaults to 4 (min 2): max keys per node.  [cache_nodes] defaults to
    64 (min 8): decoded nodes kept in memory.  The caller must pick a
    pager page size large enough for [order]+1 encoded keys; oversized
    nodes raise [Invalid_argument] at write-back time. *)

val open_tree :
  pager:Pager.t -> seal:seal -> ?cache_nodes:int -> meta:int -> unit -> (t, string) result
(** Reopen a tree from its meta page (see {!meta_page}).  The meta page
    is sealed like any node, so a wrong key or wrong [tree_id] in
    {!aead_seal} surfaces here as [Error]. *)

val meta_page : t -> int
(** Page holding root/size/order — the tree's durable name; store it
    wherever the tree's existence is recorded. *)

val id : t -> int
val order : t -> int
val size : t -> int

val cached_nodes : t -> int
(** Decoded nodes currently in the cache (<= [cache_nodes]). *)

val height : t -> int

val insert : t -> Value.t -> table_row:int -> unit
(** Duplicates allowed; equal keys keep insertion order left-to-right. *)

val delete : t -> Value.t -> table_row:int -> bool
(** Remove one entry matching both value and row; [false] if absent. *)

val find : t -> Value.t -> int list
(** Table rows for all entries equal to the probe, insertion order. *)

val range : t -> ?lo:Value.t -> ?hi:Value.t -> unit -> (Value.t * int) list
(** Entries with [lo <= value <= hi] (missing bound = unbounded), in key
    order, duplicates in insertion order. *)

val flush : t -> unit
(** Write back every dirty cached node and the meta page, then flush the
    pager's own cache.  Does not [fsync]; compose with {!Pager.sync}. *)
