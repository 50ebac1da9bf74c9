(** Immutable read snapshot of one shard's logical database state.

    The sharded server keeps one of these per shard in an [Atomic.t]: the
    shard's executor folds every {!Secdb.Encdb.change} into a fresh
    snapshot after each mutation, and reader threads serve point lookups
    from the last published snapshot without ever taking the shard lock —
    a reader can observe a slightly stale (but internally consistent)
    state, never a torn one.

    Each indexed column maps a value to the set of rows holding it.  The
    engine sorts every candidate set by row id before the shared
    filter/sort/limit tail, so the snapshot keeps no index order, and a
    query answered here is byte-identical to the same query run through
    the executor. *)

type table_snap
type t

val empty : t

val apply : t -> Secdb.Encdb.change -> t
(** Fold one applied mutation.  Changes for tables the snapshot does not
    know (never primed, e.g. after a failed {!of_db}) are dropped — such
    tables simply stay off the fast path. *)

val of_db : Secdb.Encdb.t -> t
(** Prime a snapshot from live state: decrypt every table once.  A table
    whose scan fails integrity is left out (its queries fall through to
    the locked executor, which reports the canonical error). *)

val table : t -> string -> table_snap option
val schema : table_snap -> Secdb_db.Schema.t

val all_rows : table_snap -> (int * Secdb_db.Value.t array) list
(** Live rows, ascending row order — the full-scan candidate set. *)

val index_probe :
  table_snap -> col:int -> Secdb_db.Value.t -> (int * Secdb_db.Value.t array) list option
(** [None] when the column has no index (caller falls back to
    {!all_rows}); otherwise the rows equal to the probe, ascending row
    order. *)

val index_range :
  table_snap ->
  col:int ->
  lo:Secdb_db.Value.t ->
  hi:Secdb_db.Value.t ->
  (int * Secdb_db.Value.t array) list option
(** [None] when the column has no exact index; otherwise the rows with
    [lo <= v <= hi] under {!Secdb_db.Value.compare}: value ascending, then
    row ascending.  The walk starts at [lo] and stops past [hi].
    (Bucketized range indexes need no snapshot state: their candidates
    are {!all_rows} filtered by the engine.) *)
