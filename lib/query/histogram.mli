(** Equi-width histograms for selectivity estimation.

    Maintained per indexed column by {!Secdb.Encdb} and consulted by the
    SQL planner to pick the most selective index when a WHERE clause
    constrains several (experiment in `sql:planner` tests).  Values are
    projected to floats: integers numerically, text by its first bytes
    (lexicographic position in [0, 1)), booleans to {0, 1}; NULLs are not
    counted.

    The histogram is approximate by design — buckets are fixed once the
    first [2·buckets] values have been seen (the bootstrap sample sets the
    range; out-of-range mass accumulates in the edge buckets). *)

type t

val create : ?buckets:int -> unit -> t
(** Default 32 buckets.  The incremental path assumes the first samples are
    representative of the range (they set the bucket boundaries); for bulk
    construction from existing data prefer {!of_values}, which uses the
    exact min/max. *)

val of_values : ?buckets:int -> Secdb_db.Value.t list -> t
(** Build with bucket boundaries from the data's true range. *)

val add : t -> Secdb_db.Value.t -> unit
val remove : t -> Secdb_db.Value.t -> unit
(** Removing a value never seen leaves counts clamped at zero.  Before the
    range is fixed, one bootstrap sample equal to the value is dropped. *)

val total : t -> int

val selectivity : t -> lo:Secdb_db.Value.t option -> hi:Secdb_db.Value.t option -> float
(** Estimated fraction of values in the inclusive range, in [0, 1];
    1.0 when the histogram is empty (no information). *)

val to_float : Secdb_db.Value.t -> float option
(** The projection (exposed for tests); [None] for NULL. *)
