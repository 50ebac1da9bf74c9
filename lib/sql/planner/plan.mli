(** Typed plan tree: what the planner decides before a SELECT executes.

    A plan describes the access path(s) only — the residual filter, ORDER
    BY sort, LIMIT and projection tail is the same for every plan of a
    query ({!Engine.finish_select}), which is what makes all candidate
    plans byte-identical and lets the cost model choose freely. *)

type access =
  | Seq_scan  (** decrypt every row of the table *)
  | Index_probe of {
      col : string;
      lo : Secdb_db.Value.t option;
      hi : Secdb_db.Value.t option;
      estimate : float;
          (** estimated selectivity from the column's histogram
              ({!Secdb.Encdb.index_selectivity}); 1.0 = no information *)
    }  (** exact encrypted in-memory B⁺-tree range walk *)
  | Bucket_scan of {
      col : string;
      lo : Secdb_db.Value.t option;
      hi : Secdb_db.Value.t option;
      buckets : int;
      estimate : float;
    }  (** bucketized {!Secdb_index.Range_tree} overlap + exact filter *)

type strategy =
  | Loop_join  (** materialize the inner table once, hash it on the join key *)
  | Index_loop_join  (** probe the inner table's exact index per outer row *)

type t =
  | Scan of { table : string; access : access; cost : float }
  | Join of {
      outer : string;  (** table fetched first, through [outer_access] *)
      outer_access : access;
      inner : string;  (** table materialized or probed per outer row *)
      strategy : strategy;
      outer_col : string;  (** join column in [outer], unqualified *)
      inner_col : string;  (** join column in [inner], unqualified *)
      swapped : bool;  (** [outer] is the syntactic right-hand table *)
      cost : float;
    }

val cost : t -> float
val access_estimate : access -> float

val compare : t -> t -> int
(** Total order for candidate lists: cheapest first; equal costs fall to
    the pinned ranks (exact index < bucket scan < full scan, index-loop <
    materialized loop, declared join order < swapped, then the column
    name) — deterministic and seed-independent by construction. *)

val name : t -> string
(** Short stable label — bench qualifiers and the per-plan latency
    histograms.  Scans are "seq", "index" or "bucket".  Joins are "loop-join" or "index-loop-join",
    plus "-rev" when swapped, then "@" and the outer access path: "seq",
    "index:COL" or "bucket:COL", e.g. ["index-loop-join@bucket:total"].
    Join labels are distinct across the candidates of one query. *)

val pp_access : Format.formatter -> access -> unit

val pp : Format.formatter -> t -> unit
(** The text EXPLAIN prints, costs rounded to whole units. *)
