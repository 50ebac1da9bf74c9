(** Cost model: price a candidate access path in cell-decrypt units.

    Inputs come from the live {!Secdb_obs.Metrics} registry when the obs
    switch is on — the per-plan latency histograms the engine maintains —
    with a static fallback (no feedback) when it is off, so EXPLAIN output
    under cram is deterministic. *)

type inputs = {
  probe_feedback : float;
      (** observed exact-probe vs bucket-scan mean-latency ratio
          ([sql.plan_latency{plan=index}] / [{plan=bucket}]), clamped to
          [0.5, 2.0]; 1.0 when either histogram has under 16 samples. *)
}

val static_inputs : inputs
(** No feedback — the obs-off fallback. *)

val live : unit -> inputs
(** Read the registry when {!Secdb_obs.Obs.on}, else {!static_inputs}. *)

val seq_scan : rows:int -> ncols:int -> float

val index_probe : inputs -> rows:int -> ncols:int -> estimate:float -> float
(** Tree descent (scaled by the probe feedback) plus fetching the
    estimated matching rows. *)

val bucket_scan : rows:int -> ncols:int -> estimate:float -> buckets:int -> float
(** Unsealing the covered buckets (at least one — overlap is
    bucket-granular) plus fetching the estimated matching rows. *)

val loop_join :
  outer_cost:float -> outer_out:float -> inner_rows:int -> inner_ncols:int -> float
(** Materialize the inner once, hash-probe per outer row. *)

val index_loop_join :
  inputs ->
  outer_cost:float ->
  outer_out:float ->
  inner_rows:int ->
  inner_ncols:int ->
  float
(** One exact-index descent on the inner table per outer row. *)
