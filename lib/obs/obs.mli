(** Global switch for the observability layer.

    All metric and trace operations are no-ops while the switch is off —
    one atomic load and a branch, no allocation — so instrumentation can
    live inside hot kernels without a measurable cost.  [SECDB_OBS=1] in
    the environment enables it at program start. *)

val enable : unit -> unit
val disable : unit -> unit

val on : unit -> bool
(** Current state of the switch. *)

val with_enabled : (unit -> 'a) -> 'a
(** Run with the switch on, restoring the previous state afterwards. *)
