(** Process-wide metric registry: counters, gauges and log-scale latency
    histograms, addressable by a base name plus optional labels.

    Mutating operations are no-ops (and allocation-free) while {!Obs.on}
    is false.  Counters are striped across per-domain atomic slots so
    parallel increments from the server's shard executor domains neither
    contend nor lose counts; reads sum the stripes. *)

(** {1 Counters} *)

type counter

val counter : ?labels:(string * string) list -> string -> counter
(** Find or create the counter registered under [name] and [labels].
    Registration is idempotent: the same (name, labels) pair always
    returns the same counter.  Raises [Invalid_argument] if the name is
    already registered as a different metric kind, or is not of the form
    [[A-Za-z0-9._-]+]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val counter_name : counter -> string

(** {1 Gauges} *)

type gauge

val gauge : ?labels:(string * string) list -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Histograms}

    Log-scale: bucket [i] covers durations in [2^(i-1), 2^i) nanoseconds,
    64 buckets total. *)

type histogram

val histogram : ?labels:(string * string) list -> string -> histogram

val observe : histogram -> float -> unit
(** Record a duration in seconds. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run a thunk and record its wall-clock duration (when enabled). *)

val hist_count : histogram -> int

type hist_view = {
  count : int;
  sum_seconds : float;
  buckets : (int * int) list;  (** (bucket index, count), nonzero only *)
}

val hist_view : histogram -> hist_view

val bucket_upper_s : int -> float
(** Upper edge of a bucket index, in seconds. *)

(** {1 Registry} *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_view) list;
}

val snapshot : unit -> snapshot
(** All registered metrics with their current values, sorted by name. *)

val reset : unit -> unit
(** Zero every registered metric (registrations survive). *)

val to_text : snapshot -> string
(** One sorted line per metric; histograms show their count only, so the
    output of a deterministic workload is itself deterministic. *)

val to_json : snapshot -> string
(** Full detail, including histogram buckets and wall-clock sums. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON literal (shared with Trace). *)
