module Value = Secdb_db.Value

type access =
  | Seq_scan
  | Index_probe of {
      col : string;
      lo : Value.t option;
      hi : Value.t option;
      estimate : float;
    }
  | Bucket_scan of {
      col : string;
      lo : Value.t option;
      hi : Value.t option;
      buckets : int;
      estimate : float;
    }

type strategy = Loop_join | Index_loop_join

type t =
  | Scan of { table : string; access : access; cost : float }
  | Join of {
      outer : string;
      outer_access : access;
      inner : string;
      strategy : strategy;
      outer_col : string;
      inner_col : string;
      swapped : bool;
      cost : float;
    }

let cost = function Scan { cost; _ } | Join { cost; _ } -> cost

let access_estimate = function
  | Seq_scan -> 1.0
  | Index_probe { estimate; _ } | Bucket_scan { estimate; _ } -> estimate

(* deterministic tie-break ranks: an exact index beats a bucketized range
   index beats a full scan at equal cost, and ties between columns fall to
   the lexicographically smaller name — never to hash order or a seed *)
let access_rank = function Index_probe _ -> 0 | Bucket_scan _ -> 1 | Seq_scan -> 2
let access_col = function
  | Index_probe { col; _ } | Bucket_scan { col; _ } -> col
  | Seq_scan -> ""

let strategy_rank = function Index_loop_join -> 0 | Loop_join -> 1

(* total order for candidate lists: cheapest first, then the pinned ranks *)
let rank = function
  | Scan { access; cost; _ } -> (cost, access_rank access, access_col access, 0, 0)
  | Join { outer_access; strategy; swapped; cost; _ } ->
      ( cost,
        3 + access_rank outer_access,
        access_col outer_access,
        strategy_rank strategy,
        if swapped then 1 else 0 )

let compare a b = Stdlib.compare (rank a) (rank b)

(* short labels for bench qualifiers and latency histograms.  Scan labels
   name only the access kind; join labels also carry the outer access
   path and its column, so that no two candidates of one join share a
   histogram. *)
let name = function
  | Scan { access = Seq_scan; _ } -> "seq"
  | Scan { access = Index_probe _; _ } -> "index"
  | Scan { access = Bucket_scan _; _ } -> "bucket"
  | Join { strategy; swapped; outer_access; _ } ->
      let outer =
        match outer_access with
        | Seq_scan -> "seq"
        | Index_probe { col; _ } -> "index:" ^ col
        | Bucket_scan { col; _ } -> "bucket:" ^ col
      in
      (match strategy with Loop_join -> "loop-join" | Index_loop_join -> "index-loop-join")
      ^ (if swapped then "-rev" else "")
      ^ "@" ^ outer

let pp_bound none ppf v = Fmt.option ~none:(Fmt.any none) Value.pp ppf v

let pp_access ppf = function
  | Seq_scan -> Fmt.string ppf "FULL SCAN (decrypt every row)"
  | Index_probe { col; lo; hi; estimate } ->
      Fmt.pf ppf "INDEX SCAN on %s [%a .. %a] (est. selectivity %.2f) + residual filter" col
        (pp_bound "-inf") lo (pp_bound "+inf") hi estimate
  | Bucket_scan { col; lo; hi; buckets; estimate } ->
      Fmt.pf ppf
        "RANGE BUCKET SCAN on %s [%a .. %a] over %d buckets (est. selectivity %.2f) + \
         residual filter"
        col (pp_bound "-inf") lo (pp_bound "+inf") hi buckets estimate

(* EXPLAIN text.  Costs are printed rounded to whole cost units so the
   cram pins stay stable across float noise. *)
let pp ppf = function
  | Scan { table = _; access; cost } -> Fmt.pf ppf "%a; cost ~%.0f" pp_access access cost
  | Join { outer; outer_access; inner; strategy; outer_col; inner_col; swapped = _; cost } -> (
      match strategy with
      | Loop_join ->
          Fmt.pf ppf "NESTED LOOP JOIN: %s via %a -> materialize %s on %s.%s = %s.%s; cost ~%.0f"
            outer pp_access outer_access inner outer outer_col inner inner_col cost
      | Index_loop_join ->
          Fmt.pf ppf "INDEX LOOP JOIN: %s via %a -> probe index %s.%s on %s.%s = %s.%s; cost ~%.0f"
            outer pp_access outer_access inner inner_col outer outer_col inner inner_col cost)
