(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Median per-call cost of [f] over [reps] repeats of [n] calls each, in
   microseconds, with the median minor words allocated per call. *)
let per_call ?(reps = 7) ~n f =
  let times = Array.make reps 0. and words = Array.make reps 0. in
  for r = 0 to reps - 1 do
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      f i
    done;
    let t1 = Unix.gettimeofday () in
    times.(r) <- (t1 -. t0) *. 1e6 /. float_of_int n;
    words.(r) <- (Gc.minor_words () -. w0) /. float_of_int n
  done;
  (median times, median words)
