(* Global observability switch.  Everything in Secdb_obs (and every
   instrumentation site in the library) checks [on ()] first: with the
   switch off the counters, histograms and spans cost one atomic load and
   a branch, and allocate nothing, so instrumented kernels keep their
   benchmark numbers.  The switch defaults to off; [SECDB_OBS=1] in the
   environment turns it on at program start. *)

let flag = Atomic.make false
let enable () = Atomic.set flag true
let disable () = Atomic.set flag false
let on () = Atomic.get flag

let with_enabled f =
  let was = on () in
  enable ();
  Fun.protect ~finally:(fun () -> if not was then disable ()) f

let () =
  match Sys.getenv_opt "SECDB_OBS" with
  | Some ("1" | "true" | "on") -> enable ()
  | _ -> ()
