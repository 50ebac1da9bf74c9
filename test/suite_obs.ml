open Secdb_obs

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Every test toggles the global switch; run the body with it on and
   restore it afterwards so suites stay order-independent. *)
let on f () = Obs.with_enabled f
let () = Obs.disable ()

let test_counter_arithmetic () =
  let c = Metrics.counter "obs_test.arith" in
  checki "fresh" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.add c 41;
  checki "incr + add" 42 (Metrics.value c);
  Metrics.add c (-2);
  checki "negative add" 40 (Metrics.value c);
  Alcotest.(check string) "name" "obs_test.arith" (Metrics.counter_name c)

let test_counter_labels () =
  let a = Metrics.counter ~labels:[ ("op", "x"); ("kind", "a") ] "obs_test.lbl" in
  let b = Metrics.counter ~labels:[ ("kind", "a"); ("op", "x") ] "obs_test.lbl" in
  Metrics.incr a;
  (* label order does not matter: same (name, labels) -> same counter *)
  checki "same counter through either order" 1 (Metrics.value b);
  Alcotest.(check string) "rendered name" "obs_test.lbl{kind=a,op=x}" (Metrics.counter_name a);
  let other = Metrics.counter ~labels:[ ("op", "y") ] "obs_test.lbl" in
  checki "different labels, different counter" 0 (Metrics.value other)

let test_registry_idempotent () =
  let c1 = Metrics.counter "obs_test.idem" in
  Metrics.add c1 7;
  let c2 = Metrics.counter "obs_test.idem" in
  checki "re-registration returns same counter" 7 (Metrics.value c2);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: obs_test.idem already registered as another kind")
    (fun () -> ignore (Metrics.gauge "obs_test.idem"));
  Alcotest.check_raises "bad name rejected"
    (Invalid_argument "Metrics: bad metric name so bad") (fun () ->
      ignore (Metrics.counter "so bad"))

let test_gauge () =
  let g = Metrics.gauge "obs_test.gauge" in
  Metrics.set g 17;
  checki "set" 17 (Metrics.gauge_value g);
  Metrics.set g 3;
  checki "overwrite" 3 (Metrics.gauge_value g)

let test_histogram () =
  let h = Metrics.histogram "obs_test.hist" in
  Metrics.observe h 1e-6;
  Metrics.observe h 1e-6;
  Metrics.observe h 0.5;
  checki "count" 3 (Metrics.hist_count h);
  let v = Metrics.hist_view h in
  checki "view count" 3 v.Metrics.count;
  checkb "sum in range" true (v.Metrics.sum_seconds > 0.4 && v.Metrics.sum_seconds < 0.6);
  (* the two 1us observations share a bucket; 0.5s lands far above it *)
  checki "two buckets hit" 2 (List.length v.Metrics.buckets);
  List.iter
    (fun (i, n) ->
      checkb "bucket upper edge covers observation" true
        (Metrics.bucket_upper_s i >= 1e-6 || n = 0))
    v.Metrics.buckets;
  let x = Metrics.time h (fun () -> 5) in
  checki "time returns thunk result" 5 x;
  checki "time observed once" 4 (Metrics.hist_count h)

let test_snapshot_stable () =
  let c = Metrics.counter "obs_test.snap" in
  Metrics.add c 3;
  let pick (s : Metrics.snapshot) = List.assoc_opt "obs_test.snap" s.Metrics.counters in
  let s1 = Metrics.snapshot () in
  let s2 = Metrics.snapshot () in
  checkb "value visible" true (pick s1 = Some 3);
  checkb "two snapshots agree" true (pick s1 = pick s2);
  checkb "sorted by name" true
    (let names = List.map fst s1.Metrics.counters in
     names = List.sort compare names);
  checkb "text deterministic" true (Metrics.to_text s1 = Metrics.to_text s2)

let test_disabled_noop () =
  Obs.disable ();
  let c = Metrics.counter "obs_test.off" in
  let g = Metrics.gauge "obs_test.off_gauge" in
  let h = Metrics.histogram "obs_test.off_hist" in
  Metrics.incr c;
  Metrics.add c 100;
  Metrics.set g 9;
  Metrics.observe h 0.1;
  checki "counter untouched" 0 (Metrics.value c);
  checki "gauge untouched" 0 (Metrics.gauge_value g);
  checki "histogram untouched" 0 (Metrics.hist_count h);
  let hits = ref 0 in
  let r = Trace.with_span "obs_test.span" (fun () -> incr hits; 11) in
  checki "with_span transparent" 11 r;
  checki "body ran once" 1 !hits

let test_parallel_counts () =
  let c = Metrics.counter "obs_test.par" in
  let domains = 4 and per_domain = 25_000 in
  let work () =
    for _ = 1 to per_domain do
      Metrics.incr c
    done
  in
  List.iter Domain.join (List.init domains (fun _ -> Domain.spawn work));
  (* striped slots must not lose increments under domain parallelism *)
  checki "no lost counts" (domains * per_domain) (Metrics.value c)

let test_reset () =
  let c = Metrics.counter "obs_test.reset" in
  let h = Metrics.histogram "obs_test.reset_hist" in
  Metrics.add c 5;
  Metrics.observe h 0.01;
  Metrics.reset ();
  checki "counter zeroed" 0 (Metrics.value c);
  checki "histogram zeroed" 0 (Metrics.hist_count h);
  Metrics.incr c;
  checki "registration survives reset" 1 (Metrics.value c)

let test_trace_ring () =
  Trace.set_sink Trace.Ring;
  Trace.clear_ring ();
  let out = Trace.with_span ~attrs:[ ("k", "v") ] "obs_test.ring" (fun () -> 7) in
  checki "result passes through" 7 out;
  (try ignore (Trace.with_span "obs_test.raise" (fun () -> failwith "boom")) with
  | Failure _ -> ());
  (match Trace.ring_events () with
  | [ a; b ] ->
      Alcotest.(check string) "first span" "obs_test.ring" a.Trace.span;
      Alcotest.(check string) "span on exception" "obs_test.raise" b.Trace.span;
      checkb "attrs kept" true (a.Trace.attrs = [ ("k", "v") ]);
      checkb "duration non-negative" true (a.Trace.duration >= 0.);
      checkb "event renders as json" true
        (String.length (Trace.json_of_event a) > 0)
  | evs -> Alcotest.failf "expected 2 ring events, got %d" (List.length evs));
  Trace.clear_ring ();
  checki "ring cleared" 0 (List.length (Trace.ring_events ()));
  Trace.set_sink Trace.Null

let test_trace_null_counts () =
  Trace.set_sink Trace.Null;
  let spans = Metrics.counter "trace.spans" in
  let before = Metrics.value spans in
  Trace.with_span "obs_test.null" Fun.id;
  checki "null sink still counts spans" (before + 1) (Metrics.value spans)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "counter arithmetic" `Quick (on test_counter_arithmetic);
        Alcotest.test_case "counter labels" `Quick (on test_counter_labels);
        Alcotest.test_case "registry idempotent" `Quick (on test_registry_idempotent);
        Alcotest.test_case "gauge" `Quick (on test_gauge);
        Alcotest.test_case "histogram" `Quick (on test_histogram);
        Alcotest.test_case "snapshot stable" `Quick (on test_snapshot_stable);
        Alcotest.test_case "disabled path is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "parallel increments lose nothing" `Quick (on test_parallel_counts);
        Alcotest.test_case "reset" `Quick (on test_reset);
        Alcotest.test_case "trace ring sink" `Quick (on test_trace_ring);
        Alcotest.test_case "trace null sink counts" `Quick (on test_trace_null_counts);
      ] );
  ]
