(* Telemetry under parallelism: the counters and histograms are the
   server's only instrumentation, so they must not drop updates when
   several domains hammer them at once. *)

open Fg_util

let test_counters_parallel () =
  let before = Telemetry.snapshot () in
  let n_domains = 4 and per_domain = 100_000 in
  let worker () =
    for _ = 1 to per_domain do
      Telemetry.record_program ();
      Telemetry.record_resolve_hit ()
    done
  in
  let domains = List.init n_domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  let d = Telemetry.diff (Telemetry.snapshot ()) before in
  Alcotest.(check int) "no lost program increments" (n_domains * per_domain)
    d.Telemetry.programs;
  Alcotest.(check int) "no lost resolve increments" (n_domains * per_domain)
    d.Telemetry.resolve_hits

let test_histogram_basics () =
  let h = Telemetry.Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Telemetry.Histogram.count h);
  Alcotest.(check int) "empty p99" 0 (Telemetry.Histogram.percentile h 99.);
  Telemetry.Histogram.observe h 7;
  Alcotest.(check int) "count" 1 (Telemetry.Histogram.count h);
  Alcotest.(check int) "sum" 7 (Telemetry.Histogram.sum h);
  (* A single sample: every percentile must report exactly it (the
     bucket bound is clamped to the observed maximum). *)
  Alcotest.(check int) "p50 of singleton" 7 (Telemetry.Histogram.percentile h 50.);
  Alcotest.(check int) "p100 of singleton" 7
    (Telemetry.Histogram.percentile h 100.)

let test_histogram_accuracy () =
  let h = Telemetry.Histogram.create () in
  (* 1..1000: p50 ≈ 500, p99 ≈ 990 — log-linear buckets promise the
     estimate within 25% above the true rank value. *)
  for v = 1 to 1000 do
    Telemetry.Histogram.observe h v
  done;
  let p50 = Telemetry.Histogram.percentile h 50. in
  let p99 = Telemetry.Histogram.percentile h 99. in
  Alcotest.(check bool) "p50 in range"
    true
    (p50 >= 500 && p50 <= 625);
  Alcotest.(check bool) "p99 in range" true (p99 >= 990 && p99 <= 1000);
  Alcotest.(check int) "max tracked exactly" 1000
    (Telemetry.Histogram.max_value h);
  Alcotest.(check int) "p100 clamps to max" 1000
    (Telemetry.Histogram.percentile h 100.);
  Alcotest.(check (float 0.5)) "mean" 500.5 (Telemetry.Histogram.mean h)

let test_histogram_parallel () =
  let h = Telemetry.Histogram.create () in
  let n_domains = 4 and per_domain = 50_000 in
  let worker i () =
    for k = 1 to per_domain do
      (* distinct per-domain values so the shared sum detects tearing *)
      Telemetry.Histogram.observe h ((i * per_domain) + k)
    done
  in
  let domains = List.init n_domains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join domains;
  let n = n_domains * per_domain in
  Alcotest.(check int) "exact count" n (Telemetry.Histogram.count h);
  (* sum of 1..(n_domains*per_domain) plus the per-domain offsets *)
  let expected_sum = ref 0 in
  for i = 0 to n_domains - 1 do
    for k = 1 to per_domain do
      expected_sum := !expected_sum + (i * per_domain) + k
    done
  done;
  Alcotest.(check int) "exact sum" !expected_sum (Telemetry.Histogram.sum h);
  Alcotest.(check int) "exact max" n (Telemetry.Histogram.max_value h)

(* The sharded counters under the same 4-domain hammer as the
   histograms: one anonymous counter and one registry key bumped from
   every domain, with reads taken while the increments are racing. *)
let test_shardcounter_hammer () =
  let c = Shardcounter.create () in
  let reg = Shardcounter.Registry.create () in
  let n_domains = 4 and per_domain = 100_000 in
  let worker () =
    for k = 1 to per_domain do
      Shardcounter.incr c;
      Shardcounter.Registry.hit reg "hammered";
      if k mod 16 = 0 then ignore (Shardcounter.read c)
    done
  in
  let domains = List.init n_domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  let n = n_domains * per_domain in
  Alcotest.(check int) "no lost plain increments" n (Shardcounter.read c);
  Alcotest.(check (list (pair string int)))
    "no lost registry increments"
    [ ("hammered", n) ]
    (Shardcounter.Registry.snapshot reg)

let test_histogram_json () =
  let h = Telemetry.Histogram.create () in
  Telemetry.Histogram.observe h 2_000_000 (* 2ms in ns *);
  match Telemetry.Histogram.to_json h with
  | Json.Obj fields ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k fields))
        [ "count"; "mean_ms"; "max_ms"; "p50_ms"; "p95_ms"; "p99_ms" ];
      Alcotest.(check (option int)) "count field" (Some 1)
        (Json.int_field "count" (Json.Obj fields))
  | _ -> Alcotest.fail "histogram json should be an object"

(* Regression: phase durations used the raw wall clock, so an NTP step
   backwards mid-phase recorded a negative duration.  The shared clock
   is now monotonized (and the accumulator clamps at zero). *)
let test_monotonic_clock () =
  let a = Telemetry.now_ns () in
  (* feeding a past timestamp returns the newest reading ever seen *)
  Alcotest.(check bool) "backwards step plateaus" true
    (Telemetry.monotonize (a - 1_000_000_000) >= a);
  Alcotest.(check bool) "stream never decreases" true
    (Telemetry.now_ns () >= a);
  let before = Telemetry.snapshot () in
  (* simulate a clock excursion inside a timed phase: push the shared
     clock forward past the phase's start, as a backwards wall step
     after t0 effectively does *)
  Telemetry.time Telemetry.Parse (fun () ->
      ignore (Telemetry.monotonize (Telemetry.now_ns () + 50_000_000)));
  let d = Telemetry.diff (Telemetry.snapshot ()) before in
  Alcotest.(check bool) "phase duration never negative" true
    (d.Telemetry.parse_ns >= 0)

let suite =
  [
    Alcotest.test_case "counters under 4 domains" `Quick test_counters_parallel;
    Alcotest.test_case "monotonic durations" `Quick test_monotonic_clock;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "histogram accuracy" `Quick test_histogram_accuracy;
    Alcotest.test_case "histogram under 4 domains" `Quick
      test_histogram_parallel;
    Alcotest.test_case "sharded counters under 4 domains" `Quick
      test_shardcounter_hammer;
    Alcotest.test_case "histogram json shape" `Quick test_histogram_json;
  ]
