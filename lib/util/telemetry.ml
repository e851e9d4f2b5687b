(** Global driver instrumentation (see the interface).

    Every counter is a {!Shardcounter.t}: increments from parallel
    batch domains land on per-domain shards (one uncontended atomic
    add, no shared cache line) and are merged on read.  Wall time is
    accumulated in integer nanoseconds so the time accumulators share
    the same representation as the counters (no atomic floats
    needed). *)

(* ---------------------------------------------------------------- *)
(* Latency histograms                                                 *)

module Histogram = struct
  (* Log-linear buckets (HdrHistogram-style, coarse): values 0-3 get
     their own bucket; every octave above that is split into 4 linear
     sub-buckets, so any recorded value is reconstructed to within 25%.
     Everything is an [Atomic.t int], so domains record concurrently
     without tearing; reads (percentiles, sums) are racy snapshots,
     which is fine for monitoring.  [sum]/[max_v] keep exact totals. *)

  let n_buckets = 248 (* 4 + 4 sub-buckets * 61 octaves *)

  type t = {
    buckets : int Atomic.t array;
    count : int Atomic.t;
    sum : int Atomic.t;
    max_v : int Atomic.t;
  }

  let create () =
    {
      buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      sum = Atomic.make 0;
      max_v = Atomic.make 0;
    }

  (* Position of the most significant set bit of [v >= 4]. *)
  let msb v =
    let rec go v m = if v <= 1 then m else go (v lsr 1) (m + 1) in
    go v 0

  let bucket_index v =
    if v < 4 then v
    else
      let m = msb v in
      let sub = (v lsr (m - 2)) land 3 in
      (4 * (m - 1)) + sub

  (* The largest value a bucket can hold — what percentile queries
     report, so estimates err on the conservative (larger) side. *)
  let bucket_bound idx =
    if idx < 4 then idx
    else
      let m = (idx / 4) + 1 in
      let sub = idx mod 4 in
      ((4 + sub + 1) lsl (m - 2)) - 1

  let observe t v =
    let v = max 0 v in
    Atomic.incr t.buckets.(bucket_index v);
    Atomic.incr t.count;
    ignore (Atomic.fetch_and_add t.sum v);
    (* CAS loop: keep the maximum ever observed. *)
    let rec bump () =
      let cur = Atomic.get t.max_v in
      if v > cur && not (Atomic.compare_and_set t.max_v cur v) then bump ()
    in
    bump ()

  let count t = Atomic.get t.count
  let sum t = Atomic.get t.sum
  let max_value t = Atomic.get t.max_v

  let mean t =
    let n = count t in
    if n = 0 then 0. else float_of_int (sum t) /. float_of_int n

  let percentile t p =
    let n = count t in
    if n = 0 then 0
    else
      let rank =
        max 1 (int_of_float (ceil (p /. 100. *. float_of_int n)))
      in
      let rec walk idx cum =
        if idx >= n_buckets then max_value t
        else
          let cum = cum + Atomic.get t.buckets.(idx) in
          if cum >= rank then min (bucket_bound idx) (max_value t)
          else walk (idx + 1) cum
      in
      walk 0 0

  let reset t =
    Array.iter (fun b -> Atomic.set b 0) t.buckets;
    Atomic.set t.count 0;
    Atomic.set t.sum 0;
    Atomic.set t.max_v 0

  (* Bucket-wise sum into a fresh histogram — the same snapshot/merge
     shape as the sharded counters: each side is read racily, the
     result is a consistent standalone value.  Bucket boundaries are a
     compile-time constant, so merging is exact (no re-bucketing). *)
  let merge a b =
    let t = create () in
    for i = 0 to n_buckets - 1 do
      Atomic.set t.buckets.(i)
        (Atomic.get a.buckets.(i) + Atomic.get b.buckets.(i))
    done;
    Atomic.set t.count (count a + count b);
    Atomic.set t.sum (sum a + sum b);
    Atomic.set t.max_v (max (max_value a) (max_value b));
    t

  (* Rendered in milliseconds on the assumption that observations are
     nanoseconds — which is what every histogram in the tree records.
     Keys are emitted in sorted order (stats output is byte-stable). *)
  let to_json t =
    let ms ns = float_of_int ns /. 1e6 in
    Json.Obj
      [
        ("count", Json.Int (count t));
        ("max_ms", Json.Float (ms (max_value t)));
        ("mean_ms", Json.Float (mean t /. 1e6));
        ("p50_ms", Json.Float (ms (percentile t 50.)));
        ("p95_ms", Json.Float (ms (percentile t 95.)));
        ("p99_ms", Json.Float (ms (percentile t 99.)));
      ]
end

type phase = Parse | Check | Verify | Eval

(* ---------------------------------------------------------------- *)
(* The counters                                                      *)

let parse_ns = Shardcounter.create ()
let check_ns = Shardcounter.create ()
let verify_ns = Shardcounter.create ()
let eval_ns = Shardcounter.create ()
let cc_rebuilds = Shardcounter.create ()
let model_lookups = Shardcounter.create ()
let resolve_hits = Shardcounter.create ()
let resolve_misses = Shardcounter.create ()
let prelude_builds = Shardcounter.create ()
let prelude_reuses = Shardcounter.create ()
let programs = Shardcounter.create ()
let fuzz_generated = Shardcounter.create ()
let fuzz_discarded = Shardcounter.create ()
let fuzz_shrunk = Shardcounter.create ()
let unit_hits = Shardcounter.create ()
let unit_misses = Shardcounter.create ()
let unit_evictions = Shardcounter.create ()
let disk_hits = Shardcounter.create ()
let disk_misses = Shardcounter.create ()
let corrupt_entries = Shardcounter.create ()

let bump c = Shardcounter.incr c
let record_cc_rebuild () = bump cc_rebuilds
let record_model_lookup () = bump model_lookups
let record_resolve_hit () = bump resolve_hits
let record_resolve_miss () = bump resolve_misses
let record_prelude_build () = bump prelude_builds
let record_prelude_reuse () = bump prelude_reuses
let record_program () = bump programs
let record_fuzz_generated () = bump fuzz_generated
let record_fuzz_discarded () = bump fuzz_discarded
let record_fuzz_shrunk () = bump fuzz_shrunk
let record_unit_hit () = bump unit_hits
let record_unit_miss () = bump unit_misses
let record_unit_eviction () = bump unit_evictions
let record_disk_hit () = bump disk_hits
let record_disk_miss () = bump disk_misses
let record_corrupt_entry () = bump corrupt_entries

let phase_counter = function
  | Parse -> parse_ns
  | Check -> check_ns
  | Verify -> verify_ns
  | Eval -> eval_ns

(* The wall clock is the only time source available here, and it can
   step backwards (NTP).  [monotonize] pins every reading to the
   maximum ever observed — a CAS loop, so concurrent domains agree on
   one non-decreasing stream — which turns a backwards step into a
   brief plateau instead of a negative duration. *)
let last_ns = Atomic.make 0

let monotonize ns =
  let rec go () =
    let seen = Atomic.get last_ns in
    if ns <= seen then seen
    else if Atomic.compare_and_set last_ns seen ns then ns
    else go ()
  in
  go ()

let raw_ns () = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))

let now_ns () = monotonize (raw_ns ())

let time phase f =
  let counter = phase_counter phase in
  let t0 = now_ns () in
  let record () = Shardcounter.add counter (max 0 (now_ns () - t0)) in
  match f () with
  | v ->
      record ();
      v
  | exception e ->
      record ();
      raise e

(* ---------------------------------------------------------------- *)
(* Snapshots                                                         *)

type snapshot = {
  parse_ns : int;
  check_ns : int;
  verify_ns : int;
  eval_ns : int;
  cc_rebuilds : int;
  model_lookups : int;
  resolve_hits : int;
  resolve_misses : int;
  prelude_builds : int;
  prelude_reuses : int;
  programs : int;
  fuzz_generated : int;
  fuzz_discarded : int;
  fuzz_shrunk : int;
  unit_hits : int;
  unit_misses : int;
  unit_evictions : int;
  disk_hits : int;
  disk_misses : int;
  corrupt_entries : int;
}

let snapshot () =
  {
    parse_ns = Shardcounter.read parse_ns;
    check_ns = Shardcounter.read check_ns;
    verify_ns = Shardcounter.read verify_ns;
    eval_ns = Shardcounter.read eval_ns;
    cc_rebuilds = Shardcounter.read cc_rebuilds;
    model_lookups = Shardcounter.read model_lookups;
    resolve_hits = Shardcounter.read resolve_hits;
    resolve_misses = Shardcounter.read resolve_misses;
    prelude_builds = Shardcounter.read prelude_builds;
    prelude_reuses = Shardcounter.read prelude_reuses;
    programs = Shardcounter.read programs;
    fuzz_generated = Shardcounter.read fuzz_generated;
    fuzz_discarded = Shardcounter.read fuzz_discarded;
    fuzz_shrunk = Shardcounter.read fuzz_shrunk;
    unit_hits = Shardcounter.read unit_hits;
    unit_misses = Shardcounter.read unit_misses;
    unit_evictions = Shardcounter.read unit_evictions;
    disk_hits = Shardcounter.read disk_hits;
    disk_misses = Shardcounter.read disk_misses;
    corrupt_entries = Shardcounter.read corrupt_entries;
  }

let diff (b : snapshot) (a : snapshot) =
  {
    parse_ns = b.parse_ns - a.parse_ns;
    check_ns = b.check_ns - a.check_ns;
    verify_ns = b.verify_ns - a.verify_ns;
    eval_ns = b.eval_ns - a.eval_ns;
    cc_rebuilds = b.cc_rebuilds - a.cc_rebuilds;
    model_lookups = b.model_lookups - a.model_lookups;
    resolve_hits = b.resolve_hits - a.resolve_hits;
    resolve_misses = b.resolve_misses - a.resolve_misses;
    prelude_builds = b.prelude_builds - a.prelude_builds;
    prelude_reuses = b.prelude_reuses - a.prelude_reuses;
    programs = b.programs - a.programs;
    fuzz_generated = b.fuzz_generated - a.fuzz_generated;
    fuzz_discarded = b.fuzz_discarded - a.fuzz_discarded;
    fuzz_shrunk = b.fuzz_shrunk - a.fuzz_shrunk;
    unit_hits = b.unit_hits - a.unit_hits;
    unit_misses = b.unit_misses - a.unit_misses;
    unit_evictions = b.unit_evictions - a.unit_evictions;
    disk_hits = b.disk_hits - a.disk_hits;
    disk_misses = b.disk_misses - a.disk_misses;
    corrupt_entries = b.corrupt_entries - a.corrupt_entries;
  }

let ms ns = float_of_int ns /. 1e6

let pp ppf (s : snapshot) =
  Fmt.pf ppf "@[<v>phase wall time:@,";
  Fmt.pf ppf "  parse          : %10.3f ms@," (ms s.parse_ns);
  Fmt.pf ppf "  check          : %10.3f ms@," (ms s.check_ns);
  Fmt.pf ppf "  verify         : %10.3f ms@," (ms s.verify_ns);
  Fmt.pf ppf "  eval           : %10.3f ms@," (ms s.eval_ns);
  Fmt.pf ppf "counters:@,";
  Fmt.pf ppf "  programs       : %10d@," s.programs;
  Fmt.pf ppf "  prelude builds : %10d@," s.prelude_builds;
  Fmt.pf ppf "  prelude reuses : %10d@," s.prelude_reuses;
  Fmt.pf ppf "  cc rebuilds    : %10d@," s.cc_rebuilds;
  Fmt.pf ppf "  model lookups  : %10d@," s.model_lookups;
  Fmt.pf ppf "  resolve hits   : %10d@," s.resolve_hits;
  Fmt.pf ppf "  resolve misses : %10d@," s.resolve_misses;
  Fmt.pf ppf "unit cache:@,";
  Fmt.pf ppf "  hits           : %10d@," s.unit_hits;
  Fmt.pf ppf "  misses         : %10d@," s.unit_misses;
  Fmt.pf ppf "  evictions      : %10d" s.unit_evictions;
  if s.disk_hits + s.disk_misses + s.corrupt_entries > 0 then begin
    Fmt.pf ppf "@,disk cache:@,";
    Fmt.pf ppf "  hits           : %10d@," s.disk_hits;
    Fmt.pf ppf "  misses         : %10d@," s.disk_misses;
    Fmt.pf ppf "  corrupt        : %10d" s.corrupt_entries
  end;
  if s.fuzz_generated + s.fuzz_discarded + s.fuzz_shrunk > 0 then begin
    Fmt.pf ppf "@,fuzzing:@,";
    Fmt.pf ppf "  generated      : %10d@," s.fuzz_generated;
    Fmt.pf ppf "  discarded      : %10d@," s.fuzz_discarded;
    Fmt.pf ppf "  shrink steps   : %10d" s.fuzz_shrunk
  end;
  Fmt.pf ppf "@]"
