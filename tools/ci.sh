#!/bin/sh
# CI entry point: build everything, run the full test battery, then a
# quick benchmark smoke (tiny quota — checks the harness runs and the
# deterministic tables print, not the numbers).
set -eu
cd "$(dirname "$0")/.."

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

echo "== error corpus: diagnostic codes are stable"
# Each program under programs/errors/ pins the FG0xxx codes one
# recovering `fgc run` reports for it (warnings included); any drift
# from expected_codes.txt fails the build.
actual=$(mktemp)
trap 'rm -f "$actual"' EXIT
for f in programs/errors/*.fg; do
  codes=$(./_build/default/bin/fgc.exe run --format=json "$f" 2>/dev/null \
    | grep -o '"code": "FG[0-9]*"' \
    | sed 's/.*"\(FG[0-9]*\)"$/\1/' | tr '\n' ' ' | sed 's/ $//' || true)
  echo "$(basename "$f"): $codes" >> "$actual"
done
diff -u programs/errors/expected_codes.txt "$actual"

echo "== fuzz smoke (seed 42, 200 programs)"
# Deterministic: the same seed generates the same programs on every
# machine, so a clean run here means a clean run everywhere.
./_build/default/bin/fgc.exe fuzz --seed 42 --count 200

echo "== stencil-diff: backend byte-identity (corpus + 1k fuzz)"
# The specializing backends must be observationally invisible: every
# program in the tree prints the same bytes under dict, stencil and
# hybrid (the session's internal oracle additionally asserts the
# specialized term typechecks and evaluates identically — FG0502 /
# FG0503 would surface here as diverging output).  Then a 1k seeded
# fuzz batch per specializing backend, where every generated program
# runs the same differential oracle.
for f in programs/*.fg programs/errors/*.fg programs/fuzz_regressions/*.fg; do
  d=$(./_build/default/bin/fgc.exe run "$f" 2>&1 || true)
  s=$(./_build/default/bin/fgc.exe run --backend=stencil "$f" 2>&1 || true)
  h=$(./_build/default/bin/fgc.exe run --backend=hybrid "$f" 2>&1 || true)
  [ "$d" = "$s" ] || { echo "stencil-diff: stencil diverges on $f"; exit 1; }
  [ "$d" = "$h" ] || { echo "stencil-diff: hybrid diverges on $f"; exit 1; }
done
./_build/default/bin/fgc.exe fuzz --seed 7 --count 1000 --backend=stencil
./_build/default/bin/fgc.exe fuzz --seed 7 --count 1000 --backend=hybrid

echo "== bench smoke (BENCH_QUOTA=0.02, incremental re-check >= 3x)"
bench_out=$(mktemp)
BENCH_QUOTA=0.02 dune exec bench/main.exe | tee "$bench_out"
# The incremental group re-checks a program family sharing a long
# declaration prefix; the unit cache must make warm re-checking at
# least 3x faster than cold checking.
speedup=$(grep 'incremental re-check speedup' "$bench_out" \
  | grep -o '[0-9.]*x' | tr -d 'x')
rm -f "$bench_out"
awk -v s="$speedup" 'BEGIN { exit (s >= 3.0) ? 0 : 1 }' \
  || { echo "bench smoke: incremental speedup ${speedup}x < 3x"; exit 1; }

echo "== benchmark spine smoke (every workload at ~1% size)"
# Runs each BENCHMARK.json workload briefly, untraced and traced, and
# checks every output against references the compiler did not produce,
# so a change that breaks a workload fails CI rather than the next
# benchmark run.
dune build @benchspine/bench-smoke

echo "== server smoke"
# A real daemon on a unix socket: 200+ requests through one batch
# connection, the protocol-violation probe (garbage JSON frame,
# version mismatch, oversized length prefix), a deliberate deadline
# miss, live stats, then SIGTERM and a clean drain.  Any unexpected
# status exits nonzero (the client maps statuses to exit codes).
fgc=./_build/default/bin/fgc.exe
sock=$(mktemp -u /tmp/fgc_ci_XXXXXX.sock)
"$fgc" serve --socket "$sock" 2>/dev/null &
serve_pid=$!
trap 'rm -f "$actual"; kill "$serve_pid" 2>/dev/null || true; rm -f "$sock"' EXIT
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "server smoke: daemon never bound $sock"; exit 1; }

echo "-- batch: 10 x programs/ through one connection"
for _ in $(seq 1 10); do
  "$fgc" client batch programs -p --socket "$sock" > /dev/null
done

echo "-- probe: malformed frame, version mismatch, oversized prefix"
"$fgc" client probe --socket "$sock"

echo "-- deliberate timeout (exit 4 expected)"
rc=0
"$fgc" client run -e '1 + 1' --timeout-ms 0 --socket "$sock" > /dev/null || rc=$?
[ "$rc" -eq 4 ] || { echo "server smoke: timeout exit was $rc, want 4"; exit 1; }

echo "-- stats"
"$fgc" client stats --socket "$sock" | grep -q '"latency"' \
  || { echo "server smoke: stats payload missing latency"; exit 1; }

echo "-- SIGTERM: clean drain"
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "server smoke: daemon exited nonzero"; exit 1; }
[ ! -S "$sock" ] || { echo "server smoke: socket not unlinked"; exit 1; }

echo "== incremental smoke (shared unit cache vs one-shot, byte-identity)"
# Sweep every corpus program through one warm single-worker daemon —
# twice, so the second pass replays cached compilation units — and
# require each served response to be byte-identical to a one-shot
# `fgc run --format=json` of the same file.
sock=$(mktemp -u /tmp/fgc_inc_XXXXXX.sock)
"$fgc" serve --socket "$sock" --workers 1 2>/dev/null &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$sock"' EXIT
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "incremental smoke: daemon never bound $sock"; exit 1; }
oneshot=$(mktemp) && cold=$(mktemp) && warm=$(mktemp)
for f in programs/*.fg programs/errors/*.fg programs/fuzz_regressions/*.fg; do
  "$fgc" run --format=json "$f" > "$oneshot" 2>/dev/null || true
  "$fgc" client run "$f" --socket "$sock" > "$cold" 2>/dev/null || true
  "$fgc" client run "$f" --socket "$sock" > "$warm" 2>/dev/null || true
  cmp -s "$oneshot" "$cold" \
    || { echo "incremental smoke: served differs from one-shot: $f"; exit 1; }
  cmp -s "$cold" "$warm" \
    || { echo "incremental smoke: warm replay differs from cold: $f"; exit 1; }
done
rm -f "$oneshot" "$cold" "$warm"
"$fgc" client stats --socket "$sock" | grep -q '"unit_cache"' \
  || { echo "incremental smoke: stats payload missing unit_cache"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "incremental smoke: daemon exited nonzero"; exit 1; }

echo "== cache smoke (persistent unit store: cold/warm byte-identity)"
# Run the whole program tree against a fresh --cache-dir twice.  Both
# passes must print exactly what a cache-less run prints, and the warm
# pass must re-check nothing for the well-typed corpus: its --stats
# report shows zero unit-cache misses.  (Error programs re-check by
# design — failed declarations are never cached.)
cache_dir=$(mktemp -d /tmp/fgc_cache_XXXXXX)
trap 'rm -rf "$cache_dir"; kill "$serve_pid" 2>/dev/null || true' EXIT
plain=$(mktemp) && cold=$(mktemp) && warm=$(mktemp) && wstats=$(mktemp)
for f in programs/*.fg programs/errors/*.fg programs/fuzz_regressions/*.fg; do
  "$fgc" run --format=json "$f" > "$plain" 2>/dev/null || true
  "$fgc" run --format=json --cache-dir "$cache_dir" "$f" > "$cold" 2>/dev/null || true
  "$fgc" run --format=json --cache-dir "$cache_dir" --stats "$f" > "$warm" 2>"$wstats" || true
  cmp -s "$plain" "$cold" \
    || { echo "cache smoke: cold cached run differs from uncached: $f"; exit 1; }
  cmp -s "$plain" "$warm" \
    || { echo "cache smoke: warm cached run differs from uncached: $f"; exit 1; }
  case "$f" in
  programs/errors/* | programs/fuzz_regressions/*) ;;
  *)
    grep -A4 'unit cache:' "$wstats" | grep -q 'misses         :          0' \
      || { echo "cache smoke: warm run re-checked units: $f"; exit 1; }
    ;;
  esac
done
rm -f "$plain" "$cold" "$warm" "$wstats"

echo "== farm smoke (peer cache tier: cold daemon fed by a warm peer)"
# Daemon A owns the warm store; daemon B has no disk of its own and
# lists A as its only cache peer.  B's served output must be
# byte-identical to one-shot runs, and B's stats must show peer hits
# (its units came over the wire, not from re-checking).
sock_a=$(mktemp -u /tmp/fgc_farm_a_XXXXXX.sock)
sock_b=$(mktemp -u /tmp/fgc_farm_b_XXXXXX.sock)
"$fgc" serve --socket "$sock_a" --workers 1 --cache-dir "$cache_dir" 2>/dev/null &
pid_a=$!
trap 'rm -rf "$cache_dir"; kill "$pid_a" 2>/dev/null || true; rm -f "$sock_a" "$sock_b"' EXIT
for _ in $(seq 1 50); do [ -S "$sock_a" ] && break; sleep 0.1; done
[ -S "$sock_a" ] || { echo "farm smoke: daemon A never bound"; exit 1; }
"$fgc" client batch programs -p --socket "$sock_a" > /dev/null   # warm A's store
"$fgc" serve --socket "$sock_b" --workers 1 --cache-peer "unix:$sock_a" 2>/dev/null &
pid_b=$!
trap 'rm -rf "$cache_dir"; kill "$pid_a" "$pid_b" 2>/dev/null || true; rm -f "$sock_a" "$sock_b"' EXIT
for _ in $(seq 1 50); do [ -S "$sock_b" ] && break; sleep 0.1; done
[ -S "$sock_b" ] || { echo "farm smoke: daemon B never bound"; exit 1; }
oneshot=$(mktemp) && served=$(mktemp)
for f in programs/*.fg; do
  "$fgc" run --format=json -p "$f" > "$oneshot" 2>/dev/null || true
  "$fgc" client run -p "$f" --socket "$sock_b" > "$served" 2>/dev/null || true
  cmp -s "$oneshot" "$served" \
    || { echo "farm smoke: peer-fed output differs from one-shot: $f"; exit 1; }
done
rm -f "$oneshot" "$served"
# stats keys are canonically sorted, so pull the peer_cache object out
# first and read its hits field wherever it landed
"$fgc" client stats --socket "$sock_b" \
  | grep -o '"peer_cache": {[^}]*}' | grep -o '"hits": [0-9]*' \
  | grep -qv '"hits": 0$' \
  || { echo "farm smoke: cold daemon reported no peer hits"; exit 1; }
"$fgc" client shutdown --socket "$sock_a" > /dev/null
"$fgc" client shutdown --socket "$sock_b" > /dev/null
wait "$pid_a" || { echo "farm smoke: daemon A exited nonzero"; exit 1; }
wait "$pid_b" || { echo "farm smoke: daemon B exited nonzero"; exit 1; }
rm -rf "$cache_dir"

echo "== fuzz-coverage: guided beats blind at the same seed (1k programs)"
# The coverage-guided mutator must earn its keep: at the same seed and
# budget (mutants off, so both modes measure the same work), the guided
# run must reach strictly more distinct checker/resolution decision
# points than blind generation.  Both runs print a deterministic
# "coverage: N decision points" line.
fuzz_corpus=$(mktemp -d /tmp/fgc_fuzzcov_XXXXXX)
trap 'rm -rf "$fuzz_corpus"' EXIT
blind_cov=$("$fgc" fuzz --seed 5 --count 1000 --mutants 0 \
  | sed -n 's/^coverage: \([0-9]*\) decision points.*/\1/p')
guided_cov=$("$fgc" fuzz --seed 5 --count 1000 --mutants 0 \
  --corpus-dir "$fuzz_corpus" \
  | sed -n 's/^coverage: \([0-9]*\) decision points.*/\1/p')
echo "-- blind: $blind_cov decision points, guided: $guided_cov"
[ -n "$blind_cov" ] && [ -n "$guided_cov" ] \
  || { echo "fuzz-coverage: missing coverage line"; exit 1; }
[ "$guided_cov" -gt "$blind_cov" ] \
  || { echo "fuzz-coverage: guided ($guided_cov) not above blind ($blind_cov)"; exit 1; }
[ -n "$(ls "$fuzz_corpus")" ] \
  || { echo "fuzz-coverage: guided run admitted no corpus entries"; exit 1; }

echo "-- corpus merge: two workers converge through one daemon"
# Two fuzz workers with disjoint seeds and separate corpus dirs sync
# through a shared daemon (fuzz_batch); after a second round each
# holds the union corpus, and the daemon's stats expose the soak.
w1=$(mktemp -d /tmp/fgc_fuzzw1_XXXXXX)
w2=$(mktemp -d /tmp/fgc_fuzzw2_XXXXXX)
sock=$(mktemp -u /tmp/fgc_fuzz_XXXXXX.sock)
"$fgc" serve --socket "$sock" --workers 1 2>/dev/null &
serve_pid=$!
trap 'rm -rf "$fuzz_corpus" "$w1" "$w2"; kill "$serve_pid" 2>/dev/null || true; rm -f "$sock"' EXIT
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "fuzz-coverage: daemon never bound $sock"; exit 1; }
"$fgc" client fuzz-worker --socket "$sock" --seed 11 --count 150 --corpus-dir "$w1"
"$fgc" client fuzz-worker --socket "$sock" --seed 99 --count 150 --corpus-dir "$w2"
# second round: both adopt whatever the other contributed
"$fgc" client fuzz-worker --socket "$sock" --seed 12 --count 50 --corpus-dir "$w1"
"$fgc" client fuzz-worker --socket "$sock" --seed 98 --count 50 --corpus-dir "$w2"
"$fgc" client stats --socket "$sock" | grep -q '"fuzz_soak"' \
  || { echo "fuzz-coverage: stats payload missing fuzz_soak"; exit 1; }
common=$({ ls "$w1"; ls "$w2"; } | sort | uniq -d | wc -l)
[ "$common" -gt 0 ] \
  || { echo "fuzz-coverage: workers share no corpus entries after sync"; exit 1; }
"$fgc" client shutdown --socket "$sock" > /dev/null
wait "$serve_pid" || { echo "fuzz-coverage: daemon exited nonzero"; exit 1; }

echo "== workspace smoke (v5 document lifecycle, edit/revert byte-identity)"
# Open every corpus program as a workspace document over the wire, run
# a scripted single-digit edit and revert it, and require the final
# doc_diagnostics payload to be byte-identical to a one-shot
# `fgc run --format=json -p` of the same file.  The warm incremental
# path must be observationally invisible.
sock=$(mktemp -u /tmp/fgc_ws_XXXXXX.sock)
"$fgc" serve --socket "$sock" --workers 1 2>/dev/null &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$sock"' EXIT
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "workspace smoke: daemon never bound $sock"; exit 1; }
oneshot=$(mktemp) && served=$(mktemp)
for f in programs/*.fg; do
  "$fgc" client open "$f" -p --socket "$sock" > /dev/null
  hit=$(grep -obE '[0-9]' "$f" | head -n 1 || true)
  if [ -n "$hit" ]; then
    off=${hit%%:*}
    orig=${hit##*:}
    rep=7; [ "$orig" = "7" ] && rep=8
    "$fgc" client edit "$f" --doc-version 2 --at "$off" --del 1 \
      --insert "$rep" --socket "$sock" > /dev/null
    "$fgc" client edit "$f" --doc-version 3 --at "$off" --del 1 \
      --insert "$orig" --socket "$sock" > /dev/null
  fi
  "$fgc" run --format=json -p "$f" > "$oneshot" 2>/dev/null || true
  "$fgc" client diag "$f" --socket "$sock" > "$served" 2>/dev/null || true
  cmp -s "$oneshot" "$served" \
    || { echo "workspace smoke: edited+reverted diagnostics differ: $f"; exit 1; }
  "$fgc" client close "$f" --socket "$sock" > /dev/null
done
rm -f "$oneshot" "$served"
"$fgc" client stats --socket "$sock" | grep -q '"workspace"' \
  || { echo "workspace smoke: stats payload missing workspace block"; exit 1; }
"$fgc" client stats --pretty --socket "$sock" | grep -q 'workspace' \
  || { echo "workspace smoke: pretty stats missing workspace block"; exit 1; }
"$fgc" client shutdown --socket "$sock" > /dev/null
wait "$serve_pid" || { echo "workspace smoke: daemon exited nonzero"; exit 1; }

echo "-- editgen: edit-to-diagnostics p95 under the bar"
EDITGEN_EDITS=6 EDITGEN_P95_MS=200 dune exec bench/editgen.exe

echo "== loadgen smoke (300 requests, byte-identity + 5x bar)"
LOADGEN_REQUESTS=300 LOADGEN_ONESHOT_SAMPLE=10 dune exec bench/loadgen.exe

echo "== pgo smoke (profile record/replay: guided byte-identity + zipf bar)"
# Record a workload profile over the whole corpus — twice, because the
# canonical sorted-key encoding promises byte-identical recordings.
# Replaying the corpus on the guided backend under that profile must
# print exactly the dictionary backend's bytes (the session's internal
# oracle additionally re-checks every stencil in System F).  Then the
# same differential over 1k seeded fuzz programs with a profile
# recorded from the same generator, and finally the Zipf bar: a daemon
# auto-sized from a recorded profile must beat the default
# configuration on the same skewed request stream.
prof=$(mktemp /tmp/fgc_pgo_XXXXXX.json)
prof2=$(mktemp /tmp/fgc_pgo2_XXXXXX.json)
merged=$(mktemp /tmp/fgc_pgo_merged_XXXXXX.json)
fuzzprof=$(mktemp /tmp/fgc_pgo_fuzz_XXXXXX.json)
dict_out=$(mktemp) && guided_out=$(mktemp)
trap 'rm -f "$prof" "$prof2" "$merged" "$fuzzprof" "$dict_out" "$guided_out"' EXIT
"$fgc" corpus --all --profile-out "$prof" > /dev/null
"$fgc" corpus --all --profile-out "$prof2" > /dev/null
cmp -s "$prof" "$prof2" \
  || { echo "pgo smoke: profile recording is not deterministic"; exit 1; }
"$fgc" profile merge "$prof" "$prof2" -o "$merged"
"$fgc" profile show "$merged" > /dev/null
"$fgc" corpus --all > "$dict_out"
"$fgc" corpus --all --backend=guided --profile "$prof" > "$guided_out"
cmp -s "$dict_out" "$guided_out" \
  || { echo "pgo smoke: guided diverges from dict over the corpus"; exit 1; }
"$fgc" fuzz --seed 7 --count 1000 --profile-out "$fuzzprof" > /dev/null
"$fgc" fuzz --seed 7 --count 1000 --backend=guided --profile "$fuzzprof"
echo "-- zipf loadgen: profile-guided serve must beat the default config"
LOADGEN_MODE=zipf LOADGEN_ZIPF_REQUESTS=2400 dune exec bench/loadgen.exe
