#!/bin/sh
# CI entry point: build everything, run the full test battery, then a
# quick benchmark smoke (tiny quota — checks the harness runs and the
# deterministic tables print, not the numbers).
set -eu
cd "$(dirname "$0")/.."

# Every temp path and daemon pid a stage creates goes on these lists
# (track / track_pid); the one EXIT trap stops and removes all of them,
# whichever stage fails.  A daemon leaves the list when [reap] collects
# its exit status, so the trap never signals a recycled pid.
tmp_paths=""
daemon_pids=""
track() { tmp_paths="$tmp_paths $*"; }
track_pid() { daemon_pids="$daemon_pids $1"; }
reap() {
  rest=""
  for pid in $daemon_pids; do [ "$pid" = "$1" ] || rest="$rest $pid"; done
  daemon_pids=$rest
  wait "$1"
}
cleanup() {
  for pid in $daemon_pids; do kill "$pid" 2>/dev/null || true; done
  for p in $tmp_paths; do rm -rf "$p"; done
}
trap cleanup EXIT

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

echo "== error corpus: diagnostic codes are stable"
# Each program under programs/errors/ pins the FG0xxx codes one
# recovering `fgc run` reports for it (warnings included); any drift
# from expected_codes.txt fails the build.
actual=$(mktemp)
track "$actual"
for f in programs/errors/*.fg; do
  codes=$(./_build/default/bin/fgc.exe run --format=json "$f" 2>/dev/null \
    | grep -o '"code": "FG[0-9]*"' \
    | sed 's/.*"\(FG[0-9]*\)"$/\1/' | tr '\n' ' ' | sed 's/ $//' || true)
  echo "$(basename "$f"): $codes" >> "$actual"
done
diff -u programs/errors/expected_codes.txt "$actual"

echo "== one-shot GC: a -p run collects nothing"
# fgc starts its one-shot subcommands with a 512k-word minor heap
# (bin/oneshot_heap.c), so loading the prelude image requests no major
# slice.  v=0x400 makes the runtime print its GC counters at exit; they
# are deterministic for a given binary, so a heavier image or corpus
# file fails here instead of quietly slowing the benchmark.
gc_err=$(mktemp)
track "$gc_err"
for f in programs/*.fg programs/errors/*.fg programs/fuzz_regressions/*.fg; do
  OCAMLRUNPARAM=v=0x400 ./_build/default/bin/fgc.exe run --format=json -p "$f" \
    > /dev/null 2> "$gc_err" || true
  zeros=$(grep -c -E '^(minor|major)_collections: 0$' "$gc_err" || true)
  [ "$zeros" = 2 ] \
    || { echo "one-shot GC: $f collected"; grep _collections "$gc_err"; exit 1; }
done

echo "== batch heap: a batch keeps only what it prints"
# A batch keeps each job's printed result, not the job's source, AST
# and translation, so its peak major heap must not grow with the number
# of jobs: programs/ listed eight times must stay under twice the peak
# of programs/ listed once.  v=0x400 prints top_heap_words at exit; on
# one domain it is deterministic for a given binary.
batch_heap() {
  OCAMLRUNPARAM=v=0x400 ./_build/default/bin/fgc.exe batch --format=json \
    --domains 1 "$@" 2>&1 > /dev/null | sed -n 's/^top_heap_words: //p'
}
heap_1=$(batch_heap programs/*.fg)
heap_8=$(batch_heap $(for _ in 1 2 3 4 5 6 7 8; do echo programs/*.fg; done))
echo "-- top_heap_words: $heap_1 listed once, $heap_8 listed 8 times"
[ -n "$heap_1" ] && [ -n "$heap_8" ] && [ "$heap_8" -lt $((2 * heap_1)) ] \
  || { echo "batch heap: 8x run reached ${heap_8:-?} words, bound 2 x ${heap_1:-?}"; exit 1; }

echo "== diamond budget: a depth-16 refinement diamond under 4M words"
# Genprog.refinement_diamond 16: 32 concepts, each refining both of the
# level below, so 2^16 refinement paths but only 32 distinct
# instantiations.  The checker and the System F re-check walk each
# instantiation once; a walk over paths allocates billions of words.
# v=0x400 prints the runtime's allocated_words at exit, deterministic
# for a given binary.
diamond=$(mktemp) && diamond_err=$(mktemp)
track "$diamond" "$diamond_err"
./_build/default/tools/genprog.exe refinement_diamond 16 > "$diamond"
value=$(OCAMLRUNPARAM=v=0x400 ./_build/default/bin/fgc.exe run "$diamond" 2> "$diamond_err")
[ "$value" = 1 ] || { echo "diamond budget: run printed '$value', want 1"; exit 1; }
words=$(sed -n 's/^allocated_words: //p' "$diamond_err")
echo "-- allocated_words: $words"
[ -n "$words" ] && [ "$words" -le 4000000 ] \
  || { echo "diamond budget: ${words:-no} allocated_words, bound 4000000"; exit 1; }

echo "== chain budget: parameterized-model chains in linear work"
# Genprog.param_depth 60 resolves Eq<list^60 int> through the
# parameterized Eq<list t> model, a 61-level dictionary chain;
# instantiation_fanout 30 calls one generic at list^0..29 int, three
# times each.  Each chain level costs a plan reuse, one model match and
# one instantiation, so the process allocates 211k and 1.44M words; a
# checker that recomputes the plan at every level, or an interpreter that
# re-validates the chain below every level, allocates 1.68M and 5.30M.
# The bounds are about twice the linear figures; v=0x400 prints
# allocated_words at exit.
chain_budget() { # family, size, expected value, bound
  chain=$(mktemp) && chain_err=$(mktemp)
  track "$chain" "$chain_err"
  ./_build/default/tools/genprog.exe "$1" "$2" > "$chain"
  value=$(OCAMLRUNPARAM=v=0x400 ./_build/default/bin/fgc.exe run "$chain" 2> "$chain_err")
  [ "$value" = "$3" ] || { echo "chain budget: $1 $2 printed '$value', want $3"; exit 1; }
  words=$(sed -n 's/^allocated_words: //p' "$chain_err")
  echo "-- $1 $2: allocated_words $words (bound $4)"
  [ -n "$words" ] && [ "$words" -le "$4" ] \
    || { echo "chain budget: $1 $2 allocated ${words:-no} words, bound $4"; exit 1; }
}
chain_budget param_depth 60 true 425000
chain_budget instantiation_fanout 30 3 2900000

echo "== fuzz smoke (seed 42, 200 programs)"
# Deterministic: the same seed generates the same programs on every
# machine, so a clean run here means a clean run everywhere.
./_build/default/bin/fgc.exe fuzz --seed 42 --count 200

echo "== stencil-diff: backend byte-identity (corpus + 1k fuzz)"
# The specializing backends must be observationally invisible: every
# program in the tree prints the same bytes under dict, stencil and
# hybrid (the session's internal oracle additionally asserts the
# specialized term typechecks and evaluates identically — FG0502 /
# FG0503 would surface here as diverging output).  The sweep runs
# without and with the prelude: the prelude's dictionary spine is what
# the specializers rewrite most, and what the theorem re-check resumes
# after.  Then a 1k seeded fuzz batch per specializing backend, where
# every generated program runs the same differential oracle.
for f in programs/*.fg programs/errors/*.fg programs/fuzz_regressions/*.fg; do
  for p in "" -p; do
    d=$(./_build/default/bin/fgc.exe run $p "$f" 2>&1 || true)
    s=$(./_build/default/bin/fgc.exe run $p --backend=stencil "$f" 2>&1 || true)
    h=$(./_build/default/bin/fgc.exe run $p --backend=hybrid "$f" 2>&1 || true)
    [ "$d" = "$s" ] || { echo "stencil-diff: stencil diverges on $p $f"; exit 1; }
    [ "$d" = "$h" ] || { echo "stencil-diff: hybrid diverges on $p $f"; exit 1; }
  done
done
./_build/default/bin/fgc.exe fuzz --seed 7 --count 1000 --backend=stencil
./_build/default/bin/fgc.exe fuzz --seed 7 --count 1000 --backend=hybrid

echo "== bench smoke (BENCH_QUOTA=0.02, incremental re-check >= 3x)"
bench_out=$(mktemp)
track "$bench_out"
BENCH_QUOTA=0.02 dune exec bench/main.exe | tee "$bench_out"
# The incremental group re-checks a program family sharing a long
# declaration prefix; with the last declaration edited, the unit cache
# must make warm re-checking at least 3x faster than cold checking.
# The bench prints every round and the median of five on the line read
# here (its first-declaration line is reported, not gated).
speedup=$(grep 'incremental re-check speedup' "$bench_out" \
  | grep -o '[0-9.]*x' | tr -d 'x')
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
# connection, the protocol-violation probe (garbage JSON frame, a
# version above and one below the one spoken, oversized length
# prefix), a deliberate deadline
# miss, a second daemon refused on the live socket, live stats, then
# SIGTERM and a clean drain.  Any unexpected status exits nonzero (the
# client maps statuses to exit codes).
fgc=./_build/default/bin/fgc.exe
sock=$(mktemp -u /tmp/fgc_ci_XXXXXX.sock)
track "$sock"
"$fgc" serve --socket "$sock" 2>/dev/null &
serve_pid=$!
track_pid "$serve_pid"
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "server smoke: daemon never bound $sock"; exit 1; }

echo "-- batch: 10 x programs/ through one connection"
for _ in $(seq 1 10); do
  "$fgc" client batch programs -p --socket "$sock" > /dev/null
done

echo "-- probe: malformed frame, version above and below, oversized prefix"
"$fgc" client probe --socket "$sock"

echo "-- deliberate timeout (exit 4 expected)"
rc=0
"$fgc" client run -e '1 + 1' --timeout-ms 0 --socket "$sock" > /dev/null || rc=$?
[ "$rc" -eq 4 ] || { echo "server smoke: timeout exit was $rc, want 4"; exit 1; }

echo "-- second daemon on the live socket (exit 1, FG1004 expected)"
rc=0
second=$(timeout 10 "$fgc" serve --socket "$sock" 2>&1) || rc=$?
[ "$rc" -eq 1 ] || { echo "server smoke: second serve exit was $rc, want 1"; exit 1; }
echo "$second" | grep -q 'FG1004' \
  || { echo "server smoke: second serve did not report FG1004: $second"; exit 1; }
"$fgc" client stats --socket "$sock" > /dev/null \
  || { echo "server smoke: first daemon stopped answering stats"; exit 1; }

echo "-- stats"
"$fgc" client stats --socket "$sock" | grep -q '"latency"' \
  || { echo "server smoke: stats payload missing latency"; exit 1; }

echo "-- SIGTERM: clean drain"
kill -TERM "$serve_pid"
reap "$serve_pid" || { echo "server smoke: daemon exited nonzero"; exit 1; }
[ ! -S "$sock" ] || { echo "server smoke: socket not unlinked"; exit 1; }

echo "== incremental smoke (shared unit cache vs one-shot, byte-identity)"
# Sweep every corpus program through one warm single-worker daemon —
# twice, so the second pass replays cached compilation units — and
# require each served response to be byte-identical to a one-shot
# `fgc run --format=json` of the same file.  Every file is swept both
# without the prelude and with it (-p), where the program's unit keys
# chain from the warm prelude session's.
sock=$(mktemp -u /tmp/fgc_inc_XXXXXX.sock)
track "$sock"
"$fgc" serve --socket "$sock" --workers 1 2>/dev/null &
serve_pid=$!
track_pid "$serve_pid"
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "incremental smoke: daemon never bound $sock"; exit 1; }
oneshot=$(mktemp) && cold=$(mktemp) && warm=$(mktemp)
track "$oneshot" "$cold" "$warm"
for f in programs/*.fg programs/errors/*.fg programs/fuzz_regressions/*.fg; do
  for p in "" -p; do
    "$fgc" run --format=json $p "$f" > "$oneshot" 2>/dev/null || true
    "$fgc" client run $p "$f" --socket "$sock" > "$cold" 2>/dev/null || true
    "$fgc" client run $p "$f" --socket "$sock" > "$warm" 2>/dev/null || true
    cmp -s "$oneshot" "$cold" \
      || { echo "incremental smoke: served differs from one-shot: $p $f"; exit 1; }
    cmp -s "$cold" "$warm" \
      || { echo "incremental smoke: warm replay differs from cold: $p $f"; exit 1; }
  done
done
"$fgc" client stats --socket "$sock" | grep -q '"unit_cache"' \
  || { echo "incremental smoke: stats payload missing unit_cache"; exit 1; }
kill -TERM "$serve_pid"
reap "$serve_pid" || { echo "incremental smoke: daemon exited nonzero"; exit 1; }

echo "== cache smoke (persistent unit store: cold/warm byte-identity)"
# Run the whole program tree against a fresh --cache-dir twice, without
# and with the prelude (which -p loads from the image built into fgc).
# Both passes must print exactly what a cache-less run prints, and the
# warm pass must re-check nothing for the well-typed corpus: its
# --stats report shows zero unit-cache misses.  (Error programs
# re-check by design — failed declarations are never cached.)  A warm
# pass reads the store and writes nothing to it: every entry's name,
# size and mtime are the same after it as before.
cache_dir=$(mktemp -d /tmp/fgc_cache_XXXXXX)
plain=$(mktemp) && cold=$(mktemp) && warm=$(mktemp) && wstats=$(mktemp)
store_before=$(mktemp) && store_after=$(mktemp)
track "$cache_dir" "$plain" "$cold" "$warm" "$wstats" "$store_before" "$store_after"
list_store() { find "$cache_dir" -type f -printf '%P %s %T@\n' | sort; }
for f in programs/*.fg programs/errors/*.fg programs/fuzz_regressions/*.fg; do
  for p in "" -p; do
    "$fgc" run --format=json $p "$f" > "$plain" 2>/dev/null || true
    "$fgc" run --format=json $p --cache-dir "$cache_dir" "$f" > "$cold" 2>/dev/null || true
    list_store > "$store_before"
    "$fgc" run --format=json $p --cache-dir "$cache_dir" --stats "$f" > "$warm" 2>"$wstats" || true
    list_store > "$store_after"
    cmp -s "$store_before" "$store_after" \
      || { echo "cache smoke: warm run wrote to the store: $p $f"; exit 1; }
    cmp -s "$plain" "$cold" \
      || { echo "cache smoke: cold cached run differs from uncached: $p $f"; exit 1; }
    cmp -s "$plain" "$warm" \
      || { echo "cache smoke: warm cached run differs from uncached: $p $f"; exit 1; }
    case "$f" in
    programs/errors/* | programs/fuzz_regressions/*) ;;
    *)
      grep -A4 'unit cache:' "$wstats" | grep -q 'misses         :          0' \
        || { echo "cache smoke: warm run re-checked units: $p $f"; exit 1; }
      ;;
    esac
  done
done

echo "-- a batch keys nothing"
# Nothing could read back the units of a batch (batch takes no
# --cache-dir), so its jobs must not pay for keys, lookups and inserts:
# zero unit-cache misses over programs/, with and without the prelude.
for p in "" -p; do
  "$fgc" batch $p --stats programs/*.fg > /dev/null 2>"$wstats" || true
  grep -A4 'unit cache:' "$wstats" | grep -q 'misses         :          0' \
    || { echo "cache smoke: a batch used the unit cache: $p"; exit 1; }
done

echo "== fuzz-coverage: guided beats blind at the same seed (1k programs)"
# The coverage-guided mutator must earn its keep: at the same seed and
# budget (mutants off, so both modes measure the same work), the guided
# run must reach strictly more distinct checker/resolution decision
# points than blind generation.  Both runs print a deterministic
# "coverage: N decision points" line.
fuzz_corpus=$(mktemp -d /tmp/fgc_fuzzcov_XXXXXX)
track "$fuzz_corpus"
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

echo "== workspace smoke (v5 document lifecycle, edit/revert byte-identity)"
# Open every corpus program as a workspace document over the wire, run
# a scripted single-digit edit and revert it, and require the final
# doc_diagnostics payload to be byte-identical to a one-shot
# `fgc run --format=json -p` of the same file.  The warm incremental
# path must be observationally invisible.
sock=$(mktemp -u /tmp/fgc_ws_XXXXXX.sock)
track "$sock"
"$fgc" serve --socket "$sock" --workers 1 2>/dev/null &
serve_pid=$!
track_pid "$serve_pid"
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "workspace smoke: daemon never bound $sock"; exit 1; }
oneshot=$(mktemp) && served=$(mktemp)
track "$oneshot" "$served"
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
"$fgc" client stats --socket "$sock" | grep -q '"workspace"' \
  || { echo "workspace smoke: stats payload missing workspace block"; exit 1; }
"$fgc" client stats --pretty --socket "$sock" | grep -q 'workspace' \
  || { echo "workspace smoke: pretty stats missing workspace block"; exit 1; }
"$fgc" client shutdown --socket "$sock" > /dev/null
reap "$serve_pid" || { echo "workspace smoke: daemon exited nonzero"; exit 1; }

echo "-- editgen: edit-to-diagnostics p95 under the bar"
EDITGEN_EDITS=6 EDITGEN_P95_MS=200 dune exec bench/editgen.exe

echo "== loadgen smoke (300 requests, byte-identity + 5x bar)"
LOADGEN_REQUESTS=300 LOADGEN_ONESHOT_SAMPLE=10 dune exec bench/loadgen.exe
