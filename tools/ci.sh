#!/bin/sh
# CI entry point: build, test, and lint-gate the bundled benchmarks.
#
#   tools/ci.sh          # build + tests + lint the sub-1000-gate set
#   tools/ci.sh --full   # also lint the four large benchmarks
#
# Exit is nonzero on the first failure of: the build and the tests; a
# source gate (tools/checker's typed-tree gate for reachability, exported
# values, optional parameters and retired names; the library and harness
# greps); an error-severity lint diagnostic (the `sttc lint` CI
# contract); or a runtime or byte-identity gate (ledger, generator bytes,
# parallel table, traces, solver keys, semantic lint, campaign, serve,
# budget, scale, minor collections, backend, power column, lint output).
set -eu

cd "$(dirname "$0")/.."

QUICK="s641 s820 s832 s953 s1196 s1238 s1488"
FULL="s5378a s9234a s13207 s15850a s38584"

benches="$QUICK"
if [ "${1:-}" = "--full" ]; then
  benches="$QUICK $FULL"
fi

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== typed-tree gate (reachability, exported values, optional parameters, retired names)"
# Names as the compiler resolved them (the .cmt/.cmti files of @check):
# no library module, exported value or optional parameter unused by the
# product paths, and no retired name (evaluator, encoder, lint-model,
# well-formedness, keyspace, flow-policy, sweep, timing-trial, trial-set,
# clock, budget, arena, json-reader); tools/checker/gates.txt holds the
# lists and the retired table.
dune build @check
./_build/default/tools/checker/checker.exe _build/default tools/checker/gates.txt

echo "== library gate (every listed external library is used)"
# Each external library a dune file lists must be named by a .ml file
# in its directory, through the module it provides.  A library with no
# entry below fails the gate until it gets one.
lib_module() {
  case "$1" in
    unix) printf '%s' 'Unix\.' ;;
    cmdliner) printf '%s' 'Cmdliner' ;;
    alcotest) printf '%s' '\bAlcotest\.' ;;
    qcheck-core) printf '%s' '\bQCheck2?\.' ;;
    qcheck-alcotest) printf '%s' '\bQCheck_alcotest\.' ;;
    bechamel.monotonic_clock) printf '%s' 'Monotonic_clock' ;;
    fmt) printf '%s' '\bFmt\.' ;;
    compiler-libs.common) printf '%s' '\bCmt_format\.' ;;
    *) return 1 ;;
  esac
}
libs_failed=0
for d in lib/*/ bin/ examples/ test/ tools/checker/; do
  for l in $(tr '\n' ' ' < "${d}dune" | grep -o '(libraries [^)]*)' \
               | sed 's/^(libraries //; s/)$//'); do
    case "$l" in sttc_*) continue ;; esac
    if ! pat=$(lib_module "$l"); then
      echo "LIBRARY GATE FAILED: ${d}dune lists $l, which has no module entry in tools/ci.sh" >&2
      libs_failed=1
    elif ! grep -qE "$pat" "$d"*.ml; then
      echo "LIBRARY GATE FAILED: ${d}dune lists $l, but no ${d}*.ml names it" >&2
      libs_failed=1
    fi
  done
done
if [ "$libs_failed" -ne 0 ]; then
  exit 1
fi

echo "== dune build @bench/ledger/smoke (every ledger workload at toy size)"
dune build @bench/ledger/smoke

echo "== dune build @fault (small write-fault sweep)"
timeout 600 dune build @fault

sttc() {
  dune exec --no-build bin/sttc.exe -- "$@"
}

# timeout(1) needs a real executable, not a shell function.
STTC_BIN="$PWD/_build/default/bin/sttc.exe"
BENCH_BIN="$PWD/_build/default/bench/main.exe"

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

echo "== ledger gate (every ledger workload once at full size keeps its digest)"
# The smoke alias runs the workloads at toy size, where no digest is
# checked.  At full size and the default seed each run checks its output
# digest against bench/ledger/digests.json, so a moved output byte fails
# here.  The last line a run prints is its result.
for w in protect-par protect-dep paper-rows paper-lint attack-sat serve-mix; do
  result=$(bash bench/ledger/run.sh --workload "$w" --seed 1 --seconds 1 \
             --trace 0 2> "$tmpdir/ledger.$w.err" | tail -n 1)
  case "$result" in
    '{"correct":true,'*) ;;
    *) echo "LEDGER GATE FAILED: $w: $result" >&2
       cat "$tmpdir/ledger.$w.err" >&2
       exit 1 ;;
  esac
done

echo "== byte-identity gate (generated netlists keep their pinned bytes)"
# Every protect, paper and lint run starts from a generated netlist, so
# generation, the builder and the .bench writer must not move a byte.
# The digests were recorded before construction was made allocation-lean.
GEN_MD5=123d99787bb3987efab34802dad5a051
TWINS_MD5=5248fac88ee2ab5c64a7750ebf60cb04
gen_md5=$(sttc gen -b custom --profile slike --gates 100000 --seed 20160605 \
  | md5sum | cut -d' ' -f1)
if [ "$gen_md5" != "$GEN_MD5" ]; then
  echo "BYTE-IDENTITY GATE FAILED: 1e5-gate slike family (seed 20160605)" \
    "md5 $gen_md5, pinned $GEN_MD5" >&2
  exit 1
fi
# The 1e5 family names its gates g0..g99999; 2e5 gates also write six-digit
# names (g100000..g199999), across the name writer's digit-count boundary.
# Recorded before the generator wrote names without Printf.
GEN200K_MD5=1cd4a55b71e0a34f5e064c0ce3234ff1
gen200k_md5=$(sttc gen -b custom --profile slike --gates 200000 --seed 20160605 \
  | md5sum | cut -d' ' -f1)
if [ "$gen200k_md5" != "$GEN200K_MD5" ]; then
  echo "BYTE-IDENTITY GATE FAILED: 2e5-gate slike family (seed 20160605)" \
    "md5 $gen200k_md5, pinned $GEN200K_MD5" >&2
  exit 1
fi
# The other profiles reach what slike does not at scale: wide's and deep's
# late and shallow ranges and fanout's hub range.  Recorded before the
# generator drew from id ranges.
check_gen_pin() { # profile, pinned md5
  got=$(sttc gen -b custom --profile "$1" --gates 100000 --seed 20160605 \
    | md5sum | cut -d' ' -f1)
  if [ "$got" != "$2" ]; then
    echo "BYTE-IDENTITY GATE FAILED: 1e5-gate $1 family (seed 20160605)" \
      "md5 $got, pinned $2" >&2
    exit 1
  fi
}
check_gen_pin wide 11a5e54cb8524e0ebabcdacbc7ef30fa
check_gen_pin deep fe73a0f600d434436b8c69cf2fecb503
check_gen_pin fanout 23533e19bb6d7f5fefce12399f83f2d3
# QUICK and FULL together are the twelve ISCAS'89 twins
twins_md5=$(for b in $QUICK $FULL; do sttc gen -b "$b"; done \
  | md5sum | cut -d' ' -f1)
if [ "$twins_md5" != "$TWINS_MD5" ]; then
  echo "BYTE-IDENTITY GATE FAILED: the 12 ISCAS'89 twins' .bench md5" \
    "$twins_md5, pinned $TWINS_MD5" >&2
  exit 1
fi
# A hardened protect runs both paths of Netlist.with_kinds: replace_many
# and strip/program keep every fanin array and inherit the parent's
# caches, while extra LUT inputs and driver absorption rewire and rebuild
# them.  The foundry view plus bitstream digests were recorded before
# with_kinds inherited caches.  The report's security lines (M, I,
# config bits, dependent pairs, Eqs. 1-3) were recorded when the
# dependency count still listed every pair; the timing line is left out.
sttc gen -b custom --profile fanout --gates 10000 --seed 20160605 \
  -o "$tmpdir/fanout.bench" > /dev/null
check_protect_pin() { # algorithm, pinned md5 of outputs, of security lines
  sttc protect -i "$tmpdir/fanout.bench" -a "$1" --harden --seed 20160605 \
    -o "$tmpdir/fanout.$1.bench" --bitstream "$tmpdir/fanout.$1.bits" \
    > "$tmpdir/fanout.$1.report"
  got=$(cat "$tmpdir/fanout.$1.bench" "$tmpdir/fanout.$1.bits" \
    | md5sum | cut -d' ' -f1)
  if [ "$got" != "$2" ]; then
    echo "BYTE-IDENTITY GATE FAILED: protect --harden -a $1 on the 1e4-gate" \
      "fanout family (seed 20160605) md5 $got, pinned $2" >&2
    exit 1
  fi
  got=$(grep -E '^ *security:|^N_indep=' "$tmpdir/fanout.$1.report" \
    | md5sum | cut -d' ' -f1)
  if [ "$got" != "$3" ]; then
    echo "BYTE-IDENTITY GATE FAILED: protect --harden -a $1 security report" \
      "on the 1e4-gate fanout family md5 $got, pinned $3" >&2
    exit 1
  fi
}
check_protect_pin dependent fc32686f2eb4127b8adb2ee2ce5a34d0 \
  464bb3bb4c63b77bf922091dff590d28
check_protect_pin parametric 7cab0d6852ab11d7c4e320d7b555dd08 \
  ae371cb4ddb493086fac69d5da94fa69

echo "== parallel gate (full sttc table1: -j 2 fans out and must match -j 1 byte for byte)"
# The quick set is too small a bag to fan out (Pool.map runs it on the
# calling domain at any -j), so the gate runs the full table and
# requires the pool to have run.
sttc table1 -j 1 > "$tmpdir/table1.full.j1"
sttc table1 -j 2 --metrics "$tmpdir/table1.full.metrics.json" \
  > "$tmpdir/table1.full.j2"
if ! diff -u "$tmpdir/table1.full.j1" "$tmpdir/table1.full.j2"; then
  echo "PARALLEL MISMATCH: sttc table1 differs between -j 1 and -j 2" >&2
  exit 1
fi
# flow.baseline_reused: each benchmark's PPA baseline is computed once in
# its build task and shared by its three protects
sttc obs-check --metrics "$tmpdir/table1.full.metrics.json" \
  --require pool.submits,flow.baseline_reused
sttc table1 --quick -j 1 > "$tmpdir/table1.j1"
sttc table1 --quick -j 2 > "$tmpdir/table1.j2"
if ! diff -u "$tmpdir/table1.j1" "$tmpdir/table1.j2"; then
  echo "PARALLEL MISMATCH: sttc table1 --quick differs between -j 1 and -j 2" >&2
  exit 1
fi

echo "== harness gate (one benchmark harness: the ledger, plus bench/main.exe's three records)"
# The ledger (bench/ledger, ledger.exe compare) times protect, lint,
# attack and serve; bench/main.exe keeps only the parallel, scale and
# backend records no ledger workload covers yet.  The retired timing
# sections, their BENCH files and the flat-threshold comparator must not
# come back, and a retired section name is a usage error.
if grep -rnE 'bench_diff|Bechamel|BENCH_(sat|lint|serve|campaign)' \
     bench/main.ml bench/dune bin lib tools | grep -v '^tools/ci\.sh:'; then
  echo "HARNESS GATE FAILED: a retired benchmark section is back (see above)" >&2
  exit 1
fi
retired_status=0
"$BENCH_BIN" sat > /dev/null 2>&1 || retired_status=$?
if [ "$retired_status" -ne 64 ]; then
  echo "HARNESS GATE FAILED: bench/main.exe sat must exit 64, got $retired_status" >&2
  exit 1
fi

echo "== observability smoke (traced run must validate and leave the table unchanged)"
sttc table1 --quick -j 2 --trace "$tmpdir/table1.trace.json" \
  --metrics "$tmpdir/table1.metrics.json" > "$tmpdir/table1.traced"
sttc obs-check --trace "$tmpdir/table1.trace.json" \
  --metrics "$tmpdir/table1.metrics.json" --min-series 15
if ! diff -u "$tmpdir/table1.j2" "$tmpdir/table1.traced"; then
  echo "OBSERVABILITY PERTURBED OUTPUT: traced sttc table1 --quick differs from the untraced run" >&2
  exit 1
fi

echo "== incremental-solver smoke (sttc attack keys must match the scratch reference byte for byte)"
sttc gen -b custom --gates 200 --pis 10 --pos 8 --ffs 0 -o "$tmpdir/atk.bench"
for alg in independent dependent; do
  sttc attack -i "$tmpdir/atk.bench" -a "$alg" --solver scratch \
    --key-out "$tmpdir/key.$alg.scratch" > /dev/null
  sttc attack -i "$tmpdir/atk.bench" -a "$alg" --solver incremental \
    --key-out "$tmpdir/key.$alg.incremental" > /dev/null
  if ! diff -u "$tmpdir/key.$alg.scratch" "$tmpdir/key.$alg.incremental"; then
    echo "SOLVER MISMATCH: $alg keys differ between --solver scratch and incremental" >&2
    exit 1
  fi
done

echo "== semantic lint gate (Eq. 1 prover on protected s27, 120 s budget)"
# Pinned selection: at seed 7, independent picks two isolated gates (the
# Eq. 1 error must fire and exit nonzero), while dependent chains and the
# loosened-clock parametric closure interlock their LUTs (exit 0, at most
# SEM008 warnings).  test/test_lint.ml pins the same seed.
sttc gen -b s27 -o "$tmpdir/s27.bench"
if timeout 120 "$STTC_BIN" lint -i "$tmpdir/s27.bench" -a independent --count 2 \
     --seed 7 --semantic --rules "SEM003,SEM006,SEM008" \
     > "$tmpdir/s27.independent.lint"; then
  echo "SEMANTIC GATE FAILED: independent selection on s27 must trip SEM008" >&2
  cat "$tmpdir/s27.independent.lint" >&2
  exit 1
fi
if ! grep -q "SEM008" "$tmpdir/s27.independent.lint"; then
  echo "SEMANTIC GATE FAILED: independent nonzero exit but no SEM008 finding" >&2
  cat "$tmpdir/s27.independent.lint" >&2
  exit 1
fi
if ! timeout 120 "$STTC_BIN" lint -i "$tmpdir/s27.bench" -a dependent \
     --seed 7 --semantic --rules "SEM003,SEM006,SEM008"; then
  echo "SEMANTIC GATE FAILED: dependent selection on s27 must pass SEM lint" >&2
  exit 1
fi
if ! timeout 120 "$STTC_BIN" lint -i "$tmpdir/s27.bench" -a parametric \
     --clock-factor 2.0 --seed 7 --semantic --rules "SEM003,SEM006,SEM008"; then
  echo "SEMANTIC GATE FAILED: parametric selection on s27 must pass SEM lint" >&2
  exit 1
fi

echo "== campaign gate (SIGKILLed worker, resume, byte-identical report)"
# A 2-shard sweep of s27 (3 algorithms x 2 seeds = 6 runs).  Pass 1 runs
# it clean.  Pass 2 injects a SIGKILL into shard 0's worker after its
# first run with a zero retry budget: the shard must degrade (exit 2)
# into a footnoted partial report.  A --resume of the same directory
# must finish from the checkpoint (exit 0) and produce a report.json
# byte-identical to the clean pass.
cat > "$tmpdir/campaign.json" <<'EOF'
{
  "name": "ci",
  "circuits": ["s27"],
  "algorithms": ["dependent", {"name": "independent", "count": 3}, "parametric"],
  "seeds": [1, 2],
  "shards": 2,
  "retries": 1,
  "heartbeat_timeout_s": 60.0
}
EOF
timeout 300 "$STTC_BIN" campaign --manifest "$tmpdir/campaign.json" \
  --dir "$tmpdir/camp.clean" -j 2 > /dev/null 2>&1
kill_status=0
STTC_CAMPAIGN_KILL="0:1" timeout 300 "$STTC_BIN" campaign \
  --manifest "$tmpdir/campaign.json" --dir "$tmpdir/camp.kill" \
  --retries 0 -j 2 > "$tmpdir/camp.kill.out" 2>&1 || kill_status=$?
if [ "$kill_status" -ne 2 ]; then
  echo "CAMPAIGN GATE FAILED: killed run must exit 2 (degraded), got $kill_status" >&2
  cat "$tmpdir/camp.kill.out" >&2
  exit 1
fi
if ! grep -q "degraded" "$tmpdir/camp.kill.out"; then
  echo "CAMPAIGN GATE FAILED: degraded run must footnote the lost shard" >&2
  cat "$tmpdir/camp.kill.out" >&2
  exit 1
fi
timeout 300 "$STTC_BIN" campaign --resume "$tmpdir/camp.kill" > /dev/null 2>&1
if ! diff "$tmpdir/camp.clean/report.json" "$tmpdir/camp.kill/report.json"; then
  echo "CAMPAIGN GATE FAILED: resumed report differs from the clean single-pass report" >&2
  exit 1
fi
sttc obs-check --metrics "$tmpdir/camp.kill/campaign.metrics.json" \
  --require campaign.shard_retries,campaign.worker_respawns,campaign.heartbeat_misses,campaign.shards_degraded

echo "== serve gate (daemon responses byte-identical to offline CLI)"
# Boot the daemon, fire the same mixed request file from four concurrent
# clients, and byte-diff every response (except the live stats snapshot)
# against the offline `sttc client --offline` transport — the
# one-API-two-transports contract.  Then shut down cleanly: the daemon
# process must exit 0, remove its socket, and leave the serve.* metrics
# series behind.
SOCK="$tmpdir/serve.sock"
SERVE_METRICS="$tmpdir/serve.metrics.json"
BENCH_JSON=$(sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' "$tmpdir/s27.bench" \
  | awk '{printf "%s\\n", $0}')
cat > "$tmpdir/serve.requests" <<EOF
{"id":"r1","verb":"protect","netlist":"s27","algorithm":{"name":"independent","count":3},"seed":1}
{"id":"r2","verb":"protect","netlist":"c17","algorithm":"dependent","seed":2}
{"id":"r3","verb":"protect","netlist":{"name":"s27","bench":"$BENCH_JSON"},"algorithm":{"name":"independent","count":2},"seed":3}
{"id":"r4","verb":"lint","netlist":{"name":"s27","bench":"$BENCH_JSON"},"algorithms":[{"name":"independent","count":2}],"seed":1,"format":"json"}
{"id":"r5","verb":"lint","netlist":"s27","seed":1}
{"id":"r6","verb":"protect","netlist":"s27","algorithm":"parametric","seed":4,"sign_off":true}
{"id":"r7","verb":"ping"}
{"id":"r8","verb":"ping","sleep_s":0.05}
{"id":"r9","verb":"stats"}
EOF
"$STTC_BIN" client --offline --request-file "$tmpdir/serve.requests" \
  > "$tmpdir/serve.offline" 2> /dev/null
# A request budget must cut a long attack off on time, with the same
# answer from the in-process handler as from a daemon worker domain.
BUDGET_REQ='{"verb":"attack","netlist":"s641","algorithm":"independent","seed":1,"timeout_s":0.5}'
BUDGET_ERR='{"status":"error","message":"request budget (0.5s) exhausted"}'
budget_out=$(timeout 10 "$STTC_BIN" client --offline --request "$BUDGET_REQ" \
  2> /dev/null || true)
if [ "$budget_out" != "$BUDGET_ERR" ]; then
  echo "BUDGET GATE FAILED: offline 0.5 s attack request answered '$budget_out'" >&2
  exit 1
fi
# A misspelt field is refused by name, not run with its default, and the
# daemon refuses it in the same bytes.  (An error reply makes `client`
# exit 1, so the frame stays out of serve.requests.)
TYPO_REQ='{"verb":"protect","netlist":"s27","config":{"fracton":0.5},"seed":1}'
TYPO_ERR='{"status":"error","message":"bad request: config: unknown field \"fracton\""}'
typo_out=$("$STTC_BIN" client --offline --request "$TYPO_REQ" 2> /dev/null || true)
if [ "$typo_out" != "$TYPO_ERR" ]; then
  echo "TYPO GATE FAILED: offline misspelt-field request answered '$typo_out'" >&2
  exit 1
fi
"$STTC_BIN" serve --socket "$SOCK" -j 2 --metrics "$SERVE_METRICS" \
  2> "$tmpdir/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
if ! [ -S "$SOCK" ]; then
  echo "SERVE GATE FAILED: daemon never bound $SOCK" >&2
  cat "$tmpdir/serve.log" >&2
  exit 1
fi
for c in 1 2 3 4; do
  "$STTC_BIN" client --socket "$SOCK" --request-file "$tmpdir/serve.requests" \
    > "$tmpdir/serve.client.$c" &
  eval "CLIENT_$c=\$!"
done
client_status=0
for c in 1 2 3 4; do
  eval "wait \$CLIENT_$c" || client_status=$?
done
if [ "$client_status" -ne 0 ]; then
  echo "SERVE GATE FAILED: a concurrent client exited nonzero" >&2
  cat "$tmpdir/serve.log" >&2
  exit 1
fi
grep -v '"verb":"stats"' "$tmpdir/serve.offline" > "$tmpdir/serve.offline.det"
for c in 1 2 3 4; do
  grep -v '"verb":"stats"' "$tmpdir/serve.client.$c" > "$tmpdir/serve.client.$c.det"
  if ! diff -u "$tmpdir/serve.offline.det" "$tmpdir/serve.client.$c.det"; then
    echo "SERVE GATE FAILED: daemon responses differ from offline CLI (client $c)" >&2
    exit 1
  fi
done
budget_out=$(timeout 10 "$STTC_BIN" client --socket "$SOCK" \
  --request "$BUDGET_REQ" 2> /dev/null || true)
if [ "$budget_out" != "$BUDGET_ERR" ]; then
  echo "BUDGET GATE FAILED: daemon 0.5 s attack request answered '$budget_out'" >&2
  exit 1
fi
typo_out=$("$STTC_BIN" client --socket "$SOCK" --request "$TYPO_REQ" \
  2> /dev/null || true)
if [ "$typo_out" != "$TYPO_ERR" ]; then
  echo "TYPO GATE FAILED: daemon misspelt-field request answered '$typo_out'" >&2
  exit 1
fi
"$STTC_BIN" client --socket "$SOCK" --request '{"verb":"shutdown"}' > /dev/null
serve_status=0
wait $SERVE_PID || serve_status=$?
if [ "$serve_status" -ne 0 ]; then
  echo "SERVE GATE FAILED: daemon exited $serve_status" >&2
  cat "$tmpdir/serve.log" >&2
  exit 1
fi
if [ -e "$SOCK" ]; then
  echo "SERVE GATE FAILED: daemon left its socket behind" >&2
  exit 1
fi
sttc obs-check --metrics "$SERVE_METRICS" \
  --require serve.requests,serve.cache_hits,serve.overloaded,serve.queue_depth

echo "== budget gate (zero budget identical at any -j)"
# A zero budget starts no attack: all six report "zero budget", and the
# serial and parallel harness render the same bytes.
sttc attack -i "$tmpdir/s27.bench" --timeout 0 -j 1 > "$tmpdir/zero.j1"
sttc attack -i "$tmpdir/s27.bench" --timeout 0 -j 4 > "$tmpdir/zero.j4"
if ! diff -u "$tmpdir/zero.j1" "$tmpdir/zero.j4"; then
  echo "BUDGET GATE FAILED: --timeout 0 output differs between -j 1 and -j 4" >&2
  exit 1
fi
if [ "$(grep -c 'zero budget' "$tmpdir/zero.j1")" -ne 6 ]; then
  echo "BUDGET GATE FAILED: --timeout 0 must report six zero-budget attacks" >&2
  cat "$tmpdir/zero.j1" >&2
  exit 1
fi

echo "== scale gate (5e4-gate family: protect under ceiling, pinned bytes)"
# A 50k-gate s-like family circuit must protect inside a hard wall-clock
# ceiling, and the hybrid it emits (foundry view + bitstream) must keep
# its pinned bytes.  The pins were recorded when this gate still compared
# against a full re-analysis per candidate, which gave the same bytes;
# the per-query differential property in test_properties keeps that
# comparison.  The metrics snapshot must show the incremental engine
# actually ran (cone retimes).
sttc gen -b custom --profile slike --gates 50000 --seed 7 \
  -o "$tmpdir/scale.bench" > /dev/null
SCALE_METRICS="$tmpdir/scale.metrics.json"
if ! timeout 120 "$STTC_BIN" protect -i "$tmpdir/scale.bench" -a parametric \
     --seed 1 -o "$tmpdir/scale.inc.bench" \
     --bitstream "$tmpdir/scale.inc.bits" \
     --metrics "$SCALE_METRICS" > /dev/null; then
  echo "SCALE GATE FAILED: protect missed the 120 s ceiling on 5e4 gates" >&2
  exit 1
fi
check_scale_pin() { # file, pinned md5, what
  got=$(md5sum < "$tmpdir/$1" | cut -d' ' -f1)
  if [ "$got" != "$2" ]; then
    echo "SCALE GATE FAILED: 5e4-gate $3 md5 $got, pinned $2" >&2
    exit 1
  fi
}
check_scale_pin scale.inc.bench 4a4fb4c576acd55b5730a0b3069d8614 "foundry view"
check_scale_pin scale.inc.bits 69fc1c178b6b7338bce3da24c96709e5 bitstream
sttc obs-check --metrics "$SCALE_METRICS" \
  --require sta.retime.cone,sta.retime.cone_nodes
# The scale record's own check at two small sizes: trial-session delays
# equal from-scratch delays.  It runs from $tmpdir so the
# BENCH_scale.json it writes leaves the committed one alone.
if ! (cd "$tmpdir" && STTC_SCALE_SIZES=1000,10000 "$BENCH_BIN" scale \
        > "$tmpdir/scale.record.out" 2>&1); then
  echo "SCALE GATE FAILED: bench/main.exe scale failed its identity checks" >&2
  cat "$tmpdir/scale.record.out" >&2
  exit 1
fi

echo "== forced-collection gate (no protect forces a minor collection)"
# With a minor heap (8M words) that one protect of s1488 cannot fill,
# any minor collection is forced: an array built from a young initial
# value (caml_make_vect).  v=0x400 prints the GC counters at exit.
sttc gen -b s1488 -o "$tmpdir/gc.bench" > /dev/null
for alg in independent dependent parametric; do
  got=$(OCAMLRUNPARAM=s=8M,v=0x400 "$STTC_BIN" protect -i "$tmpdir/gc.bench" \
          -a "$alg" 2>&1 > /dev/null | grep '^minor_collections:')
  if [ "$got" != "minor_collections: 0" ]; then
    echo "FORCED-COLLECTION GATE FAILED: protect -a $alg on s1488 printed '$got'" >&2
    exit 1
  fi
done

echo "== serve sta-cache gate (repeated protect of one netlist must hit the baseline memo)"
# Two protect requests for the same circuit under different seeds: the
# response cache cannot absorb them (different keys), so the second one
# must find the base PPA baseline (its Sta.analyze included) memoized by
# content hash.  The counters keep their serve.sta_cache_* names.
cat > "$tmpdir/cache.requests" <<'EOF'
{"id":"p1","verb":"protect","netlist":"s641","algorithm":"dependent","seed":1}
{"id":"p2","verb":"protect","netlist":"s641","algorithm":"dependent","seed":2}
EOF
"$STTC_BIN" client --offline --request-file "$tmpdir/cache.requests" \
  --metrics "$tmpdir/cache.metrics.json" > /dev/null
sttc obs-check --metrics "$tmpdir/cache.metrics.json" \
  --require serve.sta_cache_hits,serve.sta_cache_misses

echo "== backend gate (stt byte-identity, tvd protect->attack smoke, unknown name exits 64)"
# The backend seam must be invisible under the default technology:
# `--backend stt` must reproduce the default table1 byte for byte.
sttc table1 --quick --backend stt -j 1 > "$tmpdir/table1.stt"
if ! diff -u "$tmpdir/table1.j1" "$tmpdir/table1.stt"; then
  echo "BACKEND GATE FAILED: --backend stt table1 differs from the default path" >&2
  exit 1
fi
sttc fig3 --quick -j 1 > "$tmpdir/fig3.default"
sttc fig3 --quick --backend stt -j 1 > "$tmpdir/fig3.stt"
if ! diff -u "$tmpdir/fig3.default" "$tmpdir/fig3.stt"; then
  echo "BACKEND GATE FAILED: --backend stt fig3 differs from the default path" >&2
  exit 1
fi
# TVD end to end on s27: protect (bitstream out), then the SAT harness
# under the restricted attacker model; both must bump their per-backend
# counters.
sttc protect -i "$tmpdir/s27.bench" -a dependent --backend tvd \
  --bitstream "$tmpdir/s27.tvd.bits" \
  --metrics "$tmpdir/tvd.protect.metrics.json" > /dev/null
if ! [ -s "$tmpdir/s27.tvd.bits" ]; then
  echo "BACKEND GATE FAILED: tvd protect emitted no bitstream" >&2
  exit 1
fi
sttc attack -i "$tmpdir/s27.bench" -a dependent --backend tvd \
  --metrics "$tmpdir/tvd.attack.metrics.json" > "$tmpdir/tvd.attack"
# brute force searches the TVD family (about 2^14.9 keys on this hybrid),
# not the 2^24 STT configurations, so it finishes under the 16-bit cap
if ! grep -q 'brute-force  RECOVERED' "$tmpdir/tvd.attack"; then
  echo "BACKEND GATE FAILED: tvd brute force on s27 -a dependent did not recover the key" >&2
  cat "$tmpdir/tvd.attack" >&2
  exit 1
fi
sttc obs-check --metrics "$tmpdir/tvd.protect.metrics.json" \
  --require backend.protect.tvd
sttc obs-check --metrics "$tmpdir/tvd.attack.metrics.json" \
  --require backend.attack.tvd
# unknown backend names are usage errors (exit 64), uniformly across the
# subcommands that take the flag
for cmd in "protect -i $tmpdir/s27.bench" "attack -i $tmpdir/s27.bench" \
           "table1 --quick"; do
  bogus_status=0
  sttc $cmd --backend sram > /dev/null 2>&1 || bogus_status=$?
  if [ "$bogus_status" -ne 64 ]; then
    echo "BACKEND GATE FAILED: '--backend sram' must exit 64, got $bogus_status ($cmd)" >&2
    exit 1
  fi
done

echo "== power-column gate (Table I and Fig. 3 keep their pinned bytes)"
# The power column comes from the activity fixpoint and the PPA baseline
# shared across a benchmark's protects; the performance column from the
# same baseline's timing.  The digests were recorded before the fixpoint
# was compiled and the baseline shared.
TABLE1_QUICK_MD5=28b9e49d02c7d48ce8ad4c32d8311627
FIG3_QUICK_MD5=cbadb0159d6ab5eea0330ce2d1594cb2
TABLE1_QUICK_TVD_MD5=7408681313579e0c7135285e375b8c84
sttc table1 --quick --backend tvd > "$tmpdir/table1.tvd"
check_pin() { # file, pinned md5, command
  got=$(md5sum < "$tmpdir/$1" | cut -d' ' -f1)
  if [ "$got" != "$2" ]; then
    echo "POWER-COLUMN GATE FAILED: '$3' md5 $got, pinned $2" >&2
    exit 1
  fi
}
check_pin table1.j1 "$TABLE1_QUICK_MD5" "sttc table1 --quick"
check_pin fig3.default "$FIG3_QUICK_MD5" "sttc fig3 --quick"
check_pin table1.tvd "$TABLE1_QUICK_TVD_MD5" "sttc table1 --quick --backend tvd"

status=0
for b in $benches; do
  echo "== lint $b (structural + all three algorithms)"
  sttc gen -b "$b" -o "$tmpdir/$b.bench"
  lint_status=0
  sttc lint -i "$tmpdir/$b.bench" -a all > "$tmpdir/$b.lint" || lint_status=$?
  cat "$tmpdir/$b.lint"
  if [ "$lint_status" -ne 0 ]; then
    echo "LINT FAILED: $b" >&2
    status=1
  fi
done

echo "== lint-output gate (the sub-1000-gate set keeps its pinned diagnostics)"
# The structural and security diagnostics and the path-sampled
# selections behind them must not move a byte.  Recorded before the
# lint gate, path walks and depth queries moved onto arrays.
LINT_QUICK_MD5=acbdb6aa638c21cb74ab9ac963c83475
lint_md5=$(for b in $QUICK; do cat "$tmpdir/$b.lint"; done | md5sum | cut -d' ' -f1)
if [ "$lint_md5" != "$LINT_QUICK_MD5" ]; then
  echo "LINT-OUTPUT GATE FAILED: 'sttc lint -a all' on $QUICK md5 $lint_md5," \
    "pinned $LINT_QUICK_MD5" >&2
  status=1
fi

exit $status
