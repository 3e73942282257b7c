#!/bin/sh
# Tier-1 verification: build, full test suite, bench smoke runs, and full
# bench runs whose fingerprints must equal the committed records.
# Used by CI and as the local pre-merge gate.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== benchmark harness build (perfbench profile) =="
# perfbench/dune builds only under the perfbench profile, so the plain
# build above skips the harness and would not notice a library change
# that breaks it. Build it as perfbench/run.py does, in a build directory
# of its own.
dune build --root . --profile perfbench --build-dir _build_perfbench \
  --cache=disabled --display=quiet ./perfbench/bench.exe

echo "== dune runtest (hard 15-minute timeout) =="
# A hang here (a lost pool worker, an unbudgeted search loop) should fail
# the gate, not wedge it.
timeout 900 dune runtest

echo "== batch smoke (domain pool, --jobs 2) =="
./_build/default/bin/pacor_cli.exe batch corpus --jobs 2

echo "== fuzz smoke: parser rejects garbage without crashing (exit 2) =="
fuzzdir=$(mktemp -d)
trap 'rm -rf "$fuzzdir"' EXIT
head -c 4096 /dev/urandom > "$fuzzdir/random.chip"
printf 'grid 999999999 999999999\nvalve 0 -1 -1 01\n' > "$fuzzdir/adversarial.chip"
printf 'name truncated\ngrid 8 8\nvalve 0 3' > "$fuzzdir/truncated.chip"
for f in "$fuzzdir"/*.chip; do
  rc=0
  ./_build/default/bin/pacor_cli.exe check -f "$f" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "fuzz smoke: expected parse failure (exit 2) on $f, got $rc" >&2
    exit 1
  fi
done

echo "== fuzz smoke: degenerate batch quarantines exactly the infeasible job =="
rc=0
out=$(./_build/default/bin/pacor_cli.exe batch corpus/degenerate \
        --timeout 2 --retries 1 2>&1) || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "degenerate batch: expected exit 1 (quarantine), got $rc" >&2
  echo "$out" >&2
  exit 1
fi
echo "$out" | grep -q "quarantine: 1 job(s) permanently failed" || {
  echo "degenerate batch: expected exactly one quarantined job" >&2
  echo "$out" >&2
  exit 1
}

echo "== bench smoke (incl. scaling-family checks, jobs-scaling case + pool assertions) =="
smoke_out=$(./_build/default/bench/main.exe --smoke) || {
  echo "$smoke_out"; exit 1; }
echo "$smoke_out"

echo "== batch byte-identity: --jobs 4 vs --jobs 1 on the corpus =="
# The pool's determinism contract at the CLI level: identical routing
# results whatever the worker count. Only wall-clock columns and the
# workspace warm-up counter (allocs — documented schedule-dependent) may
# differ.
batch_fp() {
  ./_build/default/bin/pacor_cli.exe batch corpus --jobs "$1" \
    | sed -E 's/ +[0-9.]+s$//; s/ allocs=[0-9]+//; /^batch:/d'
}
b1=$(batch_fp 1)
b4=$(batch_fp 4)
if [ "$b1" != "$b4" ]; then
  echo "batch byte-identity: --jobs 4 output differs from --jobs 1" >&2
  printf '%s\n' "$b1" > /tmp/batch_jobs1.txt
  printf '%s\n' "$b4" > /tmp/batch_jobs4.txt
  diff /tmp/batch_jobs1.txt /tmp/batch_jobs4.txt >&2 || true
  exit 1
fi

echo "== pool race smoke: pool semantics + stress x3 seeds =="
# Repeated-seed stress in place of a TSAN build: the qcheck cases pick up
# QCHECK_SEED, and the fixed stress cases (concurrent map callers, forced
# oversubscription with raising tasks) re-roll their domain interleavings
# on every run.
for seed in 1 42 20260809; do
  QCHECK_SEED=$seed timeout 300 ./_build/default/test/test_par.exe test 'pool semantics' \
    > /dev/null 2>&1 || {
      echo "pool race smoke: pool semantics failed under seed $seed" >&2; exit 1; }
  QCHECK_SEED=$seed timeout 300 ./_build/default/test/test_par.exe test stress \
    > /dev/null 2>&1 || {
      echo "pool race smoke: stress failed under seed $seed" >&2; exit 1; }
done

# Determinism drift: a full bench run must reproduce its committed
# record's fingerprint list exactly, in order (wall-clock and allocations
# are excluded from fingerprints).
fingerprints() {
  sed -n 's/.*"fingerprint": "\([^"]*\)".*/\1/p' "$1"
}
same_fingerprints() {
  fingerprints "$1" > "$1.got"
  fingerprints "$2" > "$1.want"
  if ! cmp -s "$1.want" "$1.got"; then
    echo "$3 determinism drift: fingerprints differ from $2:" >&2
    diff "$1.want" "$1.got" >&2 || true
    exit 1
  fi
  rm -f "$1.got" "$1.want"
}

echo "== BENCH_parallel.json drift check (jobs-scaling record) =="
# The committed record must carry the core count it was measured on, show
# every jobs count reproducing the jobs=1 results, and hold the fingerprint
# (matched trees, total length) that the smoke run above printed for the
# committed family routed afresh. The full --jobs-scaling run is not
# repeated here: its 1.5x wall-clock bound at jobs=4 passes under half the
# time on a 2-core machine (EXPERIMENTS.md, "Jobs scaling").
for key in '"bench": "pacor-jobs-scaling"' '"cores"' '"cpu_vs_jobs1"'; do
  grep -qF "$key" BENCH_parallel.json || {
    echo "BENCH_parallel.json schema drift: missing $key" >&2; exit 1; }
done
if grep -qF '"deterministic": false' BENCH_parallel.json; then
  echo "BENCH_parallel.json: a jobs count diverged from jobs=1" >&2; exit 1
fi
want=$(fingerprints BENCH_parallel.json | sed 's/^jobs=[0-9]* //' | sort -u)
got=$(echo "$smoke_out" | sed -n 's/^committed jobs-scaling family: //p')
if [ "$want" != "$got" ]; then
  echo "BENCH_parallel.json drift: the record holds '$want'," \
    "a fresh run of its family gives '$got'" >&2
  exit 1
fi

echo "== route-bench + BENCH_route.json drift check =="
routejson=$(mktemp)
./_build/default/bench/main.exe --route-bench --json-out "$routejson" > /dev/null
# Schema drift: the committed record and the fresh run must both
# carry the sections CI (and downstream tooling) read.
for key in '"bench": "pacor-route-bench"' '"negotiation"' '"totals"'; do
  grep -qF "$key" BENCH_route.json || {
    echo "BENCH_route.json schema drift: missing $key" >&2; exit 1; }
  grep -qF "$key" "$routejson" || {
    echo "route-bench output schema drift: missing $key" >&2; exit 1; }
done
# Routed/length/expansion counts per negotiation size.
same_fingerprints "$routejson" BENCH_route.json route-bench
rm -f "$routejson"

echo "== escape-bench + BENCH_escape.json drift check =="
escjson=$(mktemp)
./_build/default/bench/main.exe --escape-bench --json-out "$escjson" > /dev/null
for key in '"bench": "pacor-escape-bench"' '"instances"' '"corpus"'; do
  grep -qF "$key" BENCH_escape.json || {
    echo "BENCH_escape.json schema drift: missing $key" >&2; exit 1; }
  grep -qF "$key" "$escjson" || {
    echo "escape-bench output schema drift: missing $key" >&2; exit 1; }
done
# Escape routed/length per instance and the corpus engine outcomes.
same_fingerprints "$escjson" BENCH_escape.json escape-bench
rm -f "$escjson"

echo "== Scaled3 flat route guard (validates, pinned score) =="
scaled3=$(mktemp)
./_build/default/bin/pacor_cli.exe designs --emit Scaled3 > "$scaled3"
s3json=$(./_build/default/bin/pacor_cli.exe route -f "$scaled3" --json)
rm -f "$scaled3"
for key in '"valid":true' '"routed_valves":78' '"matched_clusters":21' \
           '"total_length":4010'; do
  printf '%s\n' "$s3json" | grep -qF "$key" || {
    echo "Scaled3 flat guard: expected $key in the route --json result:" >&2
    printf '%s\n' "$s3json" >&2
    exit 1
  }
done

echo "== Chip1 route guard (the design where selection B&B searches) =="
c1json=$(./_build/default/bin/pacor_cli.exe route -d Chip1 --json)
for key in '"valid":true' '"routed_valves":176' '"matched_clusters":40' \
           '"total_length":4477' '"matched_length":2235'; do
  printf '%s\n' "$c1json" | grep -qF "$key" || {
    echo "Chip1 guard: expected $key in the route --json result:" >&2
    printf '%s\n' "$c1json" >&2
    exit 1
  }
done

echo "== cold route memory guard: Scaled6 peak RSS from a fresh process =="
# A cold route sizes the search workspace once: the node record to the
# escape network, the escape seed's two int slots to the grid, the other
# scratch slots and the owner layer on first use, the visit pool and settle
# trail by what searches append. The node record, the owner layer and
# negotiation's two slots are lazily-zeroed mappings, resident only where
# a search writes. Scaled6 (1008x1008) then peaks at ~72 MB (median of 10
# runs, x86-64 Linux, OCaml 5.1); with the record zero-filled up front it
# peaked at ~123 MB, with eight more cell layers at ~193-211 MB, and when
# ten arrays grew together to twice the escape network at ~741 MB. Fail
# above 1.5x the committed figure (108 MB).
scaled6="$fuzzdir/Scaled6.chip"
./_build/default/bin/pacor_cli.exe designs --emit Scaled6 > "$scaled6"
rss_kb=$(python3 - "$scaled6" <<'PY'
import resource, subprocess, sys
subprocess.run(["./_build/default/bin/pacor_cli.exe", "route", "-f", sys.argv[1]],
               stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
PY
)
if [ "$rss_kb" -gt 110592 ]; then
  echo "cold route memory guard: Scaled6 peaked at $rss_kb KB, limit 110592 KB (108 MB)" >&2
  exit 1
fi

echo "== canonical instance text: designs --emit and re-emitted corpus chips, md5-pinned =="
# The canonical text is the serving layer's cache key (its md5 is the
# problem fingerprint) and the journal's record format, so it must not
# move. These digests were recorded with the Printf writer the linear one
# replaced. Corpus chips are re-emitted through --save-instance, which
# writes the parsed instance before routing; a one-expansion budget cuts
# the route short (exit 1), and only the saved text is checked.
textdir="$fuzzdir/text"
mkdir -p "$textdir"
for pin in Chip1:3d2172376f58c7a356c565150716ce89 Chip2:24fab23a4df51b85834aa558e69e3290 \
           S1:fff54d1f0f1652f940221870ba771093 S2:ecb2aa7004e1a0dc131984940e77dbf7 \
           S3:664e6e63b4fbfa169b8e7c3061755c40 S4:ed49dfa6037eb7cbd0c8174a8f4e7873 \
           S5:c6f0db225cea58c31f8d0b01757519ab Scaled1:446c6c030652f1992d517cbb3d9900a1 \
           Scaled2:ce651ddd94e1caefb4110407f04b1ee2 Scaled3:29f0824215bf516994971731bce8aadc \
           Scaled4:69e59ef3dcaa3c06f378256ff4209a28 Scaled5:e641336b4af88f0f75962022f60b1fb4 \
           Scaled6:0f7999bb2bca518bbb5cf4952ad35c56 Scaled7:173bf641f3c6dfe85198856252cf403b \
           Scaled8:d52ff8caf68d109d5a0487cd4b9484f7 fpva20-p8:c268f033f80af368c1edb7282cc732ee; do
  name=${pin%%:*}
  want=${pin#*:}
  got=$(./_build/default/bin/pacor_cli.exe designs --emit "$name" | md5sum | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "canonical text: designs --emit $name md5 is $got, pinned $want" >&2
    exit 1
  fi
done
for pin in corpus-bigcluster:e8cf129d1330ca548e049ee7b5a2a78f \
           corpus-dense:a7a2378429341d0ff3bf02ee8824ab22 \
           corpus-obstacles:015d93da25403b35b4a2a5b918037560 \
           corpus-pairs:cf192842822f83801e8182798aeea51d \
           degenerate/corpus-empty-clusters:9d9bed6447a18b9d6fb70c0424f4485c \
           degenerate/corpus-infeasible:587cf0fe8339c7d426e6e2d7cac92804; do
  name=${pin%%:*}
  want=${pin#*:}
  out="$textdir/$(basename "$name").chip"
  ./_build/default/bin/pacor_cli.exe route -f "corpus/$name.chip" --save-instance "$out" \
    --max-expansions 1 > /dev/null 2>&1 || true
  got=$(md5sum < "$out" | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "canonical text: re-emitted corpus/$name.chip md5 is $got, pinned $want" >&2
    exit 1
  fi
done

echo "== route --svg byte-identity: Chip1, Chip2, Scaled2, Scaled3, Scaled5, Scaled6, Scaled8, fpva20-p8 and two corpus chips =="
# The SVG draws every channel and escape path and carries no runtime, so
# its digest pins the whole solution, not just its score. A change that
# moves any path must update these digests and say why in CHANGES.md.
# Scaled2 adds six escape networks per route, three of them of a single
# request. Scaled5 has two escape solves (~1.85M escape pops). Scaled6 is
# the largest design with an escape network of disjoint reachable regions.
# Scaled8 is the largest grid (1.81M cells), where the search workspace's
# node record is allocated at its largest.
# corpus-bigcluster and corpus-dense route their length-matched trees
# through one cluster-routing negotiation each. fpva20-p8 (the side-20
# pitch-8 FPVA lattice) is the one input where rematch's alternative
# candidates and joint reroute rescue pairs (57 of 60 trees matched), and
# where lm-routing's failed searches flood whole pockets.
svgdir="$fuzzdir/svg"
mkdir -p "$svgdir"
for d in Chip1 Chip2 fpva20-p8; do
  ./_build/default/bin/pacor_cli.exe route -d "$d" --svg "$svgdir/$d.svg" --verbose \
    > "$svgdir/$d.out" 2> /dev/null
done
for d in Scaled2 Scaled3 Scaled5 Scaled6 Scaled8; do
  ./_build/default/bin/pacor_cli.exe designs --emit "$d" > "$svgdir/$d.chip"
  ./_build/default/bin/pacor_cli.exe route -f "$svgdir/$d.chip" --svg "$svgdir/$d.svg" \
    --verbose > "$svgdir/$d.out" 2> /dev/null
done
for d in corpus-bigcluster corpus-dense; do
  ./_build/default/bin/pacor_cli.exe route -f "corpus/$d.chip" --svg "$svgdir/$d.svg" \
    --verbose > "$svgdir/$d.out" 2> /dev/null
done
for pin in Chip1:f86df4ff6d7cdcb5af9309a5ec54eecf Chip2:f43bca974f6bc9dacb01cd8f75346a9b \
           Scaled2:e15fe9506e8860b7e59d2dbe2792160f Scaled3:cc936f01d69f66272501de091d2b09b8 \
           Scaled5:f6bdb29bccacf96b04d26105e028eed9 Scaled6:4715c265a74671b38b75c9d78a091c38 \
           Scaled8:1a8d5b8bcf346064140ee0f40cfef287 fpva20-p8:2215817a4382fd7c9810e0724cd1ebbe \
           corpus-bigcluster:92dc39d9cd12a3c7d9c53e3e408abb67 \
           corpus-dense:d38a370c2f8514716044de1ee81469d7; do
  name=${pin%%:*}
  want=${pin#*:}
  got=$(md5sum "$svgdir/$name.svg" | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "svg byte-identity: $name route --svg md5 is $got, pinned $want" >&2
    exit 1
  fi
done

echo "== search counters: Chip1, Chip2, Scaled2, Scaled3, Scaled5, Scaled6, Scaled8, fpva20-p8 and two corpus chips route --verbose, per stage =="
# Pops, pushes, touched cells and relaxations follow the search heap's tie
# order even where the paths happen not to, so these pins catch a changed
# expansion order that the SVG digests above would miss. [allocs] counts
# workspace growth, not search work, and is left out. Scaled2's escape
# line covers its single-request solves too.
cat > "$svgdir/Chip1.search" <<'PINS'
search lm-routing     searches=121 refused=0 pops=1283 pushes=2447 touched=4644 relax=2867 resets=122
search escape         searches=215 refused=0 pops=190547 pushes=224180 touched=693206 relax=222858 resets=216
search detour         searches=7 refused=4 pops=34 pushes=61 touched=120 relax=93 resets=7
search rematch        searches=46 refused=4 pops=1831 pushes=2977 touched=7072 relax=3925 resets=54
search total          searches=389 refused=8 pops=193695 pushes=229665 touched=705042 relax=229743 resets=399
PINS
cat > "$svgdir/Chip2.search" <<'PINS'
search lm-routing     searches=22 refused=0 pops=346 pushes=676 touched=1296 relax=842 resets=23
search escape         searches=36 refused=0 pops=67622 pushes=72354 touched=256334 relax=71824 resets=36
search total          searches=58 refused=0 pops=67968 pushes=73030 touched=257630 relax=72666 resets=59
PINS
cat > "$svgdir/Scaled2.search" <<'PINS'
search lm-routing     searches=33 refused=0 pops=343 pushes=689 touched=1240 relax=792 resets=34
search escape         searches=111 refused=0 pops=378200 pushes=395709 touched=1446137 relax=395276 resets=114
search detour         searches=0 refused=0 pops=0 pushes=0 touched=0 relax=0 resets=0
search total          searches=144 refused=0 pops=378543 pushes=396398 touched=1447377 relax=396068 resets=148
PINS
cat > "$svgdir/Scaled3.search" <<'PINS'
search lm-routing     searches=51 refused=0 pops=439 pushes=924 touched=1552 relax=1024 resets=52
search escape         searches=47 refused=0 pops=300273 pushes=314105 touched=1124829 relax=313879 resets=47
search detour         searches=4 refused=4 pops=0 pushes=0 touched=0 relax=0 resets=4
search rematch        searches=46 refused=4 pops=1565 pushes=2863 touched=6096 relax=3581 resets=53
search total          searches=148 refused=8 pops=302277 pushes=317892 touched=1132477 relax=318484 resets=156
PINS
cat > "$svgdir/Scaled5.search" <<'PINS'
search lm-routing     searches=85 refused=0 pops=1036 pushes=1935 touched=3804 relax=2364 resets=86
search escape         searches=159 refused=0 pops=1847782 pushes=1941891 touched=6674088 relax=1941140 resets=160
search detour         searches=3 refused=3 pops=0 pushes=0 touched=0 relax=0 resets=3
search rematch        searches=27 refused=3 pops=1810 pushes=3062 touched=7144 relax=4076 resets=31
search total          searches=274 refused=6 pops=1850628 pushes=1946888 touched=6685036 relax=1947580 resets=280
PINS
cat > "$svgdir/Scaled6.search" <<'PINS'
search lm-routing     searches=99 refused=0 pops=893 pushes=1862 touched=3176 relax=2098 resets=100
search escape         searches=211 refused=0 pops=2972458 pushes=3147964 touched=10361690 relax=3147199 resets=215
search detour         searches=2 refused=2 pops=0 pushes=0 touched=0 relax=0 resets=2
search rematch        searches=30 refused=3 pops=4835 pushes=8583 touched=19236 relax=11164 resets=36
search total          searches=342 refused=5 pops=2978186 pushes=3158409 touched=10384102 relax=3160461 resets=353
PINS
cat > "$svgdir/Scaled8.search" <<'PINS'
search lm-routing     searches=135 refused=0 pops=1208 pushes=2534 touched=4292 relax=2844 resets=136
search escape         searches=122 refused=0 pops=2157214 pushes=2252484 touched=8070208 relax=2251883 resets=122
search detour         searches=6 refused=6 pops=0 pushes=0 touched=0 relax=0 resets=6
search rematch        searches=86 refused=8 pops=8745 pushes=16344 touched=34672 relax=20180 resets=100
search total          searches=349 refused=14 pops=2167167 pushes=2271362 touched=8109172 relax=2274907 resets=364
PINS
cat > "$svgdir/fpva20-p8.search" <<'PINS'
search lm-routing     searches=2906 refused=0 pops=2694290 pushes=2738111 touched=10723791 relax=5056332 resets=2910
search escape         searches=62 refused=0 pops=48202 pushes=60195 touched=144698 relax=59684 resets=62
search detour         searches=10 refused=10 pops=0 pushes=0 touched=0 relax=0 resets=10
search rematch        searches=866 refused=9 pops=726238 pushes=737945 touched=2868120 relax=1204293 resets=918
search total          searches=3844 refused=19 pops=3468730 pushes=3536251 touched=13736609 relax=6320309 resets=3900
PINS
cat > "$svgdir/corpus-bigcluster.search" <<'PINS'
search lm-routing     searches=18 refused=0 pops=146 pushes=295 touched=512 relax=318 resets=19
search escape         searches=7 refused=0 pops=1505 pushes=1598 touched=5693 relax=1556 resets=7
search total          searches=25 refused=0 pops=1651 pushes=1893 touched=6205 relax=1874 resets=26
PINS
cat > "$svgdir/corpus-dense.search" <<'PINS'
search lm-routing     searches=180 refused=0 pops=2071 pushes=3457 touched=7121 relax=4074 resets=192
search plain-routing  searches=3 refused=0 pops=24 pushes=52 touched=84 relax=57 resets=3
search escape         searches=10 refused=0 pops=994 pushes=1163 touched=3473 relax=1114 resets=10
search detour         searches=0 refused=0 pops=0 pushes=0 touched=0 relax=0 resets=0
search total          searches=193 refused=0 pops=3089 pushes=4672 touched=10678 relax=5245 resets=205
PINS
for name in Chip1 Chip2 Scaled2 Scaled3 Scaled5 Scaled6 Scaled8 fpva20-p8 corpus-bigcluster corpus-dense; do
  sed -n 's/ allocs=[0-9]*$//; /^search /p' "$svgdir/$name.out" > "$svgdir/$name.got"
  if ! cmp -s "$svgdir/$name.search" "$svgdir/$name.got"; then
    echo "search counters: $name route --verbose search lines differ from the pins:" >&2
    diff "$svgdir/$name.search" "$svgdir/$name.got" >&2 || true
    exit 1
  fi
done

echo "== workspace memory: Scaled3 holds at most 112 bytes per grid cell after a route =="
# route --verbose prints the bytes the search workspace's arrays hold. It
# is a deterministic count, unlike the RSS guard above: the node record
# (four ints per node of the escape network, ~65 B per cell), four int
# scratch slots (~33 B), the owner layer (8 B) and the byte slots. Eight
# more 8-byte cell layers once put Scaled3 at ~184 B per cell.
per_cell=$(sed -n 's/^workspace bytes=[0-9]* per_cell=\([0-9.]*\)$/\1/p' "$svgdir/Scaled3.out")
if [ -z "$per_cell" ] || ! awk -v b="$per_cell" 'BEGIN { exit !(b <= 112) }'; then
  echo "workspace memory: Scaled3 holds '$per_cell' bytes per cell, limit 112" >&2
  exit 1
fi

echo "== search counters under a budget: Chip1 route --max-expansions 40000 --verbose =="
# The cap trips inside the first escape solve, after the negotiation
# stage's searches, so these lines pin where each stage charges the
# budget: a seed BFS that ticked, pushed or touched in a new order would
# move the escape line. The degraded route leaves clusters
# without a pin and fails validation (exit 1).
rc=0
./_build/default/bin/pacor_cli.exe route -d Chip1 --max-expansions 40000 --verbose \
  > "$svgdir/Chip1-budget.out" 2> /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "budget pin: Chip1 --max-expansions 40000 exited $rc, expected 1" >&2
  exit 1
fi
cat > "$svgdir/Chip1-budget.search" <<'PINS'
search lm-routing     searches=121 refused=0 pops=1283 pushes=2447 touched=4644 relax=2867 resets=122
search escape         searches=1 refused=0 pops=38717 pushes=39531 touched=154308 relax=38975 resets=1
search total          searches=122 refused=0 pops=40000 pushes=41978 touched=158952 relax=41842 resets=123
PINS
sed -n 's/ allocs=[0-9]*$//; /^search /p' "$svgdir/Chip1-budget.out" > "$svgdir/Chip1-budget.got"
if ! cmp -s "$svgdir/Chip1-budget.search" "$svgdir/Chip1-budget.got"; then
  echo "budget pin: Chip1 --max-expansions 40000 search lines differ from the pins:" >&2
  diff "$svgdir/Chip1-budget.search" "$svgdir/Chip1-budget.got" >&2 || true
  exit 1
fi

echo "== fault-sweep + BENCH_fault.json drift check =="
faultjson=$(mktemp)
./_build/default/bench/main.exe --fault-sweep --json-out "$faultjson" > /dev/null
for key in '"bench": "pacor-fault-sweep"' '"cases"' '"all_cheaper"' '"all_valid"'; do
  grep -qF "$key" BENCH_fault.json || {
    echo "BENCH_fault.json schema drift: missing $key" >&2; exit 1; }
  grep -qF "$key" "$faultjson" || {
    echo "fault-sweep output schema drift: missing $key" >&2; exit 1; }
done
# The committed record must assert repair cheaper than a full re-route on
# every case, with every repaired solution passing the validator.
grep -qF '"all_cheaper": true' BENCH_fault.json || {
  echo "BENCH_fault.json: repair is not cheaper than full re-route" >&2; exit 1; }
grep -qF '"all_valid": true' BENCH_fault.json || {
  echo "BENCH_fault.json: a repaired solution failed validation" >&2; exit 1; }
# Fault counts, per-fault outcomes, expansion counts and length delta per
# case; the full sweep is the run that demotes length-matched clusters in
# repair's rip-up ladder.
same_fingerprints "$faultjson" BENCH_fault.json fault-sweep
rm -f "$faultjson"

echo "== serve smoke: daemon over a pipe (route, cache hits, delta, shutdown) =="
# pacor client spawns the daemon on stdin/stdout pipes; --check turns any
# ok:false response into exit 1. The second route repeats the first text
# (answered by the raw-text key), the third is the same instance with a
# comment line inserted (answered by the canonical key after a parse), the
# fourth repeats the first text again.
servetrace=$(mktemp)
commented=$(mktemp)
sed '2i # the same instance, one comment line longer' corpus/corpus-pairs.chip > "$commented"
cat > "$servetrace" <<EOF
{"id":1,"op":"route","file":"corpus/corpus-pairs.chip","session":"ci"}
{"id":2,"op":"route","file":"corpus/corpus-pairs.chip"}
{"id":3,"op":"route","file":"$commented"}
{"id":4,"op":"route","file":"corpus/corpus-pairs.chip"}
{"id":5,"op":"move_valve","session":"ci","valve":10,"x":9,"y":10}
{"id":6,"op":"stats"}
{"id":7,"op":"shutdown"}
EOF
serveout=$(./_build/default/bin/pacor_cli.exe client --check < "$servetrace")
rm -f "$servetrace" "$commented"
# Every repeat route must be served from the cache, byte-identical to the
# first computation (the result field is rendered once and replayed).
r1=$(printf '%s\n' "$serveout" | sed -n '1s/.*"result"://p')
for n in 2 3 4; do
  printf '%s\n' "$serveout" | sed -n "${n}p" | grep -qF '"cached":true' || {
    echo "serve smoke: route $n was not a cache hit" >&2
    printf '%s\n' "$serveout" >&2; exit 1; }
  rn=$(printf '%s\n' "$serveout" | sed -n "${n}s/.*\"result\"://p")
  if [ -z "$r1" ] || [ "$r1" != "$rn" ]; then
    echo "serve smoke: cache hit $n is not byte-identical to the first route" >&2
    printf '%s\n' "$serveout" >&2; exit 1
  fi
done
# Two texts, each seen twice: two raw-key hits, two misses.
printf '%s\n' "$serveout" | sed -n '6p' \
  | grep -qF '"raw_keys":{"size":2,"hits":2,"misses":2}' || {
  echo "serve smoke: raw-key counters differ" >&2
  printf '%s\n' "$serveout" >&2; exit 1; }
# The delta must be served incrementally (certificate held, no fallback).
printf '%s\n' "$serveout" | sed -n '5p' | grep -qF '"incremental":true' || {
  echo "serve smoke: move_valve was not served incrementally" >&2
  printf '%s\n' "$serveout" >&2; exit 1; }

echo "== serve fingerprints: each answer's fingerprint = md5sum of the routed text =="
# The daemon digests its render buffer in place; md5sum shares no code
# with it. Chip1's 70 KB text is past the buffer's first size, so the
# buffer grows on the way.
fptrace="$textdir/fingerprints.trace"
: > "$fptrace"
for name in Chip1 Chip2 fpva20-p8; do
  ./_build/default/bin/pacor_cli.exe designs --emit "$name" > "$textdir/emit-$name.chip"
  printf '{"id":"%s","op":"route","file":"%s"}\n' "$name" "$textdir/emit-$name.chip" >> "$fptrace"
done
echo '{"op":"shutdown"}' >> "$fptrace"
fpout=$(./_build/default/bin/pacor_cli.exe client --check < "$fptrace")
n=0
for name in Chip1 Chip2 fpva20-p8; do
  n=$((n + 1))
  want=$(md5sum < "$textdir/emit-$name.chip" | cut -d' ' -f1)
  got=$(printf '%s\n' "$fpout" | sed -n "${n}s/.*\"fingerprint\":\"\([0-9a-f]*\)\".*/\1/p")
  if [ "$got" != "$want" ]; then
    echo "serve fingerprints: $name answered $got, md5sum of its text is $want" >&2
    exit 1
  fi
done

echo "== serve round trips: each edit undone answers the base text's md5sum =="
# A Chip2 session edited there and back three times: an obstacle added on
# a free interior cell and removed, delta 3 and back to 1, valve 0 moved
# one cell and back. Each undo returns the base problem, so its answer's
# fingerprint must be md5sum of the emitted text, whether the daemon
# spliced the text from a recent render or found it whole.
rttrace="$textdir/roundtrips.trace"
cat > "$rttrace" <<EOF
{"id":1,"op":"route","file":"$textdir/emit-Chip2.chip","session":"rt"}
{"id":2,"op":"add_obstacle","session":"rt","x":215,"y":30}
{"id":3,"op":"remove_obstacle","session":"rt","x":215,"y":30}
{"id":4,"op":"set_delta","session":"rt","delta":3}
{"id":5,"op":"set_delta","session":"rt","delta":1}
{"id":6,"op":"move_valve","session":"rt","valve":0,"x":218,"y":34}
{"id":7,"op":"move_valve","session":"rt","valve":0,"x":219,"y":34}
{"op":"shutdown"}
EOF
rtout=$(./_build/default/bin/pacor_cli.exe client --check < "$rttrace")
want=$(md5sum < "$textdir/emit-Chip2.chip" | cut -d' ' -f1)
for n in 1 2 3 4 5 6 7; do
  got=$(printf '%s\n' "$rtout" | sed -n "${n}s/.*\"fingerprint\":\"\([0-9a-f]*\)\".*/\1/p")
  # Answers 1, 3, 5 and 7 hold the base problem; 2, 4 and 6 an edit of it.
  case $n in 1|3|5|7) ok=$([ "$got" = "$want" ] && echo y || echo n) ;;
    *) ok=$([ -n "$got" ] && [ "$got" != "$want" ] && echo y || echo n) ;; esac
  if [ "$ok" != y ]; then
    echo "serve round trips: answer $n has fingerprint '$got'; md5sum of Chip2's text is $want" >&2
    printf '%s\n' "$rtout" >&2; exit 1
  fi
done

echo "== serve-bench + BENCH_serve.json drift check =="
servejson=$(mktemp)
./_build/default/bench/main.exe --serve-bench --json-out "$servejson" > /dev/null
for key in '"bench": "pacor-serve-bench"' '"instances"' '"trace"' '"latency"' \
           '"expansions"' '"daemon_stats"'; do
  grep -qF "$key" BENCH_serve.json || {
    echo "BENCH_serve.json schema drift: missing $key" >&2; exit 1; }
  grep -qF "$key" "$servejson" || {
    echo "serve-bench output schema drift: missing $key" >&2; exit 1; }
done
# The committed record must assert the incremental path pays: delta
# requests cost strictly fewer A* expansions than from-scratch re-routes
# of the same mutated instances — and so must the fresh run.
grep -qF '"deltas_strictly_cheaper": true' BENCH_serve.json || {
  echo "BENCH_serve.json: deltas are not cheaper than scratch re-routes" >&2; exit 1; }
grep -qF '"deltas_strictly_cheaper": true' "$servejson" || {
  echo "serve-bench: deltas are not cheaper than scratch re-routes" >&2; exit 1; }
# Both pop counts are a pure function of the trace: the fresh run's must
# equal the committed record's.
serve_pops() {
  sed -n 's/.*"delta_pops": \([0-9]*\), "scratch_pops": \([0-9]*\),.*/\1 \2/p' "$1"
}
if [ -z "$(serve_pops BENCH_serve.json)" ] \
   || [ "$(serve_pops BENCH_serve.json)" != "$(serve_pops "$servejson")" ]; then
  echo "serve-bench: delta/scratch pops '$(serve_pops "$servejson")' differ from" \
       "BENCH_serve.json's '$(serve_pops BENCH_serve.json)'" >&2; exit 1
fi
# Problem fingerprint, routed valve count and total length per instance.
same_fingerprints "$servejson" BENCH_serve.json serve-bench
rm -f "$servejson"

echo "== chaos-soak smoke + BENCH_chaos.json drift check =="
chaosjson=$(mktemp)
chaosjson2=$(mktemp)
./_build/default/bench/main.exe --chaos-soak --smoke --json-out "$chaosjson" > /dev/null
# Schema drift: committed record and fresh smoke run both carry the
# sections the robustness claims rest on.
for key in '"bench": "pacor-chaos-soak"' '"faults"' '"survival"' \
           '"bounded_memory"' '"sessions"'; do
  grep -qF "$key" BENCH_chaos.json || {
    echo "BENCH_chaos.json schema drift: missing $key" >&2; exit 1; }
  grep -qF "$key" "$chaosjson" || {
    echo "chaos-soak smoke output schema drift: missing $key" >&2; exit 1; }
done
# Survival invariants — zero daemon aborts, zero lost acknowledged
# sessions, bounded memory — must hold in the committed 1000-request
# record AND in the fresh smoke run.
for rec in BENCH_chaos.json "$chaosjson"; do
  grep -qF '"daemon_aborts": 0' "$rec" || {
    echo "$rec: a worker aborted on its own (not a harness kill)" >&2; exit 1; }
  grep -qF '"sessions_lost": 0' "$rec" || {
    echo "$rec: an acknowledged session was lost across recovery" >&2; exit 1; }
  grep -qF '"within_caps": true' "$rec" || {
    echo "$rec: a memory gauge exceeded its cap under chaos" >&2; exit 1; }
done
# Determinism drift: the soak's fault schedule and final session
# fingerprints are a pure function of the seed, so a second smoke run
# must reproduce them byte-for-byte. (The smoke trace is shorter than the
# committed 1000-request run, so its fingerprints are checked against a
# replay, not against the committed record.)
./_build/default/bench/main.exe --chaos-soak --smoke --json-out "$chaosjson2" > /dev/null
fp1=$(sed -n 's/.*"fingerprint": "\([^"]*\)".*/\1/p' "$chaosjson")
fp2=$(sed -n 's/.*"fingerprint": "\([^"]*\)".*/\1/p' "$chaosjson2")
faults1=$(sed -n 's/.*"faults": {\(.*\)}.*/\1/p' "$chaosjson")
faults2=$(sed -n 's/.*"faults": {\(.*\)}.*/\1/p' "$chaosjson2")
if [ -z "$fp1" ] || [ "$fp1" != "$fp2" ] || [ "$faults1" != "$faults2" ]; then
  echo "chaos-soak determinism drift: two seeded smoke runs disagreed" >&2
  diff "$chaosjson" "$chaosjson2" >&2 || true
  exit 1
fi
rm -f "$chaosjson" "$chaosjson2"

echo "== supervised serve smoke: kill -9 mid-trace, journal recovery =="
chaosdir=$(mktemp -d)
./_build/default/bin/pacor_cli.exe designs --emit S1 > "$chaosdir/s1.pacor"
./_build/default/bin/pacor_cli.exe serve --supervise --no-stdio --port 0 \
  --journal "$chaosdir/sessions.journal" --pidfile "$chaosdir/worker.pid" \
  2> "$chaosdir/serve.err" &
suppid=$!
# The ephemeral port is announced on stderr; wait for it (and the worker).
port=
for _ in $(seq 1 100); do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$chaosdir/serve.err" | head -1)
  [ -n "$port" ] && [ -f "$chaosdir/worker.pid" ] && break
  sleep 0.05
done
if [ -z "$port" ]; then
  echo "supervised smoke: daemon never announced its port" >&2
  kill "$suppid" 2>/dev/null || true; exit 1
fi
# Bind a session (journaled before the ack), remember its fingerprint.
fp_before=$(printf '{"id":1,"op":"route","file":"%s","session":"ci"}\n' "$chaosdir/s1.pacor" \
  | ./_build/default/bin/pacor_cli.exe client --connect "127.0.0.1:$port" --check \
  | sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p')
if [ -z "$fp_before" ]; then
  echo "supervised smoke: initial route failed" >&2
  kill "$suppid" 2>/dev/null || true; exit 1
fi
# Kill the worker mid-trace. The supervisor must restart it, the restarted
# worker must recover the session from the journal, and the client must
# retry its way to the same answer.
kill -9 "$(cat "$chaosdir/worker.pid")"
fp_after=$(printf '{"id":2,"op":"get","session":"ci"}\n' \
  | ./_build/default/bin/pacor_cli.exe client --connect "127.0.0.1:$port" --check --retries 8 \
  | sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p')
if [ "$fp_before" != "$fp_after" ]; then
  echo "supervised smoke: recovered session fingerprint drifted ($fp_before -> ${fp_after:-lost})" >&2
  kill "$suppid" 2>/dev/null || true; exit 1
fi
printf '{"id":3,"op":"shutdown"}\n' \
  | ./_build/default/bin/pacor_cli.exe client --connect "127.0.0.1:$port" --check > /dev/null
wait "$suppid" || {
  echo "supervised smoke: supervisor exited abnormally" >&2; exit 1; }
rm -rf "$chaosdir"

echo "ci: OK"
