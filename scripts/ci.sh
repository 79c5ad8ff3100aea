#!/bin/sh
# CI smoke job: build, then run the full @runtest alias on both the forced
# sequential path and an oversubscribed parallel domain pool, so the
# jobs=1 / jobs=N parity that the library promises (identical results
# whatever the pool width) is exercised on every PR.  A quick bench pass
# then writes BENCH_<ts>.json — the machine-readable perf-trajectory
# record tracked across PRs.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest (NETFORM_JOBS=1, sequential path) =="
NETFORM_JOBS=1 dune runtest --force

echo "== dune runtest (NETFORM_JOBS=4, parallel path) =="
NETFORM_JOBS=4 dune runtest --force

# Store smoke: a full n=6 atlas build, a simulated crash (the part file
# truncated to 2/3 of the finished bytes), resume, CRC verification, and
# a byte-for-byte diff against the uninterrupted build — under both pool
# widths, since resume parity must hold whatever the domain fan-out.
echo "== store smoke (build / crash / resume / verify, both pool widths) =="
store_dir=$(mktemp -d)
trap 'rm -rf "$store_dir"' EXIT
for jobs in 1 4; do
  pristine="$store_dir/pristine_j$jobs.nfs"
  crashed="$store_dir/crashed_j$jobs.nfs"
  NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- store build -n 6 --chunk 16 \
    -o "$pristine" --quiet
  dune exec bin/netform_cli.exe -- store verify "$pristine"
  size=$(wc -c < "$pristine")
  head -c $((size * 2 / 3)) "$pristine" > "$crashed.part"
  # verify and shards on the cut copy: exit 1 with the incomplete-store
  # text (not 0, not an uncaught exception's 125)
  for cmd in verify shards; do
    status=0
    dune exec bin/netform_cli.exe -- store $cmd "$crashed.part" > "$store_dir/$cmd.out" 2>&1 \
      || status=$?
    if [ "$status" -ne 1 ] || ! grep -q "incomplete store (.* complete chunks; resume the build)" \
      "$store_dir/$cmd.out"; then
      echo "store $cmd on a truncated store: exit $status" >&2
      cat "$store_dir/$cmd.out" >&2
      exit 1
    fi
  done
  NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- store resume -o "$crashed" --quiet
  dune exec bin/netform_cli.exe -- store verify "$crashed"
  cmp "$pristine" "$crashed"
  echo "store smoke (jobs=$jobs): resumed store byte-identical"
done
cmp "$store_dir/pristine_j1.nfs" "$store_dir/pristine_j4.nfs"
echo "store smoke: jobs=1 and jobs=4 builds byte-identical"

# Read-back oracle: the n=6 classic store, exported through `store
# export` and through `query --export`, must be the CSV a fresh
# `annotate -n 6` writes (BCG intervals and UCG Nash sets) — the store
# read path checked against a recomputation, not against another reader.
echo "== store read-back vs fresh annotation (n=6 classic, both pool widths) =="
for jobs in 1 4; do
  NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- annotate -n 6 \
    -o "$store_dir/annotate6_j$jobs.csv" > /dev/null
  NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- store export "$store_dir/pristine_j$jobs.nfs" \
    -o "$store_dir/export6_j$jobs.csv" > /dev/null
  NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- query "$store_dir/pristine_j$jobs.nfs" \
    --export > "$store_dir/query6_j$jobs.csv"
  cmp "$store_dir/annotate6_j$jobs.csv" "$store_dir/export6_j$jobs.csv"
  cmp "$store_dir/annotate6_j$jobs.csv" "$store_dir/query6_j$jobs.csv"
done
echo "store read-back: store export and query --export = fresh annotate -n 6 (both pool widths)"

# UCG bytes at the largest default order: the classic n=7 store carries
# the exact UCG Nash set of every connected class, so the pruned
# orientation walks (plain and orbit-quotient, both pool widths) must all
# reproduce the golden md5.
echo "== UCG n=7 store (golden md5, both pool widths, quotient on/off) =="
ucg7_md5=dcb9c2744be244711da55f1146b79d00
for jobs in 1 4; do
  for quotient in on off; do
    flag=""
    [ "$quotient" = on ] || flag="--no-orbit-quotient"
    out="$store_dir/ucg7_j${jobs}_$quotient.nfs"
    NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- store build -n 7 $flag -o "$out" --quiet
    cmp "$store_dir/ucg7_j1_on.nfs" "$out"
    sum=$(md5sum "$out" | cut -d' ' -f1)
    [ "$sum" = "$ucg7_md5" ] || { echo "UCG n=7 store: md5 $sum, expected $ucg7_md5" >&2; exit 1; }
  done
done
echo "UCG n=7 store: four builds byte-identical, md5 $ucg7_md5"

# BCG bytes at n=8: the first order enumerated by canonical augmentation,
# whose representatives and stream order come from the refinement's exact
# cell ordering, so both pool widths must reproduce the golden md5 — and
# so must the all-pairs scan: 45% of the n=8 classes have twins, so the
# quotient-off build checks the twin-tier pair rule on many subgroups.
echo "== BCG n=8 store (golden md5, both pool widths, quotient on/off) =="
bcg8_md5=0690cd63db39415fb220f1cf44d3ff89
for jobs in 1 4; do
  NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- store build -n 8 --game bcg \
    -o "$store_dir/bcg8_j$jobs.nfs" --quiet
done
dune exec bin/netform_cli.exe -- store build -n 8 --game bcg --no-orbit-quotient \
  -o "$store_dir/bcg8_nq.nfs" --quiet
cmp "$store_dir/bcg8_j1.nfs" "$store_dir/bcg8_j4.nfs"
cmp "$store_dir/bcg8_j1.nfs" "$store_dir/bcg8_nq.nfs"
sum=$(md5sum "$store_dir/bcg8_j1.nfs" | cut -d' ' -f1)
[ "$sum" = "$bcg8_md5" ] || { echo "BCG n=8 store: md5 $sum, expected $bcg8_md5" >&2; exit 1; }
echo "BCG n=8 store: jobs=1, jobs=4 and quotient-off builds byte-identical, md5 $bcg8_md5"

# Transfers bytes at n=7, quotient on vs off: the other interval game
# whose scan runs over the orbit-representative pairs.
echo "== transfers n=7 store (quotient on/off) =="
for quotient in on off; do
  flag=""
  [ "$quotient" = on ] || flag="--no-orbit-quotient"
  dune exec bin/netform_cli.exe -- store build -n 7 --game transfers $flag \
    -o "$store_dir/transfers7_$quotient.nfs" --quiet
done
cmp "$store_dir/transfers7_on.nfs" "$store_dir/transfers7_off.nfs"
echo "transfers n=7 store: quotient on and off byte-identical"

# Registry exhaustiveness: every game the binary knows about must survive
# the full annotate -> store build -> verify loop under both pool widths,
# with the two builds byte-identical.  The game list comes from the CLI
# itself (`games --names`, which prints one concrete instance per line
# including an example member of each parameterized family — e.g.
# coalition:k=2 — so families are smoke-tested end to end, parameter
# bytes in the store header included, without touching this script).
echo "== game registry smoke (annotate + store build/verify, every game, both pool widths) =="
games=$(dune exec bin/netform_cli.exe -- games --names)
[ -n "$games" ] || { echo "game registry smoke: empty registry" >&2; exit 1; }
for game in $games; do
  for jobs in 1 4; do
    NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- annotate -n 5 --game "$game" \
      -o "$store_dir/${game}_j$jobs.csv" > /dev/null
    NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- store build -n 5 --chunk 8 \
      --game "$game" -o "$store_dir/${game}_j$jobs.nfs" --quiet
    dune exec bin/netform_cli.exe -- store verify "$store_dir/${game}_j$jobs.nfs"
  done
  cmp "$store_dir/${game}_j1.csv" "$store_dir/${game}_j4.csv"
  cmp "$store_dir/${game}_j1.nfs" "$store_dir/${game}_j4.nfs"
  echo "game registry smoke ($game): jobs=1 and jobs=4 annotate + store byte-identical"
  # Orbit-quotient parity: rerunning with the quotient disabled must
  # reproduce the same bytes — the quotient only skips provably repeated
  # toggles (DESIGN.md §11), so any drift here is a propagation bug.
  for jobs in 1 4; do
    NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- annotate -n 5 --game "$game" \
      --no-orbit-quotient -o "$store_dir/${game}_nq_j$jobs.csv" > /dev/null
    NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- store build -n 5 --chunk 8 \
      --game "$game" --no-orbit-quotient -o "$store_dir/${game}_nq_j$jobs.nfs" --quiet
    cmp "$store_dir/${game}_j$jobs.csv" "$store_dir/${game}_nq_j$jobs.csv"
    cmp "$store_dir/${game}_j$jobs.nfs" "$store_dir/${game}_nq_j$jobs.nfs"
  done
  echo "game registry smoke ($game): quotient on/off byte-identical (both pool widths)"
done

# Sharded-build acceptance: for every registered game at n=6 and both
# pool widths, a 3-way sharded build (each volume its own CLI process)
# merged back together must be byte-identical to the single-process
# store, and querying the shard directory must answer exactly like the
# merged file (checked through store export, which serializes every
# record the index serves).
echo "== sharded build smoke (3 shards, merge, cmp vs single-process; every game, both pool widths) =="
for game in $games; do
  for jobs in 1 4; do
    shard_dir="$store_dir/shards_${game}_j$jobs"
    mkdir -p "$shard_dir"
    for i in 1 2 3; do
      NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- store build -n 6 --chunk 16 \
        --game "$game" --shard $i/3 -o "$shard_dir/shard$i.nfs" --quiet
    done
    dune exec bin/netform_cli.exe -- store shards "$shard_dir" > /dev/null
    NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- store merge "$shard_dir" \
      -o "$store_dir/merged_${game}_j$jobs.nfs" --quiet
    dune exec bin/netform_cli.exe -- store verify "$store_dir/merged_${game}_j$jobs.nfs" > /dev/null
    NETFORM_JOBS=$jobs dune exec bin/netform_cli.exe -- store build -n 6 --chunk 16 \
      --game "$game" -o "$store_dir/single_${game}_j$jobs.nfs" --quiet
    cmp "$store_dir/single_${game}_j$jobs.nfs" "$store_dir/merged_${game}_j$jobs.nfs"
    # a directory of shard volumes must query exactly like the merged store
    dune exec bin/netform_cli.exe -- store export "$shard_dir" -o "$store_dir/dir_${game}_j$jobs.csv" > /dev/null
    dune exec bin/netform_cli.exe -- store export "$store_dir/merged_${game}_j$jobs.nfs" \
      -o "$store_dir/merged_${game}_j$jobs.csv" > /dev/null
    cmp "$store_dir/dir_${game}_j$jobs.csv" "$store_dir/merged_${game}_j$jobs.csv"
    rm -rf "$shard_dir"
  done
  cmp "$store_dir/merged_${game}_j1.nfs" "$store_dir/merged_${game}_j4.nfs"
  echo "sharded build smoke ($game): merge byte-identical to single-process build (both pool widths)"
done

# Serve smoke: for every registered game and both pool widths, start a
# netform serve daemon on the n=5 store the registry smoke built, drive
# it through the remote client path, and require every served answer to
# be byte-identical to the in-process one (both sides evaluate with the
# same Service, so these legs check the transport) — `query --remote --stable-at`
# against `query --stable-at` from below the first region endpoint to
# beyond the last (α = 1/2, 1, 3/2, 2, 5, 1000), figure CSV against
# `store query --figures --csv`, export against `store export`.  The
# daemon must then acknowledge the shutdown op, exit 0, and remove its
# socket.  The daemon is the built binary run directly (not through
# `dune exec`) so the backgrounded process never contends for dune's
# build lock.
echo "== serve smoke (daemon per game, remote vs in-process byte parity, both pool widths) =="
CLI=_build/default/bin/netform_cli.exe

# start_daemon STORE SOCK JOBS: serve STORE on SOCK in the background
# (pid in $srv) and wait for the socket
start_daemon() {
  NETFORM_JOBS=$3 "$CLI" serve "$1" --socket "$2" --quiet &
  srv=$!
  tries=0
  until [ -S "$2" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "serve smoke ($1): socket never appeared" >&2; exit 1; }
    sleep 0.1
  done
}

# stable_at_cmp STORE SOCK [QUERY OPTION...]: remote vs in-process
# stable-at, byte for byte, at every probe α
stable_at_cmp() {
  cmp_store=$1
  cmp_sock=$2
  shift 2
  for alpha in 1/2 1 3/2 2 5 1000; do
    "$CLI" query "$cmp_sock" --remote --stable-at "$alpha" "$@" > "$store_dir/serve_remote.txt"
    "$CLI" query "$cmp_store" --stable-at "$alpha" "$@" > "$store_dir/serve_local.txt"
    cmp "$store_dir/serve_remote.txt" "$store_dir/serve_local.txt"
  done
}

for game in $games; do
  for jobs in 1 4; do
    store="$store_dir/${game}_j$jobs.nfs"
    sock="$store_dir/serve_${game}_j$jobs.sock"
    start_daemon "$store" "$sock" "$jobs"
    stable_at_cmp "$store" "$sock"
    "$CLI" query "$sock" --remote --figures > "$store_dir/serve_figures_remote.csv"
    "$CLI" store query "$store" --figures --csv "$store_dir/serve_figures_local.csv" > /dev/null
    cmp "$store_dir/serve_figures_remote.csv" "$store_dir/serve_figures_local.csv"
    "$CLI" query "$sock" --remote --export > "$store_dir/serve_export_remote.csv"
    "$CLI" store export "$store" -o "$store_dir/serve_export_local.csv" > /dev/null
    cmp "$store_dir/serve_export_remote.csv" "$store_dir/serve_export_local.csv"
    "$CLI" query "$sock" --remote --health > /dev/null
    "$CLI" query "$sock" --remote --stats > /dev/null
    "$CLI" query "$sock" --remote --shutdown > /dev/null
    wait "$srv"
    [ ! -e "$sock" ] || { echo "serve smoke ($game): socket not removed on shutdown" >&2; exit 1; }
  done
  echo "serve smoke ($game): served answers byte-identical to in-process queries (both pool widths)"
done

# The same stable-at parity over a daemon serving a shard directory: a
# 3-way `store build --shard` of the n=6 dual BCG+UCG store, both games,
# the answers running across volumes.
shard_dir="$store_dir/serve_shards"
mkdir -p "$shard_dir"
for i in 1 2 3; do
  "$CLI" store build -n 6 --chunk 4 --game ucg --shard $i/3 -o "$shard_dir/shard$i.nfs" --quiet
done
sock="$store_dir/serve_shards.sock"
start_daemon "$shard_dir" "$sock" 4
stable_at_cmp "$shard_dir" "$sock" --game bcg
stable_at_cmp "$shard_dir" "$sock" --game ucg
"$CLI" query "$sock" --remote --shutdown > /dev/null
wait "$srv"
echo "serve smoke (shard directory): served stable-at byte-identical to in-process queries"

# Monte-Carlo PoA smoke: the large-n workload's cross-job determinism
# contract — the same seeded run under NETFORM_JOBS=1 and =4 must emit
# byte-identical CSV.  n=64 keeps the leg past the one-word ceiling
# (2-word rows) while staying a couple of seconds end to end.
echo "== mc-poa smoke (n=64, seeded, jobs=1 vs jobs=4 CSV byte parity) =="
for jobs in 1 4; do
  NETFORM_JOBS=$jobs "$CLI" mc-poa -n 64 --alpha 2 --trials 2 --seed 42 \
    --csv "$store_dir/mc_poa_j$jobs.csv" > /dev/null
done
cmp "$store_dir/mc_poa_j1.csv" "$store_dir/mc_poa_j4.csv"
echo "mc-poa smoke: jobs=1 and jobs=4 CSVs byte-identical"

# Monte-Carlo walk bytes: the jobs parity leg above cannot see a walk
# whose trajectory changed, so three seeded CSVs are pinned to golden
# md5s — one-word rows (n=40), two-word rows (n=64) and the benchmark's
# n=128 trials.
echo "== mc-poa golden CSVs (n=40/64/128, seeded) =="
for spec in "40 3 7 2c20d03856ac9fea2916010f566889e9" \
            "64 2 42 91cbc754492ac27cb5d9f6f257dcd463" \
            "128 2 1 4cc432c4c8ac90f7589da89762719571"; do
  set -- $spec
  out="$store_dir/mc_poa_n$1.csv"
  "$CLI" mc-poa -n "$1" --alpha "$2" --trials 4 --seed "$3" --csv "$out" > /dev/null
  sum=$(md5sum "$out" | cut -d' ' -f1)
  [ "$sum" = "$4" ] || { echo "mc-poa n=$1 CSV: md5 $sum, expected $4" >&2; exit 1; }
done
echo "mc-poa golden CSVs: n=40, 64 and 128 match"

# Full leg (opt-in, minutes of CPU): stream all of n=10 through a sharded
# split and check the connected-class count against OEIS A001349.
if [ "${NETFORM_COUNTS_FULL:-0}" = "1" ]; then
  echo "== full counts leg (n=10 sharded streaming count vs A001349) =="
  NETFORM_COUNTS_FULL=1 dune exec test/test_enum.exe -- -e sharding
fi

# Benchmark-worker smoke: perfbench/nfbench.ml calls Service, Server and
# Mmap_reader directly but has no runtest rule, so run every workload of
# the benchmark at toy sizes, traced and untraced, with its output checks.
echo "== perfbench smoke (every workload at toy sizes, outputs checked) =="
python3 perfbench/run.py --smoke

echo "== bench smoke pass (perf-trajectory JSON, jobs=4) =="
# experiments are NOT skipped: foot7_petersen_nash_set — the orbit
# quotient's flagship row — is guarded by bench_check and must be in
# the fresh report
bench_json="BENCH_$(date +%Y%m%d_%H%M%S).json"
NETFORM_JOBS=4 NETFORM_BENCH_QUICK=1 \
  NETFORM_BENCH_JSON="$bench_json" dune exec bench/main.exe

echo "== bench regression guard (vs scripts/bench_baseline.json) =="
scripts/bench_check.sh "$bench_json"

echo "ci.sh: all green"
