#!/usr/bin/env bash
# Full local CI: format, lint, build, test.
#
# Everything runs offline against the vendored dependency subsets; no
# network access is required. The test suite runs twice — once with
# GPM_THREADS=1 (serial paths) and once with GPM_THREADS=2 (worker pool) —
# because the parallel engine guarantees bit-identical results for any
# pool width and both halves of that promise must stay covered.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> GPM_THREADS=1 cargo test --workspace"
GPM_THREADS=1 cargo test --workspace --quiet

echo "==> GPM_THREADS=2 cargo test --workspace"
GPM_THREADS=2 cargo test --workspace --quiet

# The fault-injection substrate promises pool-width-independent, seeded
# determinism on the manager control path; run its test group explicitly
# under both widths so the seam tests cannot silently drop out of the
# workspace filter, and lint the new crate at zero-warning strictness.
echo "==> fault substrate: tests under two pool widths + clippy -D warnings"
GPM_THREADS=1 cargo test --quiet --test fault_recovery --test fault_invariants
GPM_THREADS=2 cargo test --quiet --test fault_recovery --test fault_invariants
cargo clippy -p gpm-faults --all-targets -- -D warnings

# The exact branch-and-bound behind MaxBIPS promises bit-identical
# decisions to the exhaustive scan; run its equivalence group explicitly
# under both pool widths (the chunked reference scan and the 16-way run
# ride the worker pool), plus the policy unit tests (solver, decision
# cache keys, hierarchical promote pass) under a serial and a saturated
# pool — the solver's scratch memory is per thread — and lint the
# solver's crate at zero-warning strictness.
echo "==> solver: equivalence + policy unit tests under two pool widths + clippy -D warnings"
GPM_THREADS=1 cargo test --quiet --test solver_equivalence
GPM_THREADS=2 cargo test --quiet --test solver_equivalence
GPM_THREADS=1 cargo test --quiet -p gpm-core --lib policy::
GPM_THREADS=8 cargo test --quiet -p gpm-core --lib policy::
cargo clippy -p gpm-core --all-targets -- -D warnings

# The core stepping engine promises captured traces bit-identical to the
# pre-overhaul goldens (12 benchmarks x 3 modes, instruction- and
# duration-limited) and interval statistics independent of how ops are
# delivered, for any pool width; the capture unit tests add traces that
# do not depend on the lockstep op-window length. Run both groups under a
# serial and a saturated pool, and lint the core-model crate at
# zero-warning strictness.
echo "==> stepping engine: step_equivalence (trace goldens, delivery shape) + gpm-trace unit tests under two pool widths + clippy -D warnings"
GPM_THREADS=1 cargo test --quiet --test step_equivalence
GPM_THREADS=8 cargo test --quiet --test step_equivalence
GPM_THREADS=1 cargo test --quiet -p gpm-trace --lib
GPM_THREADS=8 cargo test --quiet -p gpm-trace --lib
cargo clippy -p gpm-microarch --all-targets -- -D warnings

# The cluster-sharded drive promises K=1/zero-interconnect bit-identity
# with the flat path and a scheduling-independent 64-way golden hash;
# run the hierarchical equivalence group (flat goldens, 64-way sharded
# golden across thread counts, arbiter conservation proptest) under a
# serial and a saturated pool, and lint the simulator crate at
# zero-warning strictness.
echo "==> hierarchical tier: hier_equivalence under two pool widths + clippy -D warnings"
GPM_THREADS=1 cargo test --quiet --test hier_equivalence
GPM_THREADS=8 cargo test --quiet --test hier_equivalence
cargo clippy -p gpm-cmp --all-targets -- -D warnings

# The fleet-mode decision engine promises bit-identical cached decisions
# under exact keying (memoized solves, CachedMaxBips manager runs) and a
# pool-width-independent tick protocol (dedup groups, residual misses over
# the worker pool, serial insert replay); run its equivalence group under
# a serial and a saturated pool and lint every crate the engine touches at
# zero-warning strictness (gpm-core is already linted above).
echo "==> fleet engine: fleet_equivalence under two pool widths + clippy -D warnings"
GPM_THREADS=1 cargo test --quiet --test fleet_equivalence
GPM_THREADS=8 cargo test --quiet --test fleet_equivalence

# The fleet fault-tolerance layer promises three things that must stay
# pinned: a chaos-armed engine with a never-firing plan is bit-identical
# to the plain engine, any windowed fault schedule recovers to a steady
# tick with pool-width-independent decisions, and checkpoint/restore
# through JSON resumes bit-identically at every pool width.
echo "==> fleet chaos: fleet_chaos under two pool widths"
GPM_THREADS=1 cargo test --quiet --test fleet_chaos
GPM_THREADS=8 cargo test --quiet --test fleet_chaos
cargo clippy -p gpm-types --all-targets -- -D warnings
cargo clippy -p gpm-experiments --all-targets -- -D warnings
cargo clippy -p gpm-cli --all-targets -- -D warnings

# The fleet service promises wire-level determinism: per-node decision
# streams bit-identical across shard counts, pool widths and transports,
# corrupt frames rejected with named errors instead of panics, and
# checkpoint/restore continuing bit-identically through the sharded
# front. Run the equivalence group under a serial and a saturated pool
# and lint the wire crate at zero-warning strictness.
echo "==> fleet service: serve_equivalence under two pool widths + clippy -D warnings"
GPM_THREADS=1 cargo test --quiet --test serve_equivalence
GPM_THREADS=8 cargo test --quiet --test serve_equivalence
cargo clippy -p gpm-net --all-targets -- -D warnings

# Loopback serve smoke: `gpm serve` + `gpm loadgen` must keep running end
# to end from the CLI over both transports — a Unix socket under a serial
# pool and TCP under a saturated pool. `--once` exits the server after the
# client disconnects; the retry loop absorbs bind latency.
serve_smoke() {
    local threads="$1" listen="$2" connect="$3"
    echo "==> GPM_THREADS=$threads gpm serve --listen $listen + loadgen smoke"
    GPM_THREADS="$threads" cargo run --release --quiet -p gpm-cli -- \
        serve --listen "$listen" --shards 2 --once > /dev/null &
    local server_pid=$!
    local attempt
    for attempt in $(seq 1 50); do
        if GPM_THREADS="$threads" cargo run --release --quiet -p gpm-cli -- \
            loadgen --connect "$connect" --nodes 64 --ticks 4 --shutdown \
            > /dev/null 2>&1; then
            break
        fi
        if [ "$attempt" -eq 50 ]; then
            echo "serve smoke: loadgen never connected to $connect" >&2
            kill "$server_pid" 2> /dev/null || true
            return 1
        fi
        sleep 0.1
    done
    wait "$server_pid"
}
GPM_SERVE_SOCK="$(mktemp -u /tmp/gpm-ci-serve.XXXXXX.sock)"
serve_smoke 1 "unix:$GPM_SERVE_SOCK" "unix:$GPM_SERVE_SOCK"
rm -f "$GPM_SERVE_SOCK"
serve_smoke 8 "tcp:127.0.0.1:47391" "tcp:127.0.0.1:47391"

# 16-way wide-CMP smoke: the scaling tier must keep running end to end
# from the CLI (exact MaxBIPS vs greedy on a 3^16 search space).
echo "==> gpm figure wide --cores 16 --fast"
cargo run --release --quiet -p gpm-cli -- figure wide --cores 16 --fast > /dev/null

# 64-way hierarchical smoke: the cluster-sharded drive plus the two-level
# HierMaxBips must keep running end to end from the CLI.
echo "==> gpm figure wide --cores 64 --fast"
cargo run --release --quiet -p gpm-cli -- figure wide --cores 64 --fast > /dev/null

# Fleet smoke: the saturating-load tier (decision cache + within-tick
# dedup over replayed phase telemetry) must keep running end to end from
# the CLI.
echo "==> gpm figure fleet --nodes 64 --fast"
cargo run --release --quiet -p gpm-cli -- figure fleet --nodes 64 --fast > /dev/null

# Fleet chaos smoke: the fault-injection tier (per-fault-class recovery
# time, worst rack overshoot, longest violation run) must keep running
# end to end from the CLI, fault grammar included.
echo "==> gpm figure fleet --faults ... --nodes 64 --fast"
cargo run --release --quiet -p gpm-cli -- figure fleet --nodes 64 --fast \
    --faults 'flap@0+8:period=4,down=2,from=2,to=8;corrupt:rate=0.5,to=8;timeout:rate=0.3,to=8' \
    --fault-seed 7 > /dev/null

# Smoke-run the throughput baseline (including the full-CMP two-phase
# cases, the capture cases and the policy-decide latency cases) so the bench target cannot bit-rot;
# GPM_BENCH_QUICK bounds the run and failure means panic, not
# regression.
echo "==> GPM_BENCH_QUICK=1 cargo bench -p gpm-bench --bench sim_throughput"
GPM_BENCH_QUICK=1 cargo bench -p gpm-bench --bench sim_throughput

# The repository benchmark is its own cargo workspace building against
# the library crates by path; run its tests so a library API change
# cannot break the benchmark unnoticed.
echo "==> cargo test --offline --manifest-path perfbench/Cargo.toml"
cargo test --offline --manifest-path perfbench/Cargo.toml --quiet

# Gate the recorded benchmark trajectory: any before/after speedup row
# in BENCH_sim_throughput.json below 0.95 (a >5% regression against its
# recorded baseline, beyond best-of-N noise) fails CI, as does a missing
# required row (the 64-way sharding comparison, the 256-way hierarchical
# decide latency). Tune with --floor; see the methodology block in that
# file.
echo "==> scripts/bench_check.py"
python3 scripts/bench_check.py

echo "CI OK"
