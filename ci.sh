#!/usr/bin/env sh
# One-command CI gate: build, full test suite, then the two release-mode
# shape gates (paper figures + fault-recovery). Each gate exits non-zero
# on violation, so `./ci.sh` failing means a real regression.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# The vendored offline stand-ins (crates/rand, crates/proptest,
# crates/criterion) are workspace members and held to the same bar.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
# Broken intra-doc links and public docs that link private items fail
# the build, like clippy warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> cargo test --manifest-path perfbench/Cargo.toml"
# The benchmark package is its own workspace. Its small-strip traced run
# checks engine `radio.rx` against the counts the beacons kept themselves
# and the traced run against the untraced EngineStamp, which guards the
# scan-path neighbor queries on every CI run.
cargo test --manifest-path perfbench/Cargo.toml --quiet

echo "==> paper shape gate (validate_shapes quick)"
cargo run --release -p blackdp-bench --bin validate_shapes -- quick

echo "==> fault-recovery gate (faults quick)"
cargo run --release -p blackdp-bench --bin faults -- quick

echo "==> perf regression gate (perf smoke)"
# Covers the PR-2 hot paths plus the PR-7 raw-speed track: batch Schnorr
# verification, multi-lane SHA-256, and the zero-allocs-per-event probe.
cargo run --release -p blackdp-bench --bin perf -- smoke
for bench in results/BENCH_pr2.json results/BENCH_pr7.json; do
    if [ ! -f "$bench" ]; then
        echo "ci.sh: $bench missing after perf run" >&2
        exit 1
    fi
done

echo "==> shard scaling gate (scale smoke)"
# N = 100,000 events/s vs shard count: the sharded backend must land on
# the serial oracle's exact EngineStamp/Stats witnesses, beat it by ≥ 3x
# (rebuild avoidance is algorithmic — it must hold on one core), keep a
# non-collapsing scaling curve, and push cross-band sealed envelopes
# through batch-width boundary audits with zero failures.
cargo run --release -p blackdp-bench --bin scale -- smoke
if [ ! -f results/BENCH_pr8.json ]; then
    echo "ci.sh: results/BENCH_pr8.json missing after scale run" >&2
    exit 1
fi

echo "==> envelope-memo gate (exec smoke)"
# At N = 100,000 on platoon-relay beacons, verifying through the
# process-global envelope memo must finish on the exact EngineStamp and
# Stats digest of scalar inline verification in every round, beat it by
# >= 2x on event-execution throughput (median of paired rounds), and
# see zero verification failures on honest traffic.
cargo run --release -p blackdp-bench --bin exec -- smoke
if [ ! -f results/BENCH_pr10.json ]; then
    echo "ci.sh: results/BENCH_pr10.json missing after exec run" >&2
    exit 1
fi

echo "==> bench trend summary"
# Read-only roll-up of every results/BENCH_pr*.json into one table.
cargo run --release -p blackdp-bench --bin trend

echo "==> fuzz / trace-oracle gate (fuzz smoke)"
cargo run --release -p blackdp-bench --bin fuzz -- smoke

echo "==> crash-resume gate (sweepd smoke)"
# SIGKILLs every worker once mid-batch, then the orchestrator itself
# mid-campaign, and requires the resumed merged output to be
# byte-identical to the uninterrupted serial oracle.
cargo run --release -p blackdp-bench --bin sweepd -- smoke

echo "==> live testbed gate (testbed smoke)"
# Eight real `blackdpd` processes on loopback UDP — TA, RSU, five honest
# vehicles, one black-hole attacker — provisioned over live enrollment
# and run end-to-end at 10x compressed wall time. Fails unless the
# attacker is confirmed, its certificate revoked, AND the canonical
# verdicts match a discrete-event simulator run of the same scenario
# through the trace oracle.
cargo run --release -p blackdp-daemon --bin testbed -- smoke

echo "==> ci.sh: all gates passed"
