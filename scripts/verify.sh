#!/usr/bin/env sh
# Tier-1 verification, hermetic: build + test the whole workspace with no
# registry access. Any dependency leak outside the tree fails here first.
#
# Usage: scripts/verify.sh [--with-benches]
#
# Knobs:
#   SOI_TESTKIT_SEED=0x...   re-seed every property suite (default fixed)
#   SOI_TESTKIT_CASES=N      override per-property case counts
#   SOI_TESTKIT_REPLAY=0x... replay exactly one reported failing case

set -eu

cd "$(dirname "$0")/.."

# Temp files of the smokes below, and the serve smoke's daemon: one trap
# removes the files and stops the daemon on every exit, so a step that
# fails under `set -eu` leaves neither behind.
tmp="${TMPDIR:-/tmp}"
trace_file="$tmp/soi-verify-trace.$$.jsonl"
wire_trace="$tmp/soi-verify-wire.$$.jsonl"
fault_trace="$tmp/soi-verify-fault.$$.jsonl"
serve_log="$tmp/soi-verify-serve.$$.log"
serve_pid=""
cleanup() {
    if [ -n "$serve_pid" ]; then
        kill "$serve_pid" 2>/dev/null || true
    fi
    rm -f "$trace_file" "$wire_trace" "$fault_trace" "$serve_log"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM

echo "==> guard: [workspace.dependencies] must contain only path dependencies"
leaks="$(sed -n '/^\[workspace\.dependencies\]/,/^\[/p' Cargo.toml | grep -E '"[0-9]' || true)"
if [ -n "$leaks" ]; then
    echo "ERROR: registry dependency found in [workspace.dependencies]:" >&2
    echo "$leaks" >&2
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> one copy: each soi-fft engine function is compiled once into the release binary"
# The engines are concrete over Complex64, so each is compiled once, in
# soi-fft. A type parameter brought back onto one of them would make
# every calling crate compile its own copy again (nm lists each copy
# under the same demangled name); closures are set aside.
if command -v nm >/dev/null 2>&1; then
    engines='plan::Plan|plan::Planner|batch::BatchFft|stockham::StockhamFft|mixed::MixedRadixFft'
    engines="$engines|fourstep::FourStepFft|fourstep::RawFft|bluestein::BluesteinFft|simd"
    dups="$(nm -C target/release/soi \
        | sed -n 's/^[0-9a-f]* [tTwW] //p' \
        | grep -E "^soi_fft::($engines)(<[^>]*>)?::" \
        | grep -v '{{closure}}' \
        | sort | uniq -d)"
    if [ -n "$dups" ]; then
        echo "ERROR: compiled more than once into target/release/soi:" >&2
        echo "$dups" >&2
        exit 1
    fi
else
    echo "    skipped: nm not found"
fi

echo "==> cargo test -q --offline (root package: tier-1)"
cargo test -q --offline

echo "==> cargo test -q --offline --workspace (every crate)"
cargo test -q --offline --workspace

echo "==> rustdoc link check: no doc link may point at a deleted or private item"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --no-deps --workspace --lib --offline

echo "==> clippy: deny-by-default lints (warnings are reported, not fatal)"
cargo clippy --workspace --all-targets --offline

echo "==> perfbench's own tests (both workloads at N=2^12, traced and untraced)"
# The benchmark is a package of its own; its tests fail on a missing
# trace span, a negative phase residual or a library API it can no
# longer compile against, which otherwise only shows when it runs.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> determinism: two property-suite runs must exercise identical streams"
run_props() {
    cargo test -q --offline --test properties 2>&1 \
        | grep -E "^test result" | sed 's/; finished in.*//' || true
}
a="$(run_props)"
b="$(run_props)"
if [ "$a" != "$b" ]; then
    echo "ERROR: property suite results differ between consecutive runs" >&2
    echo "run 1: $a" >&2
    echo "run 2: $b" >&2
    exit 1
fi

echo "==> traced pipeline smoke: simulate --trace, then the conservation validator"
cargo run --release --offline -q -p soi-cli --bin soi -- \
    simulate --nodes 2 --points 2048 --fabric ethernet --trace "$trace_file"
cargo run --release --offline -q -p soi-cli --bin soi -- \
    trace-check --file "$trace_file"

echo "==> out-of-process smoke: 4-rank soi launch over localhost + trace-check"
# Hard timeout: a transport regression must fail loudly, never hang the
# verification run. (Workers carry their own per-op deadlines too.)
if command -v timeout >/dev/null 2>&1; then launch_to="timeout 120"; else launch_to=""; fi
$launch_to cargo run --release --offline -q -p soi-cli --bin soi -- \
    launch --ranks 4 --n 65536 --p 8 --trace "$wire_trace"
cargo run --release --offline -q -p soi-cli --bin soi -- \
    trace-check --file "$wire_trace"

echo "==> fault smoke: kill rank 1 at boundary 3, recover, trace-check the capture"
# The worker aborts itself mid-run; the launcher must detect the death,
# respawn the rank into epoch 1, replay from checkpoints, and still
# produce a conservation-valid merged trace (with rejoin markers) and a
# bitwise-correct spectrum — all inside the hard timeout.
SOI_FAULT_PHASE=3 $launch_to cargo run --release --offline -q -p soi-cli --bin soi -- \
    launch --ranks 4 --n 65536 --p 8 --trace "$fault_trace"
cargo run --release --offline -q -p soi-cli --bin soi -- \
    trace-check --file "$fault_trace"

echo "==> serve smoke: daemon on an ephemeral port, mixed verified requests, clean shutdown"
# The background job opens its redirect asynchronously; create the log
# first so the poll below never reads a missing file (a failing `sed`
# would end the script under `set -e`).
: > "$serve_log"
./target/release/soi serve --addr 127.0.0.1:0 --threads 2 > "$serve_log" 2>&1 &
serve_pid=$!
# The daemon prints `serve    : listening on <addr>` once bound; poll for it.
serve_addr=""
i=0
while [ $i -lt 100 ]; do
    serve_addr="$(sed -n 's/^serve    : listening on //p' "$serve_log")"
    [ -n "$serve_addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "ERROR: soi serve exited before binding:" >&2
        cat "$serve_log" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$serve_addr" ]; then
    echo "ERROR: soi serve never reported its listen address" >&2
    cat "$serve_log" >&2
    exit 1
fi
# Every kind the protocol carries, each response checked bitwise against a
# locally computed reference; then a stats snapshot and a clean shutdown.
$launch_to ./target/release/soi request --addr "$serve_addr" \
    --n 16384 --p 4 --digits 10 --count 2 --check 1
$launch_to ./target/release/soi request --addr "$serve_addr" \
    --n 16384 --p 4 --digits 10 --segment 2 --check 1
$launch_to ./target/release/soi request --addr "$serve_addr" \
    --n 16384 --p 4 --digits 10 --band 1234 --check 1
$launch_to ./target/release/soi request --addr "$serve_addr" \
    --n 16384 --p 4 --digits 10 --input real --check 1
$launch_to ./target/release/soi request --addr "$serve_addr" \
    --n 16384 --p 4 --digits 10 --input real --band 777 --check 1
$launch_to ./target/release/soi serve --stats "$serve_addr"
$launch_to ./target/release/soi request --addr "$serve_addr" --shutdown 1
wait "$serve_pid"
serve_pid=""

echo "==> cargo build --release --offline -p soi-bench --benches"
cargo build --release --offline -p soi-bench --benches

echo "==> kernel perf gate vs committed BENCH_kernels.json"
if [ "${SOI_PERF_SKIP:-0}" = "1" ]; then
    echo "    skipped (SOI_PERF_SKIP=1)"
else
    # Non-blocking by default; SOI_PERF_STRICT=1 turns regressions into
    # failures. SOI_PERF_SKIP=1 skips the measurement entirely (used by
    # CI, which runs the gate as its own visible step).
    sh scripts/perf_gate.sh
fi

if [ "${1:-}" = "--with-benches" ]; then
    echo "==> smoke-run the harness-free benches (quick settings, small N)"
    # The *_OUT overrides park smoke-quality outputs in target/ so the
    # committed BENCH_*.json baselines are never overwritten by a smoke
    # run (refresh BENCH_kernels.json with
    # `cargo bench --offline -p soi-bench --bench kernel_report`).
    mkdir -p target/bench_smoke
    SOI_BENCH_SAMPLES=3 SOI_BENCH_WARMUP_MS=2 SOI_BENCH_TARGET_MS=2 \
    SOI_BENCH_FAULT_N=16384 SOI_BENCH_FAULT_SAMPLES=1 \
    SOI_BENCH_KERNELS_OUT="$PWD/target/bench_smoke/BENCH_kernels.json" \
    SOI_BENCH_FAULTS_OUT="$PWD/target/bench_smoke/BENCH_faults.json" \
        cargo bench --offline -p soi-bench
fi

echo "==> verify OK"
