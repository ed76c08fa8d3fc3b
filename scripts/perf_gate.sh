#!/usr/bin/env sh
# Performance gate: re-measure the kernel report and compare it against
# the committed BENCH_kernels.json baseline, per-engine ns_per_point
# (dispatch-dependent rows that exist only on some hosts, e.g. the
# portable-conv ablation row, are skipped when absent).
#
# The pipeline, distributed and serve layers are measured by the
# repository benchmark, `perfbench` (see BENCHMARK.json), not here.
#
# Usage: scripts/perf_gate.sh
#
# Knobs:
#   SOI_PERF_TOL=25      allowed regression per kernel, percent
#   SOI_PERF_STRICT=0    1 = exit non-zero on regression (default: report only,
#                        so CI stays green on noisy runners while the report
#                        is still visible in the log)
#   SOI_PERF_KERNELS_FRESH=...  path for the fresh kernel measurement
#                        (default target/perf_gate/BENCH_kernels.json)
#   SOI_BENCH_SAMPLES    forwarded to the bench timer (default here: 5,
#                        lighter than the committed-baseline runs)
#
# The fresh run writes to a scratch file via SOI_BENCH_KERNELS_OUT, never
# to the committed baseline it is compared against.

set -eu
cd "$(dirname "$0")/.."

TOL="${SOI_PERF_TOL:-25}"
STRICT="${SOI_PERF_STRICT:-0}"
SAMPLES="${SOI_BENCH_SAMPLES:-5}"
FAILED=""
# Rows for check_report go through a file, not a pipe: a function at the
# end of a pipe runs in a subshell, and its FAILED would be lost.
ROWS="$(mktemp)"
trap 'rm -f "$ROWS"' EXIT

check_report() {
    # $1 = section label; stdin = merged "B key value" / "F key value" lines
    report="$(awk -v tol="$TOL" '
        $1 == "B" { base[$2] = $3; order[n++] = $2 }
        $1 == "F" { fresh[$2] = $3 }
        END {
            printf "  %-24s %14s %14s %9s\n", "name", "baseline", "fresh", "delta"
            bad = ""
            for (i = 0; i < n; i++) {
                p = order[i]
                if (!(p in fresh)) {
                    printf "  %-24s %14s %14s %9s\n", p, base[p], "-", "skipped"
                    continue
                }
                d = (fresh[p] - base[p]) / base[p] * 100
                printf "  %-24s %14s %14s %+8.1f%%\n", p, base[p], fresh[p], d
                if (d > tol) bad = bad " " p
            }
            if (bad != "") printf "REGRESSION:%s\n", bad
        }')"
    echo "$report"
    if echo "$report" | grep -q "^REGRESSION:"; then
        echo "perf-gate[$1]: entries above the ${TOL}% tolerance"
        FAILED="$FAILED $1"
    else
        echo "perf-gate[$1]: OK — everything within ${TOL}% of the baseline"
    fi
}

# --- kernel report gate ----------------------------------------------------

KBASE="BENCH_kernels.json"
KFRESH="${SOI_PERF_KERNELS_FRESH:-target/perf_gate/BENCH_kernels.json}"
# cargo runs bench executables with cwd = the package dir, so hand the
# bench an absolute output path.
case "$KFRESH" in /*) ;; *) KFRESH="$PWD/$KFRESH" ;; esac

if [ ! -f "$KBASE" ]; then
    echo "perf-gate: no committed $KBASE baseline; kernel comparison skipped"
else
    mkdir -p "$(dirname "$KFRESH")"
    echo "==> perf-gate: fresh kernel measurement (writes $KFRESH)"
    SOI_BENCH_KERNELS_OUT="$KFRESH" SOI_BENCH_SAMPLES="$SAMPLES" \
        cargo bench --offline -q -p soi-bench --bench kernel_report

    # `{"kernel":"stockham","n":16384,...,"ns_per_point":6.885,...}`
    #   -> `stockham/16384 6.885`
    kernels() {
        sed -n 's/.*"kernel":"\([^"]*\)","n":\([0-9][0-9]*\)[^}]*"ns_per_point":\([0-9.]*\).*/\1\/\2 \3/p' "$1"
    }
    { kernels "$KBASE" | sed 's/^/B /'; kernels "$KFRESH" | sed 's/^/F /'; } > "$ROWS"
    check_report kernels < "$ROWS"
fi

# --- verdict ---------------------------------------------------------------

if [ -n "$FAILED" ]; then
    if [ "$STRICT" = "1" ]; then
        echo "perf-gate: FAIL (SOI_PERF_STRICT=1):$FAILED"
        exit 1
    fi
    echo "perf-gate: non-blocking regressions in:$FAILED (set SOI_PERF_STRICT=1 to enforce)"
fi
