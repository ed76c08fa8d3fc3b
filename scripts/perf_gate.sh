#!/usr/bin/env sh
# Performance gate: re-measure and compare against the committed
# baselines.
#
#   * pipeline phases — one traced serial pass at the baseline's N,
#     per-phase total_ns vs BENCH_pipeline.json; a phase whose baseline
#     is under 0.1 ms (the few-KB wrap-buffer "halo") is reported but
#     not compared, since a percentage bound on microseconds is noise
#   * kernel report — per-engine ns_per_point vs BENCH_kernels.json
#     (dispatch-dependent rows that exist only on some hosts, e.g. the
#     portable-conv ablation row, are skipped when absent)
#
# Usage: scripts/perf_gate.sh
#
# Knobs:
#   SOI_PERF_TOL=25      allowed regression per phase / per kernel, percent
#   SOI_PERF_STRICT=0    1 = exit non-zero on regression (default: report only,
#                        so CI stays green on noisy runners while the report
#                        is still visible in the log)
#   SOI_PERF_FRESH=...   path for the fresh pipeline measurement
#                        (default target/perf_gate/BENCH_pipeline.json)
#   SOI_PERF_KERNELS_FRESH=...  path for the fresh kernel measurement
#                        (default target/perf_gate/BENCH_kernels.json)
#   SOI_PERF_SERVE_FRESH=...  path for the fresh serve measurement
#                        (default target/perf_gate/BENCH_serve.json)
#   SOI_BENCH_SAMPLES    forwarded to the bench timer (default here: 5,
#                        lighter than the committed-baseline runs)
#
# Fresh runs write to scratch files via SOI_BENCH_*_OUT, never to the
# committed baselines they are compared against. If a baseline was
# recorded at a different N (e.g. a smoke-size override), that comparison
# is skipped with a notice instead of producing nonsense percentages.

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

# top-level integer field, e.g. `"n": 1048576`
field() {
    sed -n 's/^  "'"$2"'": \([0-9][0-9]*\).*/\1/p' "$1" | head -n 1
}

check_report() {
    # $1 = section label; $2 = optional floor: rows whose baseline is
    # below it are reported but not compared; stdin = merged
    # "B key value" / "F key value" lines
    report="$(awk -v tol="$TOL" -v floor="${2:-0}" '
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
                if (base[p] < floor) {
                    printf "  %-24s %14s %14s %9s\n", p, base[p], fresh[p], "not gated"
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

# --- pipeline phase gate ---------------------------------------------------

BASE="BENCH_pipeline.json"
FRESH="${SOI_PERF_FRESH:-target/perf_gate/BENCH_pipeline.json}"
# cargo runs bench executables with cwd = the package dir, so hand the
# bench an absolute output path.
case "$FRESH" in /*) ;; *) FRESH="$PWD/$FRESH" ;; esac

if [ ! -f "$BASE" ]; then
    echo "perf-gate: no committed $BASE baseline; pipeline comparison skipped"
else
    mkdir -p "$(dirname "$FRESH")"
    echo "==> perf-gate: fresh phase measurement (writes $FRESH)"
    SOI_BENCH_PIPELINE_OUT="$FRESH" SOI_BENCH_PIPELINE_ONLY=1 \
    SOI_BENCH_SAMPLES="$SAMPLES" \
        cargo bench --offline -q -p soi-bench --bench soi_pipeline

    bn="$(field "$BASE" n)"
    fn="$(field "$FRESH" n)"
    if [ "$bn" != "$fn" ]; then
        echo "perf-gate: baseline N=$bn != fresh N=$fn; pipeline comparison skipped"
    else
        # `{"phase":"conv","total_ns":53805135}` -> `conv 53805135`, with
        # rows inside the `real_phases_ns` array prefixed `real_` so the
        # r2c pipeline's phases (same names) don't collide with the
        # complex ones.
        phases() {
            awk '
                /"real_phases_ns":/ { pre = "real_" }
                /^  "phases_ns":/   { pre = "" }
                match($0, /"phase":"[a-z_]*","total_ns":[0-9]*/) {
                    s = substr($0, RSTART, RLENGTH)
                    gsub(/"phase":"|","total_ns":/, " ", s)
                    split(s, f, " ")
                    print pre f[1], f[2]
                }' "$1"
        }
        # Worker-scaling medians from `results` / `real_results`:
        # `{"workers":1,"median_ns":24046731.0,...}` -> `into_w1 24046731`.
        # The real rows gate the r2c headline: if `real_into_w1` regresses
        # past tolerance while `into_w1` holds, the r2c speedup fell.
        medians() {
            awk '
                /"results": \[/      { pre = "into_w" }
                /"real_results": \[/ { pre = "real_into_w" }
                pre != "" && match($0, /"workers":[0-9]*,"median_ns":[0-9.]*/) {
                    s = substr($0, RSTART, RLENGTH)
                    gsub(/"workers":|"median_ns":/, "", s)
                    split(s, f, ",")
                    printf "%s%s %d\n", pre, f[1], f[2]
                }' "$1"
        }
        {
            phases "$BASE" | sed 's/^/B /'
            medians "$BASE" | sed 's/^/B /'
            phases "$FRESH" | sed 's/^/F /'
            medians "$FRESH" | sed 's/^/F /'
        } > "$ROWS"
        check_report pipeline 100000 < "$ROWS"
    fi
fi

# --- kernel report gate ----------------------------------------------------

KBASE="BENCH_kernels.json"
KFRESH="${SOI_PERF_KERNELS_FRESH:-target/perf_gate/BENCH_kernels.json}"
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

# --- dist transport gate ---------------------------------------------------

DBASE="BENCH_dist.json"
DFRESH="${SOI_PERF_DIST_FRESH:-target/perf_gate/BENCH_dist.json}"
case "$DFRESH" in /*) ;; *) DFRESH="$PWD/$DFRESH" ;; esac

if [ ! -f "$DBASE" ]; then
    echo "perf-gate: no committed $DBASE baseline; dist comparison skipped"
else
    mkdir -p "$(dirname "$DFRESH")"
    echo "==> perf-gate: fresh dist measurement (writes $DFRESH)"
    SOI_BENCH_DIST_OUT="$DFRESH" \
        cargo bench --offline -q -p soi-bench --bench soi_dist

    bn="$(sed -n 's/.*"n": \([0-9][0-9]*\).*/\1/p' "$DBASE" | head -n 1)"
    fn="$(sed -n 's/.*"n": \([0-9][0-9]*\).*/\1/p' "$DFRESH" | head -n 1)"
    if [ "$bn" != "$fn" ]; then
        echo "perf-gate: baseline N=$bn != fresh N=$fn; dist comparison skipped"
    else
        # All-to-all rows: `{"...","bytes_per_rank":65536,"wire_ns_per_op":...}`
        #   -> `a2a_wire/65536 <ns>`; plus the overlap acceptance metric —
        # wire end-to-end `exchange + fft_large` seconds summed into one row.
        dist_rows() {
            sed -n 's/.*"bytes_per_rank":\([0-9][0-9]*\),"wire_ns_per_op":\([0-9][0-9]*\).*/a2a_wire\/\1 \2/p' "$1"
            awk 'match($0, /"wire_phases_s": *{[^}]*}/) {
                s = substr($0, RSTART, RLENGTH)
                ex = fl = -1
                if (match(s, /"exchange":[0-9.]+/))
                    ex = substr(s, RSTART + 11, RLENGTH - 11)
                if (match(s, /"fft_large":[0-9.]+/))
                    fl = substr(s, RSTART + 12, RLENGTH - 12)
                if (ex >= 0 && fl >= 0) printf "exchange+fft_large %.6f\n", ex + fl
            }' "$1"
        }
        { dist_rows "$DBASE" | sed 's/^/B /'; dist_rows "$DFRESH" | sed 's/^/F /'; } > "$ROWS"
        check_report dist < "$ROWS"
    fi
fi

# --- serve latency gate ----------------------------------------------------

SBASE="BENCH_serve.json"
SFRESH="${SOI_PERF_SERVE_FRESH:-target/perf_gate/BENCH_serve.json}"
case "$SFRESH" in /*) ;; *) SFRESH="$PWD/$SFRESH" ;; esac

if [ ! -f "$SBASE" ]; then
    echo "perf-gate: no committed $SBASE baseline; serve comparison skipped"
else
    mkdir -p "$(dirname "$SFRESH")"
    echo "==> perf-gate: fresh serve measurement (writes $SFRESH)"
    SOI_BENCH_SERVE_OUT="$SFRESH" \
        cargo bench --offline -q -p soi-bench --bench serve_load

    bn="$(field "$SBASE" n)"
    fn="$(field "$SFRESH" n)"
    if [ "$bn" != "$fn" ]; then
        echo "perf-gate: baseline N=$bn != fresh N=$fn; serve comparison skipped"
    else
        # Load-ladder rows
        #   `{"x":0.5,...,"p50_us":10393,"p99_us":22257,...}`
        #     -> `serve_p50/0.5 10393` and `serve_p99/0.5 22257`
        # plus the batching ablation as `unbatched_over_batched` (the
        # inverse throughput ratio, so losing the batching win shows up
        # as an *increase* and trips the same one-sided tolerance).
        serve_rows() {
            sed -n 's/.*"x":\([0-9.]*\),[^}]*"p50_us":\([0-9.]*\).*/serve_p50\/\1 \2/p' "$1"
            sed -n 's/.*"x":\([0-9.]*\),[^}]*"p99_us":\([0-9.]*\).*/serve_p99\/\1 \2/p' "$1"
            sed -n 's/.*"unbatched_over_batched": \([0-9.]*\).*/unbatched_over_batched \1/p' "$1"
        }
        { serve_rows "$SBASE" | sed 's/^/B /'; serve_rows "$SFRESH" | sed 's/^/F /'; } > "$ROWS"
        check_report serve < "$ROWS"
    fi
fi

# --- verdict ---------------------------------------------------------------

if [ -n "$FAILED" ]; then
    if [ "$STRICT" = "1" ]; then
        echo "perf-gate: FAIL (SOI_PERF_STRICT=1):$FAILED"
        exit 1
    fi
    echo "perf-gate: non-blocking regressions in:$FAILED (set SOI_PERF_STRICT=1 to enforce)"
fi
