//! Kernel microbench: per-engine ns/point and nominal-GFLOPS fraction of
//! peak, recorded to `BENCH_kernels.json` at the repo root.
//!
//! One row per butterfly engine the planner can dispatch to (Stockham,
//! mixed-radix, four-step, Bluestein) plus the SOI convolution kernel on
//! complex and on real input, the segment/band (zoom) row kernel, and
//! `erfc`, the special function under the window design and the
//! demodulation table (ns per call in `ns_per_point`, no flop count).
//! FFT GFLOPS use the paper's §7.1 nominal `5N·log₂N` from
//! [`soi_fft::flops`]. The convolution and zoom rows count the arithmetic
//! their kernels perform (real taps plus one complex multiply per
//! output, [`conv_kernel_flops`]), not the paper's nominal `8B` per
//! output point, which counts complex taps and stays the §7.4 model's
//! figure. The peak reference is either `SOI_PEAK_GFLOPS` (set it
//! to the machine's true single-core SIMD FMA peak for honest fractions)
//! or, by default, a measured scalar-FMA-chain proxy — a lower bound on
//! peak, so default fractions are *optimistic* and labeled as such via
//! `peak_source`.
//!
//! Env knobs: the soi-testkit timer set (`SOI_BENCH_SAMPLES`,
//! `SOI_BENCH_WARMUP_MS`, `SOI_BENCH_TARGET_MS`), plus
//! `SOI_BENCH_KERNELS_OUT` to redirect the JSON (smoke runs).

use soi_bench::workload::tone_mix;
use soi_core::coeff::ConvCoefficients;
use soi_core::conv::{
    convolve, convolve_portable, convolve_real, convolve_real_portable, kernel_name, zoom_pooled,
    zoom_portable, ZoomTaps,
};
use soi_core::{SoiFft, SoiParams};
use soi_fft::flops::fft_flops;
use soi_fft::Plan;
use soi_num::special::erfc;
use soi_num::{AlignedBuf, Complex64};
use soi_testkit::{black_box, BenchStats, Bencher};
use soi_window::AccuracyPreset;

/// Peak-GFLOPS reference: `SOI_PEAK_GFLOPS` if set, else a measured
/// proxy — eight independent vector-FMA chains when the CPU has
/// AVX2+FMA (the same features the conv kernel dispatches on), else
/// eight scalar multiply-add chains. Plain `a*b + c` in the scalar
/// fallback, deliberately: `f64::mul_add` without the FMA target
/// feature lowers to a software fma call and would *under*-measure
/// peak, inflating every fraction. Either way a sustained lower bound
/// for one core, not the datasheet number.
fn peak_gflops() -> (f64, &'static str) {
    if let Some(x) = std::env::var("SOI_PEAK_GFLOPS")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|&v| v > 0.0)
    {
        return (x, "env");
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: features just checked.
        return (unsafe { avx2_fma_peak() }, "measured_avx2_fma_proxy");
    }
    let iters: u64 = 1 << 24;
    let x = black_box(1.000000119_f64);
    let y = black_box(1e-9_f64);
    let mut acc = [0.0f64; 8];
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = *a * x + y;
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    black_box(acc);
    // 2 real ops (mul + add) per chain step, 8 chains per iteration.
    ((iters * 8 * 2) as f64 / dt / 1e9, "measured_scalar_mac_proxy")
}

/// Eight independent 4-wide FMA chains: enough parallelism to saturate
/// both FMA ports past the instruction latency, so the measurement
/// approaches the core's true vector-FMA throughput.
///
/// SAFETY: caller must check avx2+fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn avx2_fma_peak() -> f64 {
    use std::arch::x86_64::*;
    let iters: u64 = 1 << 23;
    let x = _mm256_set1_pd(black_box(1.000000119_f64));
    let y = _mm256_set1_pd(black_box(1e-9_f64));
    let mut acc = [_mm256_setzero_pd(); 8];
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_pd(*a, x, y);
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    let mut sink = [0.0f64; 4];
    _mm256_storeu_pd(sink.as_mut_ptr(), acc[0]);
    black_box(sink);
    // 4 lanes × 2 real ops per FMA, 8 chains per iteration.
    (iters * 8 * 4 * 2) as f64 / dt / 1e9
}

struct Row {
    kernel: String,
    n: usize,
    stats: BenchStats,
    flops: f64,
    /// Transforms per timed iteration (`ns_per_point` divides by
    /// `transforms · n`).
    transforms: f64,
    /// Which implementation produced the number: `"avx2+fma"`,
    /// `"portable"`, or `"mixed"` for plans with both kinds of stage.
    dispatch: String,
}

fn bench_fft_engines(g: &mut Bencher, rows: &mut Vec<Row>) {
    // One size per planner dispatch path; the engine-name assert keeps
    // the labels honest if thresholds ever move. Each iteration runs a
    // forward + normalized-inverse round trip: the buffer returns to
    // ≈unit scale so no input-staging copy pollutes the timed region
    // (a full copy is ~10% of a Stockham transform at these sizes), and
    // both directions exercise the same kernels. `ns_per_point` is per
    // transform (the round trip counts as two).
    for (n, want_engine) in [
        (16384usize, "stockham"),   // 2^14, below the four-step threshold
        (20480, "mixed-radix"),     // 2^12·5: the radix-4/5 codelet path
        (163840, "four-step"),      // 2^15·5: production M'
        (4093, "bluestein"),        // prime
    ] {
        let fwd = Plan::forward(n);
        let inv = Plan::inverse(n);
        assert_eq!(fwd.engine_name(), want_engine, "size {n} dispatched away");
        // Aligned data + scratch, matching what the workspace arena hands
        // the engines in production: a plain Vec this size lands 16 bytes
        // past a page, where half the 32-byte SIMD loads straddle lines.
        let mut buf = AlignedBuf::from_slice(&tone_mix(n));
        let mut scratch =
            AlignedBuf::<Complex64>::zeroed(fwd.scratch_len().max(inv.scratch_len()));
        g.throughput_elements(2 * n as u64);
        let stats = g.bench(&format!("{want_engine}/{n}"), || {
            fwd.execute_with_scratch(&mut buf, &mut scratch);
            inv.execute_with_scratch(&mut buf, &mut scratch);
            black_box(buf[0])
        });
        // Bluestein really runs two padded-length FFTs plus three
        // pointwise chirp sweeps per transform; the nominal 5·N·log₂N
        // undercounts that several-fold at a prime N, which made the row
        // read as idle silicon rather than an algorithmic detour. Count
        // the work the engine actually executes.
        let per_transform = if want_engine == "bluestein" {
            let m = (2 * n - 1).next_power_of_two();
            2.0 * fft_flops(m) + 12.0 * n as f64 + 6.0 * m as f64
        } else {
            fft_flops(n)
        };
        rows.push(Row {
            kernel: want_engine.to_string(),
            n,
            stats,
            flops: 2.0 * per_transform,
            transforms: 2.0,
            dispatch: fwd.dispatch_name().to_string(),
        });
    }
}

/// The chirp multiply Bluestein leans on — the in-place weighted complex
/// product through the `soi_fft::simd` seam (6 real ops per point). Its
/// own row keeps the pre/post sweeps visible instead of smeared into the
/// bluestein total.
fn bench_chirp(g: &mut Bencher, rows: &mut Vec<Row>) {
    let n = 16384usize;
    // Unit-modulus weights (a quadratic chirp, like the real thing) so
    // the repeated in-place product can never drift toward 0 or inf.
    let chirp: Vec<Complex64> = (0..n)
        .map(|k| {
            let phi = std::f64::consts::PI * (k as f64) * (k as f64) / n as f64;
            Complex64::new(phi.cos(), phi.sin())
        })
        .collect();
    let w = AlignedBuf::from_slice(&chirp);
    let mut buf = AlignedBuf::from_slice(&tone_mix(n));
    g.throughput_elements(n as u64);
    let stats = g.bench(&format!("chirp-mul/{n}"), || {
        soi_fft::simd::weighted_product_in(&mut buf, &w);
        black_box(buf[0])
    });
    rows.push(Row {
        kernel: "chirp-mul".to_string(),
        n,
        stats,
        flops: 6.0 * n as f64,
        transforms: 1.0,
        dispatch: soi_fft::simd::kernel_name().to_string(),
    });
}

/// Real flops the convolution kernels perform for `outputs` outputs: one
/// real multiply-add (2 flops) per tap and sample component, then the
/// complex multiply by the output's phase (6 flops).
fn conv_kernel_flops(outputs: usize, taps: usize, components: usize) -> f64 {
    outputs as f64 * (2.0 * (components * taps) as f64 + 6.0)
}

fn bench_conv_kernel(g: &mut Bencher, rows: &mut Vec<Row>) {
    let n = 1usize << 16;
    let p = 8;
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).expect("params");
    let soi = SoiFft::new(&params).expect("plan");
    let cfg = *soi.config();
    let shape = soi.shape();
    let coeffs: &ConvCoefficients = soi.coefficients();
    let x = tone_mix(n);
    let mut xext = AlignedBuf::<Complex64>::zeroed(cfg.n + cfg.halo_len());
    xext[..cfg.n].copy_from_slice(&x);
    let halo = xext[..cfg.halo_len()].to_vec();
    xext[cfg.n..].copy_from_slice(&halo);
    let mut out = AlignedBuf::<Complex64>::zeroed(cfg.n_prime);
    g.throughput_elements(cfg.n_prime as u64);
    let stats = g.bench(&format!("conv[{}]/{}", kernel_name(), cfg.n_prime), || {
        convolve(shape, coeffs, &xext, &mut out);
        black_box(out[0])
    });
    rows.push(Row {
        kernel: format!("conv[{}]", kernel_name()),
        n: cfg.n_prime,
        stats,
        flops: conv_kernel_flops(cfg.n_prime, cfg.taps(), 2),
        transforms: 1.0,
        dispatch: kernel_name().to_string(),
    });
    if kernel_name() != "portable" {
        // SIMD ablation: the same tiling without the target-feature path.
        let stats = g.bench(&format!("conv[portable]/{}", cfg.n_prime), || {
            convolve_portable(shape, coeffs, &xext, &mut out);
            black_box(out[0])
        });
        rows.push(Row {
            kernel: "conv[portable]".to_string(),
            n: cfg.n_prime,
            stats,
            flops: conv_kernel_flops(cfg.n_prime, cfg.taps(), 2),
            transforms: 1.0,
            dispatch: "portable".to_string(),
        });
    }

    // The r2c path's kernel on the real parts of the same input: one
    // sample component per tap instead of two.
    let xr = AlignedBuf::from_slice(&xext.iter().map(|c| c.re).collect::<Vec<f64>>());
    let real_flops = conv_kernel_flops(cfg.n_prime, cfg.taps(), 1);
    let stats = g.bench(&format!("conv-real[{}]/{}", kernel_name(), cfg.n_prime), || {
        convolve_real(shape, coeffs, &xr, &mut out);
        black_box(out[0])
    });
    rows.push(Row {
        kernel: format!("conv-real[{}]", kernel_name()),
        n: cfg.n_prime,
        stats,
        flops: real_flops,
        transforms: 1.0,
        dispatch: kernel_name().to_string(),
    });
    if kernel_name() != "portable" {
        let stats = g.bench(&format!("conv-real[portable]/{}", cfg.n_prime), || {
            convolve_real_portable(shape, coeffs, &xr, &mut out);
            black_box(out[0])
        });
        rows.push(Row {
            kernel: "conv-real[portable]".to_string(),
            n: cfg.n_prime,
            stats,
            flops: real_flops,
            transforms: 1.0,
            dispatch: "portable".to_string(),
        });
    }
}

/// The segment/band row kernel on the conv row's geometry: `M'` rows,
/// each `P` complex lane sums over `B+1` real taps, their `P` phase
/// multiplies and the `P − 1` additions that combine them. The band
/// start is unaligned, so the window fill's complex multiply of each of
/// the `N` samples by its block phase counts too.
fn bench_zoom_kernel(g: &mut Bencher, rows: &mut Vec<Row>) {
    let n = 1usize << 16;
    let p = 8;
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).expect("params");
    let soi = SoiFft::new(&params).expect("plan");
    let cfg = *soi.config();
    let taps = ZoomTaps::new(soi.shape(), soi.coefficients(), n, cfg.m + 13);
    let x = tone_mix(n);
    let flops = conv_kernel_flops(cfg.n_prime, cfg.taps(), 2)
        + (2 * (cfg.p - 1) * cfg.m_prime + 6 * n) as f64;
    let serial = soi_core::ThreadPool::serial();
    let mut out = AlignedBuf::<Complex64>::zeroed(cfg.m_prime);
    g.throughput_elements(cfg.m_prime as u64);
    let stats = g.bench(&format!("zoom[{}]/{}", kernel_name(), cfg.m_prime), || {
        zoom_pooled(&taps, &x, &mut out, &serial);
        black_box(out[0])
    });
    rows.push(Row {
        kernel: format!("zoom[{}]", kernel_name()),
        n: cfg.m_prime,
        stats,
        flops,
        transforms: 1.0,
        dispatch: kernel_name().to_string(),
    });
    if kernel_name() != "portable" {
        let stats = g.bench(&format!("zoom[portable]/{}", cfg.m_prime), || {
            zoom_portable(&taps, &x, &mut out);
            black_box(out[0])
        });
        rows.push(Row {
            kernel: "zoom[portable]".to_string(),
            n: cfg.m_prime,
            stats,
            flops,
            transforms: 1.0,
            dispatch: "portable".to_string(),
        });
    }
}

/// `erfc` on the arguments `Ĥ(u)` gives it over κ's 2049-point passband
/// grid for the Digits10 window — the argument mix of the design search
/// and of the demodulation table. `ns_per_point` is ns per call; the row
/// counts no flops.
fn bench_erfc(g: &mut Bencher, rows: &mut Vec<Row>) {
    let w = AccuracyPreset::Digits10.design(0.25).expect("design").window;
    let rs = w.sigma.sqrt();
    let args: Vec<f64> = (0..=2048)
        .flat_map(|i| {
            let u = -0.5 + i as f64 / 2048.0;
            [rs * (u - w.tau / 2.0), rs * (u + w.tau / 2.0)]
        })
        .collect();
    g.throughput_elements(args.len() as u64);
    let stats = g.bench(&format!("erfc/{}", args.len()), || {
        let mut sum = 0.0;
        for &x in &args {
            sum += erfc(black_box(x));
        }
        black_box(sum)
    });
    rows.push(Row {
        kernel: "erfc".to_string(),
        n: args.len(),
        stats,
        flops: 0.0,
        transforms: 1.0,
        dispatch: "portable".to_string(),
    });
}

fn main() {
    let (peak, peak_source) = peak_gflops();
    let mut g = Bencher::new("kernel_report").samples(10);
    let mut rows: Vec<Row> = Vec::new();
    bench_fft_engines(&mut g, &mut rows);
    bench_chirp(&mut g, &mut rows);
    bench_conv_kernel(&mut g, &mut rows);
    bench_zoom_kernel(&mut g, &mut rows);
    bench_erfc(&mut g, &mut rows);

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let secs = r.stats.median_ns / 1e9;
            let gflops = r.flops / secs / 1e9;
            format!(
                "    {{\"kernel\":\"{}\",\"n\":{},\"dispatch\":\"{}\",\
                 \"ns_per_point\":{:.3},\
                 \"gflops\":{:.3},\"fraction_of_peak\":{:.4}}}",
                r.kernel,
                r.n,
                r.dispatch,
                r.stats.median_ns / (r.transforms * r.n as f64),
                gflops,
                gflops / peak
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"kernel_report\",\n  \"peak_gflops\": {peak:.3},\n  \
         \"peak_source\": \"{peak_source}\",\n  \"conv_dispatch\": \"{}\",\n  \
         \"samples\": {},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        kernel_name(),
        rows[0].stats.samples,
        json_rows.join(",\n")
    );
    let path = std::env::var("SOI_BENCH_KERNELS_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
    });
    std::fs::write(&path, &json).expect("write kernel bench json");
    println!("wrote {path} (peak {peak:.1} GFLOPS, {peak_source})");
}
