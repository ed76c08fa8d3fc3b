//! Kernel bench: the local FFT engines across sizes and planner paths.
//!
//! The node-local FFTs are the compute substrate of both distributed
//! algorithms (Fig 2 uses "Intel MKL FFTs ... as building blocks"; we use
//! these). Throughput here anchors the `ComputeRates` discussion in
//! DESIGN.md.
//!
//! Harness-free binary on the soi-testkit timer: run with `cargo bench
//! --bench fft_kernels` (or directly); `SOI_BENCH_SAMPLES=3
//! SOI_BENCH_WARMUP_MS=5 SOI_BENCH_TARGET_MS=2` gives a smoke run.

use soi_bench::workload::tone_mix;
use soi_fft::Plan;
use soi_num::Complex64;
use soi_testkit::Bencher;

fn bench_pow2() {
    let mut g = Bencher::new("fft_pow2").samples(20);
    for lg in [10usize, 12, 14, 16] {
        let n = 1usize << lg;
        let plan = Plan::forward(n);
        let x = tone_mix(n);
        g.throughput_elements(n as u64);
        let mut buf = x.clone();
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        g.bench(&n.to_string(), || {
            plan.execute_with_scratch(&mut buf, &mut scratch)
        });
    }
}

fn bench_engines() {
    let mut g = Bencher::new("fft_engines").samples(20);
    // Same magnitude, three planner paths.
    for n in [4096usize, 3 * 1280, 4093] {
        let plan = Plan::forward(n);
        let x = tone_mix(n);
        g.throughput_elements(n as u64);
        let mut buf = x.clone();
        g.bench(&format!("{}/{n}", plan.engine_name()), || {
            plan.execute(&mut buf)
        });
    }
}

fn bench_batch() {
    // The I ⊗ F_P pattern at SOI-realistic P.
    let mut g = Bencher::new("batch_fp").samples(20);
    for p in [16usize, 32, 64] {
        let rows = 4096;
        let exec = soi_fft::batch::BatchFft::new(p, soi_fft::Direction::Forward);
        let x = tone_mix(rows * p);
        g.throughput_elements((rows * p) as u64);
        let mut buf = x.clone();
        g.bench(&p.to_string(), || exec.execute(&mut buf));
    }
}

fn main() {
    bench_pow2();
    bench_engines();
    bench_batch();
}
