//! Split-calibration scan for the four-step engine: times every viable
//! `(a, b)` factorization of a target size against the planner's pick,
//! so `choose_split`'s cost-model constants can be re-fit whenever the
//! kernels change speed.
//!
//!     cargo run --release -p soi-bench --example fourstep_scan [n ...]
//!
//! Defaults to the production M' sizes. Prints median ns/point per
//! split plus a plain Stockham reference at 16384 (the acceptance
//! yardstick for M' = 163840).

use soi_bench::workload::tone_mix;
use soi_fft::fourstep::{FourStepFft, RawFft};
use soi_fft::plan::choose_split;
use soi_fft::twiddle::Sign;
use soi_num::Complex64;
use soi_testkit::black_box;
use std::sync::Arc;
use std::time::Instant;

fn median_ns(mut f: impl FnMut(), iters: usize, samples: usize) -> f64 {
    let mut meds: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    meds.sort_by(|x, y| x.partial_cmp(y).unwrap());
    meds[meds.len() / 2]
}

fn scan(n: usize) {
    println!("== n = {n} (choose_split picks a = {}) ==", choose_split(n));
    let x = tone_mix(n);
    let mut divisors: Vec<usize> = (2..=((n as f64).sqrt() as usize))
        .filter(|a| n % a == 0 && n / a > 1)
        .collect();
    divisors.retain(|&a| n / a <= 65536); // inner side must stay cacheable
    let iters = (200_000_000 / n).clamp(1, 200);
    for a in divisors {
        let b = n / a;
        let fa = Arc::new(RawFft::new(a, Sign::Forward));
        let fb = Arc::new(RawFft::new(b, Sign::Forward));
        let plan = FourStepFft::with_engines(n, Sign::Forward, fa, fb);
        let mut buf = x.clone();
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        let ns = median_ns(
            || {
                buf.copy_from_slice(&x);
                plan.execute_with_scratch(&mut buf, &mut scratch);
                black_box(buf[0]);
            },
            iters,
            7,
        );
        println!("  a={a:>5} b={b:>6}  {:8.3} ns/pt", ns / n as f64);
    }
}

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|s| s.parse().ok())
        .collect();
    let sizes = if args.is_empty() {
        vec![40960, 163840]
    } else {
        args
    };

    // Reference row: the plain Stockham engine at 16384.
    let n = 16384;
    let x = tone_mix(n);
    let st = RawFft::new(n, Sign::Forward);
    let mut buf = x.clone();
    let mut scratch = vec![Complex64::ZERO; st.scratch_len()];
    let ns = median_ns(
        || {
            buf.copy_from_slice(&x);
            st.execute_with_scratch(&mut buf, &mut scratch);
            black_box(buf[0]);
        },
        (200_000_000 / n).clamp(1, 400),
        7,
    );
    println!("stockham reference n=16384: {:.3} ns/pt", ns / n as f64);

    for n in sizes {
        scan(n);
    }
}
