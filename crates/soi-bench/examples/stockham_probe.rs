//! Quick Stockham timing probe for kernel tuning: ns/pt at a few sizes.
//!
//! Not a committed benchmark — `kernel_report` is the reporting bench;
//! this exists so kernel edits can be timed in seconds (`cargo run
//! --release -p soi-bench --example stockham_probe [sizes...]`).

use soi_bench::workload::tone_mix;
use soi_fft::plan::Plan;
use soi_testkit::black_box;
use std::time::Instant;

fn median_ns(mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..9).map(|_| f()).collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let sizes: Vec<usize> = {
        let args: Vec<usize> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if args.is_empty() {
            vec![4096, 16384, 65536]
        } else {
            args
        }
    };
    let roundtrip = std::env::var("SOI_PROBE_ROUNDTRIP").is_ok();
    for n in sizes {
        let x = tone_mix(n);
        let iters = (40_000_000 / n).max(1);
        if roundtrip {
            // Mirror the kernel_report methodology: forward + normalized
            // inverse on the same buffer, ns/pt per transform.
            let fwd = Plan::forward(n);
            let inv = Plan::inverse(n);
            let mut buf = soi_num::AlignedBuf::from_slice(&x);
            let mut scratch = soi_num::AlignedBuf::<soi_num::Complex64>::zeroed(
                fwd.scratch_len().max(inv.scratch_len()),
            );
            let ns = median_ns(|| {
                let t = Instant::now();
                for _ in 0..iters {
                    fwd.execute_with_scratch(&mut buf, &mut scratch);
                    inv.execute_with_scratch(&mut buf, &mut scratch);
                    black_box(&buf);
                }
                t.elapsed().as_nanos() as f64 / (iters * 2 * n) as f64
            });
            println!("{:>10} [{} round-trip] {:>8.3} ns/pt", n, fwd.engine_name(), ns);
            continue;
        }
        for plan in [Plan::forward(n), Plan::inverse(n)] {
            let mut buf = x.clone();
            let ns = median_ns(|| {
                let t = Instant::now();
                for _ in 0..iters {
                    buf.copy_from_slice(&x);
                    plan.execute(&mut buf);
                    black_box(&buf);
                }
                t.elapsed().as_nanos() as f64 / (iters * n) as f64
            });
            println!(
                "{:>10} [{} {:?}] {:>8.3} ns/pt (incl. input copy)",
                n,
                plan.engine_name(),
                plan.direction(),
                ns
            );
        }
    }
}
