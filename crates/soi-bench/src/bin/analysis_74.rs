//! §7.4's in-text analysis numbers, reproduced:
//!
//! * convolution arithmetic ≈ 4× a regular FFT (at 2²⁸/node × 32 nodes);
//! * SOI total arithmetic ≈ 5× a regular FFT;
//! * convolution runs at ~40% of peak vs ~10% for FFT, so convolution
//!   *time* ≈ the FFT time inside SOI, and SOI compute ≈ 2× a regular
//!   FFT's — "this penalty is more than offset by our savings in
//!   communication time";
//! * plus a locally *measured* kernel-efficiency comparison on this
//!   machine (relative rates, since absolute peak is unknown here).

use soi_bench::report::render_table;
use soi_core::opcount::OpBreakdown;
use soi_core::{SoiFft, SoiParams};
use soi_dist::ComputeRates;
use soi_num::Complex64;
use soi_window::AccuracyPreset;
use std::time::Instant;

fn main() {
    // --- Paper-scale arithmetic accounting. ---
    let cfg = soi_core::SoiConfig {
        n: 1 << 33,
        p: 32,
        m: 1 << 28,
        m_prime: (1usize << 28) / 4 * 5,
        n_prime: ((1usize << 28) / 4 * 5) * 32,
        mu: 5,
        nu: 4,
        b: 72,
        window: soi_window::TwoParamWindow::new(0.8, 300.0),
        kappa: 10.0,
        alias: 1e-16,
        trunc: 1e-16,
    };
    let ops = OpBreakdown::of(&cfg);
    println!("Arithmetic accounting at the paper's scale (2^28/node x 32 nodes, B=72):\n");
    let rows = vec![
        vec!["convolution / regular FFT".into(), format!("{:.2}x", ops.conv_ratio()), "\"almost fourfold\"".into()],
        vec!["SOI total / regular FFT".into(), format!("{:.2}x", ops.total_ratio()), "\"about fivefold\"".into()],
    ];
    println!("{}", render_table(&["quantity", "computed", "paper"], &rows));

    // --- Time accounting under the §7.4 efficiency model. ---
    let r = ComputeRates::paper_node();
    let t_fft_std = ops.standard_fft / r.fft_flops_per_sec;
    let t_fft_soi = (ops.fft_p + ops.fft_m) / r.fft_flops_per_sec;
    let t_conv = ops.conv / r.conv_flops_per_sec;
    println!("Time accounting (FFT at 10% of peak, convolution at 40% — §7.4):\n");
    let rows = vec![
        vec!["T_conv / T_fft-inside-SOI".into(), format!("{:.2}", t_conv / t_fft_soi), "\"about the same\"".into()],
        vec!["SOI compute / regular FFT".into(), format!("{:.2}x", (t_conv + t_fft_soi) / t_fft_std), "\"about twice\"".into()],
    ];
    println!("{}", render_table(&["quantity", "computed", "paper"], &rows));

    // --- Local measured kernel rates (this machine). ---
    println!("Measured kernel throughput on this machine (single thread):\n");
    let n = 1 << 16;
    let p = 8;
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Full).expect("params");
    let soi = SoiFft::new(&params).expect("plan");
    let c = *soi.config();
    let x = soi_bench::workload::tone_mix(n);

    // Convolution kernel rate.
    let mut xext = x.clone();
    xext.extend_from_slice(&x[..c.halo_len()]);
    let mut v = vec![Complex64::ZERO; c.n_prime];
    let reps = 5;
    let t0 = Instant::now();
    for _ in 0..reps {
        soi_core::conv::convolve(soi.shape(), soi.coefficients(), &xext, &mut v);
    }
    let conv_rate =
        reps as f64 * soi_fft::flops::conv_flops(c.n_prime, c.b) / t0.elapsed().as_secs_f64();

    // FFT rate at M'.
    let plan = soi_fft::Plan::forward(c.m_prime);
    let mut buf = vec![Complex64::ZERO; c.m_prime];
    buf.copy_from_slice(&xext[..c.m_prime]);
    let reps = 20;
    let t0 = Instant::now();
    for _ in 0..reps {
        plan.execute(&mut buf);
    }
    let fft_rate =
        reps as f64 * soi_fft::flops::fft_flops(c.m_prime) / t0.elapsed().as_secs_f64();

    println!("  convolution : {:.2} Gflop/s", conv_rate / 1e9);
    println!("  FFT (M'={}) : {:.2} Gflop/s (nominal)", c.m_prime, fft_rate / 1e9);
    println!(
        "  conv/FFT throughput ratio: {:.2} (paper's 40%/10% model predicts ~4;",
        conv_rate / fft_rate
    );
    println!("  regular streaming inner products beat an FFT's strided butterflies)");
}
