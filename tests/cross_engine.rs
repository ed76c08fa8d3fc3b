//! Cross-engine agreement: three independently-derived FFT engines
//! (Stockham radix-4/2, mixed-radix, Bluestein) checked
//! against each other and ranked against a double-double reference.
//!
//! Engines sharing a twiddle-convention bug would still agree with each
//! other — but not with the dd reference, whose twiddles come from a
//! separate (dd) trig implementation; and the naive-DFT oracle is a third
//! independent path. Triangulating all of them pins every engine to the
//! true DFT.

use soi::fft::bluestein::BluesteinFft;
use soi::fft::ddfft::reference_spectrum;
use soi::fft::mixed::MixedRadixFft;
use soi::fft::stockham::StockhamFft;
use soi::fft::twiddle::Sign;
use soi::num::stats::snr_db_vs_pairs;
use soi::num::Complex64;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.77).sin() - 0.2, (i as f64 * 0.31).cos() + 0.1))
        .collect()
}

#[test]
fn all_engines_agree_at_power_of_two() {
    let n = 1024;
    let x = signal(n);
    let mut outs: Vec<Vec<Complex64>> = Vec::new();
    let mut a = x.clone();
    StockhamFft::new(n, Sign::Forward).execute(&mut a);
    outs.push(a);
    let mut b = x.clone();
    MixedRadixFft::new(n, Sign::Forward).execute(&mut b);
    outs.push(b);
    let mut c = x.clone();
    BluesteinFft::new(n, Sign::Forward).execute(&mut c);
    outs.push(c);
    let scale: f64 = outs[0].iter().map(|v| v.abs()).fold(0.0, f64::max);
    for (i, o) in outs.iter().enumerate().skip(1) {
        let err = soi::num::complex::max_abs_diff(o, &outs[0]);
        assert!(err < 1e-11 * scale, "engine {i} disagrees: {err:e}");
    }
}

#[test]
fn every_engine_clears_250db_against_dd_reference() {
    let n = 1024;
    let x = signal(n);
    let reference = reference_spectrum(&x);
    let engines: Vec<(&str, Vec<Complex64>)> = vec![
        (
            "stockham",
            {
                let mut v = x.clone();
                StockhamFft::new(n, Sign::Forward).execute(&mut v);
                v
            },
        ),
        (
            "mixed-radix",
            {
                let mut v = x.clone();
                MixedRadixFft::new(n, Sign::Forward).execute(&mut v);
                v
            },
        ),
        (
            "bluestein",
            {
                let mut v = x.clone();
                BluesteinFft::new(n, Sign::Forward).execute(&mut v);
                v
            },
        ),
    ];
    for (name, y) in engines {
        let snr = snr_db_vs_pairs(&y, &reference);
        assert!(snr > 250.0, "{name}: SNR {snr:.0} dB");
    }
}

#[test]
fn mixed_and_bluestein_agree_at_awkward_sizes() {
    for n in [360usize, 500, 729, 1001] {
        let x = signal(n);
        let mut a = x.clone();
        MixedRadixFft::new(n, Sign::Forward).execute(&mut a);
        let mut b = x;
        BluesteinFft::new(n, Sign::Forward).execute(&mut b);
        let scale: f64 = a.iter().map(|v| v.abs()).fold(0.0, f64::max);
        let err = soi::num::complex::max_abs_diff(&a, &b);
        assert!(err < 1e-10 * scale, "n={n}: {err:e}");
    }
}

#[test]
fn planner_one_shot_equals_direct_engines() {
    let n = 512;
    let x = signal(n);
    let via_planner = soi::fft::fft_forward(&x);
    let mut direct = x;
    StockhamFft::new(n, Sign::Forward).execute(&mut direct);
    assert_eq!(
        via_planner
            .iter()
            .map(|v| (v.re, v.im))
            .collect::<Vec<_>>(),
        direct.iter().map(|v| (v.re, v.im)).collect::<Vec<_>>(),
        "planner must dispatch to the same engine bitwise"
    );
}
