//! Cross-version bit pins for every engine.
//!
//! The golden tests elsewhere check accuracy within a tolerance, so a
//! refactor that moves one rounding anywhere in an engine would pass
//! them. This suite instead hashes the exact output bits of each engine
//! on a seeded input and compares against committed hashes: any change
//! to the arithmetic of a kernel, its order of operations or its
//! dispatch fails here.
//!
//! FMA contracts roundings, so the AVX2+FMA kernels and the portable
//! ones give different bits. One table is kept per dispatch, selected by
//! [`soi_fft::simd::kernel_name`]; the `SOI_NO_SIMD=1` lane checks the
//! portable table.
//!
//! A deliberate change to an engine's arithmetic re-records the table:
//! a failing run prints the measured hashes in the table's own syntax,
//! so run the suite in both lanes and paste what it prints.

use soi_fft::batch::BatchFft;
use soi_fft::{simd, Direction, Plan};
use soi_num::{c64, Complex64};
use soi_testkit::TestRng;

/// FNV-1a over the bit patterns of every `re`, then `im`, in order.
fn hash(data: &[Complex64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for bits in [v.re.to_bits(), v.im.to_bits()] {
            for byte in bits.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn input(n: usize) -> Vec<Complex64> {
    TestRng::seed_from_u64(0xB175 ^ n as u64).complex_vec(n)
}

/// One named output hash per pinned call, in a fixed order.
fn measure() -> Vec<(String, u64)> {
    let mut got = Vec::new();
    for (n, engine) in [
        (16384usize, "stockham"),
        (20480, "mixed-radix"),
        (163840, "four-step"),
        (4093, "bluestein"),
    ] {
        for direction in [Direction::Forward, Direction::Inverse] {
            let plan = Plan::new(n, direction);
            assert_eq!(plan.engine_name(), engine, "n = {n}");
            let mut data = input(n);
            plan.execute(&mut data);
            got.push((format!("{engine} {n} {direction:?}"), hash(&data)));
        }
    }

    let n = 163840;
    let plan = Plan::forward(n);
    let keep = n / 8 * 5;
    let weights: Vec<Complex64> = (0..keep)
        .map(|k| {
            c64(
                1.0 + (k as f64 * 0.013).cos() * 0.25,
                (k as f64 * 0.007).sin(),
            )
        })
        .collect();
    let mut data = input(n);
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    let mut out = vec![Complex64::ZERO; keep];
    plan.execute_fused_into(&mut data, &mut scratch, &mut out, &weights);
    got.push((format!("fused four-step {n}"), hash(&out)));

    let batch = BatchFft::new(8, Direction::Forward);
    let mut rows = input(8 * 1000);
    batch.execute(&mut rows);
    got.push(("batch 8x1000".to_string(), hash(&rows)));
    got
}

/// Hashes recorded with the AVX2+FMA kernels.
const AVX2_FMA: &[(&str, u64)] = &[
    ("stockham 16384 Forward", 0xb3fc4c9f7e042dc9),
    ("stockham 16384 Inverse", 0xf8d2fd737f04b990),
    ("mixed-radix 20480 Forward", 0x9fbbee445cb9bde4),
    ("mixed-radix 20480 Inverse", 0x53ab47b0387ec308),
    ("four-step 163840 Forward", 0x18c58f2daafe9666),
    ("four-step 163840 Inverse", 0x09eebd01938b3a9c),
    ("bluestein 4093 Forward", 0xc5e320562a1d6a28),
    ("bluestein 4093 Inverse", 0x6b6e8a1e06a37bc1),
    ("fused four-step 163840", 0xbac6c92ffb5871d6),
    ("batch 8x1000", 0x5ed037975b474837),
];

/// Hashes recorded with the portable kernels (`SOI_NO_SIMD=1`).
const PORTABLE: &[(&str, u64)] = &[
    ("stockham 16384 Forward", 0x0e027a1785a60800),
    ("stockham 16384 Inverse", 0x504d7cdbba307469),
    ("mixed-radix 20480 Forward", 0x61062a766c9effaa),
    ("mixed-radix 20480 Inverse", 0xcd800ded125de605),
    ("four-step 163840 Forward", 0x10df82ecc335f339),
    ("four-step 163840 Inverse", 0x0e7897396990b4bf),
    ("bluestein 4093 Forward", 0xefebf2479b4674a4),
    ("bluestein 4093 Inverse", 0xfbeacf58ca55e826),
    ("fused four-step 163840", 0x4e039c0874de1436),
    ("batch 8x1000", 0x5ed037975b474837),
];

#[test]
fn engine_output_bits_match_the_committed_hashes() {
    let got = measure();
    let want = match simd::kernel_name() {
        "avx2+fma" => AVX2_FMA,
        _ => PORTABLE,
    };
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((n, h), (wn, wh))| n == wn && h == wh);
    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    assert!(
        same,
        "output bits moved; measured ({}):\n{table}",
        simd::kernel_name()
    );
}
