//! Cross-crate integration: the whole stack, input to in-order spectrum.
//!
//! Chain exercised: window design (soi-window) → SOI plan (soi-core) →
//! distributed execution with real data movement (soi-dist over
//! soi-simnet) → validated against the from-scratch FFT library (soi-fft)
//! and the double-double reference (soi-num/soi-fft::ddfft).

use soi::core::{SoiFft, SoiParams, SoiRealWorkspace, SoiWorkspace, ThreadPool};
use soi::dist::{BaselineFft, ChargePolicy, DistSoiFft, ExchangeSchedule, ExchangeVariant};
use soi::num::complex::rel_l2_error;
use soi::num::stats::snr_db_vs_pairs;
use soi::num::Complex64;
use soi::simnet::{Cluster, Fabric};
use soi::window::AccuracyPreset;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|j| Complex64::new((j as f64 * 0.43).sin() + 0.2, (j as f64 * 0.91).cos()))
        .collect()
}

fn scatter_run_soi(n: usize, p: usize, preset: AccuracyPreset, fabric: Fabric) -> Vec<Complex64> {
    let params = SoiParams::with_preset(n, p, preset).expect("params");
    let dist = DistSoiFft::new(&params).expect("plan");
    let x = signal(n);
    let m = n / p;
    let (xr, dr) = (&x, &dist);
    Cluster::new(p, fabric)
        .run_collect(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            dr.run(comm, local, ChargePolicy::WallClock).expect("soi run").0
        })
        .into_iter()
        .flatten()
        .collect()
}

#[test]
fn four_way_agreement_serial_distributed_baseline_exact() {
    let n = 1 << 12;
    let p = 4;
    let x = signal(n);
    let exact = soi::fft::fft_forward(&x);

    // Serial SOI.
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits12).expect("params");
    let serial = SoiFft::new(&params).expect("plan").transform(&x).unwrap();

    // Distributed SOI.
    let dist = scatter_run_soi(n, p, AccuracyPreset::Digits12, Fabric::Ideal);

    // Distributed baseline.
    let plan = BaselineFft::new(n, p, ExchangeVariant::Collective);
    let m = n / p;
    let (xr, pr) = (&x, &plan);
    let baseline: Vec<Complex64> = Cluster::ideal(p)
        .run_collect(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            pr.run(comm, local, ChargePolicy::WallClock).expect("baseline run").0
        })
        .into_iter()
        .flatten()
        .collect();

    assert!(rel_l2_error(&baseline, &exact) < 1e-11, "baseline vs exact");
    assert!(rel_l2_error(&serial, &exact) < 1e-10, "serial SOI vs exact");
    assert!(rel_l2_error(&dist, &serial) < 1e-13, "distributed vs serial SOI");
}

#[test]
fn distributed_soi_full_accuracy_snr_against_dd_reference() {
    // The §7.2 claim on the real distributed path: full-accuracy SOI
    // should land in the 270–310 dB band against a dd-precise reference.
    let n = 1 << 13;
    let p = 4;
    let x = signal(n);
    let reference = soi::fft::ddfft::reference_spectrum(&x);
    let y = scatter_run_soi(n, p, AccuracyPreset::Full, Fabric::Ideal);
    let snr = snr_db_vs_pairs(&y, &reference);
    assert!(snr > 260.0, "distributed full-accuracy SOI SNR = {snr} dB");
}

#[test]
fn works_on_every_paper_fabric_model() {
    let design = AccuracyPreset::Digits10.design(0.25).expect("design");
    let bound = 10.0 * design.predicted_error();
    for fabric in [
        Fabric::endeavor_fat_tree(),
        Fabric::gordon_torus(),
        Fabric::ethernet_10g(),
    ] {
        let y = scatter_run_soi(1 << 12, 4, AccuracyPreset::Digits10, fabric.clone());
        let exact = soi::fft::fft_forward(&signal(1 << 12));
        let err = rel_l2_error(&y, &exact);
        assert!(
            err < bound,
            "fabric {}: err {err:e} vs bound {bound:e}",
            fabric.name()
        );
    }
}

#[test]
fn comm_volume_advantage_holds_end_to_end() {
    // SOI wire bytes ≈ (1+β)/3 of the baseline's across the whole run.
    let n = 1 << 12;
    let p = 4;
    let x = signal(n);
    let m = n / p;

    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).expect("params");
    let dist = DistSoiFft::new(&params).expect("plan");
    let (xr, dr) = (&x, &dist);
    let soi_bytes: u64 = Cluster::ideal(p)
        .run(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            dr.run(comm, local, ChargePolicy::WallClock).expect("soi run").0
        })
        .iter()
        .map(|(_, r)| r.stats.bytes_sent)
        .sum();

    let plan = BaselineFft::new(n, p, ExchangeVariant::Collective);
    let (xr, pr) = (&x, &plan);
    let base_bytes: u64 = Cluster::ideal(p)
        .run(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            pr.run(comm, local, ChargePolicy::WallClock).expect("baseline run").0
        })
        .iter()
        .map(|(_, r)| r.stats.bytes_sent)
        .sum();

    let ratio = base_bytes as f64 / soi_bytes as f64;
    assert!((1.8..3.0).contains(&ratio), "wire-byte ratio {ratio}");
}

#[test]
fn larger_cluster_and_odd_segment_count() {
    // P = 10: non-power-of-two segment count through mixed-radix F_P.
    let n = 10 * 4000;
    let p = 10;
    let y = scatter_run_soi(n, p, AccuracyPreset::Digits10, Fabric::Ideal);
    let exact = soi::fft::fft_forward(&signal(n));
    let design = AccuracyPreset::Digits10.design(0.25).expect("design");
    let err = rel_l2_error(&y, &exact);
    assert!(err < 10.0 * design.predicted_error(), "err {err:e}");
}

fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// One distributed run on `ranks` simulated ranks, rank outputs
/// concatenated. Works for complex and real input alike.
fn dist_spectrum<T: soi::core::conv::Sample + soi_wire::Pod>(
    dist: &DistSoiFft,
    x: &[T],
    ranks: usize,
    schedule: ExchangeSchedule,
) -> Vec<Complex64> {
    let m = x.len() / ranks;
    Cluster::ideal(ranks)
        .run_collect(|comm| {
            let local = &x[comm.rank() * m..(comm.rank() + 1) * m];
            let pool = ThreadPool::serial();
            let policy = ChargePolicy::WallClock;
            dist.run_with_hooks(comm, local, policy, &pool, schedule, |_, _| Ok(()))
                .expect("distributed run")
                .0
        })
        .into_iter()
        .flatten()
        .collect()
}

#[test]
fn distributed_soi_is_bitwise_the_single_process_soi() {
    // Same window, same kernels, same per-row and per-segment arithmetic;
    // only the data motion differs. So every bin the distributed run
    // computes is bitwise the single-process transform's, complex and
    // real, on both exchange schedules. The one exception is the real
    // Nyquist bin, whose rank partials fold in a different order.
    // Real input runs where R divides the P/2 kept segments.
    for (n, p, ranks) in [
        (1 << 12, 4, 2),
        (1 << 12, 4, 4),
        (1 << 14, 8, 2),
        (1 << 14, 8, 4),
        (1 << 14, 8, 8),
        (1 << 16, 16, 4),
    ] {
        for preset in [AccuracyPreset::Digits10, AccuracyPreset::Full] {
            let params = SoiParams::with_preset(n, p, preset).expect("params");
            let soi = SoiFft::new(&params).expect("plan");
            let dist = DistSoiFft::new(&params).expect("plan");
            let x = signal(n);
            let xr: Vec<f64> = x.iter().map(|c| c.re).collect();
            let mut want = vec![Complex64::ZERO; n];
            soi.transform_into(&x, &mut want, &mut SoiWorkspace::new(&soi, 1))
                .unwrap();
            let mut want_real = vec![Complex64::ZERO; n / 2 + 1];
            soi.transform_real_into(&xr, &mut want_real, &mut SoiRealWorkspace::new(&soi, 1))
                .unwrap();
            for schedule in [ExchangeSchedule::Barriered, ExchangeSchedule::Overlapped] {
                let what = format!("N={n} P={p} R={ranks} {preset:?} {schedule:?}");
                let got = dist_spectrum(&dist, &x, ranks, schedule);
                assert_eq!(bits(&got), bits(&want), "complex {what}");
                if (p / 2) % ranks != 0 {
                    continue;
                }
                let got = dist_spectrum(&dist, &xr, ranks, schedule);
                assert_eq!(got.len(), n / 2 + 1, "real {what}");
                assert_eq!(bits(&got[..n / 2]), bits(&want_real[..n / 2]), "real {what}");
                let nyquist = (got[n / 2] - want_real[n / 2]).abs();
                assert!(nyquist <= 1e-9, "real {what}: Nyquist off by {nyquist:e}");
            }
        }
    }
}
