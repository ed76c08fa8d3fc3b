//! Schedule equivalence: the overlapped exchange pipeline must produce
//! THE SAME BITS as the barriered reference — across segment geometries
//! (R ranks × c segments per rank), worker counts, and both transports —
//! and a run recovered from a fault under the default (overlapped)
//! schedule must still match a *barriered* undisturbed baseline.

use soi_core::{SoiError, SoiParams};
use soi_dist::{
    run_checkpointed, ChargePolicy, CheckpointStore, DistSoiFft, ExchangeSchedule, FaultPlan,
    MemStore,
};
use soi_num::Complex64;
use soi_pool::ThreadPool;
use soi_simnet::Cluster;
use soi_window::AccuracyPreset;
use soi_wire::{run_loopback, WireConfig};

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

fn assert_bitwise_equal(a: &[Complex64], b: &[Complex64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: bin {k} differs: {x:?} vs {y:?}"
        );
    }
}

/// One full transform on `ranks` simulated ranks with the schedule and
/// worker count pinned explicitly.
fn simnet_spectrum(
    dist: &DistSoiFft,
    n: usize,
    ranks: usize,
    schedule: ExchangeSchedule,
    workers: usize,
) -> Vec<Complex64> {
    let x = signal(n);
    let (xr, dr) = (&x, dist);
    let m = n / ranks;
    Cluster::ideal(ranks)
        .run_collect(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            let pool = ThreadPool::new(workers);
            dr.run_with_hooks(
                comm,
                local,
                ChargePolicy::WallClock,
                &pool,
                schedule,
                |_, _| Ok(()),
            )
            .expect("soi run")
            .0
        })
        .into_iter()
        .flatten()
        .collect()
}

/// Same transform over a real localhost TCP mesh.
fn wire_spectrum(
    dist: &DistSoiFft,
    n: usize,
    ranks: usize,
    schedule: ExchangeSchedule,
) -> Vec<Complex64> {
    let x = signal(n);
    let (xr, dr) = (&x, dist);
    let m = n / ranks;
    run_loopback(ranks, WireConfig::default(), move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        dr.run_with_hooks(
            comm,
            local,
            ChargePolicy::WallClock,
            &ThreadPool::serial(),
            schedule,
            |_, _| Ok(()),
        )
        .expect("soi run")
        .0
    })
    .expect("loopback mesh")
    .into_iter()
    .flatten()
    .collect()
}

#[test]
fn overlapped_matches_barriered_across_geometries_on_simnet() {
    // R ∈ {2,4,8} ranks × c ∈ {1,2,8} segments per rank (P = R·c up to
    // 64 segments) — every geometry the satellite grid names. N scales
    // with P so the halo (B·P points) always fits inside one segment.
    for ranks in [2usize, 4, 8] {
        for c in [1usize, 2, 8] {
            let p = ranks * c;
            let n = (p * 2048).max(1 << 14);
            let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10)
                .unwrap_or_else(|e| panic!("R={ranks} c={c}: {e}"));
            let dist = DistSoiFft::new(&params).unwrap();
            assert_eq!(dist.segments_per_rank(ranks), Ok(c));
            let barriered =
                simnet_spectrum(&dist, n, ranks, ExchangeSchedule::Barriered, 1);
            let overlapped =
                simnet_spectrum(&dist, n, ranks, ExchangeSchedule::Overlapped, 1);
            assert_bitwise_equal(&barriered, &overlapped, &format!("R={ranks} c={c}"));
        }
    }
}

#[test]
fn overlapped_matches_barriered_across_worker_counts() {
    // The overlapped callback runs each segment serially; worker count
    // must not move a single ulp on either schedule.
    let n = 1 << 14;
    let (ranks, p) = (2usize, 8usize);
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
    let dist = DistSoiFft::new(&params).unwrap();
    let reference = simnet_spectrum(&dist, n, ranks, ExchangeSchedule::Barriered, 1);
    for workers in [1usize, 2, 4] {
        let overlapped =
            simnet_spectrum(&dist, n, ranks, ExchangeSchedule::Overlapped, workers);
        assert_bitwise_equal(&reference, &overlapped, &format!("workers={workers}"));
        let barriered =
            simnet_spectrum(&dist, n, ranks, ExchangeSchedule::Barriered, workers);
        assert_bitwise_equal(&reference, &barriered, &format!("workers={workers} barriered"));
    }
}

#[test]
fn overlapped_matches_barriered_on_the_wire() {
    let n = 1 << 16;
    let p = 8;
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits12).unwrap();
    let dist = DistSoiFft::new(&params).unwrap();
    for ranks in [2usize, 8] {
        let barriered = wire_spectrum(&dist, n, ranks, ExchangeSchedule::Barriered);
        let overlapped = wire_spectrum(&dist, n, ranks, ExchangeSchedule::Overlapped);
        assert_bitwise_equal(&barriered, &overlapped, &format!("wire R={ranks}"));
        // And the wire pipeline agrees with simnet under overlap, so the
        // cross-transport contract holds on the new schedule too.
        let sim = simnet_spectrum(&dist, n, ranks, ExchangeSchedule::Overlapped, 1);
        assert_bitwise_equal(&sim, &overlapped, &format!("wire vs simnet R={ranks}"));
    }
}

#[test]
fn recovered_overlapped_run_matches_barriered_baseline() {
    // Kill a rank at the exchange-adjacent boundaries under the DEFAULT
    // schedule (overlapped — the test env does not set SOI_NO_OVERLAP),
    // recover from checkpoints, and demand the recovered spectrum match
    // an undisturbed *barriered* run bit for bit.
    let n = 1 << 14;
    let (p, ranks, victim) = (8usize, 4usize, 1usize);
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
    let dist = DistSoiFft::new(&params).unwrap();
    let want = simnet_spectrum(&dist, n, ranks, ExchangeSchedule::Barriered, 1);
    let x = signal(n);
    let m = n / ranks;
    for boundary in [4usize, 5, 6] {
        let store = MemStore::new(ranks);
        let (xr, dr, st) = (&x, &dist, &store);
        // Attempt 0: the fault fires at `boundary` on the victim.
        let out0 = Cluster::ideal(ranks).run_collect(move |comm| {
            let rank = comm.rank();
            let local = &xr[rank * m..(rank + 1) * m];
            let fault = (rank == victim).then(|| FaultPlan::fail_comm(victim, boundary));
            run_checkpointed(
                dr,
                comm,
                local,
                ChargePolicy::WallClock,
                &ThreadPool::serial(),
                st,
                0,
                fault,
            )
        });
        assert!(
            matches!(out0[victim], Err(SoiError::Comm(_))),
            "victim must die at boundary {boundary}"
        );
        // Attempt 1: every rank replays from its checkpoint.
        let y: Vec<Complex64> = Cluster::ideal(ranks)
            .run_collect(move |comm| {
                let ckpt = st.load(comm.rank()).unwrap().expect("checkpoint");
                run_checkpointed(
                    dr,
                    comm,
                    &ckpt.x_local,
                    ChargePolicy::WallClock,
                    &ThreadPool::serial(),
                    st,
                    1,
                    None,
                )
                .expect("replay must succeed")
                .0
            })
            .into_iter()
            .flatten()
            .collect();
        assert_bitwise_equal(&want, &y, &format!("recovered boundary {boundary}"));
    }
}
