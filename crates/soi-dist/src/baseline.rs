//! The industry-standard triple-all-to-all distributed 1-D FFT — the
//! baseline SOI is measured against (the paper's overview diagram; the
//! decomposition MKL, FFTW and FFTE all implement).
//!
//! With `N = M·P` viewed as an `M×P` matrix (row-major, block-distributed
//! by rows):
//!
//! 1. **transpose #1** → `P×M`; rank `s` now owns original column `j₂=s`;
//! 2. local length-`M` FFT per owned row, then twiddle by `ω_N^{j₂k₁}`
//!    (the "M sets of length-P FFTs … elementwise scaling" step order is
//!    mirrored here as column FFTs first — algebraically the same
//!    factorization);
//! 3. **transpose #2** → back to `M×P`; rank `s` owns rows `k₁`;
//! 4. local length-`P` FFT per row;
//! 5. **transpose #3** → `P×M`; rank `s` ends with `y[sM..(s+1)M)` in
//!    natural order.
//!
//! Exactly three all-to-alls, `O(N log N)` arithmetic, in-order input and
//! output — the properties the paper ascribes to all standard
//! implementations (§1–2).

use crate::comm::{CommError, Communicator};
use crate::dtranspose::distributed_transpose;
use crate::rates::{ChargePolicy, WorkKind};
use crate::times::PhaseTimes;
use soi_core::SoiError;
use soi_fft::batch::BatchFft;
use soi_fft::flops::fft_flops;
use soi_fft::plan::{Direction, Plan, Planner};
use soi_num::Complex64;
use std::time::Instant;

/// How the global transposes exchange data (Fig 3: "the MPI all-to-all
/// primitive, or … non-blocking send-receive").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeVariant {
    /// One collective all-to-all per transpose.
    Collective,
    /// `P−1` paired send/receive rounds per transpose.
    Pairwise,
}

/// A prepared baseline transform (shared read-only across ranks).
#[derive(Debug)]
pub struct BaselineFft {
    n: usize,
    p: usize,
    m: usize,
    plan_m: std::sync::Arc<Plan<f64>>,
    batch_p: BatchFft<f64>,
    variant: ExchangeVariant,
}

impl BaselineFft {
    /// Plan for `n` points over `p` ranks (requires `p | n` and `p | n/p`).
    /// Plans come from the process-wide [`Planner::global`] cache, shared
    /// with the SOI pipeline's own plans.
    pub fn new(n: usize, p: usize, variant: ExchangeVariant) -> Self {
        assert!(p >= 1 && n % p == 0, "p must divide n");
        let m = n / p;
        assert!(m % p == 0, "baseline needs P | M for balanced transposes");
        let planner = Planner::global();
        Self {
            n,
            p,
            m,
            plan_m: planner.plan(m, Direction::Forward),
            batch_p: BatchFft::with_plan(planner.plan(p, Direction::Forward)),
            variant,
        }
    }

    /// Total size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the empty (unconstructible) plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Execute on one rank; `x_local` is this rank's `M` points, returns
    /// its `M` output points (natural order) and the phase breakdown.
    /// Generic over the transport, like [`crate::soi::DistSoiFft::run`].
    pub fn run<C: Communicator>(
        &self,
        comm: &mut C,
        x_local: &[Complex64],
        policy: ChargePolicy,
    ) -> Result<(Vec<Complex64>, PhaseTimes), SoiError> {
        assert_eq!(comm.size(), self.p, "cluster size mismatch");
        assert_eq!(x_local.len(), self.m, "rank input must be M points");
        let (n, p, m) = (self.n, self.p, self.m);
        let rank = comm.rank();
        let mut times = PhaseTimes::default();
        let mem = std::mem::size_of::<Complex64>() as f64;

        // Transpose #1: M×P → P×M (I own one row of length M per p=P).
        let a = self.transpose_step(comm, x_local, m, p, policy, &mut times)?;

        // Length-M FFT on each owned row (rows_here = P/P = 1 when the
        // matrix is P×M; kept general).
        let rows_here = p / p * (a.len() / m);
        let t0 = Instant::now();
        let mut a = a;
        let mut scratch = vec![Complex64::ZERO; m];
        for row in a.chunks_exact_mut(m) {
            self.plan_m.execute_with_scratch(row, &mut scratch);
        }
        let dt = policy.charge(
            WorkKind::Fft,
            rows_here as f64 * fft_flops(m),
            t0.elapsed().as_secs_f64(),
        );
        comm.charge_compute(dt);
        times.fft_large += dt;

        // Twiddle: my row is original column j₂ = rank (for one row per
        // rank; general: row index = rank·rows + r).
        let t0 = Instant::now();
        let rows_owned = a.len() / m;
        for (r, row) in a.chunks_exact_mut(m).enumerate() {
            let j2 = rank * rows_owned + r;
            for (k1, v) in row.iter_mut().enumerate() {
                *v = *v * Complex64::root_of_unity(j2 * k1 % n, n);
            }
        }
        let dt = policy.charge(
            WorkKind::Mem,
            2.0 * a.len() as f64 * mem,
            t0.elapsed().as_secs_f64(),
        );
        comm.charge_compute(dt);
        times.scale += dt;

        // Transpose #2: P×M → M×P (I own M/P rows of length P).
        let mut b = self.transpose_step(comm, &a, p, m, policy, &mut times)?;

        // Length-P FFT per row.
        let t0 = Instant::now();
        self.batch_p.execute(&mut b);
        let dt = policy.charge(
            WorkKind::Fft,
            (m / p) as f64 * fft_flops(p),
            t0.elapsed().as_secs_f64(),
        );
        comm.charge_compute(dt);
        times.fft_small += dt;

        // Transpose #3: M×P → P×M; my row is y[rank·M ..].
        let y = self.transpose_step(comm, &b, m, p, policy, &mut times)?;
        Ok((y, times))
    }

    /// One distributed transpose with pack/exchange time charging.
    fn transpose_step<C: Communicator>(
        &self,
        comm: &mut C,
        local: &[Complex64],
        rows: usize,
        cols: usize,
        policy: ChargePolicy,
        times: &mut PhaseTimes,
    ) -> Result<Vec<Complex64>, CommError> {
        let c0 = comm.comm_seconds();
        let t0 = Instant::now();
        let (out, pack_bytes) = match self.variant {
            ExchangeVariant::Collective => distributed_transpose(comm, local, rows, cols)?,
            ExchangeVariant::Pairwise => distributed_transpose_pairwise(comm, local, rows, cols)?,
        };
        let exchange = comm.comm_seconds() - c0;
        times.exchange += exchange;
        // Wall time of the whole step minus the exchange approximates the
        // local pack work; in Rates mode the modeled bytes are charged.
        let wall_pack = (t0.elapsed().as_secs_f64() - exchange).max(0.0);
        let dt = policy.charge(WorkKind::Mem, pack_bytes as f64, wall_pack);
        comm.charge_compute(dt);
        times.pack += dt;
        Ok(out)
    }
}

/// Pairwise-exchange version of [`distributed_transpose`]: same local
/// permutations, but the wire exchange uses `P−1` send/receive rounds.
pub fn distributed_transpose_pairwise<C: Communicator>(
    comm: &mut C,
    local: &[Complex64],
    rows: usize,
    cols: usize,
) -> Result<(Vec<Complex64>, u64), CommError> {
    let p = comm.size();
    assert!(rows % p == 0 && cols % p == 0);
    let rb = rows / p;
    let cb = cols / p;
    assert_eq!(local.len(), rb * cols);
    let rank = comm.rank();
    // Pack per destination, as in the collective version.
    let mut blocks: Vec<Vec<Complex64>> = Vec::with_capacity(p);
    for d in 0..p {
        let mut blk = vec![Complex64::ZERO; rb * cb];
        for c in 0..cb {
            for r in 0..rb {
                blk[c * rb + r] = local[r * cols + d * cb + c];
            }
        }
        blocks.push(blk);
    }
    let mut out = vec![Complex64::ZERO; cb * rows];
    let place = |src: usize, block: &[Complex64], out: &mut [Complex64]| {
        for c in 0..cb {
            for r in 0..rb {
                out[c * rows + src * rb + r] = block[c * rb + r];
            }
        }
    };
    place(rank, &blocks[rank], &mut out);
    for round in 1..p {
        let dst = (rank + round) % p;
        let src = (rank + p - round) % p;
        let got = comm.sendrecv(dst, &blocks[dst], src)?;
        place(src, &got, &mut out);
    }
    let pack_bytes = 2 * (local.len() * std::mem::size_of::<Complex64>()) as u64;
    Ok((out, pack_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_num::complex::rel_l2_error;
    use soi_simnet::{Cluster, Fabric};

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.61).sin(), (i as f64 * 0.23).cos()))
            .collect()
    }

    fn run_baseline(n: usize, p: usize, variant: ExchangeVariant) -> Vec<Complex64> {
        let plan = BaselineFft::new(n, p, variant);
        let x = signal(n);
        let (xr, planr, m) = (&x, &plan, n / p);
        let pieces = Cluster::ideal(p).run_collect(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            planr.run(comm, local, ChargePolicy::WallClock).expect("baseline run").0
        });
        pieces.into_iter().flatten().collect()
    }

    #[test]
    fn matches_exact_fft() {
        for (n, p) in [(1usize << 10, 4usize), (1 << 12, 8), (4096, 2)] {
            let y = run_baseline(n, p, ExchangeVariant::Collective);
            let exact = soi_fft::fft_forward(&signal(n));
            let err = rel_l2_error(&y, &exact);
            assert!(err < 1e-10, "n={n} p={p}: {err:e}");
        }
    }

    #[test]
    fn pairwise_variant_matches_collective() {
        let n = 1 << 10;
        let a = run_baseline(n, 4, ExchangeVariant::Collective);
        let b = run_baseline(n, 4, ExchangeVariant::Pairwise);
        assert!(rel_l2_error(&a, &b) < 1e-14);
    }

    #[test]
    fn exactly_three_all_to_alls() {
        let n = 1 << 10;
        let p = 4;
        let plan = BaselineFft::new(n, p, ExchangeVariant::Collective);
        let x = signal(n);
        let (xr, planr, m) = (&x, &plan, n / p);
        let reports = Cluster::new(p, Fabric::ethernet_10g()).run(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            planr.run(comm, local, ChargePolicy::WallClock).expect("baseline run").0
        });
        for (_, rep) in &reports {
            assert_eq!(
                rep.stats.all_to_alls, 3,
                "baseline must perform exactly three all-to-alls"
            );
        }
    }

    #[test]
    fn baseline_moves_about_3x_the_soi_bytes() {
        // The communication-volume story of the whole paper, in one test:
        // baseline wire bytes ≈ 3N vs SOI ≈ (1+β)N per rank.
        let n = 1 << 12;
        let p = 4;
        let x = signal(n);
        let m = n / p;

        let plan = BaselineFft::new(n, p, ExchangeVariant::Collective);
        let (xr, planr) = (&x, &plan);
        let base_reports = Cluster::ideal(p).run(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            planr.run(comm, local, ChargePolicy::WallClock).expect("baseline run").0
        });
        let base_bytes: u64 = base_reports.iter().map(|(_, r)| r.stats.bytes_sent).sum();

        let params = soi_core::SoiParams::with_preset(n, p, soi_window::AccuracyPreset::Digits10)
            .unwrap();
        let dist = crate::soi::DistSoiFft::new(&params).unwrap();
        let (xr, distr) = (&x, &dist);
        let soi_reports = Cluster::ideal(p).run(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            distr.run(comm, local, ChargePolicy::WallClock).expect("soi run").0
        });
        let soi_bytes: u64 = soi_reports.iter().map(|(_, r)| r.stats.bytes_sent).sum();

        let ratio = base_bytes as f64 / soi_bytes as f64;
        // Expected ≈ 3/(1+β) = 2.4 (±off-diagonal and halo effects).
        assert!(
            (1.9..2.9).contains(&ratio),
            "byte ratio {ratio}: baseline {base_bytes}, SOI {soi_bytes}"
        );
    }

    #[test]
    #[should_panic(expected = "P | M")]
    fn rejects_unbalanced_shapes() {
        let _ = BaselineFft::new(64, 16, ExchangeVariant::Collective);
    }
}
