//! The distributed SOI FFT — Fig 2 of the paper, one phase at a time:
//!
//! 1. **halo** — fetch `B·P` points from the right neighbor (the only
//!    point-to-point traffic; "negligible" per §2);
//! 2. **convolution** — the local slice of `W·x` (`M'/R` groups of `P`);
//! 3. **F_P batch** — `I ⊗ F_P` on the local groups;
//! 4. **pack** — node-local permutation gathering same-destination data
//!    (Fig 3). Phases 2–4 run block by block in L2 as one front end
//!    ([`SoiFft::front_end`]), straight into the send buffer;
//! 5. **all-to-all** — the single global exchange (`P_perm^{P,N'}`);
//! 6. **F_{M'}** — one oversampled FFT per owned segment;
//! 7. **demodulate** — project to `M` bins and divide by `ŵ(k)`.
//!
//! Phases 5–7 run on one of two [`ExchangeSchedule`]s. The default
//! `Overlapped` schedule streams the exchange at segment granularity and
//! starts each owned segment's F_{M'} + demodulation the moment its rows
//! land, hiding compute under the remaining traffic; `Barriered`
//! (`SOI_NO_OVERLAP=1`) keeps the classic exchange → unpack → FFT →
//! demodulate sequence. Both produce bitwise-identical output.
//!
//! The segment count `P` may be a multiple of the rank count `R` (§6a:
//! "In general, P can be a multiple of number of processor nodes,
//! increasing the granularity of parallelism" — the paper's own runs used
//! 8 segments per process, Table 1). Each rank owns `c = P/R` consecutive
//! segments; output stays in natural order: rank `r` ends with
//! `y[r·cM..(r+1)·cM)`.

use crate::comm::Communicator;
use crate::rates::{ChargePolicy, WorkKind};
use crate::times::PhaseTimes;
use soi_core::{SoiError, SoiFft, SoiParams};
use soi_fft::flops::{conv_flops, fft_flops};
use soi_num::Complex64;
use soi_pool::{part_range, SlicePtr, ThreadPool};
use std::sync::OnceLock;
use std::time::Instant;

/// How the global exchange interleaves with the compute that consumes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeSchedule {
    /// Stream the all-to-all at segment granularity and run each owned
    /// segment's F_{M'} + demodulation the moment its rows land, hiding
    /// per-segment compute under the remaining segments' traffic. The
    /// segment-major delivery layout doubles as the x̃ layout, so the
    /// post-exchange unpack pass disappears entirely.
    Overlapped,
    /// The pre-pipelined schedule: one barriered all-to-all, an unpack
    /// pass, then every F_{M'}, then demodulation. Kept as the ablation
    /// baseline and the bitwise reference the overlapped path must match.
    Barriered,
}

impl ExchangeSchedule {
    /// Process-wide default: `Overlapped`, unless `SOI_NO_OVERLAP` is set
    /// (mirroring `SOI_NO_SIMD` for the kernel ablation — read once, so a
    /// process never mixes schedules mid-run by accident).
    pub fn from_env() -> Self {
        if no_overlap_env() {
            ExchangeSchedule::Barriered
        } else {
            ExchangeSchedule::Overlapped
        }
    }
}

/// `SOI_NO_OVERLAP` set to anything but `""`/`"0"` forces the barriered
/// schedule (same contract as `SOI_NO_SIMD`).
fn no_overlap_env() -> bool {
    static V: OnceLock<bool> = OnceLock::new();
    *V.get_or_init(|| {
        std::env::var("SOI_NO_OVERLAP")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// A prepared distributed SOI transform (shared read-only across ranks).
#[derive(Debug)]
pub struct DistSoiFft {
    soi: SoiFft,
}

impl DistSoiFft {
    /// Build from parameters (`P` must equal the cluster size at run time).
    pub fn new(params: &SoiParams) -> Result<Self, SoiError> {
        Ok(Self {
            soi: SoiFft::new(params)?,
        })
    }

    /// The resolved configuration.
    pub fn config(&self) -> &soi_core::SoiConfig {
        self.soi.config()
    }

    /// The underlying single-node object (plans + coefficient tables).
    pub fn local(&self) -> &SoiFft {
        &self.soi
    }

    /// Segments each rank of an `r`-rank cluster would own (`P/R`).
    ///
    /// # Errors
    /// [`SoiError::BadRankCount`] if `r` does not divide the configured
    /// segment count; [`SoiError::BadAlignment`] if the per-rank row count
    /// would not align with the μ-row coefficient chunks. Call sites that
    /// want the old abort-on-misconfiguration behaviour use `.expect()`.
    pub fn segments_per_rank(&self, ranks: usize) -> Result<usize, SoiError> {
        let cfg = self.soi.config();
        if ranks < 1 || cfg.p % ranks != 0 {
            return Err(SoiError::BadRankCount(format!(
                "rank count {ranks} must divide segment count P = {}",
                cfg.p
            )));
        }
        let rows = cfg.m_prime / ranks;
        if rows % cfg.mu != 0 {
            return Err(SoiError::BadAlignment(format!(
                "rows per rank {rows} must align with mu = {} chunks",
                cfg.mu
            )));
        }
        Ok(cfg.p / ranks)
    }

    /// Execute on one rank of an `R`-rank cluster, `R` dividing `P`.
    ///
    /// `x_local` is this rank's `c·M` input points (`c = P/R` segments);
    /// returns this rank's `c·M` output points plus the phase breakdown.
    /// Serial per-rank compute; see [`Self::run_with`] for the threaded
    /// (MPI+OpenMP-style) hybrid. Generic over the transport: the same
    /// code runs on the simulated cluster and over real sockets.
    pub fn run<C: Communicator>(
        &self,
        comm: &mut C,
        x_local: &[Complex64],
        policy: ChargePolicy,
    ) -> Result<(Vec<Complex64>, PhaseTimes), SoiError> {
        self.run_with(comm, x_local, policy, &ThreadPool::serial())
    }

    /// [`Self::run`] with per-rank compute fanned across `pool` — the
    /// paper's hybrid model (ranks for the all-to-all, threads for the
    /// node-local convolution, batch F_P, pack, and F_{M'}). Chunk
    /// boundaries are deterministic, so the output is bitwise identical
    /// to the serial `run` for any worker count.
    pub fn run_with<C: Communicator>(
        &self,
        comm: &mut C,
        x_local: &[Complex64],
        policy: ChargePolicy,
        pool: &ThreadPool,
    ) -> Result<(Vec<Complex64>, PhaseTimes), SoiError> {
        self.run_with_hooks(comm, x_local, policy, pool, |_, _| Ok(()))
    }

    /// [`Self::run_with`] with a callback at every phase boundary — the
    /// seam the checkpoint/recovery layer ([`crate::recover`]) hangs off.
    ///
    /// `hook(comm, k)` fires at boundary `k ∈ 0..=7`: `0` before the halo
    /// exchange, then after each phase in pipeline order — `1` halo,
    /// `2` convolution, `3` F_P batch, `4` pack, `5` all-to-all (+unpack),
    /// `6` F_{M'}, `7` demodulation (i.e. run complete). An `Err` from the
    /// hook aborts the run at that boundary and propagates; a fault
    /// injector uses this to crash a rank at an exact point, a checkpoint
    /// writer to persist progress. The hook runs *outside* phase trace
    /// spans and is not charged to any phase, so a no-op hook leaves the
    /// run observationally identical to [`Self::run_with`].
    ///
    /// The convolution, F_P batch and pack run block by block as one
    /// front end ([`SoiFft::front_end`]), so boundaries `2`, `3` and `4`
    /// fire back-to-back after it. Under the default
    /// [`ExchangeSchedule::Overlapped`] schedule the exchange, F_{M'},
    /// and demodulation fuse into one streamed region; boundaries `5` and
    /// `6` then fire back-to-back after it. Both checkpoint consumers
    /// store phase *inputs*, so replay from any boundary is
    /// schedule-independent.
    pub fn run_with_hooks<C, F>(
        &self,
        comm: &mut C,
        x_local: &[Complex64],
        policy: ChargePolicy,
        pool: &ThreadPool,
        hook: F,
    ) -> Result<(Vec<Complex64>, PhaseTimes), SoiError>
    where
        C: Communicator,
        F: FnMut(&mut C, usize) -> Result<(), SoiError>,
    {
        self.run_with_hooks_scheduled(comm, x_local, policy, pool, ExchangeSchedule::from_env(), hook)
    }

    /// [`Self::run_with_hooks`] with the exchange schedule pinned
    /// explicitly instead of read from `SOI_NO_OVERLAP` — the seam the
    /// equivalence tests use to compare both schedules inside one
    /// process. The two schedules produce bitwise-identical output.
    pub fn run_with_hooks_scheduled<C, F>(
        &self,
        comm: &mut C,
        x_local: &[Complex64],
        policy: ChargePolicy,
        pool: &ThreadPool,
        schedule: ExchangeSchedule,
        mut hook: F,
    ) -> Result<(Vec<Complex64>, PhaseTimes), SoiError>
    where
        C: Communicator,
        F: FnMut(&mut C, usize) -> Result<(), SoiError>,
    {
        let cfg = *self.soi.config();
        let ranks = comm.size();
        let c = self.segments_per_rank(ranks)?;
        let local_pts = c * cfg.m;
        if x_local.len() != local_pts {
            return Err(SoiError::BadInput {
                expected: local_pts,
                got: x_local.len(),
            });
        }
        let rank = comm.rank();
        let p = cfg.p;
        let rows = cfg.m_prime / ranks; // P-groups computed on this rank
        let mut times = PhaseTimes::default();
        // Cloned handle so phase spans interleave with `&mut comm` calls;
        // clones share one buffer (disabled outside traced runs).
        let trace = comm.trace_handle();

        hook(comm, 0)?;

        // 1. Halo exchange: my first halo_len points go to the LEFT
        // neighbor (whose window overruns into my block); I receive the
        // prefix of my RIGHT neighbor.
        trace.span_begin("halo", comm.clock_now());
        let c0 = comm.comm_seconds();
        let left = (rank + ranks - 1) % ranks;
        let right = (rank + 1) % ranks;
        let halo = comm.sendrecv(left, &x_local[..cfg.halo_len()], right)?;
        times.halo = comm.comm_seconds() - c0;
        trace.span_end("halo", comm.clock_now());
        hook(comm, 1)?;

        // 2–4. Convolution over my row range (global rows
        // r·rows..(r+1)·rows; the coefficient table is row-periodic with
        // period μ | rows, so the kernels run rank-relative unchanged),
        // I ⊗ F_P, and the pack (Fig 3's local permutation), block by
        // block. The pack writes lane-major (p × rows), which
        // concatenates lanes s = 0..P in order — destination d's block
        // is exactly lanes [d·c, (d+1)·c), already segment-major.
        let mut send = vec![Complex64::ZERO; rows * p];
        let front = self
            .soi
            .front_end(x_local, &halo, &mut send, p, pool, &trace);
        // Charge each phase as its own modeled work item.
        let pack_bytes = 2.0 * (rows * p * std::mem::size_of::<Complex64>()) as f64;
        times.conv = policy.charge(WorkKind::Conv, conv_flops(rows * p, cfg.b), front.conv);
        times.fft_small = policy.charge(WorkKind::Fft, rows as f64 * fft_flops(p), front.fft_p);
        times.pack = policy.charge(WorkKind::Mem, pack_bytes, front.pack);
        for dt in [times.conv, times.fft_small, times.pack] {
            comm.charge_compute(dt);
        }
        // The blocks crossed boundaries 2–4 at once; fire the hooks in
        // pipeline order (checkpoints persist phase inputs, so replay
        // from any of them is unchanged).
        hook(comm, 2)?;
        hook(comm, 3)?;
        hook(comm, 4)?;

        if schedule == ExchangeSchedule::Overlapped {
            // 5–7 fused. The streamed exchange delivers segment-major, so
            // each landing sub-block already sits in its x̃ slot (delivery
            // IS the unpack), and the moment segment `si` completes its
            // F_{M'} + demodulation run inside the collective — hidden
            // under the remaining segments' traffic. Per-segment math is
            // identical to the barriered arm (independent segments, same
            // serial kernels), so the output is bitwise identical.
            trace.span_begin("exchange", comm.clock_now());
            let c0 = comm.comm_seconds();
            let mut xt = vec![Complex64::ZERO; c * cfg.m_prime];
            let mut y = vec![Complex64::ZERO; local_pts];
            let mut scratch = vec![Complex64::ZERO; self.soi.plan_m().scratch_len()];
            let demod = &self.soi.coefficients().demod;
            let (mut fft_wall, mut demod_wall) = (0.0f64, 0.0f64);
            let trace_cb = &trace;
            let y_out = &mut y;
            comm.all_to_all_seg(&send, &mut xt, c, &mut |si, seg, clock| {
                trace_cb.span_begin("fft_m", clock);
                let t0 = Instant::now();
                self.soi.plan_m().execute_with_scratch(seg, &mut scratch);
                fft_wall += t0.elapsed().as_secs_f64();
                trace_cb.span_end("fft_m", clock);
                trace_cb.span_begin("demod", clock);
                let t0 = Instant::now();
                for k in 0..cfg.m {
                    y_out[si * cfg.m + k] = seg[k] * demod[k];
                }
                demod_wall += t0.elapsed().as_secs_f64();
                trace_cb.span_end("demod", clock);
            })?;
            times.exchange = comm.comm_seconds() - c0;
            trace.span_end("exchange", comm.clock_now());

            // Compute was measured inside the callbacks (the transports
            // exclude it from comm time); charge it once per phase so the
            // ledger matches the barriered breakdown.
            let dt = policy.charge(WorkKind::Fft, c as f64 * fft_flops(cfg.m_prime), fft_wall);
            comm.charge_compute(dt);
            times.fft_large = dt;
            let dt = policy.charge(
                WorkKind::Mem,
                2.0 * (local_pts * std::mem::size_of::<Complex64>()) as f64,
                demod_wall,
            );
            comm.charge_compute(dt);
            times.scale = dt;

            // The fused region crossed boundaries 5–7 at once; fire the
            // hooks in pipeline order (both checkpoint consumers persist
            // phase inputs, so replay semantics match the barriered arm).
            hook(comm, 5)?;
            hook(comm, 6)?;
            hook(comm, 7)?;
            return Ok((y, times));
        }

        // 5. THE all-to-all. From src I receive its rows for each of my c
        // segments: recv[src·c·rows + si·rows + jl] = x̃^{(my seg si)}[src·rows + jl].
        trace.span_begin("exchange", comm.clock_now());
        let c0 = comm.comm_seconds();
        let mut recv = vec![Complex64::ZERO; c * cfg.m_prime];
        comm.all_to_all(&send, &mut recv)?;
        times.exchange = comm.comm_seconds() - c0;
        trace.span_end("exchange", comm.clock_now());

        // 5b. Unpack into per-segment x̃ vectors (a second local
        // permutation; a no-op copy when c = 1 and R = P).
        trace.span_begin("pack", comm.clock_now());
        let t0 = Instant::now();
        let mut xt = vec![Complex64::ZERO; c * cfg.m_prime];
        for src in 0..ranks {
            for si in 0..c {
                let from = &recv[(src * c + si) * rows..(src * c + si + 1) * rows];
                xt[si * cfg.m_prime + src * rows..si * cfg.m_prime + (src + 1) * rows]
                    .copy_from_slice(from);
            }
        }
        let dt = policy.charge(
            WorkKind::Mem,
            2.0 * (xt.len() * std::mem::size_of::<Complex64>()) as f64,
            t0.elapsed().as_secs_f64(),
        );
        comm.charge_compute(dt);
        times.pack += dt;
        trace.span_end("pack", comm.clock_now());
        hook(comm, 5)?;

        // 6. F_{M'} per owned segment, one scratch stripe per worker.
        trace.span_begin("fft_m", comm.clock_now());
        let t0 = Instant::now();
        let scr_len = self.soi.plan_m().scratch_len();
        let parts = pool.threads().min(c).max(1);
        let mut scratch = vec![Complex64::ZERO; parts * scr_len];
        if parts == 1 {
            for seg in xt.chunks_exact_mut(cfg.m_prime) {
                self.soi.plan_m().execute_with_scratch(seg, &mut scratch);
            }
        } else {
            let xt_ptr = SlicePtr::new(&mut xt);
            let scr_ptr = SlicePtr::new(&mut scratch);
            pool.run(parts, |t| {
                let (s0, sl) = part_range(c, parts, t);
                // SAFETY: segment ranges are disjoint across tasks and each
                // task owns scratch stripe `t`; borrows end at the barrier.
                let scr = unsafe { scr_ptr.slice(t * scr_len, scr_len) };
                for si in s0..s0 + sl {
                    let seg = unsafe { xt_ptr.slice(si * cfg.m_prime, cfg.m_prime) };
                    self.soi.plan_m().execute_with_scratch(seg, scr);
                }
            });
        }
        let dt = policy.charge(
            WorkKind::Fft,
            c as f64 * fft_flops(cfg.m_prime),
            t0.elapsed().as_secs_f64(),
        );
        comm.charge_compute(dt);
        times.fft_large = dt;
        trace.span_end("fft_m", comm.clock_now());
        hook(comm, 6)?;

        // 7. Project + demodulate each segment.
        trace.span_begin("demod", comm.clock_now());
        let t0 = Instant::now();
        let demod = &self.soi.coefficients().demod;
        let mut y = Vec::with_capacity(local_pts);
        for si in 0..c {
            let seg = &xt[si * cfg.m_prime..(si + 1) * cfg.m_prime];
            y.extend((0..cfg.m).map(|k| seg[k] * demod[k]));
        }
        let dt = policy.charge(
            WorkKind::Mem,
            2.0 * (local_pts * std::mem::size_of::<Complex64>()) as f64,
            t0.elapsed().as_secs_f64(),
        );
        comm.charge_compute(dt);
        times.scale = dt;
        trace.span_end("demod", comm.clock_now());
        hook(comm, 7)?;

        Ok((y, times))
    }

    /// Half-segments each rank of an `r`-rank cluster would own in the
    /// real-input transform (`(P/2)/R` — conjugate symmetry makes only
    /// the first `P/2` segments worth exchanging).
    ///
    /// # Errors
    /// [`SoiError::BadSize`] if the segment count is odd (the Hermitian
    /// fold pairs lane `s` with lane `P−s`); [`SoiError::BadRankCount`]
    /// if `r` does not divide `P/2`; [`SoiError::BadAlignment`] if the
    /// per-rank row count would not align with the μ-row chunks.
    pub fn half_segments_per_rank(&self, ranks: usize) -> Result<usize, SoiError> {
        let cfg = self.soi.config();
        if cfg.p % 2 != 0 {
            return Err(SoiError::BadSize(format!(
                "real-input transform needs an even segment count, got P = {}",
                cfg.p
            )));
        }
        let ph = cfg.p / 2;
        if ranks < 1 || ph % ranks != 0 {
            return Err(SoiError::BadRankCount(format!(
                "rank count {ranks} must divide the half-segment count P/2 = {ph}"
            )));
        }
        let rows = cfg.m_prime / ranks;
        if rows % cfg.mu != 0 {
            return Err(SoiError::BadAlignment(format!(
                "rows per rank {rows} must align with mu = {} chunks",
                cfg.mu
            )));
        }
        Ok(ph / ranks)
    }

    /// Real-input (r2c) transform on one rank of an `R`-rank cluster.
    ///
    /// `x_local` is this rank's `N/R` **real** samples. The pipeline is
    /// the complex [`Self::run`] with the redundancy of a real signal
    /// removed at every layer: the halo moves raw `f64`s (half the
    /// bytes), the convolution runs the halved real kernel, and — the
    /// headline — the all-to-all carries only the first `P/2` segments,
    /// since conjugate symmetry (`X[N−k] = conj(X[k])`) makes segments
    /// `P/2..P` derivable from the kept half. The exchange volume is
    /// therefore half the complex transform's.
    ///
    /// Each rank returns the `(P/2)/R · M` packed half-spectrum bins of
    /// its owned half-segments; the LAST rank additionally appends the
    /// Nyquist bin `y[N/2]`, so concatenating rank outputs yields the
    /// same `N/2 + 1`-point packed half-spectrum as
    /// [`soi_core::SoiFft::transform_real`].
    pub fn run_real<C: Communicator>(
        &self,
        comm: &mut C,
        x_local: &[f64],
        policy: ChargePolicy,
    ) -> Result<(Vec<Complex64>, PhaseTimes), SoiError> {
        self.run_real_with(comm, x_local, policy, &ThreadPool::serial())
    }

    /// [`Self::run_real`] with per-rank compute fanned across `pool`;
    /// bitwise identical to the serial run for any worker count.
    pub fn run_real_with<C: Communicator>(
        &self,
        comm: &mut C,
        x_local: &[f64],
        policy: ChargePolicy,
        pool: &ThreadPool,
    ) -> Result<(Vec<Complex64>, PhaseTimes), SoiError> {
        self.run_real_scheduled(comm, x_local, policy, pool, ExchangeSchedule::from_env())
    }

    /// [`Self::run_real_with`] with the exchange schedule pinned
    /// explicitly — the seam the equivalence tests use. Both schedules
    /// produce bitwise-identical output.
    pub fn run_real_scheduled<C: Communicator>(
        &self,
        comm: &mut C,
        x_local: &[f64],
        policy: ChargePolicy,
        pool: &ThreadPool,
        schedule: ExchangeSchedule,
    ) -> Result<(Vec<Complex64>, PhaseTimes), SoiError> {
        let cfg = *self.soi.config();
        let ranks = comm.size();
        let ch = self.half_segments_per_rank(ranks)?;
        let local_pts = cfg.n / ranks; // reals on this rank (= 2·ch·M)
        if x_local.len() != local_pts {
            return Err(SoiError::BadInput {
                expected: local_pts,
                got: x_local.len(),
            });
        }
        let rank = comm.rank();
        let p = cfg.p;
        let ph = p / 2;
        let rows = cfg.m_prime / ranks; // P-groups computed on this rank
        let out_pts = ch * cfg.m; // owned packed half-spectrum bins
        let mut times = PhaseTimes::default();
        let trace = comm.trace_handle();

        // 1. Halo exchange — same ring pattern as the complex run, on raw
        // reals: half the bytes per halo point.
        trace.span_begin("halo", comm.clock_now());
        let c0 = comm.comm_seconds();
        let left = (rank + ranks - 1) % ranks;
        let right = (rank + 1) % ranks;
        let halo = comm.sendrecv(left, &x_local[..cfg.halo_len()], right)?;
        times.halo = comm.comm_seconds() - c0;
        trace.span_end("halo", comm.clock_now());

        // 2–4. Real convolution over my row range (two real FMAs per
        // tap, half the arithmetic of the complex kernel), the full
        // complex I ⊗ F_P (every lane is F_P input; the redundancy only
        // becomes droppable after it), and the pack of lanes 0..P/2 only
        // — conjugate symmetry makes lanes P/2..P the mirror conjugates
        // of the kept half, so they never enter the send buffer.
        // Destination d's block is lanes [d·ch, (d+1)·ch), already
        // segment-major, exactly as in the complex pack.
        let mut send = vec![Complex64::ZERO; rows * ph];
        let front = self
            .soi
            .front_end(x_local, &halo, &mut send, ph, pool, &trace);
        // Real input halves the convolution's FMAs.
        let conv = conv_flops(rows * p, cfg.b) / 2.0;
        let pack_bytes = ((rows * (p + ph)) * std::mem::size_of::<Complex64>()) as f64;
        times.conv = policy.charge(WorkKind::Conv, conv, front.conv);
        times.fft_small = policy.charge(WorkKind::Fft, rows as f64 * fft_flops(p), front.fft_p);
        times.pack = policy.charge(WorkKind::Mem, pack_bytes, front.pack);
        for dt in [times.conv, times.fft_small, times.pack] {
            comm.charge_compute(dt);
        }

        // Nyquist bin: y[N/2] = Σ_j (−1)^j x_j is the one output the kept
        // half-segments cannot produce. Every rank folds its own slice —
        // local origins sit at even global offsets (N/R = 2·ch·M), so the
        // alternating signs line up — and the rank-order allreduce
        // combines the partials bitwise identically on every fabric.
        // Placed before the schedule split so both schedules share it.
        let c0 = comm.comm_seconds();
        let nyq = comm.allreduce_sum(soi_core::pipeline::nyquist_fold(x_local))?;
        times.exchange += comm.comm_seconds() - c0;

        if schedule == ExchangeSchedule::Overlapped {
            // 5–7 fused, exactly as the complex overlapped arm, over the
            // ch owned half-segments.
            trace.span_begin("exchange", comm.clock_now());
            let c0 = comm.comm_seconds();
            let mut xt = vec![Complex64::ZERO; ch * cfg.m_prime];
            let mut y = vec![Complex64::ZERO; out_pts];
            let mut scratch = vec![Complex64::ZERO; self.soi.plan_m().scratch_len()];
            let demod = &self.soi.coefficients().demod;
            let (mut fft_wall, mut demod_wall) = (0.0f64, 0.0f64);
            let trace_cb = &trace;
            let y_out = &mut y;
            comm.all_to_all_seg(&send, &mut xt, ch, &mut |si, seg, clock| {
                trace_cb.span_begin("fft_m", clock);
                let t0 = Instant::now();
                self.soi.plan_m().execute_with_scratch(seg, &mut scratch);
                fft_wall += t0.elapsed().as_secs_f64();
                trace_cb.span_end("fft_m", clock);
                trace_cb.span_begin("demod", clock);
                let t0 = Instant::now();
                for k in 0..cfg.m {
                    y_out[si * cfg.m + k] = seg[k] * demod[k];
                }
                demod_wall += t0.elapsed().as_secs_f64();
                trace_cb.span_end("demod", clock);
            })?;
            times.exchange += comm.comm_seconds() - c0;
            trace.span_end("exchange", comm.clock_now());

            let dt = policy.charge(WorkKind::Fft, ch as f64 * fft_flops(cfg.m_prime), fft_wall);
            comm.charge_compute(dt);
            times.fft_large = dt;
            let dt = policy.charge(
                WorkKind::Mem,
                2.0 * (out_pts * std::mem::size_of::<Complex64>()) as f64,
                demod_wall,
            );
            comm.charge_compute(dt);
            times.scale = dt;

            if rank == ranks - 1 {
                y.push(Complex64::new(nyq, 0.0));
            }
            return Ok((y, times));
        }

        // 5. The halved all-to-all: from src I receive its rows for each
        // of my ch half-segments.
        trace.span_begin("exchange", comm.clock_now());
        let c0 = comm.comm_seconds();
        let mut recv = vec![Complex64::ZERO; ch * cfg.m_prime];
        comm.all_to_all(&send, &mut recv)?;
        times.exchange += comm.comm_seconds() - c0;
        trace.span_end("exchange", comm.clock_now());

        // 5b. Unpack into per-half-segment x̃ vectors.
        trace.span_begin("pack", comm.clock_now());
        let t0 = Instant::now();
        let mut xt = vec![Complex64::ZERO; ch * cfg.m_prime];
        for src in 0..ranks {
            for si in 0..ch {
                let from = &recv[(src * ch + si) * rows..(src * ch + si + 1) * rows];
                xt[si * cfg.m_prime + src * rows..si * cfg.m_prime + (src + 1) * rows]
                    .copy_from_slice(from);
            }
        }
        let dt = policy.charge(
            WorkKind::Mem,
            2.0 * (xt.len() * std::mem::size_of::<Complex64>()) as f64,
            t0.elapsed().as_secs_f64(),
        );
        comm.charge_compute(dt);
        times.pack += dt;
        trace.span_end("pack", comm.clock_now());

        // 6. F_{M'} per owned half-segment, one scratch stripe per worker.
        trace.span_begin("fft_m", comm.clock_now());
        let t0 = Instant::now();
        let scr_len = self.soi.plan_m().scratch_len();
        let parts = pool.threads().min(ch).max(1);
        let mut scratch = vec![Complex64::ZERO; parts * scr_len];
        if parts == 1 {
            for seg in xt.chunks_exact_mut(cfg.m_prime) {
                self.soi.plan_m().execute_with_scratch(seg, &mut scratch);
            }
        } else {
            let xt_ptr = SlicePtr::new(&mut xt);
            let scr_ptr = SlicePtr::new(&mut scratch);
            pool.run(parts, |t| {
                let (s0, sl) = part_range(ch, parts, t);
                // SAFETY: segment ranges are disjoint across tasks and each
                // task owns scratch stripe `t`; borrows end at the barrier.
                let scr = unsafe { scr_ptr.slice(t * scr_len, scr_len) };
                for si in s0..s0 + sl {
                    let seg = unsafe { xt_ptr.slice(si * cfg.m_prime, cfg.m_prime) };
                    self.soi.plan_m().execute_with_scratch(seg, scr);
                }
            });
        }
        let dt = policy.charge(
            WorkKind::Fft,
            ch as f64 * fft_flops(cfg.m_prime),
            t0.elapsed().as_secs_f64(),
        );
        comm.charge_compute(dt);
        times.fft_large = dt;
        trace.span_end("fft_m", comm.clock_now());

        // 7. Project + demodulate each half-segment; the last rank
        // appends the Nyquist bin to complete the packed half-spectrum.
        trace.span_begin("demod", comm.clock_now());
        let t0 = Instant::now();
        let demod = &self.soi.coefficients().demod;
        let mut y = Vec::with_capacity(out_pts + 1);
        for si in 0..ch {
            let seg = &xt[si * cfg.m_prime..(si + 1) * cfg.m_prime];
            y.extend((0..cfg.m).map(|k| seg[k] * demod[k]));
        }
        let dt = policy.charge(
            WorkKind::Mem,
            2.0 * (out_pts * std::mem::size_of::<Complex64>()) as f64,
            t0.elapsed().as_secs_f64(),
        );
        comm.charge_compute(dt);
        times.scale = dt;
        trace.span_end("demod", comm.clock_now());
        if rank == ranks - 1 {
            y.push(Complex64::new(nyq, 0.0));
        }

        Ok((y, times))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_num::complex::rel_l2_error;
    use soi_simnet::{Cluster, Fabric};
    use soi_window::AccuracyPreset;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect()
    }

    fn run_distributed(n: usize, p: usize, preset: AccuracyPreset) -> Vec<Complex64> {
        let params = SoiParams::with_preset(n, p, preset).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        let x = signal(n);
        let xr = &x;
        let distr = &dist;
        let m = n / p;
        let pieces = Cluster::ideal(p).run_collect(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            distr.run(comm, local, ChargePolicy::WallClock).expect("soi run").0
        });
        pieces.into_iter().flatten().collect()
    }

    #[test]
    fn distributed_matches_exact_fft() {
        let n = 1 << 12;
        let y = run_distributed(n, 4, AccuracyPreset::Digits10);
        let exact = soi_fft::fft_forward(&signal(n));
        let err = rel_l2_error(&y, &exact);
        assert!(err < 2e-7, "err = {err:e}"); // Digits10 bound: κ·(ε_alias+ε_trunc) ≲ 2e-8
    }

    #[test]
    fn distributed_matches_single_process_soi_exactly_in_structure() {
        // Same window/params ⇒ distributed and single-process SOI should
        // agree to near machine precision (identical math, different
        // data motion).
        let n = 1 << 12;
        let p = 4;
        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits12).unwrap();
        let serial = SoiFft::new(&params).unwrap();
        let want = serial.transform(&signal(n)).unwrap();
        let got = run_distributed(n, p, AccuracyPreset::Digits12);
        let err = rel_l2_error(&got, &want);
        assert!(err < 1e-13, "distributed vs serial SOI: {err:e}");
    }

    #[test]
    fn eight_ranks_work() {
        let n = 1 << 14;
        let y = run_distributed(n, 8, AccuracyPreset::Digits10);
        let exact = soi_fft::fft_forward(&signal(n));
        assert!(rel_l2_error(&y, &exact) < 2e-7); // κ-aware Digits10 bound
    }

    #[test]
    fn exactly_one_all_to_all_happens() {
        // The paper's headline property, asserted mechanically.
        let n = 1 << 12;
        let p = 4;
        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        let x = signal(n);
        let (xr, distr, m) = (&x, &dist, n / p);
        let reports = Cluster::new(p, Fabric::ethernet_10g()).run(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            distr.run(comm, local, ChargePolicy::WallClock).expect("soi run").0
        });
        for (_, rep) in &reports {
            assert_eq!(rep.stats.all_to_alls, 1, "SOI must use exactly one all-to-all");
            // Plus exactly one halo p2p message.
            assert_eq!(rep.stats.p2p_messages, 1);
        }
    }

    #[test]
    fn phase_times_are_populated() {
        let n = 1 << 12;
        let p = 4;
        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        let x = signal(n);
        let (xr, distr, m) = (&x, &dist, n / p);
        let rates = ChargePolicy::Rates(crate::rates::ComputeRates::paper_node());
        let out = Cluster::new(p, Fabric::ethernet_10g()).run(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            distr.run(comm, local, rates).expect("soi run").1
        });
        for (times, rep) in &out {
            assert!(times.conv > 0.0);
            assert!(times.fft_small > 0.0);
            assert!(times.fft_large > 0.0);
            assert!(times.exchange > 0.0);
            assert!(times.pack > 0.0);
            // Rank virtual clock ≈ phases total.
            let total = times.total();
            assert!(
                (rep.sim_time - total).abs() < 0.2 * total + 1e-6,
                "clock {} vs phases {}",
                rep.sim_time,
                total
            );
        }
    }

    #[test]
    fn threaded_rank_compute_matches_serial_bitwise() {
        // MPI+OpenMP hybrid: each of 2 ranks runs its compute on 3
        // workers; the output must not move by a single ulp.
        let n = 1 << 13;
        let p = 8;
        let ranks = 2;
        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        let x = signal(n);
        let per_rank = n / ranks;
        let (xr, distr) = (&x, &dist);
        let collect = |workers: usize| -> Vec<Complex64> {
            Cluster::ideal(ranks)
                .run_collect(move |comm| {
                    let local = &xr[comm.rank() * per_rank..(comm.rank() + 1) * per_rank];
                    let pool = soi_pool::ThreadPool::new(workers);
                    distr
                        .run_with(comm, local, ChargePolicy::WallClock, &pool)
                        .expect("soi run")
                        .0
                })
                .into_iter()
                .flatten()
                .collect()
        };
        let serial = collect(1);
        for workers in [2usize, 3, 4] {
            let threaded = collect(workers);
            let same = serial
                .iter()
                .zip(&threaded)
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
            assert!(same, "hybrid run with {workers} workers diverged from serial");
        }
    }

    #[test]
    #[should_panic(expected = "must divide segment count")]
    fn non_dividing_cluster_size_panics() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        // The raw-assert era panicked here; the Result API keeps the
        // same observable contract through `.expect`.
        let _ = dist.segments_per_rank(3).expect("cluster size");
    }

    #[test]
    fn multiple_segments_per_rank_match_exact_fft() {
        // §6a / Table 1: the paper ran 8 segments per MPI process. Here:
        // P = 8 segments on R = 2 ranks (c = 4 per rank).
        let n = 1 << 13;
        let p = 8;
        let ranks = 2;
        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        assert_eq!(dist.segments_per_rank(ranks), Ok(4));
        let x = signal(n);
        let per_rank = n / ranks;
        let (xr, distr) = (&x, &dist);
        let y: Vec<Complex64> = Cluster::ideal(ranks)
            .run_collect(move |comm| {
                let local = &xr[comm.rank() * per_rank..(comm.rank() + 1) * per_rank];
                distr.run(comm, local, ChargePolicy::WallClock).expect("soi run").0
            })
            .into_iter()
            .flatten()
            .collect();
        let exact = soi_fft::fft_forward(&x);
        let err = rel_l2_error(&y, &exact);
        assert!(err < 2e-7, "multi-segment err = {err:e}");
    }

    #[test]
    fn multi_segment_agrees_with_one_segment_per_rank_bitwise_shape() {
        // Running P = 8 segments on 8, 4, 2 ranks must give the same
        // answer to rounding level — only the data motion differs.
        let n = 1 << 13;
        let p = 8;
        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits12).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        let x = signal(n);
        let (xr, distr) = (&x, &dist);
        let mut outputs = Vec::new();
        for ranks in [8usize, 4, 2, 1] {
            let per_rank = n / ranks;
            let y: Vec<Complex64> = Cluster::ideal(ranks)
                .run_collect(move |comm| {
                    let local = &xr[comm.rank() * per_rank..(comm.rank() + 1) * per_rank];
                    distr.run(comm, local, ChargePolicy::WallClock).expect("soi run").0
                })
                .into_iter()
                .flatten()
                .collect();
            outputs.push(y);
        }
        for pair in outputs.windows(2) {
            let err = rel_l2_error(&pair[0], &pair[1]);
            assert!(err < 1e-14, "rank layouts disagree: {err:e}");
        }
    }
}
