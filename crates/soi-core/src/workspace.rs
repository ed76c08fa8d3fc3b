//! Reusable execution state for the SOI pipeline: one worker pool plus
//! every intermediate buffer [`SoiFft::transform_into`] touches.
//!
//! The transform needs one `O(N')` buffer, the segment-major output of
//! the front end, plus per-worker `F_{M'}` scratch and the blocked front
//! end's small arena (one L2-sized stripe per worker and the wrap
//! buffer; see [`crate::front`]). A [`SoiWorkspace`] holds them all,
//! built once per configuration, so steady-state calls allocate nothing
//! and the worker pool persists across calls (spawn once, park between
//! jobs).
//!
//! **Reuse contract.** A workspace is bound to the exact configuration of
//! the [`SoiFft`] it was built from (sizes *and* FFT engine scratch
//! shapes). Passing it to a transform with a different configuration is
//! reported as [`SoiError::WorkspaceMismatch`]; reusing it across calls
//! of the same transform is the intended pattern and never requires
//! re-zeroing — every buffer region that is read is written first.

use crate::error::SoiError;
use crate::front::FrontArena;
use crate::pipeline::SoiFft;
use soi_num::{AlignedBuf, Complex64};
use soi_pool::ThreadPool;
use soi_trace::Trace;
use std::sync::Arc;

/// Preallocated buffers + worker pool for allocation-free SOI execution.
#[derive(Debug)]
pub struct SoiWorkspace {
    pub(crate) pool: Arc<ThreadPool>,
    /// Stride-permuted segment buffer (`N'`). The arena buffers are
    /// [`AlignedBuf`]s: a plain `Vec` this large is mmap-served at a
    /// 16-byte offset, which costs the SIMD kernels ~25% in straddled
    /// cache-line loads.
    pub(crate) seg: AlignedBuf<Complex64>,
    /// The front end's per-worker stripes and wrap buffer.
    pub(crate) front: FrontArena<Complex64>,
    /// Per-worker FFT scratch arena: `threads` stripes of `stride`.
    pub(crate) scratch: AlignedBuf<Complex64>,
    /// Stripe width of `scratch` (max engine scratch length).
    pub(crate) stride: usize,
    /// Configuration fingerprint: `(n, p, m_prime, halo_len)`.
    pub(crate) shape: (usize, usize, usize, usize),
    /// Phase-span recorder for [`SoiFft::transform_into`] (disabled by
    /// default — a null check per stage, no allocation).
    pub(crate) trace: Trace,
}

impl SoiWorkspace {
    /// Build a workspace for `soi` with a fresh pool of `threads` workers
    /// (`1` = fully serial, spawns no threads).
    pub fn new(soi: &SoiFft, threads: usize) -> Self {
        Self::with_pool(soi, Arc::new(ThreadPool::new(threads)))
    }

    /// Build a workspace for `soi` on an existing (possibly shared) pool.
    pub fn with_pool(soi: &SoiFft, pool: Arc<ThreadPool>) -> Self {
        let cfg = soi.config();
        let stride = soi
            .batch_p()
            .scratch_len()
            .max(soi.plan_m().scratch_len())
            // Whole cache lines per stripe (4 × 16-byte Complex64), so
            // every worker's stripe starts 64-byte aligned, not just the
            // arena base.
            .next_multiple_of(4);
        Self {
            seg: AlignedBuf::zeroed(cfg.n_prime),
            front: FrontArena::new(soi, cfg.n, pool.threads()),
            scratch: AlignedBuf::zeroed(pool.threads() * stride),
            stride,
            shape: (cfg.n, cfg.p, cfg.m_prime, cfg.halo_len()),
            trace: Trace::disabled(),
            pool,
        }
    }

    /// Attach a trace handle: subsequent [`SoiFft::transform_into`] calls
    /// on this workspace emit the pipeline stage spans ("halo", "conv",
    /// "fft_p", "pack", "fft_m"; the middle three once per front-end
    /// block of the calling worker). Pass [`Trace::disabled`] to detach.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The currently attached trace handle.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The worker pool this workspace executes on.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Shared handle to the pool (for building sibling workspaces).
    pub fn pool_arc(&self) -> Arc<ThreadPool> {
        Arc::clone(&self.pool)
    }

    /// Worker count, caller included.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Verify this workspace was built for `soi`'s configuration.
    pub(crate) fn check(&self, soi: &SoiFft) -> Result<(), SoiError> {
        let cfg = soi.config();
        let want = (cfg.n, cfg.p, cfg.m_prime, cfg.halo_len());
        let stride = soi
            .batch_p()
            .scratch_len()
            .max(soi.plan_m().scratch_len());
        if self.shape != want || self.stride < stride {
            return Err(SoiError::WorkspaceMismatch(format!(
                "workspace built for (n, p, m', halo) = {:?} with scratch stride {}, \
                 transform needs {:?} with stride {}",
                self.shape, self.stride, want, stride
            )));
        }
        Ok(())
    }
}

/// Preallocated buffers + worker pool for the **real-input** (r2c)
/// transform [`SoiFft::transform_real_into`].
///
/// Identical arena discipline to [`SoiWorkspace`], with the real-path
/// shapes: the wrap buffer holds *reals*, and the segment buffer holds
/// only the non-redundant `P/2` segments the Hermitian fold keeps.
#[derive(Debug)]
pub struct SoiRealWorkspace {
    pub(crate) pool: Arc<ThreadPool>,
    /// Segment buffer: the first `P/2` segments of `M'`.
    pub(crate) seg: AlignedBuf<Complex64>,
    /// The front end's per-worker stripes and real wrap buffer.
    pub(crate) front: FrontArena<f64>,
    /// Per-worker FFT scratch arena: `threads` stripes of `stride`.
    pub(crate) scratch: AlignedBuf<Complex64>,
    /// Stripe width of `scratch` (max engine scratch length).
    pub(crate) stride: usize,
    /// Configuration fingerprint: `(n, p, m_prime, halo_len)`.
    pub(crate) shape: (usize, usize, usize, usize),
    /// Phase-span recorder (disabled by default).
    pub(crate) trace: Trace,
}

impl SoiRealWorkspace {
    /// Build a real-input workspace for `soi` with a fresh pool of
    /// `threads` workers (`1` = fully serial, spawns no threads).
    pub fn new(soi: &SoiFft, threads: usize) -> Self {
        Self::with_pool(soi, Arc::new(ThreadPool::new(threads)))
    }

    /// Build a real-input workspace for `soi` on an existing pool.
    pub fn with_pool(soi: &SoiFft, pool: Arc<ThreadPool>) -> Self {
        let cfg = soi.config();
        let stride = soi
            .batch_p()
            .scratch_len()
            .max(soi.plan_m().scratch_len())
            .next_multiple_of(4);
        Self {
            seg: AlignedBuf::zeroed(cfg.p / 2 * cfg.m_prime),
            front: FrontArena::new(soi, cfg.n, pool.threads()),
            scratch: AlignedBuf::zeroed(pool.threads() * stride),
            stride,
            shape: (cfg.n, cfg.p, cfg.m_prime, cfg.halo_len()),
            trace: Trace::disabled(),
            pool,
        }
    }

    /// Attach a trace handle: subsequent [`SoiFft::transform_real_into`]
    /// calls emit the same stage spans as [`SoiWorkspace::set_trace`].
    /// Pass [`Trace::disabled`] to detach.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The currently attached trace handle.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The worker pool this workspace executes on.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Shared handle to the pool (for building sibling workspaces).
    pub fn pool_arc(&self) -> Arc<ThreadPool> {
        Arc::clone(&self.pool)
    }

    /// Worker count, caller included.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Verify this workspace was built for `soi`'s configuration.
    pub(crate) fn check(&self, soi: &SoiFft) -> Result<(), SoiError> {
        let cfg = soi.config();
        let want = (cfg.n, cfg.p, cfg.m_prime, cfg.halo_len());
        let stride = soi
            .batch_p()
            .scratch_len()
            .max(soi.plan_m().scratch_len());
        if self.shape != want || self.stride < stride {
            return Err(SoiError::WorkspaceMismatch(format!(
                "real workspace built for (n, p, m', halo) = {:?} with scratch stride {}, \
                 transform needs {:?} with stride {}",
                self.shape, self.stride, want, stride
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SoiParams;
    use soi_window::AccuracyPreset;

    #[test]
    fn workspace_rejects_foreign_transform() {
        let a = SoiFft::new(&SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap())
            .unwrap();
        let b = SoiFft::new(&SoiParams::with_preset(1 << 13, 4, AccuracyPreset::Digits10).unwrap())
            .unwrap();
        let mut ws = SoiWorkspace::new(&a, 2);
        let x = vec![Complex64::ZERO; 1 << 13];
        let mut y = vec![Complex64::ZERO; 1 << 13];
        assert!(matches!(
            b.transform_into(&x, &mut y, &mut ws),
            Err(SoiError::WorkspaceMismatch(_))
        ));
    }

    #[test]
    fn scratch_stride_is_exactly_the_larger_engine_requirement() {
        // The arena stripe must match the engines' exact scratch bounds
        // rounded to whole cache lines — a stride below either engine's
        // need would silently re-allocate per call (the fallback path), a
        // stride beyond the cache-line round-up wastes arena, and a
        // stride off a 64-byte multiple would misalign stripes 1..t.
        let soi =
            SoiFft::new(&SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap())
                .unwrap();
        let ws = SoiWorkspace::new(&soi, 3);
        let want = soi
            .batch_p()
            .scratch_len()
            .max(soi.plan_m().scratch_len())
            .next_multiple_of(4);
        assert_eq!(ws.stride, want);
        assert_eq!(ws.scratch.len(), 3 * want);
        assert_eq!(ws.scratch.as_ptr() as usize % 64, 0);
        // The mixed-radix M' engine needs more than M' elements; the pin
        // fails if Plan::scratch_len ever regresses to the flat `n`.
        assert!(soi.plan_m().scratch_len() > soi.config().m_prime);
    }

    #[test]
    fn workspace_shares_pool() {
        let soi =
            SoiFft::new(&SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap())
                .unwrap();
        let ws = SoiWorkspace::new(&soi, 3);
        assert_eq!(ws.threads(), 3);
        let sibling = SoiWorkspace::with_pool(&soi, ws.pool_arc());
        assert_eq!(sibling.threads(), 3);
    }
}
