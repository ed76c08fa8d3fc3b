//! Executor-side transform engines: a prepared SOI pipeline plus its
//! reusable workspace arenas, cached per `(N, P, digits)` so the requests
//! of one geometry pay planning and allocation once.
//!
//! An [`Engine`] owns everything the hot path needs — the `SoiFft`
//! (window coefficients, FFT plans via the process-global `Planner`),
//! lazily built complex- and real-input `SoiWorkspace` arenas, and a reused
//! output buffer — so in steady state a request allocates nothing on the
//! compute side. [`EngineCache`] keeps them in the planner's
//! [`soi_fft::Lru`], keyed by geometry; its capacity bounds resident
//! arena memory, not correctness (an evicted geometry is simply rebuilt
//! on next use).

use crate::proto::{Request, RequestKind, Samples};
use soi_core::{SoiError, SoiFft, SoiParams, SoiRealWorkspace, SoiWorkspace, ThreadPool};
use soi_fft::Lru;
use soi_num::Complex64;
use soi_window::AccuracyPreset;
use std::sync::Arc;

/// The digits → window-preset mapping shared by the CLI and the service
/// (a `request --check` client must rebuild the *same* pipeline).
pub fn preset_for_digits(digits: u32) -> AccuracyPreset {
    match digits {
        0..=10 => AccuracyPreset::Digits10,
        11 => AccuracyPreset::Digits11,
        12 => AccuracyPreset::Digits12,
        13 => AccuracyPreset::Digits13,
        _ => AccuracyPreset::Full,
    }
}

/// One prepared geometry: pipeline + lazily built arenas + output
/// buffer. Workspaces are built on first use of their input domain, so a
/// geometry serving only r2c traffic never allocates the complex arena.
#[derive(Debug)]
pub struct Engine {
    soi: SoiFft,
    pool: Arc<ThreadPool>,
    ws: Option<SoiWorkspace>,
    real_ws: Option<SoiRealWorkspace>,
    out: Vec<Complex64>,
}

impl Engine {
    /// Plan the pipeline for `(n, p, digits)` on `pool`.
    pub fn build(
        n: usize,
        p: usize,
        digits: u32,
        pool: Arc<ThreadPool>,
    ) -> Result<Self, SoiError> {
        let params = SoiParams::with_preset(n, p, preset_for_digits(digits))?;
        let soi = SoiFft::new(&params)?;
        Ok(Self {
            soi,
            pool,
            ws: None,
            real_ws: None,
            out: Vec::new(),
        })
    }

    /// Execute one request, returning the requested bins as a borrow of
    /// the engine's reused output buffer (valid until the next call).
    /// An out-of-range segment or band start is a `SoiError::BadSize`.
    pub fn execute(&mut self, req: &Request) -> Result<&[Complex64], SoiError> {
        let (soi, pool) = (&self.soi, &self.pool);
        match (&req.kind, &req.samples) {
            (RequestKind::Full, Samples::Complex(x)) => {
                let ws = self
                    .ws
                    .get_or_insert_with(|| SoiWorkspace::with_pool(soi, Arc::clone(pool)));
                self.out.resize(req.n, Complex64::ZERO);
                soi.transform_into(x, &mut self.out, ws)?;
            }
            (RequestKind::RealFull, Samples::Real(x)) => {
                let ws = self
                    .real_ws
                    .get_or_insert_with(|| SoiWorkspace::with_pool(soi, Arc::clone(pool)));
                self.out.resize(req.n / 2 + 1, Complex64::ZERO);
                soi.transform_real_into(x, &mut self.out, ws)?;
            }
            (RequestKind::Segment, Samples::Complex(x)) => {
                self.out = soi.transform_segment_pooled(x, req.arg, pool)?;
            }
            (RequestKind::RealSegment, Samples::Real(x)) => {
                self.out = soi.transform_segment_pooled(x, req.arg, pool)?;
            }
            (RequestKind::Band, Samples::Complex(x)) => {
                self.out = soi.transform_band_pooled(x, req.arg, pool)?;
            }
            (RequestKind::RealBand, Samples::Real(x)) => {
                self.out = soi.transform_band_pooled(x, req.arg, pool)?;
            }
            // Decode pairs samples with kind, so this is unreachable for
            // wire-decoded requests; guard anyway for direct construction.
            (kind, _) => {
                return Err(SoiError::BadSize(format!(
                    "request kind {} paired with wrong sample domain",
                    kind.name()
                )))
            }
        }
        Ok(&self.out)
    }
}

/// Executor-local LRU of prepared engines, keyed by `(N, P, digits)`.
/// Capacity comes from `SOI_SERVE_ENGINES` (default 8).
#[derive(Debug)]
pub struct EngineCache {
    engines: Lru<(usize, usize, u32), Engine>,
    pool: Arc<ThreadPool>,
    builds: u64,
}

impl EngineCache {
    /// Cache holding at most `cap` engines, building on `pool`.
    pub fn new(cap: usize, pool: Arc<ThreadPool>) -> Self {
        Self {
            engines: Lru::new(cap),
            pool,
            builds: 0,
        }
    }

    /// Borrow the engine for `(n, p, digits)`, building (and possibly
    /// evicting the least-recently-used geometry) as needed.
    pub fn get(
        &mut self,
        n: usize,
        p: usize,
        digits: u32,
    ) -> Result<&mut Engine, SoiError> {
        let (pool, builds) = (&self.pool, &mut self.builds);
        self.engines.get_or_try_insert_with((n, p, digits), || {
            let engine = Engine::build(n, p, digits, Arc::clone(pool))?;
            *builds += 1;
            Ok(engine)
        })
    }

    /// Engines built since construction (failed builds not counted).
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Engines evicted since construction.
    pub fn evictions(&self) -> u64 {
        self.engines.stats().evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_num::c64;

    fn pool() -> Arc<ThreadPool> {
        Arc::new(ThreadPool::serial())
    }

    #[test]
    fn engine_matches_direct_pipeline_bitwise() {
        let n = 4096;
        let p = 4;
        let x: Vec<Complex64> = (0..n)
            .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut engine = Engine::build(n, p, 10, pool()).unwrap();
        let req = Request {
            id: 1,
            tenant: String::new(),
            n,
            p,
            digits: 10,
            kind: RequestKind::Full,
            arg: 0,
            deadline_ms: 0,
            samples: Samples::Complex(x.clone()),
        };
        let got = engine.execute(&req).unwrap().to_vec();

        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let mut ws = SoiWorkspace::new(&soi, 1);
        let mut want = vec![Complex64::ZERO; n];
        soi.transform_into(&x, &mut want, &mut ws).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn engine_rejects_out_of_range_segment_and_band_with_typed_errors() {
        let (n, p) = (1024, 4);
        let mut engine = Engine::build(n, p, 10, pool()).unwrap();
        for (kind, arg) in [
            (RequestKind::Segment, p),
            (RequestKind::Band, n),
            (RequestKind::RealSegment, p),
            (RequestKind::RealBand, n),
        ] {
            let samples = if kind.is_real() {
                Samples::Real(vec![0.5; n])
            } else {
                Samples::Complex(vec![c64(0.5, -0.25); n])
            };
            let req = Request {
                id: 1,
                tenant: String::new(),
                n,
                p,
                digits: 10,
                kind,
                arg,
                deadline_ms: 0,
                samples,
            };
            assert!(
                matches!(engine.execute(&req), Err(SoiError::BadSize(_))),
                "{} arg {arg}",
                kind.name()
            );
        }
    }

    #[test]
    fn engine_cache_is_a_bounded_lru() {
        let mut cache = EngineCache::new(2, pool());
        cache.get(1024, 4, 10).unwrap();
        cache.get(2048, 4, 10).unwrap();
        cache.get(1024, 4, 10).unwrap(); // touch 1024 so 2048 is LRU
        cache.get(4096, 4, 10).unwrap(); // evicts 2048
        assert_eq!(cache.builds(), 3);
        assert_eq!(cache.evictions(), 1);
        cache.get(1024, 4, 10).unwrap(); // still resident: no new build
        assert_eq!(cache.builds(), 3);
        cache.get(2048, 4, 10).unwrap(); // rebuild after eviction
        assert_eq!(cache.builds(), 4);
        assert_eq!(cache.evictions(), 2);
    }
}
