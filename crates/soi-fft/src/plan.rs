//! The planner: picks an engine per size and wraps direction /
//! normalization, FFTW-style.

use crate::bluestein::BluesteinFft;
use crate::codelet::{Codelet, Dispatch};
use crate::fourstep::{split, FourStepFft, RawFft};
use crate::mixed::{largest_prime_factor, MixedRadixFft};
use crate::simd;
use crate::stockham::StockhamFft;
use crate::twiddle::Sign;
use soi_num::Complex64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Transform direction with the normalization conventions of this crate:
/// forward is unnormalized, inverse is scaled by `1/N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Unnormalized forward DFT (`e^{−2πi jk/N}`).
    Forward,
    /// `1/N`-normalized inverse DFT.
    Inverse,
}

impl Direction {
    fn sign(self) -> Sign {
        match self {
            Direction::Forward => Sign::Forward,
            Direction::Inverse => Sign::Inverse,
        }
    }
}

/// Largest prime factor we still run through the mixed-radix generic
/// butterfly; anything bigger goes to Bluestein (the `O(r²)` butterfly
/// would dominate past this point).
const MAX_DIRECT_PRIME: usize = 61;

/// Assumed per-core L2 capacity when `SOI_FFT_L2_BYTES` is unset.
const DEFAULT_L2_BYTES: usize = 1 << 20;

/// Smallest size the planner hands to the four-step engine. Derived from
/// the L2 capacity: a monolithic transform touches ~2 buffers of 16-byte
/// elements per pass (32 B of working set per point), so beyond
/// `L2/32` points the strided butterfly passes start missing L2 and the
/// cache-blocked decomposition wins. Override the cache size with
/// `SOI_FFT_L2_BYTES` (read once per process).
pub fn four_step_min_len() -> usize {
    static MIN: OnceLock<usize> = OnceLock::new();
    *MIN.get_or_init(|| {
        let l2 = std::env::var("SOI_FFT_L2_BYTES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(DEFAULT_L2_BYTES);
        (l2 / 32).max(64)
    })
}

/// The four-step split the planner uses, re-derived against the SIMD
/// kernel speeds (calibrated with `soi-bench`'s `fourstep_scan` example
/// on AVX2+FMA). Powers of two keep the near-square [`split`] (both
/// sides stay Stockham, and near-square minimizes the larger side's
/// working set). For mixed sizes, candidate divisors `(a, b = n/a)` are
/// scored jointly:
///
/// * When the batched column fast path covers `a` (`a = 5^j·2^k` with a
///   usable stream width for `b`), the `F_a` side runs through
///   cache-resident tiles with no transpose passes — its levels cost a
///   fraction (`COL_COST_K`) of a streamed Stockham level. Otherwise the
///   side pays the classic transpose+twiddle passes (`NO_COL_PENALTY`)
///   on top of its engine cost.
/// * The `F_b` row engine costs `log₂ b` Stockham levels when `b` is a
///   power of two, and `MIXED_COST_K` as much per level when it falls to
///   mixed-radix (measured: mixed runs ≈2× Stockham's per-level cost),
///   plus a scalar radix-2 level penalty when its pow2 part has odd
///   exponent and a per-row overhead term for short rows.
/// * Rows shorter than the ≈4096-point sweet spot trade cheap Stockham
///   levels for extra column-ladder levels and narrower column blocks;
///   `ROW_SKEW` prices that (the 163840 scan: b=4096 beats b=2048 and
///   b=1024 despite the deeper row transform).
///
/// The inner cap keeps both row engines below the four-step threshold so
/// they stay cache-resident monolithic engines.
///
/// Returns a nontrivial divisor `a ≤ √n` of `n`, or 1 when `n` is prime.
pub fn choose_split(n: usize) -> usize {
    if n.is_power_of_two() {
        return split(n);
    }
    const MIXED_COST_K: f64 = 2.2;
    const OVERHEAD: f64 = 24.0;
    const RADIX2_PENALTY: f64 = 1.3;
    const COL_COST_K: f64 = 0.55;
    const NO_COL_PENALTY: f64 = 2.0;
    const ROW_SWEET_LG: f64 = 12.0; // b ≈ 4096: 64 KiB rows, L2-hot
    const ROW_SKEW: f64 = 0.6;
    let side = |s: usize| -> f64 {
        let lg = (s as f64).log2();
        if s.is_power_of_two() {
            lg + OVERHEAD / s as f64
        } else {
            let r2 = if s.trailing_zeros() % 2 == 1 {
                RADIX2_PENALTY
            } else {
                0.0
            };
            MIXED_COST_K * lg + OVERHEAD / s as f64 + r2
        }
    };
    let cost = |a: usize, b: usize| -> f64 {
        let a_cost = if crate::colfft::ColumnFft::width_for(a, b).is_some() {
            COL_COST_K * (a as f64).log2()
        } else {
            side(a) + NO_COL_PENALTY
        };
        let b_lg = (b as f64).log2();
        a_cost + side(b) + ROW_SKEW * (ROW_SWEET_LG - b_lg).max(0.0)
    };
    let cap = four_step_min_len();
    let mut best_a = 1usize;
    let mut best_cost = f64::INFINITY;
    let mut a = 2usize;
    while a * a <= n {
        if n % a == 0 && n / a <= cap {
            let c = cost(a, n / a);
            if c < best_cost {
                best_cost = c;
                best_a = a;
            }
        }
        a += 1;
    }
    if best_a > 1 {
        best_a
    } else {
        split(n)
    }
}

#[derive(Debug, Clone)]
enum Engine {
    Stockham(StockhamFft),
    Mixed(MixedRadixFft),
    FourStep(FourStepFft),
    Bluestein(BluesteinFft),
}

/// A prepared 1-D complex transform of a fixed size and direction.
///
/// Plans are immutable after construction and cheap to share (`Arc`
/// inside [`Planner`]); `execute` allocates only scratch.
///
/// ```
/// use soi_fft::Plan;
/// use soi_num::Complex64;
///
/// let plan = Plan::forward(8);
/// let mut data = vec![Complex64::ONE; 8];
/// plan.execute(&mut data);
/// assert!((data[0].re - 8.0).abs() < 1e-12); // DC bin collects everything
/// assert!(data[1].abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Plan {
    n: usize,
    direction: Direction,
    engine: Engine,
}

impl Plan {
    /// Plan a transform of size `n` in the given direction.
    pub fn new(n: usize, direction: Direction) -> Self {
        Self::new_in(n, direction, &Planner::new())
    }

    /// Plan inside a [`Planner`], so composite engines (four-step,
    /// Bluestein) pull their inner raw engines from the planner's shared
    /// cache instead of rebuilding twiddle tables per plan.
    pub fn new_in(n: usize, direction: Direction, planner: &Planner) -> Self {
        assert!(n > 0, "cannot plan a zero-length FFT");
        let sign = direction.sign();
        let smooth = n.is_power_of_two() || largest_prime_factor(n) <= MAX_DIRECT_PRIME;
        let engine = if smooth && n >= four_step_min_len() && split(n) > 1 {
            // Above the L2 working set, decompose into cache-resident
            // row transforms instead of strided monolithic passes.
            let a = choose_split(n);
            Engine::FourStep(FourStepFft::with_engines(
                n,
                sign,
                planner.raw(a, sign),
                planner.raw(n / a, sign),
            ))
        } else if n.is_power_of_two() {
            Engine::Stockham(StockhamFft::new(n, sign))
        } else if smooth {
            Engine::Mixed(MixedRadixFft::new(n, sign))
        } else {
            Engine::Bluestein(BluesteinFft::new_in(n, sign, planner))
        };
        Self {
            n,
            direction,
            engine,
        }
    }

    /// Forward plan.
    pub fn forward(n: usize) -> Self {
        Self::new(n, Direction::Forward)
    }

    /// Inverse plan (`1/N`-normalized).
    pub fn inverse(n: usize) -> Self {
        Self::new(n, Direction::Inverse)
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for an (unconstructible) empty plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Direction of this plan.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Human-readable engine name (for logs and test assertions).
    pub fn engine_name(&self) -> &'static str {
        match &self.engine {
            Engine::Stockham(_) => "stockham",
            Engine::Mixed(_) => "mixed-radix",
            Engine::FourStep(_) => "four-step",
            Engine::Bluestein(_) => "bluestein",
        }
    }

    /// The butterfly codelets this plan's execution path dispatches to
    /// (for composite engines, the union over inner engines).
    pub fn codelets(&self) -> Vec<Codelet> {
        match &self.engine {
            Engine::Stockham(e) => e.codelets(),
            Engine::Mixed(e) => e.codelets(),
            Engine::FourStep(e) => e.codelets(),
            Engine::Bluestein(e) => e.codelets(),
        }
    }

    /// The codelets with the dispatch each actually executes under —
    /// `Avx2Fma` for stages running the vector kernels, `Portable` for
    /// scalar ones. Decided at plan construction, constant thereafter.
    pub fn codelet_dispatch(&self) -> Vec<(Codelet, Dispatch)> {
        match &self.engine {
            Engine::Stockham(e) => e.codelet_dispatch(),
            Engine::Mixed(e) => e.codelet_dispatch(),
            Engine::FourStep(e) => e.codelet_dispatch(),
            Engine::Bluestein(e) => e.codelet_dispatch(),
        }
    }

    /// Summary dispatch string for benches/logs: `"avx2+fma"` when every
    /// stage runs a vector kernel, `"portable"` when none does, and
    /// `"mixed"` for plans with both (e.g. a scalar radix-3 level inside
    /// an otherwise vectorized mixed-radix plan).
    pub fn dispatch_name(&self) -> &'static str {
        let v = self.codelet_dispatch();
        if v.iter().all(|(_, d)| d.is_simd()) {
            "avx2+fma"
        } else if v.iter().all(|(_, d)| !d.is_simd()) {
            "portable"
        } else {
            "mixed"
        }
    }

    /// Execute in place.
    pub fn execute(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "plan length mismatch");
        match &self.engine {
            Engine::Stockham(e) => e.execute(data),
            Engine::Mixed(e) => e.execute(data),
            Engine::FourStep(e) => e.execute(data),
            Engine::Bluestein(e) => e.execute(data),
        }
        self.normalize(data);
    }

    /// Scratch elements an allocation-free [`Self::execute_with_scratch`]
    /// call needs for this engine: `n` for Stockham, slightly more for
    /// mixed-radix (staging copy + combine workspace) and four-step
    /// (transpose buffer + inner row scratch), `2·padded_len` for
    /// Bluestein. Exact: providing this much guarantees zero allocation,
    /// and every engine's bound is pinned by tests.
    pub fn scratch_len(&self) -> usize {
        match &self.engine {
            Engine::Stockham(_) => self.n,
            Engine::Mixed(e) => e.scratch_len(),
            Engine::FourStep(e) => e.scratch_len(),
            Engine::Bluestein(e) => e.scratch_len(),
        }
    }

    /// Execute in place reusing caller scratch of at least
    /// [`Self::scratch_len`] elements; allocation-free on every engine.
    ///
    /// # Panics
    /// Panics if `data.len()` is not the plan length or the scratch is
    /// shorter than [`Self::scratch_len`] (which exceeds `n` on the
    /// mixed-radix, four-step and Bluestein engines).
    pub fn execute_with_scratch(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "plan length mismatch");
        self.check_scratch(scratch);
        match &self.engine {
            Engine::Stockham(e) => e.execute_with_scratch(data, &mut scratch[..self.n]),
            Engine::Mixed(e) => e.execute_with_scratch(data, scratch),
            Engine::FourStep(e) => e.execute_with_scratch(data, scratch),
            Engine::Bluestein(e) => e.execute_with_scratch(data, scratch),
        }
        self.normalize(data);
    }

    /// Transform `data` and write `out[k] = result[k]·weights[k]` for
    /// `k < out.len()` — the SOI projection (`out.len() ≤ n` keeps only
    /// the leading bins) fused with the `Ŵ⁻¹` demodulation weights.
    ///
    /// On the forward Stockham and four-step engines the weighted write
    /// is folded into the engine's final output pass, eliminating one
    /// full read-modify-write sweep over the transform; other engines
    /// (and the inverse direction, whose `1/N` normalization must land
    /// before the weights per the unfused reference order) fall back to
    /// execute-then-multiply. Either way the result is **bitwise
    /// identical** to [`Self::execute_with_scratch`] followed by the
    /// multiply loop; `data` is clobbered on the fused paths.
    ///
    /// # Panics
    /// As [`Self::execute_with_scratch`], and if `out` is longer than the
    /// transform or `weights` shorter than `out`.
    pub fn execute_fused_into(
        &self,
        data: &mut [Complex64],
        scratch: &mut [Complex64],
        out: &mut [Complex64],
        weights: &[Complex64],
    ) {
        assert_eq!(data.len(), self.n, "plan length mismatch");
        assert!(out.len() <= self.n, "fused output longer than transform");
        assert!(weights.len() >= out.len(), "fused weights too short");
        self.check_scratch(scratch);
        if self.direction == Direction::Forward {
            match &self.engine {
                Engine::Stockham(e) => {
                    return e.execute_fused_into(data, &mut scratch[..self.n], out, weights);
                }
                Engine::FourStep(e) => {
                    return e.execute_fused_into(data, scratch, out, weights);
                }
                Engine::Mixed(e) => {
                    return e.execute_fused_into(data, scratch, out, weights);
                }
                Engine::Bluestein(_) => {}
            }
        }
        self.execute_with_scratch(data, scratch);
        // Bitwise identical to the plain multiply loop on every path.
        simd::weighted_product(out, data, weights);
    }

    fn check_scratch(&self, scratch: &[Complex64]) {
        assert!(
            scratch.len() >= self.scratch_len(),
            "plan scratch too short: {} < {}",
            scratch.len(),
            self.scratch_len()
        );
    }

    /// Apply the `1/N` inverse normalization when the plan is inverse.
    fn normalize(&self, data: &mut [Complex64]) {
        if self.direction == Direction::Inverse {
            let scale = 1.0 / self.n as f64;
            for v in data.iter_mut() {
                *v = v.scale(scale);
            }
        }
    }
}

/// Cumulative counters for one planner cache. A long-lived daemon polls
/// these (via `soi serve --stats`) to see whether its working set fits
/// the configured capacity: a rising eviction count means plans are
/// being rebuilt in steady state and the cap should grow.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Entries discarded to stay under capacity.
    pub evictions: u64,
}

/// A small LRU map: entries carry a monotonically increasing touch
/// stamp, and inserting past capacity discards the stalest entry. The
/// O(capacity) eviction scan is fine at the cap sizes used here (tens of
/// entries, each worth megabytes of twiddle tables or arenas). Lookups
/// lend the value out, so it need not be `Clone`: the [`Planner`] clones
/// its `Arc`s out, and the serve daemon's engine cache borrows its
/// engines mutably.
#[derive(Debug)]
pub struct Lru<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (u64, V)>,
    stats: CacheStats,
}

impl<K: std::hash::Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map holding at most `cap` entries (at least one).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look up and touch; counts a hit or a miss.
    pub fn get(&mut self, k: &K) -> Option<&mut V> {
        self.tick += 1;
        match self.map.get_mut(k) {
            Some((stamp, v)) => {
                *stamp = self.tick;
                self.stats.hits += 1;
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert-or-touch: a concurrent builder may have won the race, in
    /// which case the existing entry is kept (so repeat callers keep
    /// sharing one `Arc`) and `v` is dropped. Evicts stalest entries past
    /// capacity; the entry returned is the newest, so never the victim.
    pub fn insert(&mut self, k: K, v: V) -> &mut V {
        self.tick += 1;
        if !self.map.contains_key(&k) {
            self.map.insert(k.clone(), (self.tick, v));
            while self.map.len() > self.cap {
                if let Some(victim) = self
                    .map
                    .iter()
                    .min_by_key(|(_, (stamp, _))| *stamp)
                    .map(|(k, _)| k.clone())
                {
                    self.map.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
        }
        let (stamp, v) = self.map.get_mut(&k).expect("entry resident after insert");
        *stamp = self.tick;
        v
    }

    /// [`Self::get`], building and inserting the value on a miss. A
    /// failed build inserts nothing and returns its error.
    pub fn get_or_try_insert_with<E>(
        &mut self,
        k: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<&mut V, E> {
        if self.get(&k).is_none() {
            let v = build()?;
            return Ok(self.insert(k, v));
        }
        // Returning the borrow `get` made is rejected by the current
        // borrow checker, so look the hit up again, uncounted.
        Ok(&mut self.map.get_mut(&k).expect("hit above").1)
    }

    /// Cumulative hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Default plan-cache capacity when `SOI_PLAN_CACHE_CAP` is unset:
/// comfortably above any single pipeline's working set (a SOI transform
/// needs ~4 plans; the whole test suite peaks well below this) while
/// still bounding a daemon that sees adversarially many distinct sizes.
const DEFAULT_PLAN_CACHE_CAP: usize = 64;

/// Plan-cache capacity: `SOI_PLAN_CACHE_CAP` (entries, > 0) or the
/// default. Read per planner construction so tests can exercise both.
fn capacity_from_env() -> usize {
    std::env::var("SOI_PLAN_CACHE_CAP")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(DEFAULT_PLAN_CACHE_CAP)
}

/// A caching planner: hands out shared plans, building each
/// (size, direction) once, plus a second cache of the raw inner engines
/// composite plans (four-step, Bluestein) recurse into — so e.g. the
/// Stockham twiddles of a Bluestein padding size, or a four-step row
/// engine shared between two composite sizes, are built once per
/// process-wide planner rather than once per plan. Thread-safe.
///
/// Both caches are bounded LRU (capacity via [`Planner::with_capacity`]
/// or the `SOI_PLAN_CACHE_CAP` environment variable, default 64 plans):
/// a long-lived daemon serving arbitrary client sizes cannot grow plan
/// or twiddle memory without limit. Eviction only drops the cache's
/// `Arc`; live transforms keep their plans alive.
#[derive(Debug)]
pub struct Planner {
    cache: Mutex<Lru<(usize, Direction), Arc<Plan>>>,
    raw: Mutex<Lru<(usize, Sign), Arc<RawFft>>>,
}

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner {
    /// New empty planner with the environment-configured capacity.
    pub fn new() -> Self {
        Self::with_capacity(capacity_from_env())
    }

    /// New empty planner bounded to `cap` cached plans. The raw-engine
    /// cache gets `2·cap`: one composite plan can pull in two inner
    /// engines (four-step rows, Bluestein forward + inverse), so a plan
    /// working set that fits always keeps its raw engines resident too.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            cache: Mutex::new(Lru::new(cap)),
            raw: Mutex::new(Lru::new(cap.saturating_mul(2).max(1))),
        }
    }

    /// Get (or build and cache) a plan.
    pub fn plan(&self, n: usize, direction: Direction) -> Arc<Plan> {
        if let Some(p) = self
            .cache
            .lock()
            .expect("planner cache poisoned")
            .get(&(n, direction))
        {
            return Arc::clone(p);
        }
        // Build OUTSIDE the lock: composite engines recurse into
        // `self.raw` during construction, and holding the plan lock
        // across that would serialize all planning on one twiddle build
        // (and deadlock if construction ever needs another plan).
        let built = Arc::new(Plan::new_in(n, direction, self));
        Arc::clone(
            self.cache
                .lock()
                .expect("planner cache poisoned")
                .insert((n, direction), built),
        )
    }

    /// Get (or build and cache) a raw unnormalized inner engine.
    pub fn raw(&self, n: usize, sign: Sign) -> Arc<RawFft> {
        if let Some(e) = self
            .raw
            .lock()
            .expect("planner raw cache poisoned")
            .get(&(n, sign))
        {
            return Arc::clone(e);
        }
        let built = Arc::new(RawFft::new(n, sign));
        Arc::clone(
            self.raw
                .lock()
                .expect("planner raw cache poisoned")
                .insert((n, sign), built),
        )
    }

    /// Number of distinct plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.lock().expect("planner cache poisoned").len()
    }

    /// Plan-cache capacity (entries).
    pub fn plan_capacity(&self) -> usize {
        self.cache.lock().expect("planner cache poisoned").cap
    }

    /// Cumulative hit/miss/eviction counters of the plan cache.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("planner cache poisoned").stats
    }

    /// Cumulative hit/miss/eviction counters of the raw-engine cache.
    pub fn raw_cache_stats(&self) -> CacheStats {
        self.raw.lock().expect("planner raw cache poisoned").stats
    }

    /// Forward-plan convenience on the shared cache.
    pub fn forward(&self, n: usize) -> Arc<Plan> {
        self.plan(n, Direction::Forward)
    }

    /// Inverse-plan convenience on the shared cache.
    pub fn inverse(&self, n: usize) -> Arc<Plan> {
        self.plan(n, Direction::Inverse)
    }

    /// Number of distinct raw inner engines built so far.
    pub fn cached_raw_engines(&self) -> usize {
        self.raw.lock().expect("planner raw cache poisoned").len()
    }

    /// The process-wide shared planner. Every plan-construction
    /// site in the workspace (pipeline `F_P`/`F_{M'}`, the exact
    /// reference transforms, the distributed baselines, Bluestein inner
    /// engines) routes through this cache, so twiddle tables for a given
    /// (size, direction) are built once per process no matter how many
    /// transform objects are alive.
    pub fn global() -> &'static Planner {
        static GLOBAL: OnceLock<Planner> = OnceLock::new();
        GLOBAL.get_or_init(Planner::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_naive;
    use soi_num::{c64, complex::max_abs_diff, Complex64};

    fn test_signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.41).sin(), (i as f64 * 2.3).cos() * 0.5))
            .collect()
    }

    #[test]
    fn engine_selection() {
        assert_eq!(Plan::forward(256).engine_name(), "stockham");
        assert_eq!(Plan::forward(360).engine_name(), "mixed-radix");
        assert_eq!(Plan::forward(61 * 4).engine_name(), "mixed-radix");
        assert_eq!(Plan::forward(997).engine_name(), "bluestein");
        assert_eq!(Plan::forward(2 * 67).engine_name(), "bluestein");
    }

    #[test]
    fn all_engines_match_naive() {
        for n in [64usize, 360, 997] {
            let x = test_signal(n);
            let want = dft_naive(&x);
            let plan = Plan::forward(n);
            let mut got = x.clone();
            plan.execute(&mut got);
            assert!(
                max_abs_diff(&got, &want) < 1e-8 * n as f64,
                "engine {} n={n}",
                plan.engine_name()
            );
        }
    }

    #[test]
    fn inverse_roundtrip_every_engine() {
        for n in [128usize, 540, 499] {
            let x = test_signal(n);
            let mut buf = x.clone();
            Plan::forward(n).execute(&mut buf);
            Plan::inverse(n).execute(&mut buf);
            assert!(max_abs_diff(&buf, &x) < 1e-11, "n={n}");
        }
    }

    #[test]
    fn planner_caches_and_shares() {
        let planner = Planner::new();
        let a = planner.plan(128, Direction::Forward);
        let b = planner.plan(128, Direction::Forward);
        assert!(Arc::ptr_eq(&a, &b));
        let _ = planner.plan(128, Direction::Inverse);
        let _ = planner.plan(64, Direction::Forward);
        assert_eq!(planner.cached_plans(), 3);
    }

    #[test]
    fn execute_with_scratch_matches_execute() {
        let n = 1024;
        let x = test_signal(n);
        let plan = Plan::forward(n);
        let mut a = x.clone();
        let mut b = x.clone();
        let mut scratch = vec![Complex64::ZERO; n];
        plan.execute(&mut a);
        plan.execute_with_scratch(&mut b, &mut scratch);
        assert_eq!(
            a.iter().map(|c| (c.re, c.im)).collect::<Vec<_>>(),
            b.iter().map(|c| (c.re, c.im)).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "plan scratch too short")]
    fn short_scratch_panics_instead_of_allocating() {
        // A four-step plan needs its transpose buffer, column tiles and
        // inner row scratch on top of `n`; a scratch of `n` once fell
        // back to allocating all of it on every call.
        let n = 65536;
        let plan = Plan::forward(n);
        assert_eq!(plan.engine_name(), "four-step");
        assert!(plan.scratch_len() > n);
        let mut data = test_signal(n);
        let mut scratch = vec![Complex64::ZERO; n];
        plan.execute_with_scratch(&mut data, &mut scratch);
    }

    #[test]
    fn hot_sizes_dispatch_radix5_never_generic() {
        // M' = 163840 = 2^15·5: the N=2^20, P=8 production size. Above
        // the four-step threshold it decomposes as 320×512 with a
        // mixed-radix row engine carrying the factor of 5.
        let plan = Plan::forward(163840);
        assert_eq!(plan.engine_name(), "four-step");
        let cs = plan.codelets();
        assert!(cs.contains(&Codelet::Radix5), "{cs:?}");
        assert!(cs.iter().all(|c| !c.is_generic()), "{cs:?}");
        // Below the threshold the monolithic mixed-radix engine must make
        // the same promise (M' = 1280 is the N=2^12, P=4 test size).
        let small = Plan::forward(1280);
        assert_eq!(small.engine_name(), "mixed-radix");
        let cs = small.codelets();
        assert!(cs.contains(&Codelet::Radix5), "{cs:?}");
        assert!(cs.iter().all(|c| !c.is_generic()), "{cs:?}");
    }

    #[test]
    fn scratch_len_is_exact_for_every_engine() {
        // Providing exactly `scratch_len()` elements must take the
        // allocation-free path on every engine and produce bitwise the
        // same result as the allocating `execute`.
        for n in [1024usize, 360, 997, 65536] {
            let plan = Plan::forward(n);
            let x = test_signal(n);
            let mut a = x.clone();
            plan.execute(&mut a);
            let mut b = x.clone();
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.execute_with_scratch(&mut b, &mut scratch);
            for (k, (u, v)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    u.re.to_bits(),
                    v.re.to_bits(),
                    "engine {} n={n} bin {k}",
                    plan.engine_name()
                );
                assert_eq!(u.im.to_bits(), v.im.to_bits(), "n={n} bin {k}");
            }
        }
    }

    #[test]
    fn fused_projection_matches_unfused_on_every_engine_and_direction() {
        // Covers the genuinely fused paths (forward Stockham, four-step)
        // AND every fallback branch (mixed, Bluestein, all inverse
        // directions): bitwise identity either way.
        for n in [1024usize, 360, 997, 65536] {
            for direction in [Direction::Forward, Direction::Inverse] {
                let plan = Plan::new(n, direction);
                let m = n / 2 + 1;
                let x = test_signal(n);
                let weights: Vec<Complex64> = (0..m)
                    .map(|k| c64((k as f64 * 0.19).cos() + 1.2, (k as f64 * 0.07).sin()))
                    .collect();
                let mut d1 = x.clone();
                let mut s1 = vec![Complex64::ZERO; plan.scratch_len()];
                plan.execute_with_scratch(&mut d1, &mut s1);
                let want: Vec<Complex64> = (0..m).map(|k| d1[k] * weights[k]).collect();
                let mut d2 = x.clone();
                let mut s2 = vec![Complex64::ZERO; plan.scratch_len()];
                let mut out = vec![Complex64::ZERO; m];
                plan.execute_fused_into(&mut d2, &mut s2, &mut out, &weights);
                for (k, (a, b)) in out.iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.re.to_bits(),
                        b.re.to_bits(),
                        "engine {} n={n} {direction:?} bin {k}",
                        plan.engine_name()
                    );
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n} bin {k}");
                }
            }
        }
    }

    #[test]
    fn production_m_dispatches_simd_on_avx2() {
        // On AVX2+FMA hardware (without the SOI_NO_SIMD override), the
        // production M' = 163840 = 2^15·5 plan must hit *only*
        // SIMD-dispatched stages: the planner's split may not introduce a
        // side whose factorization forces a scalar level.
        if !crate::simd::enabled() {
            return; // non-x86 or ablation run: nothing to assert
        }
        let plan = Plan::forward(163840);
        assert_eq!(plan.engine_name(), "four-step");
        let cd = plan.codelet_dispatch();
        assert!(
            cd.iter().all(|&(_, d)| d.is_simd()),
            "non-SIMD stage in production plan: {cd:?}"
        );
        assert_eq!(plan.dispatch_name(), "avx2+fma");
        // The small-M' mixed-radix plan makes the same promise.
        let small = Plan::forward(1280);
        assert_eq!(
            small.dispatch_name(),
            "avx2+fma",
            "{:?}",
            small.codelet_dispatch()
        );
    }

    #[test]
    fn choose_split_returns_divisors_and_keeps_pow2_near_square() {
        assert_eq!(choose_split(65536), 256);
        assert_eq!(choose_split(131072), 256);
        assert_eq!(choose_split(97), 1); // prime: no split
        for n in [40960usize, 163840, 327680, 98304] {
            let a = choose_split(n);
            assert!(a > 1 && n % a == 0 && a * a <= n, "n={n} a={a}");
            let b = n / a;
            // The a side may take the batched column path, where every
            // stage kernel (radix-2 included) is vectorized. Any other
            // side must not force a scalar radix-2 level (odd
            // power-of-two exponent) while SIMD is the point.
            if crate::colfft::ColumnFft::width_for(a, b).is_none() {
                assert!(
                    a.is_power_of_two() || a.trailing_zeros() % 2 == 0,
                    "n={n} side {a} would need a radix-2 level"
                );
            }
            assert!(
                b.is_power_of_two() || b.trailing_zeros() % 2 == 0,
                "n={n} side {b} would need a radix-2 level"
            );
        }
    }

    #[test]
    fn planner_raw_cache_shared_across_composite_plans() {
        let planner = Planner::new();
        // 65536 = 256×256: one raw engine serves both four-step rows.
        let _ = planner.plan(65536, Direction::Forward);
        assert_eq!(planner.cached_raw_engines(), 1);
        // 131072 = 256×512: reuses the 256 engine, adds only the 512.
        let _ = planner.plan(131072, Direction::Forward);
        assert_eq!(planner.cached_raw_engines(), 2);
        // 997 is prime → Bluestein at padded size 2048 (fwd + inv).
        let _ = planner.plan(997, Direction::Forward);
        assert_eq!(planner.cached_raw_engines(), 4);
        // 1019 is prime with the same padded size: both engines reused.
        let _ = planner.plan(1019, Direction::Forward);
        assert_eq!(planner.cached_raw_engines(), 4);
    }

    #[test]
    fn plan_cache_is_bounded_lru_with_counters() {
        let planner = Planner::with_capacity(2);
        assert_eq!(planner.plan_capacity(), 2);
        let first16 = planner.plan(16, Direction::Forward);
        let first32 = planner.plan(32, Direction::Forward);
        // Touch 16 so 32 becomes the least recently used entry...
        let _ = planner.plan(16, Direction::Forward);
        // ...then a third size must evict exactly it.
        let _ = planner.plan(64, Direction::Forward);
        assert_eq!(planner.cached_plans(), 2);
        let s = planner.plan_cache_stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
        // The survivor is still the same shared Arc (a hit)...
        let again16 = planner.plan(16, Direction::Forward);
        assert!(Arc::ptr_eq(&first16, &again16));
        // ...while the victim gets rebuilt from scratch (a miss).
        let again32 = planner.plan(32, Direction::Forward);
        assert!(!Arc::ptr_eq(&first32, &again32));
        let s = planner.plan_cache_stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 4, 2));
    }

    #[test]
    fn raw_cache_eviction_does_not_break_live_composite_plans() {
        // Capacity 1 ⇒ raw cap 2: planning 65536 (one shared 256 row
        // engine) then 131072 (256 + 512) must stay within bounds and
        // keep every already-built plan executable.
        let planner = Planner::with_capacity(1);
        let a = planner.plan(65536, Direction::Forward);
        let b = planner.plan(131072, Direction::Forward);
        assert!(planner.cached_plans() <= 1);
        assert!(planner.cached_raw_engines() <= 2);
        assert!(planner.raw_cache_stats().misses >= 2);
        // Evicted plans/engines kept alive by callers still work.
        for plan in [&a, &b] {
            let n = plan.len();
            let mut data = test_signal(n);
            plan.execute(&mut data);
            assert!(data[0].abs().is_finite());
        }
    }

    #[test]
    fn global_planner_is_a_singleton() {
        let a = Planner::global().plan(64, Direction::Forward);
        let b = Planner::global().plan(64, Direction::Forward);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn shift_theorem() {
        // DFT(x shifted by s) = DFT(x) modulated by ω^{ks}: the identity
        // underlying the paper's segment recovery (§5, Φ_s).
        let n = 96;
        let x = test_signal(n);
        let s = 17;
        let shifted: Vec<Complex64> = (0..n).map(|j| x[(j + s) % n]).collect();
        let plan = Plan::forward(n);
        let mut y = x.clone();
        plan.execute(&mut y);
        let mut ys = shifted;
        plan.execute(&mut ys);
        for k in 0..n {
            let w = Complex64::root_of_unity(k * s % n, n).conj();
            assert!((ys[k] - y[k] * w).abs() < 1e-10, "bin {k}");
        }
    }
}
