//! Batched transforms — the `I_ℓ ⊗ F_m` Kronecker pattern.
//!
//! §6(a) of the paper: "A Kronecker product of the form `I ⊗ A` expresses
//! parallelism naturally. It says that ℓ copies of the matrix A are to be
//! applied independently on ℓ contiguous segments of stride-one data."
//! This module is that operator: a batch of contiguous same-size FFTs.
//!
//! [`BatchFft::execute`] and [`BatchFft::execute_with_scratch`] run on the
//! calling thread; [`BatchFft::execute_pooled`] runs row-parallel on a
//! caller's [`ThreadPool`] (the paper's OpenMP level) with caller-provided
//! scratch — zero per-call allocation, zero per-call thread spawning.
//! Rows are split into balanced contiguous ranges with deterministic
//! boundaries, and every row is an independent transform, so the output
//! is bitwise identical for every worker count (pinned by
//! `tests/batch_equivalence.rs`).

use crate::plan::{Direction, Plan};
use crate::simd;
use soi_num::{AlignedBuf, Complex, Real};
use soi_pool::{part_range, SlicePtr, ThreadPool};
use std::sync::Arc;

/// Executor for `I_count ⊗ F_len`: `count` independent FFTs over
/// contiguous rows of length `len`.
#[derive(Debug)]
pub struct BatchFft<T> {
    plan: Arc<Plan<T>>,
    /// Batched AVX2 fast path, decided once at plan time: forward rows of
    /// length 8 (the production `F_P` shape, where per-row plan dispatch
    /// overhead rivals the butterfly work) run through
    /// [`simd::avx2::dft8_rows`], which keeps four rows of state in
    /// registers per sweep instead of round-tripping scratch.
    dft8: bool,
}

impl<T: Real> BatchFft<T> {
    /// Plan a batch of transforms of size `len` in `direction`.
    pub fn new(len: usize, direction: Direction) -> Self {
        Self::with_plan(Arc::new(Plan::new(len, direction)))
    }

    /// Build a batch executor around an existing shared plan (e.g. from a
    /// [`crate::plan::Planner`] cache) instead of planning from scratch.
    pub fn with_plan(plan: Arc<Plan<T>>) -> Self {
        let dft8 = plan.len() == 8
            && plan.direction() == Direction::Forward
            && simd::is_c64::<T>()
            && simd::enabled();
        Self { plan, dft8 }
    }

    /// The shared row plan.
    pub fn plan(&self) -> &Plan<T> {
        &self.plan
    }

    /// Row length.
    pub fn row_len(&self) -> usize {
        self.plan.len()
    }

    /// Per-worker scratch elements [`Self::execute_pooled`] and
    /// [`Self::execute_with_scratch`] need (the row plan's scratch size).
    pub fn scratch_len(&self) -> usize {
        self.plan.scratch_len()
    }

    /// Transform every contiguous `row_len`-sized row of `data` in place,
    /// on the calling thread. Convenience wrapper around
    /// [`Self::execute_with_scratch`] that allocates the scratch.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of the row length.
    pub fn execute(&self, data: &mut [Complex<T>]) {
        let mut scratch = AlignedBuf::zeroed(self.scratch_len());
        self.execute_with_scratch(data, &mut scratch);
    }

    /// Serial (calling-thread) execution reusing caller scratch of at
    /// least [`Self::scratch_len`] elements; allocation-free.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of the row length or the
    /// scratch is too short.
    pub fn execute_with_scratch(&self, data: &mut [Complex<T>], scratch: &mut [Complex<T>]) {
        let m = self.plan.len();
        assert!(
            data.len() % m == 0,
            "batch data length {} not a multiple of row length {m}",
            data.len()
        );
        assert!(
            scratch.len() >= self.scratch_len(),
            "batch scratch too short: {} < {}",
            scratch.len(),
            self.scratch_len()
        );
        #[cfg(target_arch = "x86_64")]
        if self.dft8 {
            let rows = data.len() / m;
            // SAFETY: `dft8` implies AVX2+FMA detected and `T = f64`.
            unsafe { simd::avx2::dft8_rows(simd::c64s_mut(data), rows, true) };
            return;
        }
        for row in data.chunks_exact_mut(m) {
            self.plan.execute_with_scratch(row, scratch);
        }
    }

    /// Row-parallel execution on an external pool, reusing a caller
    /// scratch arena of at least `min(pool.threads(), rows) ·
    /// scratch_len()` elements; allocation-free. Rows are assigned to
    /// workers in balanced contiguous ranges with deterministic
    /// boundaries, so the result is bitwise identical to serial.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of the row length or the
    /// scratch arena is too short.
    pub fn execute_pooled(
        &self,
        data: &mut [Complex<T>],
        pool: &ThreadPool,
        scratch: &mut [Complex<T>],
    ) {
        let m = self.plan.len();
        assert!(
            data.len() % m == 0,
            "batch data length {} not a multiple of row length {m}",
            data.len()
        );
        let rows = data.len() / m;
        if rows == 0 {
            return;
        }
        let parts = pool.threads().min(rows);
        let stride = self.scratch_len();
        assert!(
            scratch.len() >= parts * stride,
            "batch scratch arena too short: {} < {parts}x{stride}",
            scratch.len()
        );
        if parts == 1 {
            return self.execute_with_scratch(data, scratch);
        }
        let data_ptr = SlicePtr::new(data);
        let scratch_ptr = SlicePtr::new(scratch);
        pool.run(parts, |t| {
            let (r0, rl) = part_range(rows, parts, t);
            // SAFETY: row ranges are disjoint across tasks and each task
            // uses its own scratch stripe; both borrows end at the
            // `run` barrier.
            let chunk = unsafe { data_ptr.slice(r0 * m, rl * m) };
            let scr = unsafe { scratch_ptr.slice(t * stride, stride) };
            #[cfg(target_arch = "x86_64")]
            if self.dft8 {
                // SAFETY: `dft8` implies AVX2+FMA detected and `T = f64`.
                unsafe { simd::avx2::dft8_rows(simd::c64s_mut(chunk), rl, true) };
                return;
            }
            for row in chunk.chunks_exact_mut(m) {
                self.plan.execute_with_scratch(row, scr);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_naive;
    use soi_num::{c64, complex::max_abs_diff, Complex64};

    fn rows_signal(rows: usize, m: usize) -> Vec<Complex64> {
        (0..rows * m)
            .map(|i| c64((i as f64 * 0.13).sin(), (i as f64 * 0.77).cos()))
            .collect()
    }

    #[test]
    fn serial_batch_matches_per_row_naive() {
        let (rows, m) = (5, 16);
        let data = rows_signal(rows, m);
        let mut got = data.clone();
        BatchFft::new(m, Direction::Forward).execute(&mut got);
        for r in 0..rows {
            let want = dft_naive(&data[r * m..(r + 1) * m]);
            assert!(max_abs_diff(&got[r * m..(r + 1) * m], &want) < 1e-10);
        }
    }

    /// `batch` over `data` on a pool of `workers`, with a fresh arena.
    fn pooled(batch: &BatchFft<f64>, data: &mut [Complex64], workers: usize) {
        let rows = data.len() / batch.row_len();
        let mut scratch = vec![Complex64::ZERO; workers.min(rows) * batch.scratch_len()];
        batch.execute_pooled(data, &ThreadPool::new(workers), &mut scratch);
    }

    #[test]
    fn threaded_batch_matches_serial() {
        let (rows, m) = (64, 128);
        let data = rows_signal(rows, m);
        let mut serial = data.clone();
        let mut threaded = data;
        let batch = BatchFft::new(m, Direction::Forward);
        batch.execute(&mut serial);
        pooled(&batch, &mut threaded, 4);
        // Identical plans must give bitwise-identical results regardless of
        // the thread split.
        assert_eq!(
            serial.iter().map(|c| (c.re, c.im)).collect::<Vec<_>>(),
            threaded.iter().map(|c| (c.re, c.im)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let (rows, m) = (3, 8);
        let data = rows_signal(rows, m);
        let batch = BatchFft::new(m, Direction::Forward);
        let mut got = data.clone();
        pooled(&batch, &mut got, 8);
        let mut want = data;
        batch.execute(&mut want);
        assert!(max_abs_diff(&got, &want) < 1e-15);
    }

    #[test]
    fn inverse_batch_roundtrip() {
        let (rows, m) = (7, 30);
        let data = rows_signal(rows, m);
        let mut buf = data.clone();
        BatchFft::new(m, Direction::Forward).execute(&mut buf);
        BatchFft::new(m, Direction::Inverse).execute(&mut buf);
        assert!(max_abs_diff(&buf, &data) < 1e-11);
    }

    #[test]
    fn dft8_rows_batch_matches_naive_and_is_thread_invariant() {
        // The production F_P shape: forward rows of length 8 take the
        // batched register-resident kernel when SIMD is live, the plan
        // path otherwise — both must match the naive DFT, and the thread
        // split must never change a bit.
        let (rows, m) = (13, 8);
        let data = rows_signal(rows, m);
        let batch = BatchFft::new(m, Direction::Forward);
        let mut serial = data.clone();
        batch.execute(&mut serial);
        for r in 0..rows {
            let want = dft_naive(&data[r * m..(r + 1) * m]);
            assert!(max_abs_diff(&serial[r * m..(r + 1) * m], &want) < 1e-12);
        }
        let mut threaded = data;
        pooled(&batch, &mut threaded, 4);
        assert_eq!(
            serial.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>(),
            threaded.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_ragged_batch() {
        let mut data = vec![Complex64::ZERO; 10];
        BatchFft::new(4, Direction::Forward).execute(&mut data);
    }

    #[test]
    fn external_pool_with_reused_scratch_matches_serial() {
        // Mixed-radix rows (m = 24) exercise the staging-copy scratch
        // path; the arena is reused across calls without re-zeroing.
        let (rows, m) = (13, 24);
        let batch = BatchFft::new(m, Direction::Forward);
        let pool = ThreadPool::new(4);
        let parts = pool.threads().min(rows);
        let mut scratch = vec![Complex64::ZERO; parts * batch.scratch_len()];
        for round in 0..3 {
            let data = rows_signal(rows + round, m);
            let mut want = data.clone();
            batch.execute_with_scratch(&mut want, &mut vec![Complex64::ZERO; batch.scratch_len()]);
            let mut got = data;
            batch.execute_pooled(&mut got, &pool, &mut scratch);
            assert_eq!(
                got.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>(),
                want.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>(),
                "round {round}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "scratch arena too short")]
    fn pooled_execute_rejects_short_scratch() {
        let batch = BatchFft::<f64>::new(8, Direction::Forward);
        let pool = ThreadPool::new(2);
        let mut data = vec![Complex64::ZERO; 32];
        let mut scratch = vec![Complex64::ZERO; 7];
        batch.execute_pooled(&mut data, &pool, &mut scratch);
    }
}
