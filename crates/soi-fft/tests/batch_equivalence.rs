//! Thread-count equivalence of the batched executor.
//!
//! The `I ⊗ F_P` stage of the SOI factorization (Eq. 6) is data-parallel
//! over rows: the thread split is pure scheduling and must not change a
//! single bit of the output. Each plan is executed per-row with its own
//! scratch, so the calling thread and pools of 2 to 8 workers are
//! required to agree **bitwise**, not just within tolerance.

use soi_fft::batch::BatchFft;
use soi_fft::Direction;
use soi_num::Complex64;
use soi_pool::ThreadPool;
use soi_testkit::TestRng;

/// `batch` over `data` on a pool of `workers`, with a fresh arena.
fn pooled(batch: &BatchFft, data: &mut [Complex64], workers: usize) {
    let rows = data.len() / batch.row_len();
    let mut scratch = vec![Complex64::ZERO; workers.min(rows) * batch.scratch_len()];
    batch.execute_pooled(data, &ThreadPool::new(workers), &mut scratch);
}

fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

#[test]
fn thread_split_is_bitwise_invisible() {
    // Rows/lengths chosen to exercise uneven chunking (rows not a
    // multiple of the worker count) and both engine sizes.
    for (rows, m) in [(64usize, 128usize), (33, 64), (7, 256)] {
        let data = TestRng::seed_from_u64(0xBA7C4).complex_vec(rows * m);
        let batch = BatchFft::new(m, Direction::Forward);
        let mut reference = data.clone();
        batch.execute(&mut reference);
        let want = bits(&reference);
        for workers in [2usize, 3, 4, 8] {
            let mut buf = data.clone();
            pooled(&batch, &mut buf, workers);
            assert_eq!(
                bits(&buf),
                want,
                "workers={workers} rows={rows} m={m} drifted from serial"
            );
        }
    }
}

#[test]
fn thread_split_is_bitwise_invisible_inverse() {
    let (rows, m) = (24usize, 96usize);
    let data = TestRng::seed_from_u64(0x1A7E).complex_vec(rows * m);
    let batch = BatchFft::new(m, Direction::Inverse);
    let mut reference = data.clone();
    batch.execute(&mut reference);
    for workers in [2usize, 4] {
        let mut buf = data.clone();
        pooled(&batch, &mut buf, workers);
        assert_eq!(bits(&buf), bits(&reference), "workers={workers}");
    }
}
