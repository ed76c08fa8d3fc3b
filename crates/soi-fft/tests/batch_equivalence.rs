//! Thread-count equivalence of the batched executor.
//!
//! The `I ⊗ F_P` stage of the SOI factorization (Eq. 6) is data-parallel
//! over rows: the thread split is pure scheduling and must not change a
//! single bit of the output. Each plan is executed per-row with its own
//! scratch, so the calling thread and pools of 2 to 8 workers are
//! required to agree **bitwise**, not just within tolerance.

use soi_fft::batch::BatchFft;
use soi_fft::Direction;
use soi_num::{Complex, Complex64, Real};
use soi_pool::ThreadPool;
use soi_testkit::TestRng;

/// `batch` over `data` on a pool of `workers`, with a fresh arena.
fn pooled<T: Real>(batch: &BatchFft<T>, data: &mut [Complex<T>], workers: usize) {
    let rows = data.len() / batch.row_len();
    let mut scratch = vec![Complex::<T>::default(); workers.min(rows) * batch.scratch_len()];
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

#[test]
fn f32_batch_is_also_scheduling_independent() {
    // The executor is generic over the real type; check the f32 path too.
    let (rows, m) = (16usize, 32usize);
    let mut rng = TestRng::seed_from_u64(99);
    let data: Vec<soi_num::Complex<f32>> = (0..rows * m)
        .map(|_| {
            soi_num::Complex::new(
                rng.f64_in(-1.0..1.0) as f32,
                rng.f64_in(-1.0..1.0) as f32,
            )
        })
        .collect();
    let batch = BatchFft::<f32>::new(m, Direction::Forward);
    let mut serial = data.clone();
    batch.execute(&mut serial);
    let mut threaded = data;
    pooled(&batch, &mut threaded, 4);
    let as_bits = |v: &[soi_num::Complex<f32>]| {
        v.iter()
            .map(|c| (c.re.to_f64().to_bits(), c.im.to_f64().to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(as_bits(&serial), as_bits(&threaded));
}
