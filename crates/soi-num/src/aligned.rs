//! Cache-line-aligned owned buffers for SIMD-heavy hot paths.
//!
//! `Vec<Complex64>` gives no alignment beyond 16 bytes, and glibc serves
//! every large (mmap-threshold) allocation at exactly 16 bytes past a
//! page boundary — so big transform buffers systematically land at
//! `addr % 32 == 16`, where **half of all 32-byte AVX2 loads straddle a
//! cache line**. Measured on the kernel bench this costs ~25% on the
//! memory-bound engines (Bluestein at n=4093: 25.2 ns/pt with a
//! 32-byte-aligned scratch vs 31.5–33.4 at a 16-byte offset), and it
//! made committed baselines depend on allocator luck.
//!
//! [`AlignedBuf`] is a plain owned `[T]` whose storage is 64-byte
//! aligned (cache line, and enough for AVX-512 later). It derefs to a
//! slice, so call sites that previously held a `Vec` keep compiling:
//! indexing, `split_at_mut`, `copy_from_slice`, and `&mut buf → &mut
//! [T]` coercions all go through `Deref`/`DerefMut`. The SIMD kernels
//! keep using unaligned loads (`loadu`) — alignment here is a
//! performance contract, never a safety requirement, so arbitrary
//! caller slices remain valid inputs everywhere.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// One cache line of raw storage; the `align(64)` is the entire point.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([u8; 64]);

/// An owned, 64-byte-aligned `[T]` for `Copy` element types.
///
/// Construction fills every element (no uninitialized reads), and the
/// `T: Copy` constructor bound means dropping the raw storage never
/// skips a destructor. (The bound sits on the constructors, not the
/// struct, so generic holders of an `AlignedBuf<T>` need no extra
/// bounds on their own definitions.)
pub struct AlignedBuf<T> {
    storage: Vec<Line>,
    len: usize,
    _elem: PhantomData<T>,
}

impl<T: Copy> AlignedBuf<T> {
    /// A buffer of `len` copies of `value`.
    pub fn filled(len: usize, value: T) -> Self {
        assert!(
            std::mem::align_of::<T>() <= 64,
            "element alignment exceeds the 64-byte line"
        );
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("aligned buffer size overflows usize");
        let mut storage = vec![Line([0u8; 64]); bytes.div_ceil(64)];
        let base = storage.as_mut_ptr() as *mut T;
        for i in 0..len {
            // SAFETY: `storage` owns `len * size_of::<T>()` bytes starting
            // at `base`, `base` is 64-byte (≥ align_of::<T>()) aligned, and
            // `T: Copy` so overwriting the zeroed bytes needs no drop.
            unsafe { base.add(i).write(value) };
        }
        Self {
            storage,
            len,
            _elem: PhantomData,
        }
    }

    /// A buffer of `len` default elements (`Complex64::ZERO` for complex).
    pub fn zeroed(len: usize) -> Self
    where
        T: Default,
    {
        Self::filled(len, T::default())
    }

    /// An aligned copy of `src`.
    pub fn from_slice(src: &[T]) -> Self
    where
        T: Default,
    {
        let mut buf = Self::zeroed(src.len());
        buf.copy_from_slice(src);
        buf
    }
}

impl<T> Deref for AlignedBuf<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: construction initialized `len` elements at the start of
        // `storage`, which outlives the borrow.
        unsafe { std::slice::from_raw_parts(self.storage.as_ptr() as *const T, self.len) }
    }
}

impl<T> DerefMut for AlignedBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as `deref`, and the `&mut self` borrow is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.storage.as_mut_ptr() as *mut T, self.len) }
    }
}

impl<T: fmt::Debug> fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len)
            .field("data", &&self[..self.len.min(4)])
            .finish()
    }
}

impl<T> Clone for AlignedBuf<T> {
    fn clone(&self) -> Self {
        Self {
            storage: self.storage.clone(),
            len: self.len,
            _elem: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, Complex64};

    #[test]
    fn storage_is_cache_line_aligned() {
        // Cover sizes on both sides of the glibc mmap threshold — the
        // small ones exercise the arena allocator, the large ones the
        // mmap path that hands plain Vec a misaligned 16-byte offset.
        for len in [1usize, 7, 100, 4096, 163840] {
            let buf = AlignedBuf::<Complex64>::zeroed(len);
            assert_eq!(buf.as_ptr() as usize % 64, 0, "len={len}");
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|c| c.re == 0.0 && c.im == 0.0));
        }
    }

    #[test]
    fn behaves_like_a_slice() {
        let mut buf = AlignedBuf::<f64>::filled(8, 1.5);
        assert_eq!(buf[3], 1.5);
        buf[3] = 2.5;
        assert_eq!(buf[3], 2.5);
        let (a, b) = buf.split_at_mut(4);
        a.copy_from_slice(&[0.0; 4]);
        b[0] = 9.0;
        assert_eq!(&buf[2..6], &[0.0, 0.0, 9.0, 1.5]);
    }

    #[test]
    fn from_slice_round_trips() {
        let src: Vec<Complex64> = (0..33).map(|i| c64(i as f64, -(i as f64))).collect();
        let buf = AlignedBuf::from_slice(&src);
        assert_eq!(&buf[..], &src[..]);
        let cloned = buf.clone();
        assert_eq!(cloned.as_ptr() as usize % 64, 0);
        assert_eq!(&cloned[..], &src[..]);
    }
}
