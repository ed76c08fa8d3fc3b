//! Stride permutations and blocked transposes.
//!
//! §5 of the paper defines the stride-ℓ permutation `P_perm^{ℓ,n}` (for ℓ
//! dividing n) by `w_{j+kℓ} = v_{k+j·(n/ℓ)}` for `0 ≤ j < ℓ`,
//! `0 ≤ k < n/ℓ` — i.e. reading `v` as an ℓ×(n/ℓ) row-major matrix and
//! writing its transpose. `P_perm^{P,N'}` is the factorization's single
//! global all-to-all. These serial routines are the reference for the
//! SOI front end's block-by-block pack (`soi_core::front`) and the
//! transposes of the baseline algorithm.

/// Cache-block edge for the blocked transpose.
const BLOCK: usize = 32;

/// Out-of-place matrix transpose: `src` is `rows×cols` row-major; `dst`
/// receives the `cols×rows` transpose. Cache-blocked.
pub fn transpose<T: Copy>(src: &[T], dst: &mut [T], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "src shape mismatch");
    assert_eq!(dst.len(), rows * cols, "dst shape mismatch");
    for r0 in (0..rows).step_by(BLOCK) {
        let r1 = (r0 + BLOCK).min(rows);
        for c0 in (0..cols).step_by(BLOCK) {
            let c1 = (c0 + BLOCK).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// The paper's stride permutation `w = P_perm^{ℓ,n}·v`:
/// `w[j + k·ℓ] = v[k + j·(n/ℓ)]`.
///
/// # Panics
/// Panics if `ℓ` does not divide `v.len()`.
pub fn stride_permute<T: Copy>(v: &[T], w: &mut [T], l: usize) {
    let n = v.len();
    assert_eq!(w.len(), n);
    assert!(l > 0 && n % l == 0, "stride {l} must divide length {n}");
    // v viewed as ℓ×(n/ℓ) row-major, w as its transpose.
    transpose(v, w, l, n / l);
}

/// Inverse stride permutation: `P_perm^{n/ℓ,n}` (the transpose back).
pub fn stride_unpermute<T: Copy>(v: &[T], w: &mut [T], l: usize) {
    let n = v.len();
    assert!(l > 0 && n % l == 0, "stride {l} must divide length {n}");
    stride_permute(v, w, n / l);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_small() {
        // 2×3 → 3×2
        let src = [1, 2, 3, 4, 5, 6];
        let mut dst = [0; 6];
        transpose(&src, &mut dst, 2, 3);
        assert_eq!(dst, [1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn transpose_involution() {
        let rows = 37;
        let cols = 53;
        let src: Vec<u32> = (0..rows * cols as u32).collect();
        let mut t = vec![0u32; src.len()];
        let mut back = vec![0u32; src.len()];
        transpose(&src, &mut t, rows as usize, cols as usize);
        transpose(&t, &mut back, cols as usize, rows as usize);
        assert_eq!(src, back);
    }

    #[test]
    fn stride_permute_matches_paper_definition() {
        // P = 2, N' = 12 — exactly the Fig 3 example scale.
        let n = 12;
        let l = 2;
        let v: Vec<usize> = (0..n).collect();
        let mut w = vec![0usize; n];
        stride_permute(&v, &mut w, l);
        for j in 0..l {
            for k in 0..n / l {
                assert_eq!(w[j + k * l], v[k + j * (n / l)]);
            }
        }
    }

    #[test]
    fn stride_unpermute_inverts() {
        let n = 60;
        for l in [2usize, 3, 4, 5, 6, 10, 12] {
            let v: Vec<usize> = (0..n).collect();
            let mut w = vec![0usize; n];
            let mut back = vec![0usize; n];
            stride_permute(&v, &mut w, l);
            stride_unpermute(&w, &mut back, l);
            assert_eq!(v, back, "l={l}");
        }
    }

    #[test]
    fn stride_permute_is_a_bijection() {
        let n = 48;
        let l = 6;
        let v: Vec<usize> = (0..n).collect();
        let mut w = vec![0usize; n];
        stride_permute(&v, &mut w, l);
        let mut seen = vec![false; n];
        for &x in &w {
            assert!(!seen[x], "duplicate {x}");
            seen[x] = true;
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn stride_permute_rejects_nondivisor() {
        let v = [0u8; 10];
        let mut w = [0u8; 10];
        stride_permute(&v, &mut w, 3);
    }
}
