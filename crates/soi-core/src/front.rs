//! The front end of Eq. 6, `P_perm · (I_{M'} ⊗ F_P) · W · x`, run one
//! block of rows at a time.
//!
//! Every row of the front end is independent: row `j` is a `P`-lane
//! convolution output, its `F_P`, and `P` scattered stores into the
//! lane-major (segment-major) output. So instead of four passes over
//! whole arrays (halo copy, convolution into an `N'` buffer, `F_P` over
//! it, transpose out of it), the rows run in blocks of μ-row chunks:
//!
//! 1. the convolution writes a block into a per-worker stripe sized to
//!    stay in L2 (160 KiB of convolution output);
//! 2. the existing `F_P` batch kernel transforms the stripe in place;
//! 3. the pack scatters the stripe's lanes into the output.
//!
//! The `N'`-point convolution output never reaches memory, and `x` is
//! never copied: the few chunks whose input window runs past the end of
//! `x` read a small wrap buffer, `x[c_w·ν·P..] ++ halo`, instead of an
//! `N`-point extended copy. Each row runs the same kernels in the same
//! order as the whole-array passes did, so the output is bitwise the
//! same for every block size and every worker count.

use crate::conv::{ConvShape, Sample};
use crate::pipeline::SoiFft;
use soi_num::{AlignedBuf, Complex64};
use soi_pool::{part_range, SlicePtr, ThreadPool};
use soi_trace::Trace;
use std::sync::Mutex;
use std::time::Instant;

/// Convolution output one block holds: 160 KiB, which leaves room in a
/// 1–2 MiB L2 for the block's input and the tap table. At `P = 8`,
/// `μ = 5` that is 256 chunks.
const BLOCK_BYTES: usize = 160 << 10;

/// Wall seconds of the front end's phases. With more than one worker the
/// phases overlap across workers; the times are those of the calling
/// worker's own blocks, so they add up to at most the call's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrontTimes {
    /// Building the wrap buffer.
    pub halo: f64,
    /// The convolution `W·x`.
    pub conv: f64,
    /// The `I ⊗ F_P` batch.
    pub fft_p: f64,
    /// The lane-major scatter.
    pub pack: f64,
}

/// Reusable buffers of the front end: one stripe per worker (a block's
/// convolution output followed by its `F_P` scratch) and the wrap
/// buffer. Grown on demand, so steady-state calls allocate nothing.
#[derive(Debug)]
pub(crate) struct FrontArena<T> {
    stripes: AlignedBuf<Complex64>,
    wrap: AlignedBuf<T>,
}

impl<T: Sample> FrontArena<T> {
    /// An arena sized for the production block size, `threads` workers
    /// and an input of `len` samples.
    pub(crate) fn new(soi: &SoiFft, len: usize, threads: usize) -> Self {
        let mut arena = Self {
            stripes: AlignedBuf::zeroed(0),
            wrap: AlignedBuf::zeroed(0),
        };
        let g = Geometry::new(soi, len, soi.front_block_chunks(), threads);
        arena.fit(&g);
        arena
    }

    fn fit(&mut self, g: &Geometry) {
        if self.stripes.len() < g.parts * g.stripe_len {
            self.stripes = AlignedBuf::zeroed(g.parts * g.stripe_len);
        }
        if self.wrap.len() < g.wrap_len {
            self.wrap = AlignedBuf::zeroed(g.wrap_len);
        }
    }
}

/// Block layout of one front-end call.
struct Geometry {
    /// μ-row chunks in the input.
    chunks: usize,
    /// Chunks per block.
    block_chunks: usize,
    /// Blocks, the last one possibly ragged.
    blocks: usize,
    /// Workers the blocks are split across.
    parts: usize,
    /// First chunk whose window runs past the end of `x`.
    first_wrap: usize,
    /// Elements per worker stripe.
    stripe_len: usize,
    /// Elements of the wrap buffer.
    wrap_len: usize,
}

impl Geometry {
    fn new(soi: &SoiFft, len: usize, block_chunks: usize, threads: usize) -> Self {
        let ConvShape { mu, nu, b, p } = soi.shape();
        assert!(
            len.is_multiple_of(nu * p),
            "input length {len} must be whole chunks of nu*P = {}",
            nu * p
        );
        let chunks = len / (nu * p);
        let block_chunks = block_chunks.clamp(1, chunks.max(1));
        let blocks = chunks.div_ceil(block_chunks);
        // Chunk c reads input blocks [cν, cν + span), span = ν + b − 1;
        // it reads `x` directly while cν + span ≤ len/P.
        let span = nu + b - 1;
        let first_wrap = match (len / p).checked_sub(span) {
            Some(room) => (room / nu + 1).min(chunks),
            None => 0,
        };
        Self {
            chunks,
            block_chunks,
            blocks,
            parts: threads.min(blocks).max(1),
            first_wrap,
            stripe_len: (block_chunks * mu * p + soi.batch_p().scratch_len()).next_multiple_of(4),
            wrap_len: len - first_wrap * nu * p + (b - 1) * p,
        }
    }
}

impl SoiFft {
    /// The front end `P_perm · (I ⊗ F_P) · W · x` of one node, block by
    /// block (see the [module docs](crate::front)).
    ///
    /// * `x` — this node's samples (`N` on one process, `N/R` per rank);
    /// * `halo` — the `B·P` samples that follow `x` circularly: `x`'s own
    ///   prefix on one process, the right neighbour's prefix per rank;
    /// * `out` — lane-major output, `keep` lanes of `rows` values, where
    ///   `rows = x.len()·μ/(ν·P)`: lane `s` holds row `j`'s `F_P` bin `s`
    ///   at `out[s·rows + j]`;
    /// * `keep` — lanes kept: `P`, or `P/2` for real input, whose upper
    ///   lanes are conjugate mirrors of the lower ones.
    ///
    /// Emits `halo`, `conv`, `fft_p` and `pack` spans on `trace` (the
    /// latter three once per block of the calling worker) and returns the
    /// phases' wall times. The output is bitwise identical for every
    /// worker count. Allocates its per-call buffers; the workspaces of
    /// [`SoiFft::transform_into`] and [`SoiFft::transform_real_into`]
    /// reuse theirs.
    ///
    /// # Panics
    /// If `x` is not whole μ-row chunks, `halo` is not `B·P` samples,
    /// `keep > P`, or `out` is not `keep·rows` values.
    pub fn front_end<T: Sample>(
        &self,
        x: &[T],
        halo: &[T],
        out: &mut [Complex64],
        keep: usize,
        pool: &ThreadPool,
        trace: &Trace,
    ) -> FrontTimes {
        let mut arena = FrontArena::new(self, x.len(), pool.threads());
        self.front_end_with(
            x,
            halo,
            out,
            keep,
            &mut arena,
            self.front_block_chunks(),
            pool,
            trace,
        )
    }

    /// Chunks per block: as many as fill [`BLOCK_BYTES`] of convolution
    /// output.
    pub(crate) fn front_block_chunks(&self) -> usize {
        let ConvShape { mu, p, .. } = self.shape();
        (BLOCK_BYTES / (mu * p * std::mem::size_of::<Complex64>())).max(1)
    }

    /// [`Self::front_end`] on a caller arena with `block_chunks` μ-row
    /// chunks per block (production passes [`Self::front_block_chunks`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn front_end_with<T: Sample>(
        &self,
        x: &[T],
        halo: &[T],
        out: &mut [Complex64],
        keep: usize,
        arena: &mut FrontArena<T>,
        block_chunks: usize,
        pool: &ThreadPool,
        trace: &Trace,
    ) -> FrontTimes {
        let shape = self.shape();
        let ConvShape { mu, nu, b, p } = shape;
        let g = Geometry::new(self, x.len(), block_chunks, pool.threads());
        let rows = g.chunks * mu;
        assert_eq!(halo.len(), (b - 1) * p, "halo must be B*P samples");
        assert!(keep <= p, "keep {keep} exceeds P = {p}");
        assert_eq!(out.len(), keep * rows, "out must be keep x rows");
        arena.fit(&g);

        // The wrap buffer: the tail of `x` from the first wrapping chunk
        // on, then the halo.
        trace.span_begin("halo", None);
        let t0 = Instant::now();
        let tail = &x[g.first_wrap * nu * p..];
        let wrap = &mut arena.wrap[..g.wrap_len];
        wrap[..tail.len()].copy_from_slice(tail);
        wrap[tail.len()..].copy_from_slice(halo);
        let halo_s = t0.elapsed().as_secs_f64();
        trace.span_end("halo", None);

        let wrap = &arena.wrap[..g.wrap_len];
        let conv_len = g.block_chunks * mu * p;
        let out_ptr = SlicePtr::new(out);
        let stripes = SlicePtr::new(&mut arena.stripes);
        let caller = Mutex::new(FrontTimes::default());
        let untraced = Trace::disabled();
        let task = |t: usize| {
            // Only the calling worker records spans, so they nest.
            let trace = if t == 0 { trace } else { &untraced };
            let mut times = FrontTimes::default();
            let (b0, bl) = part_range(g.blocks, g.parts, t);
            // SAFETY: each task owns stripe `t`; the borrow ends at the
            // `run` barrier.
            let stripe = unsafe { stripes.slice(t * g.stripe_len, g.stripe_len) };
            let (conv_buf, scratch) = stripe.split_at_mut(conv_len);
            for blk in b0..b0 + bl {
                let c0 = blk * g.block_chunks;
                let c1 = (c0 + g.block_chunks).min(g.chunks);
                let v = &mut conv_buf[..(c1 - c0) * mu * p];

                trace.span_begin("conv", None);
                let t0 = Instant::now();
                // Chunks before `first_wrap` read `x`, the rest `wrap`.
                let split = g.first_wrap.clamp(c0, c1);
                let (direct, wrapped) = v.split_at_mut((split - c0) * mu * p);
                if !direct.is_empty() {
                    T::convolve(shape, self.coefficients(), &x[c0 * nu * p..], direct);
                }
                if !wrapped.is_empty() {
                    let w0 = (split - g.first_wrap) * nu * p;
                    T::convolve(shape, self.coefficients(), &wrap[w0..], wrapped);
                }
                let t1 = Instant::now();
                times.conv += (t1 - t0).as_secs_f64();
                trace.span_end("conv", None);

                trace.span_begin("fft_p", None);
                self.batch_p().execute_with_scratch(v, scratch);
                let t2 = Instant::now();
                times.fft_p += (t2 - t1).as_secs_f64();
                trace.span_end("fft_p", None);

                trace.span_begin("pack", None);
                // SAFETY: rows c0·μ.. of each lane belong to this block
                // alone; the borrow ends at the `run` barrier.
                unsafe { pack(v, p, keep, &out_ptr, rows, c0 * mu) };
                times.pack += t2.elapsed().as_secs_f64();
                trace.span_end("pack", None);
            }
            if t == 0 {
                *caller.lock().expect("front-end times poisoned") = times;
            }
        };
        if g.parts == 1 {
            task(0);
        } else {
            pool.run(g.parts, task);
        }
        FrontTimes {
            halo: halo_s,
            ..caller.into_inner().expect("front-end times poisoned")
        }
    }
}

/// Scatter a block of `F_P` groups (`v`, rows of `p`) into lanes
/// `0..keep` of the lane-major output: `out[s·rows + j0 + i] = v[i·p + s]`.
/// Four rows at a time, so each lane receives one 64-byte line per step.
///
/// # Safety
/// Rows `j0..j0 + v.len()/p` of every kept lane must be in bounds and
/// written by no one else meanwhile.
unsafe fn pack(
    v: &[Complex64],
    p: usize,
    keep: usize,
    out: &SlicePtr<Complex64>,
    rows: usize,
    j0: usize,
) {
    let block_rows = v.len() / p;
    let quads = block_rows / 4;
    for (q, src) in v.chunks_exact(4 * p).enumerate() {
        for s in 0..keep {
            let d = out.slice(s * rows + j0 + 4 * q, 4);
            d[0] = src[s];
            d[1] = src[p + s];
            d[2] = src[2 * p + s];
            d[3] = src[3 * p + s];
        }
    }
    for i in 4 * quads..block_rows {
        for s in 0..keep {
            out.write(s * rows + j0 + i, v[i * p + s]);
        }
    }
}
