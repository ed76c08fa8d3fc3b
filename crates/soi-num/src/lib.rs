//! Numeric substrate for the SOI FFT reproduction.
//!
//! This crate provides everything numerical the rest of the workspace needs
//! without pulling in external math crates:
//!
//! * [`Complex64`] — a minimal, `#[repr(C)]`, cache-friendly
//!   double-precision complex type. The paper's SOI FFT is a
//!   double-precision method, and every accuracy preset asks for more
//!   than single-precision round-off (~140 dB) can deliver, so `f64` is
//!   the only element type.
//! * [`AlignedBuf`] — a 64-byte-aligned owned `[T]` for transform
//!   buffers; plain `Vec` lands at a 16-byte offset for large
//!   allocations, which makes half of all 32-byte SIMD loads straddle
//!   cache lines (~25% on memory-bound kernels).
//! * [`special`] — `erf`/`erfc`, `sinc`, and the Gaussian, used by the
//!   window-function machinery of the paper's §4.
//! * [`kahan`] — compensated (Neumaier) summation for accurate reductions.
//! * [`quad`] — adaptive Simpson quadrature, used to evaluate the paper's
//!   aliasing/truncation error integrals (ε^(alias), ε^(trunc)).
//! * [`dd`] — double-double (~106-bit mantissa) arithmetic, used to build a
//!   reference FFT accurate enough to certify the paper's 290 dB SNR claim.
//! * [`stats`] — mean / standard deviation / normal-theory confidence
//!   intervals (Fig 6 uses a 90% CI) and the dB / SNR helpers of §7.2.

pub mod aligned;
pub mod complex;
pub mod dd;
pub mod kahan;
pub mod quad;
pub mod special;
pub mod stats;

pub use aligned::AlignedBuf;
pub use complex::{c64, Complex64};
pub use dd::Dd;
pub use kahan::KahanSum;
