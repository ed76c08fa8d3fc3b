//! Byte codecs: plain-old-data element encoding and a tiny cursor pair
//! for structured control payloads.
//!
//! Everything on the wire is explicit little-endian — no `transmute`, no
//! layout assumptions — so a trace captured on one architecture replays
//! on another and `f64` payloads round-trip *bit-exactly* (the
//! cross-transport bitwise-equivalence tests depend on this).

use crate::error::WireError;
use soi_num::Complex64;

/// A fixed-size element that can cross the wire. `Sync` because the
/// streamed collectives encode from a shared `&[T]` on a writer thread
/// while the caller's thread decodes.
pub trait Pod: Copy + Send + Sync + 'static {
    /// Encoded size in bytes.
    const BYTES: usize;
    /// Append the little-endian encoding to `out`.
    fn write_le(self, out: &mut Vec<u8>);
    /// Decode from exactly [`Pod::BYTES`] bytes.
    fn read_le(b: &[u8]) -> Self;
}

impl Pod for u8 {
    const BYTES: usize = 1;
    fn write_le(self, out: &mut Vec<u8>) {
        out.push(self);
    }
    fn read_le(b: &[u8]) -> Self {
        b[0]
    }
}

impl Pod for u32 {
    const BYTES: usize = 4;
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(b: &[u8]) -> Self {
        u32::from_le_bytes(b[..4].try_into().unwrap())
    }
}

impl Pod for u64 {
    const BYTES: usize = 8;
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(b: &[u8]) -> Self {
        u64::from_le_bytes(b[..8].try_into().unwrap())
    }
}

impl Pod for f64 {
    const BYTES: usize = 8;
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_le(b: &[u8]) -> Self {
        f64::from_bits(u64::from_le_bytes(b[..8].try_into().unwrap()))
    }
}

impl Pod for Complex64 {
    const BYTES: usize = 16;
    fn write_le(self, out: &mut Vec<u8>) {
        self.re.write_le(out);
        self.im.write_le(out);
    }
    fn read_le(b: &[u8]) -> Self {
        Complex64::new(f64::read_le(&b[..8]), f64::read_le(&b[8..16]))
    }
}

/// Encode a slice of elements back-to-back.
pub fn encode_slice<T: Pod>(xs: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(xs.len() * T::BYTES);
    for &x in xs {
        x.write_le(&mut out);
    }
    out
}

/// Encode a slice into a reusable buffer (cleared first, capacity kept) —
/// the allocation-free path the streamed collectives use per frame.
pub fn encode_into<T: Pod>(xs: &[T], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(xs.len() * T::BYTES);
    for &x in xs {
        x.write_le(out);
    }
}

/// Decode a payload of back-to-back elements directly into a caller
/// slice; the byte length must match `out.len() * T::BYTES` exactly.
pub fn decode_into<T: Pod>(b: &[u8], out: &mut [T]) -> Result<(), WireError> {
    if b.len() != out.len() * T::BYTES {
        return Err(WireError::Protocol(format!(
            "payload of {} bytes does not fill {} elements of {} bytes",
            b.len(),
            out.len(),
            T::BYTES
        )));
    }
    for (dst, chunk) in out.iter_mut().zip(b.chunks_exact(T::BYTES)) {
        *dst = T::read_le(chunk);
    }
    Ok(())
}

/// Decode a payload of back-to-back elements; the length must divide
/// evenly or the frame is malformed.
pub fn decode_slice<T: Pod>(b: &[u8]) -> Result<Vec<T>, WireError> {
    if b.len() % T::BYTES != 0 {
        return Err(WireError::Protocol(format!(
            "payload of {} bytes is not a multiple of element size {}",
            b.len(),
            T::BYTES
        )));
    }
    Ok(b.chunks_exact(T::BYTES).map(T::read_le).collect())
}

/// Append-side cursor for structured control payloads (HELLO/WELCOME/...).
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `u32`.
    pub fn u32(mut self, v: u32) -> Self {
        v.write_le(&mut self.buf);
        self
    }

    /// Append a `u64`.
    pub fn u64(mut self, v: u64) -> Self {
        v.write_le(&mut self.buf);
        self
    }

    /// Append an `f64` (bit-exact).
    pub fn f64(mut self, v: f64) -> Self {
        v.write_le(&mut self.buf);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(mut self, s: &str) -> Self {
        (s.len() as u32).write_le(&mut self.buf);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Append a length-prefixed byte blob.
    pub fn bytes(mut self, b: &[u8]) -> Self {
        (b.len() as u64).write_le(&mut self.buf);
        self.buf.extend_from_slice(b);
        self
    }

    /// The finished payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Read-side cursor over a control payload.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Cursor at the start of `b`.
    pub fn new(b: &'a [u8]) -> Self {
        Self { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        // `pos ≤ len` always holds, so this cannot wrap, while `pos + n`
        // can for a length prefix read off the wire.
        if n > self.b.len() - self.pos {
            return Err(WireError::Protocol(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.b.len()
            )));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::read_le(self.take(4)?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::read_le(self.take(8)?))
    }

    /// Read an `f64` (bit-exact).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::read_le(self.take(8)?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec())
            .map_err(|_| WireError::Protocol("non-UTF-8 string in payload".into()))
    }

    /// Read a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u64()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_num::c64;

    #[test]
    fn slices_roundtrip_bitwise() {
        let xs: Vec<Complex64> = (0..17)
            .map(|i| c64((i as f64 * 0.1).sin() / 3.0, -(i as f64) * 0.7))
            .collect();
        let back: Vec<Complex64> = decode_slice(&encode_slice(&xs)).unwrap();
        assert_eq!(back.len(), xs.len());
        for (a, b) in xs.iter().zip(&back) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        let us: Vec<u64> = vec![0, 1, u64::MAX, 42];
        assert_eq!(decode_slice::<u64>(&encode_slice(&us)).unwrap(), us);
        let bs: Vec<u8> = vec![0, 255, 7];
        assert_eq!(decode_slice::<u8>(&encode_slice(&bs)).unwrap(), bs);
    }

    #[test]
    fn ragged_payload_is_a_protocol_error() {
        let e = decode_slice::<u64>(&[1, 2, 3]).unwrap_err();
        assert!(matches!(e, WireError::Protocol(_)));
    }

    #[test]
    fn length_prefix_near_u64_max_is_a_protocol_error() {
        for len in [u64::MAX, u64::MAX - 10] {
            let payload = PayloadWriter::new().u32(7).u64(len).u64(1).finish();
            let mut r = PayloadReader::new(&payload);
            assert_eq!(r.u32().unwrap(), 7);
            let e = r.bytes().unwrap_err();
            assert!(matches!(e, WireError::Protocol(_)), "len {len:#x}: {e:?}");
            assert_eq!(r.remaining(), 8, "the failed take leaves the cursor where it was");
        }
    }

    #[test]
    fn reusable_buffer_codec_roundtrips_bitwise() {
        let xs: Vec<Complex64> = (0..9)
            .map(|i| c64((i as f64 * 0.3).cos(), (i as f64 * 1.7).sin()))
            .collect();
        let mut buf = vec![0xAAu8; 4]; // stale contents must be discarded
        encode_into(&xs, &mut buf);
        assert_eq!(buf, encode_slice(&xs));
        let mut out = vec![Complex64::ZERO; xs.len()];
        decode_into(&buf, &mut out).unwrap();
        for (a, b) in xs.iter().zip(&out) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        // Length mismatch (either direction) is a protocol error.
        let mut short = vec![Complex64::ZERO; xs.len() - 1];
        assert!(matches!(
            decode_into(&buf, &mut short),
            Err(WireError::Protocol(_))
        ));
        let mut long = vec![Complex64::ZERO; xs.len() + 1];
        assert!(matches!(
            decode_into(&buf, &mut long),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn special_floats_survive() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MIN_POSITIVE] {
            let enc = encode_slice(&[v]);
            let dec: Vec<f64> = decode_slice(&enc).unwrap();
            assert_eq!(dec[0].to_bits(), v.to_bits());
        }
    }

    #[test]
    fn payload_cursors_roundtrip() {
        let p = PayloadWriter::new()
            .u32(7)
            .str("127.0.0.1:9000")
            .u64(1 << 40)
            .f64(0.1 + 0.2)
            .bytes(&[9, 8, 7])
            .finish();
        let mut r = PayloadReader::new(&p);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.str().unwrap(), "127.0.0.1:9000");
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap().to_bits(), (0.1 + 0.2f64).to_bits());
        assert_eq!(r.bytes().unwrap(), vec![9, 8, 7]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_payload_reports_protocol_error() {
        let p = PayloadWriter::new().u32(1).finish();
        let mut r = PayloadReader::new(&p);
        let _ = r.u32().unwrap();
        assert!(matches!(r.u64(), Err(WireError::Protocol(_))));
    }
}
