//! The serve protocol: request/response/reject/stats payloads on the
//! soi-wire framing.
//!
//! Frame tags live above the rank-transport range (0x01–0x06) so a
//! misdirected worker connection fails loudly as a protocol error
//! instead of being half-understood. Every payload rides
//! `PayloadWriter`/`PayloadReader` (explicit little-endian, bit-exact
//! `f64`), so response spectra compare bitwise against locally computed
//! references on any architecture.
//!
//! One request carries its whole input signal plus the transform
//! geometry; one response carries the requested bins. Correlation is by
//! client-chosen `id`: the server answers one connection's admitted
//! requests in the order they were sent, but a reject from admission
//! control is sent at once and can overtake them.

use soi_num::Complex64;
use soi_wire::pod::{PayloadReader, PayloadWriter};
use soi_wire::{decode_slice, encode_slice, WireError};

/// Protocol revision; bumped on any layout change.
pub const PROTO_VERSION: u32 = 1;

/// Client → server: one transform request.
pub const TAG_REQUEST: u8 = 0x20;
/// Server → client: the requested bins.
pub const TAG_RESPONSE: u8 = 0x21;
/// Server → client: typed rejection (overload, expired deadline, bad
/// request) — never a partial result.
pub const TAG_REJECT: u8 = 0x22;
/// Client → server: ask for a stats snapshot.
pub const TAG_STATS_REQUEST: u8 = 0x23;
/// Server → client: the stats snapshot.
pub const TAG_STATS: u8 = 0x24;
/// Client → server: stop accepting, drain, exit.
pub const TAG_SHUTDOWN: u8 = 0x25;
/// Either direction: clean goodbye (client done; server acking a
/// shutdown).
pub const TAG_BYE: u8 = 0x26;

/// What slice of the spectrum a request wants, and from which input
/// domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// All `N` bins from complex samples.
    Full,
    /// Segment `arg` (`M = N/P` bins starting at `arg·M`).
    Segment,
    /// `M` bins starting at arbitrary bin `arg` (zoom band).
    Band,
    /// Packed half spectrum (`N/2 + 1` bins) from real samples.
    RealFull,
    /// Segment `arg` from real samples.
    RealSegment,
    /// Band at `arg` from real samples.
    RealBand,
}

impl RequestKind {
    /// True for the r2c kinds (input is `f64` samples).
    pub fn is_real(self) -> bool {
        matches!(
            self,
            RequestKind::RealFull | RequestKind::RealSegment | RequestKind::RealBand
        )
    }

    fn code(self) -> u32 {
        match self {
            RequestKind::Full => 0,
            RequestKind::Segment => 1,
            RequestKind::Band => 2,
            RequestKind::RealFull => 3,
            RequestKind::RealSegment => 4,
            RequestKind::RealBand => 5,
        }
    }

    fn from_code(c: u32) -> Result<Self, WireError> {
        Ok(match c {
            0 => RequestKind::Full,
            1 => RequestKind::Segment,
            2 => RequestKind::Band,
            3 => RequestKind::RealFull,
            4 => RequestKind::RealSegment,
            5 => RequestKind::RealBand,
            other => {
                return Err(WireError::Protocol(format!(
                    "unknown request kind {other}"
                )))
            }
        })
    }

    /// Parse a CLI-facing name.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "full" => RequestKind::Full,
            "segment" => RequestKind::Segment,
            "band" => RequestKind::Band,
            "real" | "real-full" => RequestKind::RealFull,
            "real-segment" => RequestKind::RealSegment,
            "real-band" => RequestKind::RealBand,
            _ => return None,
        })
    }

    /// CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Full => "full",
            RequestKind::Segment => "segment",
            RequestKind::Band => "band",
            RequestKind::RealFull => "real",
            RequestKind::RealSegment => "real-segment",
            RequestKind::RealBand => "real-band",
        }
    }
}

/// The input signal, in the domain the kind demands.
#[derive(Debug, Clone, PartialEq)]
pub enum Samples {
    /// `N` complex samples.
    Complex(Vec<Complex64>),
    /// `N` real samples.
    Real(Vec<f64>),
}

impl Samples {
    /// Sample count.
    pub fn len(&self) -> usize {
        match self {
            Samples::Complex(v) => v.len(),
            Samples::Real(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoded byte size.
    pub fn encoded_len(&self) -> usize {
        match self {
            Samples::Complex(v) => v.len() * 16,
            Samples::Real(v) => v.len() * 8,
        }
    }
}

/// One transform request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the reply.
    pub id: u64,
    /// Accounting bucket for per-tenant stats.
    pub tenant: String,
    /// Transform size `N`.
    pub n: usize,
    /// SOI segment count `P` (must divide `N`).
    pub p: usize,
    /// Requested decimal digits of accuracy (picks the window preset).
    pub digits: u32,
    /// Which bins, from which domain.
    pub kind: RequestKind,
    /// Segment index (`Segment`/`RealSegment`) or band start bin
    /// (`Band`/`RealBand`); ignored for full transforms.
    pub arg: usize,
    /// Latency budget in ms, measured from server arrival; `0` = none.
    /// A request still queued past its budget is rejected
    /// ([`RejectCode::Expired`]), never partially computed. Relative, so
    /// client/server clock skew is irrelevant.
    pub deadline_ms: u64,
    /// The input signal.
    pub samples: Samples,
}

impl Request {
    /// Serialize to a REQUEST payload.
    pub fn encode(&self) -> Vec<u8> {
        let w = PayloadWriter::new()
            .u32(PROTO_VERSION)
            .u64(self.id)
            .str(&self.tenant)
            .u64(self.n as u64)
            .u64(self.p as u64)
            .u32(self.digits)
            .u32(self.kind.code())
            .u64(self.arg as u64)
            .u64(self.deadline_ms);
        match &self.samples {
            Samples::Complex(v) => w.bytes(&encode_slice(v)),
            Samples::Real(v) => w.bytes(&encode_slice(v)),
        }
        .finish()
    }

    /// Parse a REQUEST payload. Structural validation only (version,
    /// kind, sample-count/size agreement); semantic validation
    /// (divisibility, ranges) happens server-side with a typed reject.
    pub fn decode(b: &[u8]) -> Result<Request, WireError> {
        let mut r = PayloadReader::new(b);
        let version = r.u32()?;
        if version != PROTO_VERSION {
            return Err(WireError::Protocol(format!(
                "serve protocol version {version}, expected {PROTO_VERSION}"
            )));
        }
        let id = r.u64()?;
        let tenant = r.str()?;
        let n = r.u64()? as usize;
        let p = r.u64()? as usize;
        let digits = r.u32()?;
        let kind = RequestKind::from_code(r.u32()?)?;
        let arg = r.u64()? as usize;
        let deadline_ms = r.u64()?;
        let raw = r.bytes()?;
        let samples = if kind.is_real() {
            Samples::Real(decode_slice::<f64>(&raw)?)
        } else {
            Samples::Complex(decode_slice::<Complex64>(&raw)?)
        };
        if samples.len() != n {
            return Err(WireError::Protocol(format!(
                "request id {id}: {} samples for N = {n}",
                samples.len()
            )));
        }
        Ok(Request {
            id,
            tenant,
            n,
            p,
            digits,
            kind,
            arg,
            deadline_ms,
            samples,
        })
    }
}

/// A successful reply: the requested bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Server-side compute time for this request (transform only, queue
    /// wait excluded).
    pub compute_ns: u64,
    /// The requested bins, bit-exact.
    pub bins: Vec<Complex64>,
}

/// Serialize a RESPONSE payload into a reusable buffer (cleared first) —
/// the executor's steady-state path allocates nothing once the buffer
/// has grown to the largest response.
pub fn encode_response_into(id: u64, compute_ns: u64, bins: &[Complex64], out: &mut Vec<u8>) {
    use soi_wire::Pod;
    out.clear();
    out.reserve(24 + bins.len() * 16);
    id.write_le(out);
    compute_ns.write_le(out);
    (bins.len() as u64 * 16).write_le(out);
    for &b in bins {
        b.write_le(out);
    }
}

impl Response {
    /// Serialize to a RESPONSE payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_response_into(self.id, self.compute_ns, &self.bins, &mut out);
        out
    }

    /// Parse a RESPONSE payload.
    pub fn decode(b: &[u8]) -> Result<Response, WireError> {
        let mut r = PayloadReader::new(b);
        let id = r.u64()?;
        let compute_ns = r.u64()?;
        let bins = decode_slice::<Complex64>(&r.bytes()?)?;
        Ok(Response { id, compute_ns, bins })
    }
}

/// Why a request was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// The admission queue is full: shed, retry later.
    Overloaded,
    /// The deadline budget elapsed before compute started.
    Expired,
    /// The request is malformed or semantically invalid.
    BadRequest,
}

impl RejectCode {
    fn code(self) -> u32 {
        match self {
            RejectCode::Overloaded => 1,
            RejectCode::Expired => 2,
            RejectCode::BadRequest => 3,
        }
    }

    fn from_code(c: u32) -> Result<Self, WireError> {
        Ok(match c {
            1 => RejectCode::Overloaded,
            2 => RejectCode::Expired,
            3 => RejectCode::BadRequest,
            other => {
                return Err(WireError::Protocol(format!(
                    "unknown reject code {other}"
                )))
            }
        })
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RejectCode::Overloaded => "overloaded",
            RejectCode::Expired => "expired",
            RejectCode::BadRequest => "bad-request",
        }
    }
}

/// A typed rejection reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Reject {
    /// Echo of the request id (`0` when the request was undecodable).
    pub id: u64,
    /// Why.
    pub code: RejectCode,
    /// Diagnostic detail.
    pub message: String,
}

impl Reject {
    /// Serialize to a REJECT payload.
    pub fn encode(&self) -> Vec<u8> {
        PayloadWriter::new()
            .u64(self.id)
            .u32(self.code.code())
            .str(&self.message)
            .finish()
    }

    /// Parse a REJECT payload.
    pub fn decode(b: &[u8]) -> Result<Reject, WireError> {
        let mut r = PayloadReader::new(b);
        let id = r.u64()?;
        let code = RejectCode::from_code(r.u32()?)?;
        let message = r.str()?;
        Ok(Reject { id, code, message })
    }
}

/// Per-tenant accounting counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Accounting bucket name.
    pub tenant: String,
    /// Requests received (before admission).
    pub requests: u64,
    /// Requests answered with a RESPONSE.
    pub ok: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests whose deadline expired in queue.
    pub expired: u64,
    /// Requests rejected as invalid.
    pub rejected: u64,
    /// Request payload bytes in.
    pub bytes_in: u64,
    /// Response payload bytes out.
    pub bytes_out: u64,
    /// Transform compute time attributed to this tenant.
    pub compute_ns: u64,
}

/// One point-in-time server snapshot (the `soi serve --stats` frame).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted since start.
    pub connections: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Connections closed for idling past the timeout.
    pub idle_closed: u64,
    /// Connections that vanished (EOF/reset) without a BYE.
    pub peer_lost: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests that rode those batches.
    pub batched_requests: u64,
    /// Largest batch observed.
    pub max_batch: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
    /// Process-global planner plan-cache hits.
    pub plan_hits: u64,
    /// Process-global planner plan-cache misses.
    pub plan_misses: u64,
    /// Process-global planner plan-cache evictions.
    pub plan_evictions: u64,
    /// Serve-engine (pipeline + workspace) builds.
    pub engine_builds: u64,
    /// Serve-engine evictions.
    pub engine_evictions: u64,
    /// Per-tenant counters, sorted by tenant name.
    pub tenants: Vec<TenantStats>,
}

impl StatsSnapshot {
    /// Serialize to a STATS payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new()
            .u32(PROTO_VERSION)
            .u64(self.connections)
            .u64(self.active_connections)
            .u64(self.idle_closed)
            .u64(self.peer_lost)
            .u64(self.batches)
            .u64(self.batched_requests)
            .u64(self.max_batch)
            .u64(self.queue_depth)
            .u64(self.plan_hits)
            .u64(self.plan_misses)
            .u64(self.plan_evictions)
            .u64(self.engine_builds)
            .u64(self.engine_evictions)
            .u32(self.tenants.len() as u32);
        for t in &self.tenants {
            w = w
                .str(&t.tenant)
                .u64(t.requests)
                .u64(t.ok)
                .u64(t.shed)
                .u64(t.expired)
                .u64(t.rejected)
                .u64(t.bytes_in)
                .u64(t.bytes_out)
                .u64(t.compute_ns);
        }
        w.finish()
    }

    /// Parse a STATS payload.
    pub fn decode(b: &[u8]) -> Result<StatsSnapshot, WireError> {
        let mut r = PayloadReader::new(b);
        let version = r.u32()?;
        if version != PROTO_VERSION {
            return Err(WireError::Protocol(format!(
                "stats snapshot version {version}, expected {PROTO_VERSION}"
            )));
        }
        let mut s = StatsSnapshot {
            connections: r.u64()?,
            active_connections: r.u64()?,
            idle_closed: r.u64()?,
            peer_lost: r.u64()?,
            batches: r.u64()?,
            batched_requests: r.u64()?,
            max_batch: r.u64()?,
            queue_depth: r.u64()?,
            plan_hits: r.u64()?,
            plan_misses: r.u64()?,
            plan_evictions: r.u64()?,
            engine_builds: r.u64()?,
            engine_evictions: r.u64()?,
            tenants: Vec::new(),
        };
        let count = r.u32()?;
        for _ in 0..count {
            s.tenants.push(TenantStats {
                tenant: r.str()?,
                requests: r.u64()?,
                ok: r.u64()?,
                shed: r.u64()?,
                expired: r.u64()?,
                rejected: r.u64()?,
                bytes_in: r.u64()?,
                bytes_out: r.u64()?,
                compute_ns: r.u64()?,
            });
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_num::c64;

    #[test]
    fn request_roundtrips_bitwise_for_both_domains() {
        let creq = Request {
            id: 42,
            tenant: "alice".into(),
            n: 8,
            p: 4,
            digits: 12,
            kind: RequestKind::Segment,
            arg: 3,
            deadline_ms: 250,
            samples: Samples::Complex(
                (0..8).map(|i| c64(0.1 * i as f64, -1.0 / (i + 1) as f64)).collect(),
            ),
        };
        assert_eq!(Request::decode(&creq.encode()).unwrap(), creq);

        let rreq = Request {
            id: 7,
            tenant: "bob".into(),
            n: 8,
            p: 2,
            digits: 10,
            kind: RequestKind::RealBand,
            arg: 5,
            deadline_ms: 0,
            samples: Samples::Real((0..8).map(|i| (i as f64 * 0.3).sin()).collect()),
        };
        assert_eq!(Request::decode(&rreq.encode()).unwrap(), rreq);
    }

    #[test]
    fn request_decode_rejects_inconsistencies() {
        let good = Request {
            id: 1,
            tenant: String::new(),
            n: 4,
            p: 2,
            digits: 10,
            kind: RequestKind::Full,
            arg: 0,
            deadline_ms: 0,
            samples: Samples::Complex(vec![Complex64::ZERO; 4]),
        };
        // Wrong version.
        let mut bad = good.encode();
        bad[0] = 99;
        assert!(matches!(Request::decode(&bad), Err(WireError::Protocol(_))));
        // Sample count disagrees with N.
        let short = Request {
            samples: Samples::Complex(vec![Complex64::ZERO; 3]),
            ..good.clone()
        };
        assert!(matches!(
            Request::decode(&short.encode()),
            Err(WireError::Protocol(_))
        ));
        // Truncated payload.
        let enc = good.encode();
        assert!(Request::decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn response_and_reject_roundtrip() {
        let resp = Response {
            id: 9,
            compute_ns: 12345,
            bins: (0..5).map(|i| c64(i as f64, -0.5 * i as f64)).collect(),
        };
        let got = Response::decode(&resp.encode()).unwrap();
        assert_eq!(got, resp);
        for (a, b) in got.bins.iter().zip(&resp.bins) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }

        for code in [RejectCode::Overloaded, RejectCode::Expired, RejectCode::BadRequest] {
            let rej = Reject { id: 3, code, message: "queue full".into() };
            assert_eq!(Reject::decode(&rej.encode()).unwrap(), rej);
        }
    }

    #[test]
    fn stats_snapshot_roundtrips() {
        let snap = StatsSnapshot {
            connections: 10,
            active_connections: 2,
            idle_closed: 1,
            peer_lost: 3,
            batches: 40,
            batched_requests: 160,
            max_batch: 8,
            queue_depth: 5,
            plan_hits: 100,
            plan_misses: 4,
            plan_evictions: 1,
            engine_builds: 2,
            engine_evictions: 0,
            tenants: vec![
                TenantStats { tenant: "a".into(), requests: 5, ok: 4, shed: 1, ..Default::default() },
                TenantStats { tenant: "b".into(), ok: 7, compute_ns: 999, ..Default::default() },
            ],
        };
        assert_eq!(StatsSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in [
            RequestKind::Full,
            RequestKind::Segment,
            RequestKind::Band,
            RequestKind::RealFull,
            RequestKind::RealSegment,
            RequestKind::RealBand,
        ] {
            assert_eq!(RequestKind::parse(kind.name()), Some(kind));
            assert_eq!(RequestKind::from_code(kind.code()).unwrap(), kind);
        }
        assert!(RequestKind::parse("bogus").is_none());
        assert!(RequestKind::from_code(17).is_err());
    }
}
