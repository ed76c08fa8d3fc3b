//! Decode property suite for the serve protocol.
//!
//! Every REQUEST a daemon decodes, and every RESPONSE, REJECT and STATS
//! payload a client decodes, comes off a socket, so the decoders get the
//! adversarial treatment of the checkpoint codec's suite: seeded valid
//! payloads must roundtrip, and every truncation, every single-byte flip
//! and every 8-byte window overwritten with `0xFF` must decode to `Ok` or
//! a typed `Err`, never panic. The `0xFF` windows reach the top bytes of
//! the `u64` length prefixes, which single-byte flips cannot make large
//! enough to wrap an offset.

use soi_serve::{
    Reject, RejectCode, Request, RequestKind, Response, Samples, StatsSnapshot, TenantStats,
};
use soi_testkit::TestRng;
use soi_wire::WireError;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 0x5EED_0023;

const KINDS: [RequestKind; 6] = [
    RequestKind::Full,
    RequestKind::Segment,
    RequestKind::Band,
    RequestKind::RealFull,
    RequestKind::RealSegment,
    RequestKind::RealBand,
];

fn gen_word(rng: &mut TestRng) -> String {
    let len = rng.usize_in(0..12);
    (0..len)
        .map(|_| char::from(b'a' + rng.usize_in(0..26) as u8))
        .collect()
}

fn gen_request(rng: &mut TestRng, kind: RequestKind) -> Request {
    let n = rng.usize_in(0..40);
    Request {
        id: rng.next_u64(),
        tenant: gen_word(rng),
        n,
        p: rng.usize_in(1..17),
        digits: rng.next_u32() % 20,
        kind,
        arg: rng.usize_in(0..1 << 20),
        deadline_ms: rng.u64_below(1000),
        samples: if kind.is_real() {
            Samples::Real(rng.f64_vec(n, -1.0..1.0))
        } else {
            Samples::Complex(rng.complex_vec(n))
        },
    }
}

fn gen_response(rng: &mut TestRng) -> Response {
    let len = rng.usize_in(0..40);
    Response {
        id: rng.next_u64(),
        compute_ns: rng.next_u64(),
        bins: rng.complex_vec(len),
    }
}

fn gen_stats(rng: &mut TestRng) -> StatsSnapshot {
    StatsSnapshot {
        connections: rng.next_u64(),
        active_connections: rng.u64_below(8),
        idle_closed: rng.next_u64(),
        peer_lost: rng.next_u64(),
        batches: rng.next_u64(),
        batched_requests: rng.next_u64(),
        max_batch: rng.u64_below(32),
        queue_depth: rng.u64_below(64),
        plan_hits: rng.next_u64(),
        plan_misses: rng.next_u64(),
        plan_evictions: rng.next_u64(),
        engine_builds: rng.next_u64(),
        engine_evictions: rng.next_u64(),
        tenants: (0..3)
            .map(|_| TenantStats {
                tenant: gen_word(rng),
                requests: rng.next_u64(),
                ok: rng.next_u64(),
                shed: rng.next_u64(),
                expired: rng.next_u64(),
                rejected: rng.next_u64(),
                bytes_in: rng.next_u64(),
                bytes_out: rng.next_u64(),
                compute_ns: rng.next_u64(),
            })
            .collect(),
    }
}

/// A decoder under test: `Ok(())` for an accepted payload.
type Decode = fn(&[u8]) -> Result<(), WireError>;

/// Runs `decode` on `bytes`; a panic or an untyped failure fails the test
/// with `what` and the mutation that caused it.
fn check(decode: Decode, bytes: &[u8], what: &str, mutation: &str) {
    match catch_unwind(AssertUnwindSafe(|| decode(bytes))) {
        Ok(Ok(())) => {}
        Ok(Err(WireError::Protocol(_))) => {}
        Ok(Err(e)) => panic!("{what}, {mutation}: decode returned a non-protocol error {e:?}"),
        Err(_) => panic!("{what}, {mutation}: decode panicked"),
    }
}

/// Every truncation, every single-byte flip (three masks per byte) and
/// every 8-byte window of `0xFF` of `payload`, through `decode`.
fn mutate_all(decode: Decode, payload: &[u8], what: &str) {
    for cut in 0..payload.len() {
        check(decode, &payload[..cut], what, &format!("truncated to {cut}"));
    }
    let mut buf = payload.to_vec();
    for i in 0..payload.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            buf[i] ^= mask;
            check(decode, &buf, what, &format!("byte {i} ^ {mask:#04x}"));
            buf[i] ^= mask;
        }
    }
    for i in 0..payload.len().saturating_sub(7) {
        buf[i..i + 8].fill(0xFF);
        check(decode, &buf, what, &format!("0xFF at {i}..{}", i + 8));
        buf[i..i + 8].copy_from_slice(&payload[i..i + 8]);
    }
}

#[test]
fn requests_roundtrip_and_survive_every_mutation() {
    let mut rng = TestRng::seed_from_u64(SEED);
    for case in 0..4 {
        for kind in KINDS {
            let req = gen_request(&mut rng, kind);
            let payload = req.encode();
            let back = Request::decode(&payload).expect("a fresh REQUEST decodes");
            assert_eq!(back, req, "case {case} {}: roundtrip", kind.name());
            let what = format!("case {case} {} request (N = {})", kind.name(), req.n);
            mutate_all(|b| Request::decode(b).map(drop), &payload, &what);
        }
    }
}

#[test]
fn responses_roundtrip_and_survive_every_mutation() {
    let mut rng = TestRng::seed_from_u64(SEED ^ 1);
    for case in 0..8 {
        let resp = gen_response(&mut rng);
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).unwrap(), resp, "case {case}: roundtrip");
        let what = format!("case {case} response");
        mutate_all(|b| Response::decode(b).map(drop), &payload, &what);
    }
}

#[test]
fn rejects_of_every_code_roundtrip_and_survive_every_mutation() {
    let mut rng = TestRng::seed_from_u64(SEED ^ 2);
    for code in [RejectCode::Overloaded, RejectCode::Expired, RejectCode::BadRequest] {
        let rej = Reject {
            id: rng.next_u64(),
            code,
            message: gen_word(&mut rng),
        };
        let payload = rej.encode();
        assert_eq!(Reject::decode(&payload).unwrap(), rej, "{}: roundtrip", code.name());
        let what = format!("{} reject", code.name());
        mutate_all(|b| Reject::decode(b).map(drop), &payload, &what);
    }
}

#[test]
fn stats_snapshots_roundtrip_and_survive_every_mutation() {
    let mut rng = TestRng::seed_from_u64(SEED ^ 3);
    for case in 0..2 {
        let stats = gen_stats(&mut rng);
        let payload = stats.encode();
        assert_eq!(StatsSnapshot::decode(&payload).unwrap(), stats, "case {case}: roundtrip");
        let what = format!("case {case} stats");
        mutate_all(|b| StatsSnapshot::decode(b).map(drop), &payload, &what);
    }
}
