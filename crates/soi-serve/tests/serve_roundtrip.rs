//! End-to-end serve protocol tests: every response payload must be
//! bitwise identical to the direct in-process pipeline on the same
//! input, rejections must be typed, and the stats snapshot must account
//! for what happened.

use soi_core::{SoiFft, SoiParams, SoiRealWorkspace, SoiWorkspace};
use soi_num::{c64, Complex64};
use soi_serve::{
    preset_for_digits, Reply, RequestKind, Samples, ServeClient, ServeConfig, Server,
};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn csig(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            c64(
                (i as f64 * 0.37).sin() + 0.25 * (i as f64 * 0.011).cos(),
                (i as f64 * 0.23).cos() - 0.5 / (i + 1) as f64,
            )
        })
        .collect()
}

fn rsig(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.37).sin() + 0.5 * (i as f64 * 0.013).cos())
        .collect()
}

fn request(
    id: u64,
    n: usize,
    p: usize,
    kind: RequestKind,
    arg: usize,
) -> soi_serve::Request {
    soi_serve::Request {
        id,
        tenant: "test".into(),
        n,
        p,
        digits: 10,
        kind,
        arg,
        deadline_ms: 0,
        samples: if kind.is_real() {
            Samples::Real(rsig(n))
        } else {
            Samples::Complex(csig(n))
        },
    }
}

fn assert_bits_eq(got: &[Complex64], want: &[Complex64]) {
    assert_eq!(got.len(), want.len(), "bin count mismatch");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.re.to_bits(), b.re.to_bits(), "re differs at bin {i}");
        assert_eq!(a.im.to_bits(), b.im.to_bits(), "im differs at bin {i}");
    }
}

/// The bins `transform_into`/`transform_real_into`/the serial zoom paths
/// produce for `request(…)`'s input — the ground truth every response
/// must match bitwise.
fn reference(n: usize, p: usize, kind: RequestKind, arg: usize) -> Vec<Complex64> {
    let params = SoiParams::with_preset(n, p, preset_for_digits(10)).unwrap();
    let soi = SoiFft::new(&params).unwrap();
    match kind {
        RequestKind::Full => {
            let mut ws = SoiWorkspace::new(&soi, 1);
            let mut y = vec![Complex64::ZERO; n];
            soi.transform_into(&csig(n), &mut y, &mut ws).unwrap();
            y
        }
        RequestKind::Segment => soi.transform_segment(&csig(n), arg).unwrap(),
        RequestKind::Band => soi.transform_band(&csig(n), arg).unwrap(),
        RequestKind::RealFull => {
            let mut ws = SoiRealWorkspace::new(&soi, 1);
            let mut y = vec![Complex64::ZERO; n / 2 + 1];
            soi.transform_real_into(&rsig(n), &mut y, &mut ws).unwrap();
            y
        }
        RequestKind::RealSegment => soi.transform_segment(&rsig(n), arg).unwrap(),
        RequestKind::RealBand => soi.transform_band(&rsig(n), arg).unwrap(),
    }
}

fn start(cfg: ServeConfig) -> Server {
    Server::start(cfg).expect("server starts")
}

#[test]
fn mixed_request_kinds_match_direct_pipeline_bitwise() {
    let mut server = start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(server.addr(), TIMEOUT).unwrap();
    let n = 4096;
    let p = 4;
    let cases = [
        (RequestKind::Full, 0),
        (RequestKind::Segment, 2),
        (RequestKind::Band, 777),
        (RequestKind::RealFull, 0),
        (RequestKind::RealSegment, 1),
        (RequestKind::RealBand, 37),
    ];
    for (id, &(kind, arg)) in cases.iter().enumerate() {
        let reply = client.call(&request(id as u64, n, p, kind, arg)).unwrap();
        match reply {
            Reply::Ok(resp) => {
                assert_eq!(resp.id, id as u64);
                assert_bits_eq(&resp.bins, &reference(n, p, kind, arg));
            }
            other => panic!("{}: expected bins, got {other:?}", kind.name()),
        }
    }
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn unbatched_ablation_is_bitwise_identical_to_batched() {
    let run = |batching: bool| -> Vec<Vec<Complex64>> {
        let mut server = start(ServeConfig {
            batching,
            ..ServeConfig::default()
        });
        let mut client = ServeClient::connect(server.addr(), TIMEOUT).unwrap();
        let mut out = Vec::new();
        for (id, (kind, arg)) in [
            (RequestKind::Full, 0),
            (RequestKind::Segment, 3),
            (RequestKind::RealFull, 0),
        ]
        .into_iter()
        .enumerate()
        {
            match client.call(&request(id as u64, 2048, 4, kind, arg)).unwrap() {
                Reply::Ok(resp) => out.push(resp.bins),
                other => panic!("expected bins, got {other:?}"),
            }
        }
        client.shutdown().unwrap();
        server.join();
        out
    };
    let batched = run(true);
    let unbatched = run(false);
    for (a, b) in batched.iter().zip(&unbatched) {
        assert_bits_eq(a, b);
    }
}

#[test]
fn overload_is_a_typed_reject_and_counted_as_shed() {
    // queue_cap = 0: admission control sheds everything, deterministically.
    let mut server = start(ServeConfig {
        queue_cap: 0,
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(server.addr(), TIMEOUT).unwrap();
    match client.call(&request(5, 1024, 4, RequestKind::Full, 0)).unwrap() {
        Reply::Rejected(rej) => {
            assert_eq!(rej.id, 5);
            assert_eq!(rej.code, soi_serve::RejectCode::Overloaded);
        }
        other => panic!("expected overload reject, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.tenants.len(), 1);
    assert_eq!(stats.tenants[0].tenant, "test");
    assert_eq!(stats.tenants[0].requests, 1);
    assert_eq!(stats.tenants[0].shed, 1);
    assert_eq!(stats.tenants[0].ok, 0);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn invalid_requests_get_typed_bad_request_rejects() {
    let mut server = start(ServeConfig::default());
    let mut client = ServeClient::connect(server.addr(), TIMEOUT).unwrap();
    let cases = [
        // Segment index out of range (P = 4).
        request(1, 1024, 4, RequestKind::Segment, 4),
        // Band start out of range (N = 1024).
        request(2, 1024, 4, RequestKind::Band, 1024),
        // P does not divide N.
        request(3, 1000, 3, RequestKind::Full, 0),
        // Real input needs even P.
        {
            let mut r = request(4, 1000, 5, RequestKind::RealFull, 0);
            r.samples = Samples::Real(rsig(1000));
            r
        },
    ];
    for req in &cases {
        match client.call(req).unwrap() {
            Reply::Rejected(rej) => {
                assert_eq!(rej.id, req.id);
                assert_eq!(rej.code, soi_serve::RejectCode::BadRequest, "{}", rej.message);
            }
            other => panic!("id {}: expected bad-request reject, got {other:?}", req.id),
        }
    }
    // The connection survives rejects: a valid request still works.
    match client.call(&request(9, 1024, 4, RequestKind::Full, 0)).unwrap() {
        Reply::Ok(resp) => assert_eq!(resp.id, 9),
        other => panic!("expected bins after rejects, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.tenants[0].rejected, 4);
    assert_eq!(stats.tenants[0].ok, 1);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn stats_snapshot_accounts_batches_engines_and_plan_cache() {
    let mut server = start(ServeConfig::default());
    let mut client = ServeClient::connect(server.addr(), TIMEOUT).unwrap();
    // Two geometries; several requests each, pipelined so the executor
    // has a chance to coalesce.
    let mut ids = Vec::new();
    for id in 0..6u64 {
        let n = if id % 2 == 0 { 1024 } else { 2048 };
        client.send_request(&request(id, n, 4, RequestKind::Full, 0)).unwrap();
        ids.push(id);
    }
    let mut got = 0;
    while got < ids.len() {
        match client.recv().unwrap() {
            Reply::Ok(_) => got += 1,
            other => panic!("expected bins, got {other:?}"),
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.active_connections, 1);
    assert_eq!(stats.batched_requests, 6);
    assert!(stats.batches >= 1 && stats.batches <= 6);
    assert!(stats.max_batch >= 1);
    // Exactly two geometries were planned by this server's executor.
    assert_eq!(stats.engine_builds, 2);
    assert_eq!(stats.engine_evictions, 0);
    assert_eq!(stats.tenants[0].ok, 6);
    assert!(stats.tenants[0].bytes_in > 0);
    assert!(stats.tenants[0].bytes_out > 0);
    assert!(stats.tenants[0].compute_ns > 0);
    client.shutdown().unwrap();
    server.join();
}
