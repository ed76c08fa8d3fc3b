//! Concurrency-facing serve tests: the same request set must produce
//! bitwise-identical responses no matter how many client threads issue
//! it, deadlines must reject with a typed frame (never a partial
//! result), and connection lifecycle events must be accounted.

use soi_num::{c64, Complex64};
use soi_serve::{Reply, Request, RequestKind, Samples, ServeClient, ServeConfig, Server};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

fn csig(n: usize, seed: u64) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(seed | 1) as f64;
            c64((t * 1e-4).sin(), (t * 7e-5).cos())
        })
        .collect()
}

fn rsig(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(seed | 1) as f64 * 1e-4).sin())
        .collect()
}

/// A fixed, varied request set: two geometries, all six kinds, inputs
/// keyed by id so every run regenerates identical payloads.
fn request_set() -> Vec<Request> {
    let kinds = [
        (RequestKind::Full, 0usize),
        (RequestKind::Segment, 1),
        (RequestKind::Band, 500),
        (RequestKind::RealFull, 0),
        (RequestKind::RealSegment, 3),
        (RequestKind::RealBand, 129),
    ];
    let mut reqs = Vec::new();
    let mut id = 0u64;
    for &(n, p) in &[(1024usize, 4usize), (2048, 4)] {
        for &(kind, arg) in &kinds {
            reqs.push(Request {
                id,
                tenant: format!("tenant-{}", id % 3),
                n,
                p,
                digits: 10,
                kind,
                arg,
                deadline_ms: 0,
                samples: if kind.is_real() {
                    Samples::Real(rsig(n, id))
                } else {
                    Samples::Complex(csig(n, id))
                },
            });
            id += 1;
        }
    }
    reqs
}

/// Issue `reqs` from `threads` client connections (round-robin split)
/// and return every response keyed by id.
fn run_clients(addr: &str, reqs: &[Request], threads: usize) -> BTreeMap<u64, Vec<Complex64>> {
    let addr = addr.to_string();
    let reqs: Arc<Vec<Request>> = Arc::new(reqs.to_vec());
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let addr = addr.clone();
            let reqs = Arc::clone(&reqs);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr, TIMEOUT).unwrap();
                let mine: Vec<&Request> =
                    reqs.iter().skip(t).step_by(threads).collect();
                // Pipeline all sends, then drain; key by id so every
                // thread's responses merge into one map.
                for req in &mine {
                    client.send_request(req).unwrap();
                }
                let mut got = BTreeMap::new();
                for _ in 0..mine.len() {
                    match client.recv().unwrap() {
                        Reply::Ok(resp) => {
                            got.insert(resp.id, resp.bins);
                        }
                        other => panic!("expected bins, got {other:?}"),
                    }
                }
                client.bye().unwrap();
                got
            })
        })
        .collect();
    let mut all = BTreeMap::new();
    for h in handles {
        all.extend(h.join().unwrap());
    }
    all
}

#[test]
fn responses_are_bitwise_identical_for_1_4_and_8_client_threads() {
    let mut server = Server::start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let reqs = request_set();
    let baseline = run_clients(server.addr(), &reqs, 1);
    assert_eq!(baseline.len(), reqs.len());
    for threads in [4usize, 8] {
        let got = run_clients(server.addr(), &reqs, threads);
        assert_eq!(got.len(), reqs.len(), "{threads} clients: response count");
        for (id, bins) in &baseline {
            let other = &got[id];
            assert_eq!(bins.len(), other.len(), "id {id}: bin count");
            for (i, (a, b)) in bins.iter().zip(other).enumerate() {
                assert_eq!(
                    a.re.to_bits(),
                    b.re.to_bits(),
                    "{threads} clients, id {id}, bin {i}: re differs"
                );
                assert_eq!(
                    a.im.to_bits(),
                    b.im.to_bits(),
                    "{threads} clients, id {id}, bin {i}: im differs"
                );
            }
        }
    }
    let mut shutdown = ServeClient::connect(server.addr(), TIMEOUT).unwrap();
    shutdown.shutdown().unwrap();
    server.join();
}

#[test]
fn queued_past_deadline_is_a_typed_expired_reject_never_a_partial_result() {
    let mut server = Server::start(ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.addr(), TIMEOUT).unwrap();
    let n = 65536;
    let p = 8;
    // Three heavy transforms stack up in front; the fourth request's
    // 1 ms budget cannot survive the queue wait behind them.
    for id in 0..3u64 {
        client
            .send_request(&Request {
                id,
                tenant: "heavy".into(),
                n,
                p,
                digits: 13,
                kind: RequestKind::Full,
                arg: 0,
                deadline_ms: 0,
                samples: Samples::Complex(csig(n, id)),
            })
            .unwrap();
    }
    client
        .send_request(&Request {
            id: 99,
            tenant: "late".into(),
            n,
            p,
            digits: 13,
            kind: RequestKind::Full,
            arg: 0,
            deadline_ms: 1,
            samples: Samples::Complex(csig(n, 99)),
        })
        .unwrap();
    let mut ok = 0;
    let mut expired = false;
    for _ in 0..4 {
        match client.recv().unwrap() {
            Reply::Ok(resp) => {
                assert_ne!(resp.id, 99, "expired request must never produce bins");
                assert_eq!(resp.bins.len(), n);
                ok += 1;
            }
            Reply::Rejected(rej) => {
                assert_eq!(rej.id, 99);
                assert_eq!(rej.code, soi_serve::RejectCode::Expired, "{}", rej.message);
                expired = true;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(ok, 3);
    assert!(expired, "deadline_ms = 1 behind three N = 65536 transforms must expire");
    let stats = client.stats().unwrap();
    let late = stats.tenants.iter().find(|t| t.tenant == "late").unwrap();
    assert_eq!((late.expired, late.ok), (1, 0));
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn idle_connections_time_out_and_clean_byes_are_not_peer_losses() {
    let mut server = Server::start(ServeConfig {
        idle_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    })
    .unwrap();
    // A client that connects and says nothing: reaped at the idle
    // deadline, reader thread released.
    let idle = ServeClient::connect(server.addr(), TIMEOUT).unwrap();
    // A client that says a clean goodbye.
    let mut polite = ServeClient::connect(server.addr(), TIMEOUT).unwrap();
    polite.bye().unwrap();
    drop(polite);
    // Wait out the idle deadline, polling the server-side snapshot.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let s = server.stats();
        if s.idle_closed >= 1 && s.active_connections == 0 {
            assert_eq!(s.idle_closed, 1);
            assert_eq!(s.peer_lost, 0, "a BYE must not count as a lost peer");
            assert_eq!(s.connections, 2);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "idle connection was not reaped: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(idle);
    server.shutdown();
    server.join();
}
