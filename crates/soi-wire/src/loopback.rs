//! In-process loopback harness: a full P-rank mesh over real localhost
//! sockets, with ranks as threads.
//!
//! This is the testing backbone of the crate (and of the cross-transport
//! equivalence suite in `soi-dist`): every byte crosses the kernel's TCP
//! stack exactly as it would between processes, but setup/teardown is one
//! function call and a dead rank is simulated by dropping its
//! [`WireComm`].

use crate::bootstrap::{Bootstrap, Rendezvous, WireConfig};
use crate::comm::WireComm;
use crate::error::WireError;

/// Bootstrap a `p`-rank mesh on `127.0.0.1` and return the communicators
/// in rank order. Control streams are dropped (no launcher in the loop).
pub fn loopback_mesh(p: usize, cfg: WireConfig) -> Result<Vec<WireComm>, WireError> {
    let rv = Rendezvous::bind("127.0.0.1:0", cfg)?;
    let addr = rv.local_addr()?;
    std::thread::scope(|s| {
        let server = s.spawn(move || rv.serve(p));
        let workers: Vec<_> = (0..p)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || Bootstrap::join(&addr, cfg))
            })
            .collect();
        server.join().expect("rendezvous thread panicked")?;
        let mut comms = Vec::with_capacity(p);
        for w in workers {
            let boot = w.join().expect("worker thread panicked")?;
            let (comm, _control) = WireComm::from_bootstrap(boot);
            comms.push(comm);
        }
        comms.sort_by_key(|c| c.rank());
        Ok(comms)
    })
}

/// Run `f(rank_comm)` on every rank of a fresh loopback mesh, one thread
/// per rank, and return the per-rank results in rank order. Panics in a
/// rank propagate.
pub fn run_loopback<R: Send>(
    p: usize,
    cfg: WireConfig,
    f: impl Fn(&mut WireComm) -> R + Sync,
) -> Result<Vec<R>, WireError> {
    let comms = loopback_mesh(p, cfg)?;
    let f = &f;
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut c| s.spawn(move || { let r = f(&mut c); (c.rank(), r) }))
            .map(Some)
            .collect();
        let mut out: Vec<Option<R>> = (0..p).map(|_| None).collect();
        for h in handles.into_iter().flatten() {
            let (rank, r) = h.join().expect("loopback rank panicked");
            out[rank] = Some(r);
        }
        out.into_iter().map(|r| r.expect("missing rank result")).collect::<Vec<R>>()
    });
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WireError;
    use soi_num::{c64, Complex64};
    use soi_trace::{CollectiveOp, Trace, TraceSet};
    use std::time::Duration;

    fn cfg() -> WireConfig {
        WireConfig {
            op_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(10),
            ..WireConfig::default()
        }
    }

    #[test]
    fn all_to_all_permutes_blocks_like_the_spec() {
        let p = 4;
        let block = 3;
        let spectra = run_loopback(p, cfg(), |comm| {
            let me = comm.rank();
            // Element value encodes (sender, destination, offset).
            let send: Vec<u64> = (0..p * block)
                .map(|i| (me * 1000 + (i / block) * 100 + i % block) as u64)
                .collect();
            let mut recv = vec![0u64; p * block];
            comm.all_to_all(&send, &mut recv).unwrap();
            recv
        })
        .unwrap();
        for (me, recv) in spectra.iter().enumerate() {
            for src in 0..p {
                for k in 0..block {
                    assert_eq!(
                        recv[src * block + k],
                        (src * 1000 + me * 100 + k) as u64,
                        "rank {me} block from {src}"
                    );
                }
            }
        }
    }

    #[test]
    fn sendrecv_rings_and_reductions_agree() {
        let p = 4;
        let outs = run_loopback(p, cfg(), |comm| {
            let me = comm.rank();
            let right = (me + 1) % p;
            let left = (me + p - 1) % p;
            let halo = comm
                .sendrecv(right, &[c64(me as f64, 0.0)], left)
                .unwrap();
            let sum = comm.allreduce_sum(me as f64 + 0.5).unwrap();
            let max = comm.allreduce_max(me as f64).unwrap();
            comm.barrier().unwrap();
            (halo[0], sum, max)
        })
        .unwrap();
        for (me, (halo, sum, max)) in outs.iter().enumerate() {
            let left = (me + p - 1) % p;
            assert_eq!(halo.re, left as f64, "halo into rank {me}");
            assert_eq!(*sum, (0..p).map(|r| r as f64 + 0.5).sum::<f64>());
            assert_eq!(*max, (p - 1) as f64);
        }
    }

    #[test]
    fn complex_payloads_cross_the_wire_bit_exactly() {
        let p = 2;
        let outs = run_loopback(p, cfg(), |comm| {
            let me = comm.rank();
            let xs: Vec<Complex64> = (0..64)
                .map(|i| c64((i as f64 * 0.37 + me as f64).sin(), (i as f64).cos() / 7.0))
                .collect();
            comm.sendrecv((me + 1) % p, &xs, (me + 1) % p).unwrap()
        })
        .unwrap();
        for me in 0..p {
            let other = (me + 1) % p;
            let want: Vec<Complex64> = (0..64)
                .map(|i| c64((i as f64 * 0.37 + other as f64).sin(), (i as f64).cos() / 7.0))
                .collect();
            for (a, b) in outs[me].iter().zip(&want) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn traced_traffic_passes_conservation_checks() {
        let p = 4;
        let streams = run_loopback(p, cfg(), |comm| {
            comm.set_trace(Trace::recording(comm.rank()));
            let send: Vec<f64> = (0..p * 2).map(|i| i as f64).collect();
            let mut recv = vec![0.0f64; p * 2];
            comm.all_to_all(&send, &mut recv).unwrap();
            comm.barrier().unwrap();
            let _ = comm.allreduce_sum(1.0).unwrap();
            comm.trace().drain()
        })
        .unwrap();
        let set = TraceSet::from_streams(streams);
        let summary = set.validate().expect("real traffic must conserve");
        assert_eq!(summary.ranks, p);
        assert_eq!(
            summary.collectives,
            vec![
                CollectiveOp::AllToAll,
                CollectiveOp::Barrier,
                CollectiveOp::AllGather
            ]
        );
        // p2p messages: all_to_all (p-1 per rank) + allgather (p-1 per rank).
        assert_eq!(summary.messages, (2 * p * (p - 1)) as u64);
    }

    #[test]
    fn stats_match_simnet_conventions() {
        let p = 4;
        let stats = run_loopback(p, cfg(), |comm| {
            let send: Vec<u64> = (0..p * 2).map(|i| i as u64).collect();
            let mut recv = vec![0u64; p * 2];
            comm.all_to_all(&send, &mut recv).unwrap();
            comm.barrier().unwrap();
            comm.stats()
        })
        .unwrap();
        for s in &stats {
            assert_eq!(s.all_to_alls, 1);
            assert_eq!(s.other_collectives, 1);
            // Each rank ships 2 u64 to each of p-1 peers; barrier tokens
            // are protocol and must not pollute byte counters.
            assert_eq!(s.bytes_sent, (2 * 8 * (p - 1)) as u64);
            assert_eq!(s.bytes_received, (2 * 8 * (p - 1)) as u64);
        }
    }

    #[test]
    fn killed_rank_surfaces_as_timely_error_not_hang() {
        let p = 3;
        let fast = WireConfig {
            op_timeout: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(5),
            ..WireConfig::default()
        };
        let comms = loopback_mesh(p, fast).unwrap();
        let out = soi_testkit::kill_and_run(comms, p - 1, Duration::from_secs(10), |c| {
            let send: Vec<u64> = (0..p * 4).map(|i| i as u64).collect();
            let mut recv = vec![0u64; p * 4];
            c.all_to_all(&send, &mut recv)
        });
        for e in &out.errors {
            assert!(
                matches!(e, WireError::PeerLost { .. } | WireError::Timeout { .. }),
                "got {e:?}"
            );
        }
    }

    #[test]
    fn severed_outbound_link_blames_the_destination() {
        // Rank 0 cuts only its *write* half toward rank 2 and then joins
        // the collective. Its failure must name rank 2 — the destination
        // the writer could not reach — not whichever source the read loop
        // happened to be waiting on when the schedule unravelled.
        let p = 3;
        let fast = WireConfig {
            op_timeout: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(5),
            ..WireConfig::default()
        };
        let results = run_loopback(p, fast, |comm| {
            if comm.rank() == 0 {
                comm.sever_outbound(2);
            }
            let send: Vec<u64> = (0..p * 2).map(|i| i as u64).collect();
            let mut recv = vec![0u64; p * 2];
            comm.all_to_all(&send, &mut recv)
        })
        .unwrap();
        match &results[0] {
            Err(WireError::PeerLost { peer: Some(2), .. })
            | Err(WireError::Timeout { peer: Some(2), .. }) => {}
            other => panic!("rank 0 must blame destination 2, got {other:?}"),
        }
        // Rank 1 is untouched by the cut: rank 0's writer streams the
        // frame to rank 1 before it trips over the dead link to rank 2.
        assert!(results[1].is_ok(), "rank 1 got {:?}", results[1]);
        // Rank 2 observes rank 0's half-closed stream as a lost peer 0.
        match &results[2] {
            Err(WireError::PeerLost { peer: Some(0), .. })
            | Err(WireError::Timeout { peer: Some(0), .. }) => {}
            other => panic!("rank 2 must blame source 0, got {other:?}"),
        }
    }

    #[test]
    fn segmented_exchange_keeps_stats_and_conservation() {
        let p = 3;
        let nseg = 2;
        let rows = 4;
        let outs = run_loopback(p, cfg(), |comm| {
            comm.set_trace(Trace::recording(comm.rank()));
            let me = comm.rank();
            let send: Vec<f64> =
                (0..p * nseg * rows).map(|i| (me * 1000 + i) as f64).collect();
            let mut recv = vec![0.0f64; p * nseg * rows];
            let mut segs_seen = Vec::new();
            comm.all_to_all_seg(&send, &mut recv, nseg, &mut |si, seg, clock| {
                assert!(clock.is_none(), "wire has no simulated clock");
                assert_eq!(seg.len(), p * rows);
                segs_seen.push(si);
            })
            .unwrap();
            (comm.stats(), comm.trace().drain(), segs_seen)
        })
        .unwrap();
        let mut streams = Vec::new();
        for (me, (stats, stream, segs)) in outs.into_iter().enumerate() {
            assert_eq!(segs, vec![0, 1], "rank {me} callback order");
            assert_eq!(stats.all_to_alls, 1);
            // (p-1) peers × nseg sub-blocks × rows f64 each way; the
            // self segment never touches the wire.
            assert_eq!(stats.bytes_sent, ((p - 1) * nseg * rows * 8) as u64);
            assert_eq!(stats.bytes_received, ((p - 1) * nseg * rows * 8) as u64);
            streams.push(stream);
        }
        let set = TraceSet::from_streams(streams);
        let summary = set.validate().expect("segmented traffic must conserve");
        assert_eq!(summary.collectives, vec![CollectiveOp::AllToAll]);
        assert_eq!(summary.messages, (p * (p - 1) * nseg) as u64);
    }

    #[test]
    fn large_paired_exchange_does_not_deadlock() {
        // Two ranks exchange blocks far larger than any socket buffer;
        // without the writer thread this deadlocks with both sides stuck
        // in write_all.
        let p = 2;
        let n = 1 << 19; // 8 MiB of u64 per direction
        let outs = run_loopback(p, cfg(), |comm| {
            let me = comm.rank();
            let xs: Vec<u64> = (0..n).map(|i| (me as u64) << 32 | i as u64).collect();
            comm.sendrecv((me + 1) % p, &xs, (me + 1) % p).unwrap().len()
        })
        .unwrap();
        assert_eq!(outs, vec![n, n]);
    }
}
