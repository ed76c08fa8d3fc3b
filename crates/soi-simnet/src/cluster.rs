//! The cluster runner: spawns one OS thread per rank, wires the channel
//! mesh, runs a closure per rank, and gathers results + per-rank reports.

use crate::comm::{CommStats, RankComm, Shared};
use crate::netmodel::Fabric;
use soi_trace::{Trace, TraceSet};
use std::sync::mpsc::channel;
use std::sync::Arc;

/// Final accounting for one rank after a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankReport {
    /// Rank id.
    pub rank: usize,
    /// Final virtual time (compute + comm + waits), seconds.
    pub sim_time: f64,
    /// Compute seconds charged.
    pub compute_time: f64,
    /// Communication seconds charged (incl. waiting in collectives).
    pub comm_time: f64,
    /// Traffic counters.
    pub stats: CommStats,
}

/// A simulated machine: `size` ranks over a [`Fabric`].
///
/// ```
/// use soi_simnet::Cluster;
///
/// // Every rank contributes its id; everyone learns the sum.
/// let sums = Cluster::ideal(4).run_collect(|comm| comm.allreduce_sum(comm.rank() as f64));
/// assert_eq!(sums, vec![6.0; 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    size: usize,
    fabric: Fabric,
}

impl Cluster {
    /// A cluster of `size` ranks on the given fabric.
    pub fn new(size: usize, fabric: Fabric) -> Self {
        assert!(size >= 1, "cluster needs at least one rank");
        Self { size, fabric }
    }

    /// A cluster on the zero-cost fabric (pure correctness runs).
    pub fn ideal(size: usize) -> Self {
        Self::new(size, Fabric::Ideal)
    }

    /// Rank count.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The fabric model.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Run `f` once per rank (concurrently, real threads) and return the
    /// per-rank `(result, report)` pairs in rank order.
    ///
    /// Ranks communicate only through their [`RankComm`]; a panicking rank
    /// aborts the whole run with its panic payload.
    pub fn run<R, F>(&self, f: F) -> Vec<(R, RankReport)>
    where
        R: Send,
        F: Fn(&mut RankComm) -> R + Send + Sync,
    {
        let traces: Vec<Trace> = (0..self.size).map(|_| Trace::disabled()).collect();
        self.run_with_traces(f, &traces)
    }

    /// Like [`Cluster::run`], but with per-rank event recording enabled:
    /// every send/recv/collective (and any spans the per-rank closure
    /// opens through [`RankComm::trace`]) lands in the returned
    /// [`TraceSet`], ready for `validate()` or a JSON-lines sink.
    pub fn run_traced<R, F>(&self, f: F) -> (Vec<(R, RankReport)>, TraceSet)
    where
        R: Send,
        F: Fn(&mut RankComm) -> R + Send + Sync,
    {
        let traces: Vec<Trace> = (0..self.size).map(Trace::recording).collect();
        let results = self.run_with_traces(f, &traces);
        let set = TraceSet::from_streams(traces.iter().map(Trace::drain).collect());
        (results, set)
    }

    fn run_with_traces<R, F>(&self, f: F, traces: &[Trace]) -> Vec<(R, RankReport)>
    where
        R: Send,
        F: Fn(&mut RankComm) -> R + Send + Sync,
    {
        let p = self.size;
        let shared = Arc::new(Shared::new(p, self.fabric.clone()));
        // Dense channel mesh: tx[src][dst] feeds rx[dst][src].
        let mut txs: Vec<Vec<_>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
        let mut rxs: Vec<Vec<_>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
        for src in 0..p {
            for _dst in 0..p {
                let (tx, rx) = channel();
                txs[src].push(tx);
                rxs[src].push(rx);
            }
        }
        // rxs[src][dst] is the receiving end of src→dst; regroup so each
        // rank owns its inbound row: inbox[dst][src].
        let mut inboxes: Vec<Vec<_>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
        for (src, row) in rxs.into_iter().enumerate() {
            for (dst, rx) in row.into_iter().enumerate() {
                let _ = src;
                inboxes[dst].push(rx);
            }
        }
        let mut comms: Vec<RankComm> = txs
            .into_iter()
            .zip(inboxes)
            .enumerate()
            .map(|(rank, (senders, receivers))| {
                RankComm::new(rank, shared.clone(), senders, receivers, traces[rank].clone())
            })
            .collect();

        let mut slots: Vec<Option<(R, RankReport)>> = (0..p).map(|_| None).collect();
        // A panicking rank propagates its payload when the scope joins.
        std::thread::scope(|scope| {
            let f = &f;
            for (slot, comm) in slots.iter_mut().zip(comms.iter_mut()) {
                scope.spawn(move || {
                    let result = f(comm);
                    let report = RankReport {
                        rank: comm.rank(),
                        sim_time: comm.clock().now(),
                        compute_time: comm.clock().compute_time(),
                        comm_time: comm.clock().comm_time(),
                        stats: comm.stats(),
                    };
                    *slot = Some((result, report));
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("rank produced no result"))
            .collect()
    }

    /// Convenience: run and return only the results.
    pub fn run_collect<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut RankComm) -> R + Send + Sync,
    {
        self.run(f).into_iter().map(|(r, _)| r).collect()
    }

    /// The slowest rank's virtual time from a set of reports — the
    /// execution time of the simulated job.
    pub fn makespan(reports: &[RankReport]) -> f64 {
        reports.iter().map(|r| r.sim_time).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let ids = Cluster::ideal(5).run_collect(|c| (c.rank(), c.size()));
        for (i, (r, s)) in ids.iter().enumerate() {
            assert_eq!(*r, i);
            assert_eq!(*s, 5);
        }
    }

    #[test]
    fn all_to_all_routes_blocks_correctly() {
        let p = 4;
        let out = Cluster::ideal(p).run_collect(|c| {
            // send[d] = rank*10 + d → after exchange recv[s] = s*10 + rank.
            let send: Vec<u64> = (0..p).map(|d| (c.rank() * 10 + d) as u64).collect();
            let mut recv = vec![0u64; p];
            c.all_to_all(&send, &mut recv);
            recv
        });
        for (rank, recv) in out.iter().enumerate() {
            for (src, &v) in recv.iter().enumerate() {
                assert_eq!(v, (src * 10 + rank) as u64);
            }
        }
    }

    #[test]
    fn all_to_all_multi_element_blocks() {
        let p = 3;
        let block = 4;
        let out = Cluster::ideal(p).run_collect(|c| {
            let send: Vec<u32> = (0..p * block)
                .map(|i| (c.rank() * 1000 + i) as u32)
                .collect();
            let mut recv = vec![0u32; p * block];
            c.all_to_all(&send, &mut recv);
            recv
        });
        for (rank, recv) in out.iter().enumerate() {
            for src in 0..p {
                for i in 0..block {
                    assert_eq!(recv[src * block + i], (src * 1000 + rank * block + i) as u32);
                }
            }
        }
    }

    #[test]
    fn sendrecv_ring_halo() {
        let p = 4;
        let out = Cluster::ideal(p).run_collect(|c| {
            let right = (c.rank() + 1) % p;
            let left = (c.rank() + p - 1) % p;
            // Send my id left; receive my right neighbor's id.
            c.sendrecv(left, &[c.rank() as u32], right)
        });
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(got[0], ((rank + 1) % p) as u32);
        }
    }

    #[test]
    fn virtual_clock_synchronizes_at_collectives() {
        let p = 3;
        let reports: Vec<RankReport> = Cluster::new(p, Fabric::ethernet_10g())
            .run(|c| {
                // Rank r computes r seconds (virtually), then all barrier.
                c.charge_compute(c.rank() as f64);
                c.barrier();
            })
            .into_iter()
            .map(|(_, rep)| rep)
            .collect();
        // After the barrier everyone's clock ≥ the slowest rank's 2.0 s.
        for r in &reports {
            assert!(r.sim_time >= 2.0, "rank {} at {}", r.rank, r.sim_time);
            // Faster ranks billed the wait as comm time.
            let expected_wait = 2.0 - r.rank as f64;
            assert!(
                r.comm_time >= expected_wait,
                "rank {} comm {}",
                r.rank,
                r.comm_time
            );
        }
        assert!(Cluster::makespan(&reports) >= 2.0);
    }

    #[test]
    fn all_to_all_charges_fabric_time() {
        let p = 4;
        let reports: Vec<RankReport> = Cluster::new(p, Fabric::ethernet_10g())
            .run(|c| {
                let send = vec![0u8; 1 << 20]; // 1 MiB per rank
                let mut recv = vec![0u8; 1 << 20];
                c.all_to_all(&send, &mut recv);
            })
            .into_iter()
            .map(|(_, rep)| rep)
            .collect();
        // Off-rank traffic only: each rank keeps its 256 KiB self-block
        // local, so the fabric carries (1 MiB − 256 KiB) per rank.
        let off_rank = (1u64 << 20) - (1u64 << 18);
        let expect = Fabric::ethernet_10g().all_to_all_time(p, off_rank * p as u64);
        for r in &reports {
            assert!(
                (r.comm_time - expect).abs() < 1e-9,
                "rank {} comm {} vs {}",
                r.rank,
                r.comm_time,
                expect
            );
            assert_eq!(r.stats.all_to_alls, 1);
        }
    }

    #[test]
    fn traced_run_validates_and_reflects_traffic() {
        let p = 3;
        let (results, set) = Cluster::new(p, Fabric::ethernet_10g()).run_traced(|c| {
            let send: Vec<u64> = (0..p).map(|d| (c.rank() * 10 + d) as u64).collect();
            let mut recv = vec![0u64; p];
            c.all_to_all(&send, &mut recv);
            c.barrier();
            c.allreduce_sum(1.0)
        });
        assert_eq!(set.ranks.len(), p);
        let summary = set.validate().expect("trace must satisfy conservation");
        // all_to_all: p(p-1) messages; all_gather (allreduce): p(p-1).
        assert_eq!(summary.messages as usize, 2 * p * (p - 1));
        let total_sent: u64 = results.iter().map(|(_, r)| r.stats.bytes_sent).sum();
        let total_received: u64 = results.iter().map(|(_, r)| r.stats.bytes_received).sum();
        assert_eq!(total_sent, total_received);
        assert_eq!(summary.bytes, total_sent);
    }

    #[test]
    fn untraced_run_records_nothing() {
        let out = Cluster::ideal(2).run(|c| {
            assert!(!c.trace().is_enabled());
            c.barrier();
            c.rank()
        });
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn byte_accounting() {
        let p = 2;
        let reports: Vec<RankReport> = Cluster::ideal(p)
            .run(|c| {
                let send = vec![0u64; 8]; // 2 blocks of 4 u64 = 32 bytes to peer
                let mut recv = vec![0u64; 8];
                c.all_to_all(&send, &mut recv);
            })
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        for r in &reports {
            // Only the off-rank block counts as sent: 4 × 8 bytes.
            assert_eq!(r.stats.bytes_sent, 32);
        }
    }

    #[test]
    fn single_rank_cluster_works() {
        let out = Cluster::ideal(1).run_collect(|c| {
            let send = vec![1u8, 2, 3];
            let mut recv = vec![0u8; 3];
            c.all_to_all(&send, &mut recv);
            recv
        });
        assert_eq!(out[0], vec![1, 2, 3]);
    }

    #[test]
    fn failed_rank_surfaces_as_peer_lost_not_hang() {
        use crate::comm::SimCommError;
        let p = 4;
        let t0 = std::time::Instant::now();
        let out = Cluster::ideal(p).run_collect(|c| {
            if c.rank() == 2 {
                c.fail_now();
                return Err(SimCommError::PeerLost { peer: Some(2) });
            }
            let send: Vec<u64> = (0..p * 2).map(|i| i as u64).collect();
            let mut recv = vec![0u64; p * 2];
            c.try_all_to_all(&send, &mut recv)
        });
        for (rank, r) in out.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            assert!(
                matches!(r, Err(SimCommError::PeerLost { .. })),
                "rank {rank} got {r:?}"
            );
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "death detection took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn buffered_messages_outlive_their_sender() {
        use crate::comm::SimCommError;
        let out = Cluster::ideal(2).run_collect(|c| {
            if c.rank() == 0 {
                // Send, then die: the payload is already on the wire.
                c.try_send(1, vec![7u64, 8, 9]).unwrap();
                c.fail_now();
                Ok::<Vec<u64>, SimCommError>(Vec::new())
            } else {
                let got = c.try_recv::<u64>(0)?;
                // A second receive must now observe the death.
                match c.try_recv::<u64>(0) {
                    Err(SimCommError::PeerLost { .. }) => Ok(got),
                    other => panic!("expected PeerLost, got {other:?}"),
                }
            }
        });
        assert_eq!(out[1].as_deref(), Ok(&[7u64, 8, 9][..]));
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        Cluster::ideal(2).run_collect(|c| {
            if c.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 returns without communicating, so nobody deadlocks.
            0u8
        });
    }
}
