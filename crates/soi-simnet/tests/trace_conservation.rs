//! Property test for the comm-conservation validator: random sequences of
//! collectives on random cluster sizes must always produce traces that
//! validate, and the per-rank `CommStats` totals must balance cluster-wide
//! (every byte sent is a byte received — nothing is minted or lost).

use soi_simnet::{Cluster, Fabric};
use soi_testkit::{check, PropConfig};

/// One step of the random schedule; all ranks execute the same sequence
/// (blocking-MPI contract) with seed-derived payload sizes.
#[derive(Clone, Copy, Debug)]
enum Op {
    Barrier,
    AllToAll { block: usize },
    AllToAllSeg { rows: usize, nseg: usize },
    AllReduceSum,
    AllReduceMax,
    RingHalo { len: usize },
}

#[test]
fn random_collective_sequences_conserve_bytes_and_validate() {
    check(
        "random_collective_sequences_conserve_bytes_and_validate",
        PropConfig::cases(10),
        |rng| {
            let p = rng.usize_in(2..9);
            let steps = rng.usize_in(3..9);
            let ops: Vec<Op> = (0..steps)
                .map(|_| match rng.usize_in(0..6) {
                    0 => Op::Barrier,
                    1 => Op::AllToAll {
                        block: rng.usize_in(1..16),
                    },
                    2 => Op::AllToAllSeg {
                        rows: rng.usize_in(1..8),
                        nseg: rng.usize_in(1..6),
                    },
                    3 => Op::AllReduceSum,
                    4 => Op::AllReduceMax,
                    _ => Op::RingHalo {
                        len: rng.usize_in(1..32),
                    },
                })
                .collect();

            let ops_ref = &ops;
            let (results, set) = Cluster::new(p, Fabric::ethernet_10g()).run_traced(move |c| {
                for op in ops_ref {
                    match *op {
                        Op::Barrier => c.barrier(),
                        Op::AllToAll { block } => {
                            let send = vec![c.rank() as u8; p * block];
                            let mut recv = vec![0u8; p * block];
                            c.all_to_all(&send, &mut recv);
                        }
                        Op::AllToAllSeg { rows, nseg } => {
                            let send = vec![c.rank() as u16; p * nseg * rows];
                            let mut recv = vec![0u16; p * nseg * rows];
                            let mut fired = Vec::new();
                            c.try_all_to_all_seg(&send, &mut recv, nseg, &mut |si, seg, _| {
                                assert_eq!(seg.len(), p * rows);
                                fired.push(si);
                            })
                            .unwrap();
                            assert_eq!(fired, (0..nseg).collect::<Vec<_>>());
                        }
                        Op::AllReduceSum => {
                            let sum = c.allreduce_sum(c.rank() as f64);
                            assert_eq!(sum, (p * (p - 1) / 2) as f64);
                        }
                        Op::AllReduceMax => {
                            assert_eq!(c.allreduce_max(c.rank() as f64), (p - 1) as f64);
                        }
                        Op::RingHalo { len } => {
                            let left = (c.rank() + p - 1) % p;
                            let right = (c.rank() + 1) % p;
                            let _ = c.sendrecv(left, &vec![c.rank() as u64; len], right);
                        }
                    }
                }
                c.stats()
            });

            let summary = set
                .validate()
                .unwrap_or_else(|e| panic!("p={p} ops={ops:?}: trace invalid: {e}"));
            assert_eq!(summary.ranks, p);

            // Cluster-wide conservation of the CommStats totals.
            let sent: u64 = results.iter().map(|(s, _)| s.bytes_sent).sum();
            let received: u64 = results.iter().map(|(s, _)| s.bytes_received).sum();
            assert_eq!(sent, received, "p={p} ops={ops:?}");
            assert_eq!(summary.bytes, sent, "trace bytes must match stats");

            // Every rank executed the same number of collectives, and the
            // validator saw exactly that shared sequence.
            let colls = results[0].0.all_to_alls + results[0].0.other_collectives;
            for (s, _) in &results {
                assert_eq!(s.all_to_alls + s.other_collectives, colls);
            }
        },
    );
}
