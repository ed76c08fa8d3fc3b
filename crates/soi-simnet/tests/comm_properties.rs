//! Property tests on the simulated communicator: conservation and
//! permutation invariants of the collectives under random payloads.

use soi_simnet::Cluster;
use soi_testkit::{check, PropConfig};

#[test]
fn all_to_all_is_a_global_permutation() {
    check(
        "all_to_all_is_a_global_permutation",
        PropConfig::cases(12),
        |rng| {
            // Every element sent appears exactly once somewhere; nothing is
            // duplicated or lost.
            let p = rng.usize_in(2..6);
            let block = rng.usize_in(1..5);
            let seed = rng.next_u64();
            let outputs = Cluster::ideal(p).run_collect(move |comm| {
                let send: Vec<u64> = (0..p * block)
                    .map(|i| seed ^ ((comm.rank() * p * block + i) as u64))
                    .collect();
                let mut recv = vec![0u64; p * block];
                comm.all_to_all(&send, &mut recv);
                recv
            });
            let mut all: Vec<u64> = outputs.into_iter().flatten().collect();
            let mut expect: Vec<u64> = (0..p)
                .flat_map(|r| (0..p * block).map(move |i| seed ^ ((r * p * block + i) as u64)))
                .collect();
            all.sort_unstable();
            expect.sort_unstable();
            assert_eq!(all, expect, "p={p} block={block}");
        },
    );
}

#[test]
fn all_to_all_seg_delivers_segment_major_in_ascending_callbacks() {
    check(
        "all_to_all_seg_delivers_segment_major_in_ascending_callbacks",
        PropConfig::cases(12),
        |rng| {
            // Each element encodes (source, destination, segment, row), so
            // every landed sub-block is checkable where it lands.
            let p = rng.usize_in(2..6);
            let nseg = rng.usize_in(1..6);
            let rows = rng.usize_in(1..5);
            let code = |src: usize, dst: usize, s: usize, j: usize| {
                ((src * 16 + dst) * 16 + s) as u64 * 16 + j as u64
            };
            let outputs = Cluster::ideal(p).run_collect(move |comm| {
                let me = comm.rank();
                let send: Vec<u64> = (0..p * nseg * rows)
                    .map(|i| code(me, i / (nseg * rows), (i / rows) % nseg, i % rows))
                    .collect();
                let mut recv = vec![0u64; p * nseg * rows];
                let mut fired = Vec::new();
                comm.try_all_to_all_seg(&send, &mut recv, nseg, &mut |si, seg, _| {
                    // Segment `si` is complete when its callback fires.
                    for (k, &v) in seg.iter().enumerate() {
                        assert_eq!(v, code(k / rows, me, si, k % rows), "p={p} seg {si}");
                    }
                    fired.push(si);
                })
                .unwrap();
                (recv, fired)
            });
            for (me, (recv, fired)) in outputs.iter().enumerate() {
                assert_eq!(*fired, (0..nseg).collect::<Vec<_>>(), "p={p} rank {me}");
                for (i, &v) in recv.iter().enumerate() {
                    let (s, src, j) = (i / (p * rows), (i / rows) % p, i % rows);
                    assert_eq!(
                        v,
                        code(src, me, s, j),
                        "p={p} nseg={nseg} rank {me} slot {i}"
                    );
                }
            }
        },
    );
}

#[test]
fn ring_halo_is_rotation() {
    check("ring_halo_is_rotation", PropConfig::cases(12), |rng| {
        let p = rng.usize_in(2..6);
        let len = rng.usize_in(1..8);
        let seed = rng.next_u64();
        let outputs = Cluster::ideal(p).run_collect(move |comm| {
            let mine: Vec<u64> = (0..len)
                .map(|i| seed ^ ((comm.rank() * len + i) as u64))
                .collect();
            let left = (comm.rank() + p - 1) % p;
            let right = (comm.rank() + 1) % p;
            comm.sendrecv(left, &mine, right)
        });
        for (rank, got) in outputs.iter().enumerate() {
            let src = (rank + 1) % p;
            let want: Vec<u64> = (0..len).map(|i| seed ^ ((src * len + i) as u64)).collect();
            assert_eq!(got, &want, "p={p} len={len} rank={rank}");
        }
    });
}

#[test]
fn allreduce_matches_local_reduction() {
    check(
        "allreduce_matches_local_reduction",
        PropConfig::cases(12),
        |rng| {
            let p = rng.usize_in(2..6);
            let vals = rng.f64_vec(6, -100.0..100.0);
            let vals_for_ranks: Vec<f64> = (0..p).map(|r| vals[r % vals.len()]).collect();
            let expect_sum: f64 = vals_for_ranks.iter().sum();
            let expect_max = vals_for_ranks.iter().copied().fold(f64::MIN, f64::max);
            let vr = &vals_for_ranks;
            let outputs = Cluster::ideal(p).run_collect(move |comm| {
                let v = vr[comm.rank()];
                (comm.allreduce_sum(v), comm.allreduce_max(v))
            });
            for (s, m) in outputs {
                assert!((s - expect_sum).abs() < 1e-9, "p={p}");
                assert_eq!(m, expect_max, "p={p}");
            }
        },
    );
}
