//! The per-rank communicator.
//!
//! Semantics mirror blocking MPI: every rank must call each collective in
//! the same order; point-to-point sends are buffered (never block) and
//! receives block until the matching message arrives. All payloads really
//! travel through channels — nothing is faked — while *time* is charged to
//! the rank's [`VirtualClock`] from the fabric model.
//!
//! Rank death is a first-class event, mirroring the wire transport: a
//! rank that calls [`RankComm::fail_now`] marks itself dead and breaks
//! the cluster barrier, and every `try_*` operation on a survivor then
//! surfaces [`SimCommError::PeerLost`] in bounded time instead of
//! blocking forever. The panicking methods (`recv`, `all_to_all`, …)
//! remain the ergonomic API for tests that never inject faults; they are
//! thin wrappers over the `try_*` variants.

use crate::clock::VirtualClock;
use crate::netmodel::Fabric;
use soi_trace::{CollectiveOp, Trace};
use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

type Msg = Box<dyn Any + Send>;

/// How long a survivor polls an empty mailbox before giving up. Death is
/// normally observed through the dead flag within one poll interval; the
/// deadline is the backstop for a peer that is alive but wedged.
const RECV_DEADLINE: Duration = Duration::from_secs(30);

/// Poll interval while waiting on an empty mailbox or a barrier.
const POLL: Duration = Duration::from_micros(500);

/// What can go wrong on the simulated network. Mirrors the wire
/// transport's taxonomy so `soi-dist` can map both onto one `CommError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimCommError {
    /// A peer rank died (or the cluster barrier was broken by a death).
    PeerLost {
        /// The dead peer, when a specific link observed the death.
        peer: Option<usize>,
    },
    /// An operation exceeded its deadline with every peer still alive.
    Timeout {
        /// Which operation timed out.
        op: &'static str,
    },
}

impl fmt::Display for SimCommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimCommError::PeerLost { peer: Some(p) } => write!(f, "peer rank {p} died"),
            SimCommError::PeerLost { peer: None } => write!(f, "a peer rank died"),
            SimCommError::Timeout { op } => write!(f, "simnet {op} timed out"),
        }
    }
}

impl std::error::Error for SimCommError {}

/// A reusable barrier that can be *failed*: once any participant calls
/// [`DeathBarrier::fail`], every current and future `wait` returns `Err`
/// immediately — the mesh stays broken until a new cluster is built,
/// exactly like a torn-down TCP mesh.
pub(crate) struct DeathBarrier {
    size: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

struct BarrierState {
    count: usize,
    generation: u64,
    failed: bool,
}

impl DeathBarrier {
    pub(crate) fn new(size: usize) -> Self {
        Self {
            size,
            state: Mutex::new(BarrierState { count: 0, generation: 0, failed: false }),
            cvar: Condvar::new(),
        }
    }

    /// Block until all `size` ranks arrive, or until the barrier fails.
    /// A round that completed is `Ok` even if a rank fails before this
    /// waiter wakes: that rank passed the barrier, and failing here would
    /// strand peers that already moved on (they would wait out
    /// [`RECV_DEADLINE`] for a message this rank never sends).
    pub(crate) fn wait(&self) -> Result<(), ()> {
        let mut st = self.state.lock().expect("barrier poisoned");
        if st.failed {
            return Err(());
        }
        let gen = st.generation;
        st.count += 1;
        if st.count == self.size {
            st.count = 0;
            st.generation += 1;
            self.cvar.notify_all();
            return Ok(());
        }
        while st.generation == gen && !st.failed {
            st = self.cvar.wait(st).expect("barrier poisoned");
        }
        if st.generation != gen {
            Ok(())
        } else {
            Err(())
        }
    }

    /// Break the barrier permanently and wake every waiter.
    pub(crate) fn fail(&self) {
        let mut st = self.state.lock().expect("barrier poisoned");
        st.failed = true;
        self.cvar.notify_all();
    }
}

/// Shared coordination state for one cluster run.
pub(crate) struct Shared {
    pub(crate) size: usize,
    pub(crate) fabric: Fabric,
    pub(crate) barrier: DeathBarrier,
    /// One f64-as-bits slot per rank for clock agreement at collectives.
    pub(crate) clock_slots: Vec<AtomicU64>,
    /// `dead[r]` — rank `r` called `fail_now` and will never speak again.
    pub(crate) dead: Vec<AtomicBool>,
}

impl Shared {
    pub(crate) fn new(size: usize, fabric: Fabric) -> Self {
        Self {
            size,
            fabric,
            barrier: DeathBarrier::new(size),
            clock_slots: (0..size).map(|_| AtomicU64::new(0)).collect(),
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

/// Per-rank traffic accounting, split by operation class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Payload bytes this rank pushed into the network.
    pub bytes_sent: u64,
    /// Payload bytes this rank pulled off the network. Cluster-wide,
    /// the sum over ranks must equal the sum of `bytes_sent` — the
    /// conservation law the trace validator checks per link.
    pub bytes_received: u64,
    /// Point-to-point messages sent.
    pub p2p_messages: u64,
    /// Number of all-to-all collectives participated in.
    pub all_to_alls: u64,
    /// Number of other collectives (barriers and allreduces).
    pub other_collectives: u64,
}

/// A rank's endpoint into the simulated machine.
///
/// Channels are `std::sync::mpsc` (one dedicated sender/receiver pair per
/// ordered rank pair, so each link is effectively SPSC): sends are
/// buffered and never block, receives block until the matching message
/// arrives — blocking-MPI semantics, exactly what the single-all-to-all
/// SOI exchange (Eq. 6) and the triple-exchange baseline assume.
pub struct RankComm {
    rank: usize,
    shared: std::sync::Arc<Shared>,
    /// `senders[dst]` — channel into rank `dst`'s mailbox from us.
    senders: Vec<Sender<Msg>>,
    /// `receivers[src]` — our mailbox for messages from rank `src`.
    receivers: Vec<Receiver<Msg>>,
    clock: VirtualClock,
    stats: CommStats,
    trace: Trace,
}

impl RankComm {
    pub(crate) fn new(
        rank: usize,
        shared: std::sync::Arc<Shared>,
        senders: Vec<Sender<Msg>>,
        receivers: Vec<Receiver<Msg>>,
        trace: Trace,
    ) -> Self {
        Self {
            rank,
            shared,
            senders,
            receivers,
            clock: VirtualClock::new(),
            stats: CommStats::default(),
            trace,
        }
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// The fabric this cluster was built with.
    pub fn fabric(&self) -> &Fabric {
        &self.shared.fabric
    }

    /// Virtual clock (read-only).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// This rank's trace handle (disabled unless the cluster was run via
    /// [`crate::Cluster::run_traced`]). Clone it to instrument phases that
    /// interleave with `&mut self` communicator calls.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Charge `dt` seconds of local computation to this rank.
    pub fn charge_compute(&mut self, dt: f64) {
        self.clock.charge_compute(dt);
    }

    /// Declare this rank dead: mark the flag every survivor polls and
    /// break the cluster barrier. Simulates a killed process — after
    /// this, every operation on every rank of this cluster fails, and
    /// the mesh stays broken until a fresh [`crate::Cluster`] run
    /// (the simnet analogue of re-wiring the TCP mesh on rejoin).
    pub fn fail_now(&mut self) {
        self.shared.dead[self.rank].store(true, Ordering::SeqCst);
        self.shared.barrier.fail();
    }

    /// Push one message toward `dst`, failing fast on a dead peer.
    fn try_send_msg(&mut self, dst: usize, msg: Msg) -> Result<(), SimCommError> {
        if self.shared.dead[dst].load(Ordering::SeqCst) {
            return Err(SimCommError::PeerLost { peer: Some(dst) });
        }
        self.senders[dst]
            .send(msg)
            .map_err(|_| SimCommError::PeerLost { peer: Some(dst) })
    }

    /// Pull one message from `src`. Buffered messages are delivered even
    /// if `src` has since died (they were "on the wire"); an empty
    /// mailbox from a dead peer is a lost peer; an empty mailbox from a
    /// live peer is polled until [`RECV_DEADLINE`].
    fn try_recv_msg(&self, src: usize, op: &'static str) -> Result<Msg, SimCommError> {
        let deadline = Instant::now() + RECV_DEADLINE;
        loop {
            match self.receivers[src].try_recv() {
                Ok(m) => return Ok(m),
                Err(TryRecvError::Disconnected) => {
                    return Err(SimCommError::PeerLost { peer: Some(src) })
                }
                Err(TryRecvError::Empty) => {}
            }
            if self.shared.dead[src].load(Ordering::SeqCst) {
                // Final drain: a message queued before the death flag
                // became visible is still on the wire and deliverable.
                return match self.receivers[src].try_recv() {
                    Ok(m) => Ok(m),
                    Err(_) => Err(SimCommError::PeerLost { peer: Some(src) }),
                };
            }
            if Instant::now() >= deadline {
                return Err(SimCommError::Timeout { op });
            }
            match self.receivers[src].recv_timeout(POLL) {
                Ok(m) => return Ok(m),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(SimCommError::PeerLost { peer: Some(src) })
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }

    /// Agree on `max(now)` across ranks, then charge `op_cost`. The
    /// double barrier protects the slots from the next collective.
    fn try_sync_clocks(&mut self, op_cost: f64) -> Result<(), SimCommError> {
        let slots = &self.shared.clock_slots;
        slots[self.rank].store(self.clock.now().to_bits(), Ordering::SeqCst);
        self.shared
            .barrier
            .wait()
            .map_err(|_| SimCommError::PeerLost { peer: None })?;
        // Seed with -inf, not 0.0: a 0.0 seed would silently clamp the
        // fold if clocks could ever read negative, turning "max of the
        // ranks' clocks" into "max of the clocks and zero".
        let max = slots
            .iter()
            .map(|s| f64::from_bits(s.load(Ordering::SeqCst)))
            .fold(f64::NEG_INFINITY, f64::max);
        self.shared
            .barrier
            .wait()
            .map_err(|_| SimCommError::PeerLost { peer: None })?;
        self.clock.synchronize(max, op_cost);
        Ok(())
    }

    /// Fallible barrier across all ranks.
    pub fn try_barrier(&mut self) -> Result<(), SimCommError> {
        let cost = self.shared.fabric.barrier_time(self.size());
        self.try_sync_clocks(cost)?;
        self.stats.other_collectives += 1;
        // Recorded after synchronization: every rank's barrier event must
        // carry the identical clock, which the trace validator asserts.
        self.trace
            .collective(CollectiveOp::Barrier, 0, Some(self.clock.now()));
        Ok(())
    }

    /// Barrier across all ranks.
    pub fn barrier(&mut self) {
        self.try_barrier().expect("peer rank hung up");
    }

    /// Fallible non-blocking buffered send of a typed payload to `dst`.
    ///
    /// Time is *not* charged here; paired operations ([`Self::sendrecv`])
    /// and collectives charge the fabric cost. Raw sends are the building
    /// block and charge at the matching `recv`.
    pub fn try_send<T: Send + 'static>(
        &mut self,
        dst: usize,
        data: Vec<T>,
    ) -> Result<(), SimCommError> {
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        self.stats.bytes_sent += bytes;
        self.stats.p2p_messages += 1;
        self.trace.send(dst, bytes, Some(self.clock.now()));
        self.try_send_msg(dst, Box::new(data))
    }

    /// Non-blocking buffered send of a typed payload to `dst`.
    pub fn send<T: Send + 'static>(&mut self, dst: usize, data: Vec<T>) {
        self.try_send(dst, data).expect("peer rank hung up");
    }

    /// Fallible blocking receive of a typed payload from `src`, charging
    /// the point-to-point fabric cost.
    pub fn try_recv<T: Send + 'static>(&mut self, src: usize) -> Result<Vec<T>, SimCommError> {
        let msg = self.try_recv_msg(src, "recv")?;
        let data = *msg
            .downcast::<Vec<T>>()
            .expect("type mismatch between send and recv");
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        self.stats.bytes_received += bytes;
        self.clock
            .charge_comm(self.shared.fabric.point_to_point_time(bytes));
        self.trace.recv(src, bytes, Some(self.clock.now()));
        Ok(data)
    }

    /// Blocking receive of a typed payload from `src`.
    pub fn recv<T: Send + 'static>(&mut self, src: usize) -> Vec<T> {
        self.try_recv(src).expect("peer rank hung up")
    }

    /// Fallible simultaneous exchange: send `data` to `dst` while
    /// receiving from `src` (the halo-exchange pattern of the SOI
    /// convolution, where each node needs `(B−ν)P` points from its
    /// next-door neighbor — §2: "each node merely needs an insignificant
    /// amount of data").
    pub fn try_sendrecv<T: Send + Clone + 'static>(
        &mut self,
        dst: usize,
        data: &[T],
        src: usize,
    ) -> Result<Vec<T>, SimCommError> {
        let sent_bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        self.stats.bytes_sent += sent_bytes;
        self.stats.p2p_messages += 1;
        self.trace.send(dst, sent_bytes, Some(self.clock.now()));
        self.try_send_msg(dst, Box::new(data.to_vec()))?;
        let msg = self.try_recv_msg(src, "sendrecv")?;
        let out = *msg
            .downcast::<Vec<T>>()
            .expect("type mismatch between sendrecv peers");
        let bytes = (out.len() * std::mem::size_of::<T>()) as u64;
        self.stats.bytes_received += bytes;
        self.trace.recv(src, bytes, Some(self.clock.now()));
        // All ranks exchange concurrently; synchronize and charge one hop.
        self.try_sync_clocks(self.shared.fabric.point_to_point_time(bytes))?;
        self.trace
            .collective(CollectiveOp::SendRecv, bytes, Some(self.clock.now()));
        Ok(out)
    }

    /// Simultaneous exchange: send `data` to `dst` while receiving from `src`.
    pub fn sendrecv<T: Send + Clone + 'static>(
        &mut self,
        dst: usize,
        data: &[T],
        src: usize,
    ) -> Vec<T> {
        self.try_sendrecv(dst, data, src).expect("peer rank hung up")
    }

    /// Fallible all-to-all with equal blocks: block `d` of `send` goes to
    /// rank `d`; `recv` block `s` arrives from rank `s`. This is the
    /// single global exchange of the SOI factorization (`P_perm^{P,N'}`
    /// in Eq. 6) and the three exchanges of the baseline — one segment
    /// of [`RankComm::try_all_to_all_seg`], as on the wire.
    pub fn try_all_to_all<T: Send + Clone + 'static>(
        &mut self,
        send: &[T],
        recv: &mut [T],
    ) -> Result<(), SimCommError> {
        self.try_all_to_all_seg(send, recv, 1, &mut |_, _, _| {})
    }

    /// All-to-all with equal blocks.
    pub fn all_to_all<T: Send + Clone + 'static>(&mut self, send: &[T], recv: &mut [T]) {
        self.try_all_to_all(send, recv).expect("peer rank hung up");
    }

    /// Fallible segment-granular all-to-all with a per-landed-segment
    /// callback — the simulated twin of the wire transport's streamed
    /// exchange, with identical layouts and accounting.
    ///
    /// `send` holds `P` destination blocks of `nseg` sub-blocks each
    /// (sub-block `(d, s)` at `send[(d·nseg + s)·rows..]`); deliveries
    /// land segment-major (`recv[(s·P + src)·rows..]`), and `on_seg(s,
    /// segment, clock)` fires once per segment in ascending order with
    /// the rank's virtual clock. Sends are buffered up front (they never
    /// block on simnet), so "overlap" here is purely the delivery
    /// order — what matters is that both transports fire the callbacks
    /// on identical data in identical order, keeping the overlapped
    /// schedule bitwise reproducible across fabrics. Time is charged as
    /// one all-to-all of the aggregate non-self payload at the closing
    /// clock sync, whatever `nseg` is.
    pub fn try_all_to_all_seg<T: Send + Clone + 'static>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        nseg: usize,
        on_seg: &mut dyn FnMut(usize, &mut [T], Option<f64>),
    ) -> Result<(), SimCommError> {
        let p = self.size();
        assert_eq!(send.len(), recv.len(), "all_to_all buffers must match");
        assert!(
            nseg > 0 && send.len() % (p * nseg) == 0,
            "all_to_all length {} not divisible by {p} ranks x {nseg} segments",
            send.len()
        );
        let rows = send.len() / (p * nseg);
        let sub_bytes = (rows * std::mem::size_of::<T>()) as u64;
        // Same (segment, round)-major global order as the wire writer
        // thread, so per-link FIFO delivery matches across transports.
        for si in 0..nseg {
            for r in 1..p {
                let dst = (self.rank + r) % p;
                let chunk = send[(dst * nseg + si) * rows..][..rows].to_vec();
                self.stats.bytes_sent += sub_bytes;
                self.trace.send(dst, sub_bytes, Some(self.clock.now()));
                self.try_send_msg(dst, Box::new(chunk))?;
            }
        }
        for si in 0..nseg {
            for r in 1..p {
                let src = (self.rank + p - r) % p;
                let msg = self.try_recv_msg(src, "all_to_all")?;
                let data = *msg
                    .downcast::<Vec<T>>()
                    .expect("type mismatch in all_to_all");
                assert_eq!(data.len(), rows, "ragged all_to_all sub-block from {src}");
                self.stats.bytes_received += sub_bytes;
                self.trace.recv(src, sub_bytes, Some(self.clock.now()));
                recv[(si * p + src) * rows..][..rows].clone_from_slice(&data);
            }
            recv[(si * p + self.rank) * rows..][..rows]
                .clone_from_slice(&send[(self.rank * nseg + si) * rows..][..rows]);
            on_seg(si, &mut recv[si * p * rows..][..p * rows], Some(self.clock.now()));
        }
        // Fabric-charged traffic excludes each rank's self-block (a local
        // copy never touches the wire); the total does not depend on nseg.
        let total_bytes = (p - 1) as u64 * nseg as u64 * sub_bytes * p as u64;
        let cost = self.shared.fabric.all_to_all_time(p, total_bytes);
        self.try_sync_clocks(cost)?;
        self.stats.all_to_alls += 1;
        self.trace
            .collective(CollectiveOp::AllToAll, total_bytes, Some(self.clock.now()));
        Ok(())
    }

    /// Fallible all-gather: every rank receives the rank-ordered
    /// concatenation. The allreduces fold it.
    fn try_all_gather<T: Send + Clone + 'static>(
        &mut self,
        data: &[T],
    ) -> Result<Vec<T>, SimCommError> {
        let p = self.size();
        for dst in 0..p {
            if dst != self.rank {
                let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
                self.stats.bytes_sent += bytes;
                self.trace.send(dst, bytes, Some(self.clock.now()));
                self.try_send_msg(dst, Box::new(data.to_vec()))?;
            }
        }
        let mut out = Vec::new();
        for src in 0..p {
            if src == self.rank {
                out.extend_from_slice(data);
            } else {
                let msg = self.try_recv_msg(src, "all_gather")?;
                let block = *msg
                    .downcast::<Vec<T>>()
                    .expect("type mismatch in all_gather");
                let bytes = (block.len() * std::mem::size_of::<T>()) as u64;
                self.stats.bytes_received += bytes;
                self.trace.recv(src, bytes, Some(self.clock.now()));
                out.extend_from_slice(&block);
            }
        }
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64 * p as u64;
        let cost = self.shared.fabric.all_to_all_time(p, bytes);
        self.try_sync_clocks(cost)?;
        self.stats.other_collectives += 1;
        self.trace
            .collective(CollectiveOp::AllGather, bytes, Some(self.clock.now()));
        Ok(out)
    }

    /// Fallible sum-allreduce of one f64.
    pub fn try_allreduce_sum(&mut self, v: f64) -> Result<f64, SimCommError> {
        Ok(self.try_all_gather(&[v])?.iter().sum())
    }

    /// Sum-allreduce of one f64.
    pub fn allreduce_sum(&mut self, v: f64) -> f64 {
        self.try_allreduce_sum(v).expect("peer rank hung up")
    }

    /// Fallible max-allreduce of one f64. Seeded with `-inf`, not
    /// `f64::MIN`: a finite seed would silently become the answer when
    /// every rank contributes `-inf` — the same bug class the clock
    /// synchronization guards against, and the wire transport
    /// folds identically so the transports agree bitwise.
    pub fn try_allreduce_max(&mut self, v: f64) -> Result<f64, SimCommError> {
        Ok(self
            .try_all_gather(&[v])?
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max))
    }

    /// Max-allreduce of one f64.
    pub fn allreduce_max(&mut self, v: f64) -> f64 {
        self.try_allreduce_max(v).expect("peer rank hung up")
    }
}

#[cfg(test)]
mod tests {
    // RankComm cannot exist without a Cluster; its behaviour (including
    // fault injection via `fail_now`) is tested in `cluster.rs` where
    // ranks actually run.
    use super::DeathBarrier;
    use std::sync::Arc;

    #[test]
    fn completed_round_survives_a_failure_before_the_waiter_wakes() {
        let b = Arc::new(DeathBarrier::new(2));
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.wait())
        };
        while b.state.lock().unwrap().count == 0 {
            std::thread::yield_now();
        }
        // The last arrival and a death, both before the waiter can take
        // the lock back: the round it waited for still completed.
        let mut st = b.state.lock().unwrap();
        st.count = 0;
        st.generation += 1;
        st.failed = true;
        b.cvar.notify_all();
        drop(st);
        assert_eq!(waiter.join().unwrap(), Ok(()));
        assert_eq!(b.wait(), Err(()), "later rounds fail");
    }
}
