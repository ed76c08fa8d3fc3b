//! The per-process communicator over a bootstrapped TCP mesh.
//!
//! [`WireComm`] mirrors the surface (and the trace conventions) of
//! `soi_simnet::RankComm`, but every payload really crosses a socket and
//! every operation returns `Result` — a dead peer is a prompt
//! [`WireError::PeerLost`], a stuck one a [`WireError::Timeout`], never a
//! hang.
//!
//! Three structural choices keep the collectives deadlock-free (and the
//! big one fast) on real TCP:
//!
//! * **Outgoing traffic streams from one writer thread per collective.**
//!   TCP gives each direction a finite buffer; two peers that both
//!   `write_all` a large block before reading deadlock once both buffers
//!   fill. Every paired or global exchange therefore pushes its outgoing
//!   frames from a single scoped thread (writing on `&TcpStream`) while
//!   the caller's thread reads — correct for any payload size, no
//!   buffer-size assumptions. For the all-to-all family the writer
//!   streams *every* round of the whole schedule back-to-back through a
//!   reused encode buffer, so rounds pipeline on the wire instead of
//!   running send-wait-receive lockstep, and payloads are decoded
//!   straight into the caller's receive buffer (no per-round temporary).
//! * **All-to-all is a pairwise-exchange schedule.** Round `r ∈ 1..P`
//!   pairs rank `k` with destination `(k+r) mod P` and source
//!   `(k−r) mod P` — every round is a perfect matching of simultaneous
//!   exchanges. The segmented variant ([`WireComm::all_to_all_seg`])
//!   iterates that schedule once per segment, sub-block `(segment,
//!   round)`-major on every rank, so each link carries frames in one
//!   globally agreed order and a segment's data all lands before any
//!   later segment's.
//! * **Self-traffic goes through an in-process inbox.** A rank may name
//!   itself as the destination and/or source of a paired exchange (the
//!   simulated fabric permits it, so the wire must too). Payloads
//!   "sent" to self are queued on [`WireComm`]'s own inbox and "received"
//!   by popping it — no socket involved, same FIFO semantics as a
//!   buffered self-link.
//!
//! Error attribution: inside an exchange, write-side failures are tagged
//! with the *destination* rank and read-side failures with the *source* —
//! recovery decisions key off the reported peer, so a dead outbound link
//! must never be blamed on the (healthy) rank we happened to be reading
//! from.

use crate::bootstrap::{Bootstrap, WireConfig};
use crate::error::WireError;
use crate::frame::{read_frame, read_frame_into, write_frame, TAG_DATA};
use crate::pod::{decode_into, decode_slice, encode_into, encode_slice, Pod};
use soi_trace::{CollectiveOp, Trace};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::Instant;

/// Per-process traffic accounting; field-for-field the same shape as
/// `soi_simnet::CommStats` so tests can assert the same invariants
/// against either transport.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireStats {
    /// Payload bytes pushed onto sockets (excludes frame headers).
    pub bytes_sent: u64,
    /// Payload bytes read off sockets.
    pub bytes_received: u64,
    /// Point-to-point messages sent.
    pub p2p_messages: u64,
    /// All-to-all collectives participated in.
    pub all_to_alls: u64,
    /// Other collectives (barriers and allreduces).
    pub other_collectives: u64,
}

/// A rank's endpoint onto the real network.
pub struct WireComm {
    rank: usize,
    size: usize,
    peers: Vec<Option<TcpStream>>,
    cfg: WireConfig,
    stats: WireStats,
    trace: Trace,
    comm_seconds: f64,
    /// Rendezvous address to reconnect to for a recovery round; empty for
    /// meshes built without one (then [`WireComm::reconnect`] fails).
    rendezvous: String,
    /// Job epoch this mesh belongs to (0 = initial bootstrap).
    epoch: u32,
    /// FIFO of payloads this rank sent to itself and has not yet
    /// received back — the buffered self-link simnet gets for free.
    self_inbox: VecDeque<Vec<u8>>,
}

impl WireComm {
    /// Wrap a completed [`Bootstrap`] (the control stream stays with the
    /// caller — it is launcher business, not collective business).
    pub fn new(rank: usize, size: usize, peers: Vec<Option<TcpStream>>, cfg: WireConfig) -> Self {
        assert_eq!(peers.len(), size, "need one peer slot per rank");
        Self {
            rank,
            size,
            peers,
            cfg,
            stats: WireStats::default(),
            trace: Trace::disabled(),
            comm_seconds: 0.0,
            rendezvous: String::new(),
            epoch: 0,
            self_inbox: VecDeque::new(),
        }
    }

    /// Build from a bootstrap, returning the communicator and the control
    /// stream separately.
    pub fn from_bootstrap(b: Bootstrap) -> (Self, TcpStream) {
        let mut comm = Self::new(b.rank, b.size, b.peers, b.cfg);
        comm.rendezvous = b.rendezvous;
        comm.epoch = b.epoch;
        (comm, b.control)
    }

    /// The job epoch this mesh belongs to.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> WireStats {
        self.stats
    }

    /// Wall-clock seconds spent inside communication operations.
    pub fn comm_seconds(&self) -> f64 {
        self.comm_seconds
    }

    /// This rank's trace handle.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Install a trace handle (events carry `t_virt = None`; there is no
    /// virtual clock on a real network).
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    fn stream(&self, peer: usize) -> Result<&TcpStream, WireError> {
        if peer >= self.size || peer == self.rank {
            return Err(WireError::Protocol(format!(
                "rank {} has no link to peer {peer} of {}",
                self.rank, self.size
            )));
        }
        self.peers[peer].as_ref().ok_or_else(|| WireError::PeerLost {
            peer: Some(peer),
            detail: "link already torn down".into(),
        })
    }

    fn tag_peer(e: WireError, peer: usize) -> WireError {
        match e {
            WireError::PeerLost { peer: None, detail } => {
                WireError::PeerLost { peer: Some(peer), detail }
            }
            WireError::Timeout { peer: None, op, after } => {
                WireError::Timeout { peer: Some(peer), op, after }
            }
            other => other,
        }
    }

    /// Pop the oldest payload this rank sent to itself; an empty inbox is
    /// the wire analogue of blocking forever on an empty self-mailbox, so
    /// it reports a timeout against this very rank.
    fn recv_self(&mut self, op: &'static str) -> Result<Vec<u8>, WireError> {
        self.self_inbox.pop_front().ok_or(WireError::Timeout {
            peer: Some(self.rank),
            op,
            after: self.cfg.op_timeout,
        })
    }

    /// Send a typed payload to `dst` (framed, blocking, deadline-bounded).
    /// `dst == self.rank` queues on the self-inbox, like simnet's buffered
    /// self-link.
    pub fn send<T: Pod>(&mut self, dst: usize, data: &[T]) -> Result<(), WireError> {
        let t0 = Instant::now();
        let payload = encode_slice(data);
        let bytes = payload.len() as u64;
        if dst == self.rank {
            self.self_inbox.push_back(payload);
        } else {
            let mut s = self.stream(dst)?;
            write_frame(&mut s, TAG_DATA, &payload, Some(dst), self.cfg.op_timeout)?;
        }
        self.stats.bytes_sent += bytes;
        self.stats.p2p_messages += 1;
        self.trace.send(dst, bytes, None);
        self.comm_seconds += t0.elapsed().as_secs_f64();
        Ok(())
    }

    /// Receive a typed payload from `src` (`src == self.rank` pops the
    /// self-inbox).
    pub fn recv<T: Pod>(&mut self, src: usize) -> Result<Vec<T>, WireError> {
        let t0 = Instant::now();
        let payload = if src == self.rank {
            self.recv_self("recv")?
        } else {
            let mut s = self.stream(src)?;
            let (tag, payload) = read_frame(&mut s, Some(src), self.cfg.op_timeout)?;
            if tag != TAG_DATA {
                return Err(WireError::Protocol(format!(
                    "expected DATA from rank {src}, got tag {tag:#04x}"
                )));
            }
            payload
        };
        let bytes = payload.len() as u64;
        let out = decode_slice(&payload)?;
        self.stats.bytes_received += bytes;
        self.trace.recv(src, bytes, None);
        self.comm_seconds += t0.elapsed().as_secs_f64();
        Ok(out)
    }

    /// Write `payload` to `dst` while reading one DATA frame from `src`,
    /// concurrently — the deadlock-free primitive under every paired
    /// exchange. `dst == src` is fine (TCP is full duplex). Write-side
    /// failures come back tagged with `dst`, read-side with `src` —
    /// callers must NOT re-tag (a blanket `tag_peer(e, src)` would blame
    /// the source rank for a dead outbound link).
    fn exchange_frames(
        &self,
        dst: usize,
        payload: &[u8],
        src: usize,
    ) -> Result<Vec<u8>, WireError> {
        let out_stream = self.stream(dst)?;
        let in_stream = self.stream(src)?;
        let deadline = self.cfg.op_timeout;
        std::thread::scope(|scope| {
            let writer = scope.spawn(move || {
                let mut w = out_stream;
                write_frame(&mut w, TAG_DATA, payload, Some(dst), deadline)
            });
            let mut r = in_stream;
            let read_result = read_frame(&mut r, Some(src), deadline);
            let write_result = writer.join().expect("wire writer thread panicked");
            write_result.map_err(|e| Self::tag_peer(e, dst))?;
            let (tag, body) = read_result.map_err(|e| Self::tag_peer(e, src))?;
            if tag != TAG_DATA {
                return Err(WireError::Protocol(format!(
                    "expected DATA from rank {src}, got tag {tag:#04x}"
                )));
            }
            Ok(body)
        })
    }

    /// Simultaneous exchange: send `data` to `dst` while receiving from
    /// `src` (the SOI halo-exchange pattern). Either endpoint may be this
    /// rank itself: a self-destination queues the payload on the
    /// self-inbox while the wire read proceeds, a self-source pops it —
    /// the same one-sided self-exchange the simulated fabric permits.
    pub fn sendrecv<T: Pod>(
        &mut self,
        dst: usize,
        data: &[T],
        src: usize,
    ) -> Result<Vec<T>, WireError> {
        let t0 = Instant::now();
        let payload = encode_slice(data);
        let sent_bytes = payload.len() as u64;
        self.trace.send(dst, sent_bytes, None);
        let body = match (dst == self.rank, src == self.rank) {
            (true, true) => payload, // pure self-exchange: no wire involved
            (true, false) => {
                // Send-to-self, receive from a real peer.
                self.self_inbox.push_back(payload);
                let mut s = self.stream(src)?;
                let (tag, body) = read_frame(&mut s, Some(src), self.cfg.op_timeout)
                    .map_err(|e| Self::tag_peer(e, src))?;
                if tag != TAG_DATA {
                    return Err(WireError::Protocol(format!(
                        "expected DATA from rank {src}, got tag {tag:#04x}"
                    )));
                }
                body
            }
            (false, true) => {
                // Send to a real peer, receive from self. The peer's
                // mirrored call is read-only toward us, so a plain
                // blocking write cannot deadlock against it.
                let mut s = self.stream(dst)?;
                write_frame(&mut s, TAG_DATA, &payload, Some(dst), self.cfg.op_timeout)
                    .map_err(|e| Self::tag_peer(e, dst))?;
                self.recv_self("sendrecv")?
            }
            (false, false) => self.exchange_frames(dst, &payload, src)?,
        };
        let recv_bytes = body.len() as u64;
        let out = decode_slice(&body)?;
        self.stats.bytes_sent += sent_bytes;
        self.stats.p2p_messages += 1;
        self.stats.bytes_received += recv_bytes;
        self.trace.recv(src, recv_bytes, None);
        self.trace.collective(CollectiveOp::SendRecv, recv_bytes, None);
        self.comm_seconds += t0.elapsed().as_secs_f64();
        Ok(out)
    }

    /// All-to-all with equal blocks: block `d` of `send` goes to rank
    /// `d`; `recv` block `s` arrives from rank `s` — the paper's single
    /// global exchange, streamed over real sockets (one writer thread
    /// pipelines all P−1 rounds; see [`WireComm::all_to_all_seg`]).
    pub fn all_to_all<T: Pod>(&mut self, send: &[T], recv: &mut [T]) -> Result<(), WireError> {
        self.all_to_all_seg(send, recv, 1, &mut |_, _, _| {})
    }

    /// Segment-granular streamed all-to-all with compute overlap — the
    /// pipelined exchange under the overlapped SOI schedule.
    ///
    /// `send` holds `P` destination blocks, each `nseg` sub-blocks of
    /// `rows = len / (P·nseg)` elements: sub-block `(d, s)` at
    /// `send[(d·nseg + s)·rows..]` goes to rank `d` for its segment `s`.
    /// Deliveries land *segment-major*: sub-block `(s, src)` at
    /// `recv[(s·P + src)·rows..]`, so each segment's `P·rows` region is
    /// contiguous. `on_seg(s, segment, clock)` fires once per segment in
    /// ascending order as soon as all of that segment's sub-blocks are
    /// in place — while later segments are still in flight — with `clock
    /// = None` (no virtual clock on a real network). Callback time is
    /// excluded from [`WireComm::comm_seconds`].
    ///
    /// One scoped writer thread streams the entire `(segment,
    /// round)`-major schedule through a reused encode buffer; the caller
    /// thread decodes frames straight into `recv` and runs the
    /// callbacks. Both sides follow the same global order restricted to
    /// each link, so per-link FIFO delivery keeps every sub-block
    /// matched to its slot. With `nseg = 1` this is exactly
    /// [`WireComm::all_to_all`] (identical layout, one callback at the
    /// end), and the accounting (bytes, events, one `AllToAll`
    /// collective excluding the self-block) is the same for any `nseg`.
    pub fn all_to_all_seg<T: Pod>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        nseg: usize,
        on_seg: &mut dyn FnMut(usize, &mut [T], Option<f64>),
    ) -> Result<(), WireError> {
        let p = self.size;
        let rank = self.rank;
        if send.len() != recv.len() {
            return Err(WireError::Protocol(format!(
                "all_to_all buffers must match: {} vs {}",
                send.len(),
                recv.len()
            )));
        }
        if nseg == 0 || send.len() % (p * nseg) != 0 {
            return Err(WireError::Protocol(format!(
                "all_to_all length {} not divisible by {p} ranks x {nseg} segments",
                send.len()
            )));
        }
        let rows = send.len() / (p * nseg);
        let sub_bytes = (rows * T::BYTES) as u64;
        let deadline = self.cfg.op_timeout;
        // Validate every link up front so the writer thread cannot race a
        // slot the reader already reported missing.
        for peer in 0..p {
            if peer != rank {
                self.stream(peer)?;
            }
        }
        let peers = &self.peers;
        let trace = &self.trace;
        let stats = &mut self.stats;
        let mut comm_elapsed = 0.0f64;
        let result = std::thread::scope(|scope| -> Result<(), WireError> {
            let writer = scope.spawn(move || -> Result<(), WireError> {
                let mut buf = Vec::new();
                for si in 0..nseg {
                    for r in 1..p {
                        let dst = (rank + r) % p;
                        encode_into(&send[(dst * nseg + si) * rows..][..rows], &mut buf);
                        let mut w = peers[dst].as_ref().expect("link validated above");
                        write_frame(&mut w, TAG_DATA, &buf, Some(dst), deadline)
                            .map_err(|e| Self::tag_peer(e, dst))?;
                    }
                }
                Ok(())
            });
            let mut t0 = Instant::now();
            let mut payload = Vec::new();
            let mut read_err: Option<WireError> = None;
            'deliver: for si in 0..nseg {
                for r in 1..p {
                    let src = (rank + p - r) % p;
                    let dst = (rank + r) % p;
                    let mut s = peers[src].as_ref().expect("link validated above");
                    let round = (|| -> Result<(), WireError> {
                        let tag = read_frame_into(&mut s, &mut payload, Some(src), deadline)
                            .map_err(|e| Self::tag_peer(e, src))?;
                        if tag != TAG_DATA {
                            return Err(WireError::Protocol(format!(
                                "expected DATA from rank {src}, got tag {tag:#04x}"
                            )));
                        }
                        if payload.len() as u64 != sub_bytes {
                            return Err(WireError::Protocol(format!(
                                "ragged all_to_all sub-block from {src}: {} bytes, expected {sub_bytes}",
                                payload.len()
                            )));
                        }
                        decode_into(&payload, &mut recv[(si * p + src) * rows..][..rows])
                    })();
                    if let Err(e) = round {
                        read_err = Some(e);
                        break 'deliver;
                    }
                    trace.send(dst, sub_bytes, None);
                    trace.recv(src, sub_bytes, None);
                    stats.bytes_sent += sub_bytes;
                    stats.bytes_received += sub_bytes;
                }
                recv[(si * p + rank) * rows..][..rows]
                    .copy_from_slice(&send[(rank * nseg + si) * rows..][..rows]);
                comm_elapsed += t0.elapsed().as_secs_f64();
                on_seg(si, &mut recv[si * p * rows..][..p * rows], None);
                t0 = Instant::now();
            }
            let write_result = writer.join().expect("wire writer thread panicked");
            comm_elapsed += t0.elapsed().as_secs_f64();
            // Writer errors carry the severed destination; prefer them
            // over the read-side error they usually cascade into.
            write_result?;
            match read_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        });
        // Same accounting convention as simnet: the self-block never
        // touches the wire and is excluded from the collective total.
        let total_bytes = (p - 1) as u64 * nseg as u64 * sub_bytes * p as u64;
        self.stats.all_to_alls += 1;
        self.trace.collective(CollectiveOp::AllToAll, total_bytes, None);
        self.comm_seconds += comm_elapsed;
        result
    }

    /// All-gather: every rank receives the rank-ordered concatenation;
    /// the allreduces fold it. Runs as P−1 pairwise exchange rounds (same
    /// schedule as [`WireComm::all_to_all`], each round carrying this
    /// rank's whole contribution).
    fn all_gather<T: Pod>(&mut self, data: &[T]) -> Result<Vec<T>, WireError> {
        let t0 = Instant::now();
        let p = self.size;
        let payload = encode_slice(data);
        let mut blocks: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        blocks[self.rank] = data.to_vec();
        for r in 1..p {
            let dst = (self.rank + r) % p;
            let src = (self.rank + p - r) % p;
            let sent_bytes = payload.len() as u64;
            self.trace.send(dst, sent_bytes, None);
            let body = self.exchange_frames(dst, &payload, src)?;
            let bytes = body.len() as u64;
            self.stats.bytes_sent += sent_bytes;
            self.stats.bytes_received += bytes;
            self.trace.recv(src, bytes, None);
            blocks[src] = decode_slice(&body)?;
        }
        let out: Vec<T> = blocks.into_iter().flatten().collect();
        let bytes = (data.len() * T::BYTES) as u64 * p as u64;
        self.stats.other_collectives += 1;
        self.trace.collective(CollectiveOp::AllGather, bytes, None);
        self.comm_seconds += t0.elapsed().as_secs_f64();
        Ok(out)
    }

    /// Barrier: a one-token pairwise round with every peer. The tokens
    /// are protocol, not payload, so neither send/recv events nor byte
    /// counters record them — matching simnet's convention of recording
    /// only the collective itself.
    pub fn barrier(&mut self) -> Result<(), WireError> {
        let t0 = Instant::now();
        let token = [0u8];
        for r in 1..self.size {
            let dst = (self.rank + r) % self.size;
            let src = (self.rank + self.size - r) % self.size;
            let body = self.exchange_frames(dst, &token, src)?;
            if body.len() != 1 {
                return Err(WireError::Protocol(format!(
                    "barrier token from rank {src} had {} bytes",
                    body.len()
                )));
            }
        }
        self.stats.other_collectives += 1;
        self.trace.collective(CollectiveOp::Barrier, 0, None);
        self.comm_seconds += t0.elapsed().as_secs_f64();
        Ok(())
    }

    /// Sum-allreduce of one f64 (folded in rank order — the same order
    /// simnet folds, so results are bitwise identical across transports).
    pub fn allreduce_sum(&mut self, v: f64) -> Result<f64, WireError> {
        Ok(self.all_gather(&[v])?.iter().sum())
    }

    /// Max-allreduce of one f64. The fold seeds with `-inf`, not
    /// `f64::MIN`: a finite seed would silently become the answer when
    /// every rank contributes `-inf` (the same bug class `sync_clocks`
    /// fixed on the simulated fabric), and the two transports must agree
    /// bitwise.
    pub fn allreduce_max(&mut self, v: f64) -> Result<f64, WireError> {
        Ok(self
            .all_gather(&[v])?
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max))
    }

    /// Sever only this rank's *outbound* half of the link to `peer`
    /// (subsequent writes toward `peer` fail; reads keep working) — the
    /// test seam for asserting that a dead outbound link is attributed
    /// to the destination, never to whichever rank we were reading from.
    pub fn sever_outbound(&mut self, peer: usize) {
        if let Some(s) = self.peers.get(peer).and_then(Option::as_ref) {
            let _ = s.shutdown(std::net::Shutdown::Write);
        }
    }

    /// Tear the mesh down explicitly (dropping does the same; this makes
    /// the intent visible at call sites and lets tests sever links).
    pub fn shutdown(&mut self) {
        for p in self.peers.iter_mut() {
            if let Some(s) = p.take() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        // Queued self-payloads belong to the aborted run; a rejoin must
        // not replay them into the next epoch.
        self.self_inbox.clear();
    }

    /// Re-wire the mesh for the next job epoch after a peer died: tear
    /// the current mesh down *first* (so peers still blocked on us
    /// observe EOF and fail over promptly — detection cascades instead
    /// of waiting out timeouts), then rejoin the rendezvous claiming
    /// this rank for `epoch + 1`. Returns the fresh control stream;
    /// stats and trace carry over (the trace records the epoch change
    /// via `Trace::rejoin` at the recovery driver's discretion).
    pub fn reconnect(&mut self) -> Result<TcpStream, WireError> {
        if self.rendezvous.is_empty() {
            return Err(WireError::Bootstrap(
                "mesh was built without a rendezvous address; cannot reconnect".into(),
            ));
        }
        self.shutdown();
        let next = self.epoch + 1;
        let boot = Bootstrap::rejoin(&self.rendezvous, self.rank, next, self.cfg)?;
        debug_assert_eq!(boot.size, self.size);
        self.peers = boot.peers;
        self.epoch = next;
        Ok(boot.control)
    }
}

impl Drop for WireComm {
    fn drop(&mut self) {
        self.shutdown();
    }
}
