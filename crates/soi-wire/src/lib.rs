//! `soi-wire`: a real multi-process transport for the SOI FFT.
//!
//! Everything before this crate ran the distributed algorithm inside one
//! process — `soi-simnet` gives ranks as threads, channels as links, and
//! a virtual clock for time. The paper's headline claim is about a real
//! network, though: one all-to-all instead of three, because the exchange
//! dominates at scale. This crate is the transport that lets the same
//! `DistSoiFft` code run with every byte crossing the kernel's TCP stack:
//!
//! * [`bootstrap`] — how P anonymous processes become ranks `0..P`: a
//!   rendezvous listener assigns ranks in arrival order and hands out the
//!   peer address table; workers then wire a full mesh (connect down,
//!   accept up), every step deadline-bounded.
//! * [`frame`] — `[tag u8][len u64 LE][payload]` framing with a hard
//!   length cap; [`pod`] — explicit little-endian element codecs that
//!   round-trip `f64` bit-exactly (the cross-transport bitwise
//!   equivalence tests lean on this).
//! * [`comm::WireComm`] — the communicator: point-to-point send/recv,
//!   deadlock-free paired exchange (writer thread vs. finite TCP
//!   buffers), the pairwise-exchange `all_to_all` (whole or segment by
//!   segment), barrier and allreduce, all with per-operation deadlines and
//!   [`WireError::PeerLost`]/[`WireError::Timeout`] instead of hangs. The
//!   trace conventions match `RankComm`, so `TraceSet::validate`'s
//!   conservation checks run unchanged on real captured traffic
//!   (`t_virt` is `None`: there is no virtual clock on a real network).
//! * [`loopback`] — an in-process harness (ranks as threads, payloads
//!   over real localhost sockets) used by the equivalence and
//!   kill-one-rank tests here and in `soi-dist`.
//! * [`service`] — the listener side for long-lived daemons
//!   (`soi serve`): framed connections with idle deadlines (a stalled
//!   client is a `Timeout`, a dead one a `PeerLost` — never a pinned
//!   reader thread), a locked cloneable writer half, and a shutdown
//!   token that wakes a blocking accept.
//!
//! The crate is std-only, like everything else in the workspace.

pub mod bootstrap;
pub mod comm;
pub mod error;
pub mod frame;
pub mod loopback;
pub mod pod;
pub mod service;

pub use bootstrap::{connect_with_backoff, Bootstrap, Rendezvous, WireConfig};
pub use comm::{WireComm, WireStats};
pub use error::WireError;
pub use loopback::{loopback_mesh, run_loopback};
pub use pod::{decode_slice, encode_slice, Pod};
pub use service::{ServiceConn, ServiceListener, ServiceWriter, ShutdownToken};
