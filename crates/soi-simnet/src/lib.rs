//! A simulated distributed-memory machine.
//!
//! The paper evaluates on 32–64-node InfiniBand clusters; this crate is the
//! substitute substrate (DESIGN.md §2): every MPI rank becomes an OS thread
//! with a private address space, and every collective really moves the
//! bytes through channels — so the *algorithmic* communication structure
//! (what is sent where, and how many global exchanges happen) is executed
//! and testable, not merely modeled.
//!
//! Time, however, is virtual. Each rank carries a clock
//! ([`clock::VirtualClock`]); compute is charged explicitly by the
//! algorithms (from wall measurements or a calibrated cost book), and each
//! collective charges wire time from a [`netmodel::Fabric`] — the same
//! per-node-link / bisection-bandwidth model the paper itself uses in §7.4
//! to analyze and project performance (footnote 7: torus bisection
//! bandwidth `4n/k`).
//!
//! * [`cluster`] — spawn `P` ranks, run a closure per rank, gather results
//!   and per-rank reports.
//! * [`comm`] — the per-rank communicator: the halo exchange, the
//!   all-to-all (whole or segment by segment), barrier and allreduce, plus
//!   the buffered point-to-point send/recv they are built from; byte and
//!   message accounting per operation class.
//! * [`netmodel`] — fabric performance models: two-level fat tree
//!   (Endeavor), k-ary 3-D torus with concentration 16 (Gordon), 10 GbE,
//!   and an ideal zero-time fabric for pure correctness runs.
//! * [`systems`] — the Table 1 machine presets.

pub mod clock;
pub mod cluster;
pub mod comm;
pub mod netmodel;
pub mod systems;

pub use cluster::{Cluster, RankReport};
pub use comm::{CommStats, RankComm, SimCommError};
pub use netmodel::Fabric;
pub use systems::SystemConfig;
