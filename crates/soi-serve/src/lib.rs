//! `soi-serve`: a long-lived spectral-transform service.
//!
//! Everything before this crate computes one transform per process
//! launch, paying window design, FFT planning, and workspace allocation
//! every time. This crate keeps those artifacts *resident*: a daemon
//! (`soi serve`) accepts transform requests — full spectra, single
//! segments, zoom bands; complex and real input — from many concurrent
//! clients over `soi-wire` framing, and answers them from cached
//! engines, so in steady state a request costs its transform and
//! nothing else.
//!
//! The moving parts:
//!
//! * [`proto`] — the request/response/reject/stats payloads, explicit
//!   little-endian via `soi-wire`'s pod codecs, so response spectra are
//!   **bitwise identical** to a locally computed
//!   `transform_into`/`transform_real_into` on the same input (the
//!   integration tests and `soi request --check` assert exactly that).
//! * [`server`] — accept/reader threads feeding a bounded admission
//!   queue; one executor draining it in batches, answering in arrival
//!   order through an LRU of prepared [`engine::Engine`]s. Backpressure is a
//!   typed `Overloaded` reject, deadline expiry a typed `Expired` —
//!   never a partial result, never an unbounded queue.
//! * [`engine`] — prepared pipeline + workspace arenas per
//!   `(N, P, digits)` geometry; the digits → window-preset mapping
//!   shared with the CLI.
//! * [`stats`] — per-tenant accounting (requests, bytes, compute time,
//!   shed/expired counts) plus global connection/batch/plan-cache
//!   counters, snapshotted into one STATS frame.
//! * [`client`] — the blocking client handle, with a split mode for the
//!   open-loop latency bench.
//!
//! Like the rest of the workspace, std-only.

pub mod client;
pub mod engine;
pub mod proto;
pub mod server;
pub mod stats;

pub use client::{Reply, ReplyStream, RequestSink, ServeClient};
pub use engine::{preset_for_digits, Engine, EngineCache};
pub use proto::{
    Reject, RejectCode, Request, RequestKind, Response, Samples, StatsSnapshot, TenantStats,
};
pub use server::{ServeConfig, Server};
pub use stats::Registry;
