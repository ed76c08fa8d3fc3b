//! In-tree test and bench substrate for the SOI workspace.
//!
//! The workspace builds and tests **offline with zero registry
//! dependencies**; this crate supplies the three pieces that external
//! crates used to provide:
//!
//! * [`rng`] — a deterministic, seedable PRNG (SplitMix64 seeding feeding
//!   a xoshiro256\*\* generator) with `f64`/range/complex-vector helpers.
//!   Replaces `rand` everywhere signals or cases are generated.
//! * [`prop`] — a minimal property-test harness: seeded case generation,
//!   configurable iteration counts, failing-seed reporting (with an env
//!   var to replay exactly one case), and optional input shrinking.
//!   Replaces `proptest`.
//! * [`bench`](mod@bench) — a lightweight bench runner: warmup, iteration
//!   calibration, median-of-K timing, human-readable and JSON-line
//!   output. Replaces `criterion` in the harness-free benches.
//! * [`faults`] — a kill-one-rank scaffold shared by the transport and
//!   FFT-layer fault suites: drop a communicator, run the survivors on
//!   threads, assert they all fail within a deadline.
//!
//! Everything is deterministic by construction: the default property seed
//! is a fixed constant, so two consecutive `cargo test` runs exercise
//! identical RNG streams. Override with `SOI_TESTKIT_SEED` (new stream)
//! or `SOI_TESTKIT_REPLAY` (re-run exactly one reported failing case).

pub mod bench;
pub mod faults;
pub mod prop;
pub mod rng;

pub use bench::{black_box, BenchStats, Bencher};
pub use faults::{kill_and_run, KillOutcome};
pub use prop::{check, forall, PropConfig};
pub use rng::TestRng;
