//! # simcore — deterministic substrate utilities
//!
//! Shared foundation for every experiment in the `syncmech` reproduction of
//! *"A New Synchronization Mechanism"* (ICPP 1991):
//!
//! * [`rng`] — a small, fully deterministic xoshiro256\*\* PRNG. Experiments must
//!   be reproducible bit-for-bit from a seed, so we own the generator rather than
//!   depending on an external crate whose stream might change between versions.
//! * [`stats`] — running statistics (Welford) and least-squares regression used
//!   to summarize simulator output.
//! * [`table`] — plain-text table rendering, so every figure and table prints
//!   rows in the same format the paper's evaluation section would.
//! * [`series`] — labeled (x, y…) data series: the in-memory representation of a
//!   "figure" before it is rendered.
//! * [`knob`] — the strict reader of `SYNCMECH_BLESS`, the one environment
//!   variable, which only the golden tests read.
//! * [`coro`] — stackful coroutines on x86_64 Linux: how `memsim` runs a
//!   simulated processor's body and `interleave` a checked thread's, many to
//!   one host thread. The workspace's only stack-switching `unsafe`.

pub mod coro;
pub mod knob;
pub mod rng;
pub mod series;
pub mod stats;
pub mod table;

pub use rng::Rng;
pub use series::Series;
pub use stats::{LinearFit, RunningStats};
pub use table::Table;
