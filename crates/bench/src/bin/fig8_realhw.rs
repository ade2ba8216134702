//! fig8 — real-hardware microbenchmark of the lock registry.
//!
//! Runs every `kernels::locks::all_locks()` kernel — the algorithms fig1–fig7
//! simulate, in the same order — on OS threads through
//! `workloads::realhw::RealCtx`, with wall-clock time. **Caveat recorded in
//! EXPERIMENTS.md:** with fewer host cores than threads, contended
//! throughput measures scheduler hand-off, not coherence traffic; the
//! simulator figures (fig1–fig3) own the scaling claims. Uncontended
//! latency is meaningful on any host.
//!
//! ```text
//! cargo run -p bench --release --bin fig8_realhw [-- --csv]
//! ```

fn main() {
    bench::figures::run_main("fig8");
}
