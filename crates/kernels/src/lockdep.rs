//! Lockdep-style lock-order analysis.
//!
//! A deadlock needs a cycle in the wait-for graph, and a *potential*
//! deadlock needs only a cycle in the **acquisition-order graph**: if some
//! execution acquires lock B while holding A, and any execution (same run
//! or not) acquires A while holding B, an interleaving exists that
//! deadlocks — even if no test schedule ever exhibits it. This is the
//! observation behind the Linux kernel's lockdep, reproduced here for the
//! checker substrate (cf. the deadlock taxonomy in arXiv:2409.11271).
//!
//! [`LockOrderGraph`] accumulates `held → acquired` edges **across runs,
//! workloads and tests** — one graph can be threaded through every program
//! a test suite explores — and reports every cycle at the moment the
//! closing edge is inserted. [`InstrumentedLock`] wraps any [`LockKernel`]
//! and reports acquisition lifecycle through [`ProcCtx::lock_event`]; the
//! interleave checker turns those events into `record_acquire` calls with
//! the per-thread held set it tracks.
//!
//! ```
//! use kernels::lockdep::LockOrderGraph;
//!
//! let graph = LockOrderGraph::new();
//! let a = graph.register("A");
//! let b = graph.register("B");
//! graph.record_acquire(0, &[a], b); // thread 0: B while holding A
//! graph.record_acquire(1, &[b], a); // thread 1: A while holding B
//! assert_eq!(graph.cycles().len(), 1, "AB/BA inversion must be flagged");
//! ```

use crate::layout::Region;
use crate::locks::LockKernel;
use crate::{Addr, Word};
use crate::{LockEvent, ProcCtx};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Who inserted an acquisition-order edge (first witness wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeWitness {
    /// Thread (pid) that performed the acquisition.
    pub thread: usize,
}

/// One lock-order cycle: `chain[0] → chain[1] → … → chain[0]`, each arrow
/// an observed "acquired right while holding left" edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    /// The lock ids around the cycle, starting at the lock whose edge
    /// closed it.
    pub chain: Vec<usize>,
}

#[derive(Debug, Default)]
struct Inner {
    names: Vec<String>,
    /// `held → acquired`, with the first witness that created the edge.
    edges: BTreeMap<(usize, usize), EdgeWitness>,
    cycles: Vec<CycleReport>,
}

impl Inner {
    /// Is `to` reachable from `from` over recorded edges?  Returns the
    /// path (excluding `from`) if so.
    fn path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        let mut stack = vec![(from, vec![])];
        let mut seen = vec![false; self.names.len()];
        while let Some((node, path)) = stack.pop() {
            if node == to {
                return Some(path);
            }
            if seen[node] {
                continue;
            }
            seen[node] = true;
            for (&(a, b), _) in self.edges.range((node, 0)..=(node, usize::MAX)) {
                debug_assert_eq!(a, node);
                let mut p = path.clone();
                p.push(b);
                stack.push((b, p));
            }
        }
        None
    }
}

/// The cross-run acquisition-order graph. Thread-safe; share one instance
/// (behind an `Arc`) across every workload whose lock usage should be
/// checked against each other.
#[derive(Debug, Default)]
pub struct LockOrderGraph {
    inner: Mutex<Inner>,
}

impl LockOrderGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        LockOrderGraph::default()
    }

    /// Registers a lock, returning its id. Register each distinct lock
    /// instance once and reuse the id everywhere it is acquired.
    pub fn register(&self, name: &str) -> usize {
        let mut g = self.inner.lock().unwrap();
        g.names.push(name.to_string());
        g.names.len() - 1
    }

    /// Number of registered locks.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().names.len()
    }

    /// True when no lock has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records that `thread` acquired `lock` while holding `held`,
    /// inserting one edge per held lock. Every edge that closes a cycle
    /// appends a [`CycleReport`]; recording continues (all cycles in a
    /// suite are wanted, not just the first).
    pub fn record_acquire(&self, thread: usize, held: &[usize], lock: usize) {
        let mut g = self.inner.lock().unwrap();
        for &h in held {
            if h == lock || g.edges.contains_key(&(h, lock)) {
                continue;
            }
            // A pre-existing path lock →* h plus the new edge h → lock
            // is a cycle; capture it before inserting.
            if let Some(path) = g.path(lock, h) {
                let mut chain = vec![lock];
                chain.extend(path);
                g.cycles.push(CycleReport { chain });
            }
            g.edges.insert((h, lock), EdgeWitness { thread });
        }
    }

    /// All recorded edges as `(held, acquired, witness)`.
    pub fn edges(&self) -> Vec<(usize, usize, EdgeWitness)> {
        let g = self.inner.lock().unwrap();
        g.edges.iter().map(|(&(a, b), &w)| (a, b, w)).collect()
    }

    /// All cycles found so far, in discovery order.
    pub fn cycles(&self) -> Vec<CycleReport> {
        self.inner.lock().unwrap().cycles.clone()
    }

    /// The registered name of a lock id.
    pub fn name(&self, id: usize) -> String {
        self.inner.lock().unwrap().names[id].clone()
    }

    /// Renders a cycle as `A -> B -> A` with registered names.
    pub fn render_cycle(&self, cycle: &CycleReport) -> String {
        let g = self.inner.lock().unwrap();
        let mut s = String::new();
        for &id in cycle.chain.iter().chain(cycle.chain.first()) {
            if !s.is_empty() {
                s.push_str(" -> ");
            }
            s.push_str(&g.names[id]);
        }
        s
    }

    /// Panics with every cycle rendered if any lock-order inversion was
    /// recorded — the assertion a clean suite ends with.
    pub fn assert_acyclic(&self, what: &str) {
        let cycles = self.cycles();
        if !cycles.is_empty() {
            let rendered: Vec<String> = cycles.iter().map(|c| self.render_cycle(c)).collect();
            panic!("{what}: lock-order cycles (potential deadlocks): {rendered:?}");
        }
    }
}

/// A [`LockKernel`] wrapper that reports its acquisition lifecycle through
/// [`ProcCtx::lock_event`] under a stable lock id, enabling lock-order and
/// bounded-bypass analyses on any substrate that listens.
#[derive(Debug, Clone)]
pub struct InstrumentedLock<L> {
    inner: L,
    id: usize,
}

impl<L: LockKernel> InstrumentedLock<L> {
    /// Wraps `inner` under lock id `id` (from [`LockOrderGraph::register`],
    /// or any caller-stable numbering).
    pub fn new(inner: L, id: usize) -> Self {
        InstrumentedLock { inner, id }
    }
}

impl<L: LockKernel> LockKernel for InstrumentedLock<L> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn lines_needed(&self, nprocs: usize) -> usize {
        self.inner.lines_needed(nprocs)
    }
    fn init(&self, nprocs: usize, region: &Region) -> Vec<(Addr, Word)> {
        self.inner.init(nprocs, region)
    }
    fn proc_init(&self, pid: usize, region: &Region) -> u64 {
        self.inner.proc_init(pid, region)
    }
    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64) -> u64 {
        ctx.lock_event(LockEvent::AcquireStart(self.id));
        let token = self.inner.acquire(ctx, region, ps);
        ctx.lock_event(LockEvent::Acquired(self.id));
        token
    }
    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64, token: u64) {
        self.inner.release(ctx, region, ps, token);
        ctx.lock_event(LockEvent::Released(self.id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::tas::TasLock;
    use crate::testutil::SeqCtx;

    #[test]
    fn straight_order_is_acyclic() {
        let g = LockOrderGraph::new();
        let a = g.register("A");
        let b = g.register("B");
        let c = g.register("C");
        g.record_acquire(0, &[], a);
        g.record_acquire(0, &[a], b);
        g.record_acquire(0, &[a, b], c);
        g.record_acquire(1, &[a], c);
        assert!(g.cycles().is_empty());
        g.assert_acyclic("ordered");
        // a→b, a→c, b→c; the second a-then-c acquisition dedups.
        assert_eq!(g.edges().len(), 3);
    }

    #[test]
    fn ab_ba_inversion_is_one_cycle() {
        let g = LockOrderGraph::new();
        let a = g.register("A");
        let b = g.register("B");
        g.record_acquire(0, &[a], b);
        g.record_acquire(1, &[b], a);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        let rendered = g.render_cycle(&cycles[0]);
        assert!(
            rendered == "A -> B -> A" || rendered == "B -> A -> B",
            "{rendered}"
        );
    }

    #[test]
    fn transitive_cycle_across_threads_and_runs() {
        // No single thread inverts a pair, but the composition A→B, B→C,
        // C→A — possibly observed in three different tests — cycles.
        let g = LockOrderGraph::new();
        let a = g.register("A");
        let b = g.register("B");
        let c = g.register("C");
        g.record_acquire(0, &[a], b);
        g.record_acquire(1, &[b], c);
        assert!(g.cycles().is_empty());
        g.record_acquire(2, &[c], a);
        assert_eq!(g.cycles().len(), 1);
        assert_eq!(g.cycles()[0].chain.len(), 3);
    }

    #[test]
    fn duplicate_edges_do_not_duplicate_cycles() {
        let g = LockOrderGraph::new();
        let a = g.register("A");
        let b = g.register("B");
        g.record_acquire(0, &[a], b);
        g.record_acquire(0, &[a], b);
        g.record_acquire(1, &[b], a);
        g.record_acquire(1, &[b], a);
        assert_eq!(g.cycles().len(), 1);
    }

    #[test]
    #[should_panic(expected = "lock-order cycles")]
    fn assert_acyclic_panics_on_inversion() {
        let g = LockOrderGraph::new();
        let a = g.register("A");
        let b = g.register("B");
        g.record_acquire(0, &[a], b);
        g.record_acquire(1, &[b], a);
        g.assert_acyclic("inverted");
    }

    #[test]
    fn instrumented_lock_delegates_and_emits() {
        let lock = InstrumentedLock::new(TasLock, 7);
        let region = Region::new(0, 8, lock.lines_needed(1));
        let mut ctx = SeqCtx::new(1, region.words());
        let mut ps = 0;
        let token = lock.acquire(&mut ctx, &region, &mut ps);
        lock.release(&mut ctx, &region, &mut ps, token);
        assert_eq!(
            ctx.events,
            vec![
                LockEvent::AcquireStart(7),
                LockEvent::Acquired(7),
                LockEvent::Released(7)
            ]
        );
        assert_eq!(lock.name(), "tas");
    }
}
