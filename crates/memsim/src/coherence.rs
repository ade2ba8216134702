//! The coherence model: every private cache and the directory, one table.
//!
//! A write-invalidate MSI protocol. A processor holds a line `Shared`
//! (clean, possibly replicated) or `Modified` (exclusive, dirty); the
//! Exclusive-clean state of full MESI is deliberately omitted (DESIGN.md
//! §"Key design decisions"). Only *state* is modelled, not data — the
//! engine keeps the single authoritative copy of memory, which is valid
//! because it serializes all accesses and the protocol guarantees a single
//! writer.
//!
//! **The state is stored once.** There is one directory row per line of the
//! run's memory image — a presence bit per processor plus an owner — and a
//! processor's state for a line is *read off that row*: `owner == Some(pid)`
//! is `Modified`, a set presence bit is `Shared`, neither is absent. No
//! per-processor copy exists that could disagree with it. On the bus
//! machine the row plays the role of the snoop results; on the NUMA machine
//! it is a full-map directory. Presence sets are `u128` bitmasks, which is
//! what bounds the simulator at 128 processors.
//!
//! The caches are **unbounded**: a processor keeps every line it has
//! fetched until another processor's write invalidates it, so there is no
//! replacement and no write-back. The working sets the simulator runs —
//! lock words, queue nodes, barrier flags — are a few dozen lines, far
//! below any cache of 1991 (DESIGN.md, "The coherence table").
//!
//! The table is sized once, from the image the run starts with
//! (`lines = words.div_ceil(line_words)`), and never grows: the engine
//! rejects an address outside the image before it gets here. Memory is
//! `lines × 32 B`, whatever the processor count.

/// Coherence state of a line in one processor's private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineState {
    /// Clean copy; other caches may also hold the line.
    Shared,
    /// Exclusive dirty copy; no other cache holds the line.
    Modified,
}

/// What the machine knows about one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct DirEntry {
    /// Presence bitmask: bit `p` set ⇔ processor `p` caches the line.
    sharers: u128,
    /// Exclusive owner, if some cache holds the line Modified; then
    /// `sharers` is exactly the owner's bit.
    owner: Option<usize>,
}

/// All private caches and the directory over a fixed range of lines.
#[derive(Debug, Clone)]
pub(crate) struct Coherence {
    /// One entry per line of the memory image.
    dir: Vec<DirEntry>,
}

impl Coherence {
    /// Empty caches over a memory image of `lines` lines.
    pub(crate) fn new(lines: usize) -> Self {
        Coherence {
            dir: vec![DirEntry::default(); lines],
        }
    }

    /// State of `line` in `pid`'s cache, if present.
    pub(crate) fn state(&self, pid: usize, line: usize) -> Option<LineState> {
        let e = &self.dir[line];
        if e.owner == Some(pid) {
            Some(LineState::Modified)
        } else if e.sharers & (1 << pid) != 0 {
            Some(LineState::Shared)
        } else {
            None
        }
    }

    /// `pid` fetches `line` to read it: a Modified copy elsewhere is
    /// downgraded to Shared (not invalidated) and `pid` joins the sharers.
    pub(crate) fn share(&mut self, pid: usize, line: usize) {
        debug_assert!(
            self.state(pid, line).is_none(),
            "a read miss fills an absent line"
        );
        let e = &mut self.dir[line];
        e.owner = None;
        e.sharers |= 1 << pid;
    }

    /// `pid` takes `line` Modified, invalidating every other copy. Returns
    /// how many copies that was.
    pub(crate) fn own(&mut self, pid: usize, line: usize) -> u64 {
        let bit = 1 << pid;
        let victims = self.dir[line].sharers & !bit;
        self.dir[line] = DirEntry {
            sharers: bit,
            owner: Some(pid),
        };
        u64::from(victims.count_ones())
    }

    /// Debug builds, after every access: an owner is the sole sharer.
    pub(crate) fn check_invariants(&self) {
        for (line, e) in self.dir.iter().enumerate() {
            if let Some(owner) = e.owner {
                assert_eq!(
                    e.sharers,
                    1 << owner,
                    "line {line}: owner p{owner} is not the sole sharer"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LineState::{Modified, Shared};

    /// Caches over 16 lines.
    fn table() -> Coherence {
        Coherence::new(16)
    }

    /// A line's presence mask and owner.
    fn row(c: &Coherence, line: usize) -> (u128, Option<usize>) {
        (c.dir[line].sharers, c.dir[line].owner)
    }

    #[test]
    fn readers_accumulate_without_an_owner() {
        let mut c = table();
        assert_eq!(c.state(0, 1), None);
        c.share(0, 1);
        c.share(1, 1);
        assert_eq!(row(&c, 1), (0b11, None));
        assert_eq!((c.state(0, 1), c.state(1, 1)), (Some(Shared), Some(Shared)));
        c.check_invariants();
    }

    #[test]
    fn a_writer_invalidates_every_other_copy() {
        let mut c = table();
        for pid in 0..3 {
            c.share(pid, 1);
        }
        assert_eq!(c.own(1, 1), 2);
        assert_eq!(row(&c, 1), (0b010, Some(1)));
        assert_eq!(c.state(1, 1), Some(Modified));
        assert_eq!((c.state(0, 1), c.state(2, 1)), (None, None));
        // Already the owner, or the sole sharer: nobody to invalidate.
        assert_eq!(c.own(1, 1), 0);
        c.share(2, 5);
        assert_eq!(c.own(2, 5), 0);
        c.check_invariants();
    }

    #[test]
    fn a_reader_downgrades_the_owner() {
        let mut c = table();
        c.own(0, 1);
        c.share(1, 1);
        assert_eq!(row(&c, 1), (0b11, None));
        assert_eq!(c.state(0, 1), Some(Shared));
        c.check_invariants();
    }

    #[test]
    fn an_upgrade_in_place_does_not_evict() {
        let mut c = table();
        c.share(0, 1);
        assert_eq!(c.own(0, 1), 0);
        assert_eq!(c.state(0, 1), Some(Modified));
        c.check_invariants();
    }
}
