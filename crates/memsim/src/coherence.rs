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
//! Each private cache is fully associative with exact LRU replacement,
//! bounded by [`MachineParams::cache_lines`](crate::MachineParams). What a
//! cache adds to the directory row is therefore only *when* it last used
//! each line: one `P × lines` array of ticks, and a resident count per
//! processor so a fill knows whether it must evict without counting bits.
//!
//! The table is sized once, from the image the run starts with
//! (`lines = words.div_ceil(line_words)`), and never grows: the engine
//! rejects an address outside the image before it gets here. Memory is
//! `lines × 32 B` of directory plus `P × lines × 8 B` of ticks — 416 KiB of
//! ticks at the largest `P × lines` a figure binary reaches, 64 × 832 in
//! fig5/fig6 — where the maps this replaces were bounded by
//! `P × cache_lines` entries whatever the image.

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

/// The processors in a presence mask, ascending.
fn pids(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let p = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            p
        })
    })
}

/// All private caches and the directory over a fixed range of lines.
#[derive(Debug, Clone)]
pub(crate) struct Coherence {
    /// Lines each private cache can hold.
    capacity: usize,
    /// One entry per line of the memory image.
    dir: Vec<DirEntry>,
    /// `last_use[pid * lines + line]`: the tick of `pid`'s latest access to
    /// `line`. Meaningful only while `pid`'s presence bit is set.
    last_use: Vec<u64>,
    /// Lines resident in each processor's cache (its set presence bits).
    resident: Vec<usize>,
    /// Access counter; every access takes a fresh tick, so ticks order one
    /// processor's uses exactly.
    tick: u64,
}

impl Coherence {
    /// Empty caches of `capacity` lines for `nprocs` processors over a
    /// memory image of `lines` lines.
    pub(crate) fn new(nprocs: usize, lines: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        assert!(nprocs <= 128, "presence masks hold 128 processors");
        Coherence {
            capacity,
            dir: vec![DirEntry::default(); lines],
            last_use: vec![0; nprocs * lines],
            resident: vec![0; nprocs],
            tick: 0,
        }
    }

    /// State of `line` in `pid`'s cache, if present. Does not touch LRU order.
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

    /// Marks `line` as used now by `pid` (a hit, or the fill after a miss).
    pub(crate) fn touch(&mut self, pid: usize, line: usize) {
        self.tick += 1;
        let lines = self.dir.len();
        self.last_use[pid * lines + line] = self.tick;
    }

    /// `pid` fetches `line` to read it: a Modified copy elsewhere is
    /// downgraded to Shared (not invalidated) and `pid` joins the sharers.
    /// Returns whether making room wrote back a dirty line.
    pub(crate) fn share(&mut self, pid: usize, line: usize) -> bool {
        debug_assert!(
            self.state(pid, line).is_none(),
            "a read miss fills an absent line"
        );
        let wrote_back = self.make_room(pid);
        let e = &mut self.dir[line];
        e.owner = None;
        e.sharers |= 1 << pid;
        self.resident[pid] += 1;
        self.touch(pid, line);
        wrote_back
    }

    /// `pid` takes `line` Modified, invalidating every other copy. Returns
    /// how many copies that was, and whether making room (only when `pid`
    /// did not hold the line already) wrote back a dirty line.
    pub(crate) fn own(&mut self, pid: usize, line: usize) -> (u64, bool) {
        let bit = 1 << pid;
        let e = self.dir[line];
        let victims = e.sharers & !bit;
        for v in pids(victims) {
            self.resident[v] -= 1;
        }
        let mut wrote_back = false;
        if e.sharers & bit == 0 {
            wrote_back = self.make_room(pid);
            self.resident[pid] += 1;
        }
        self.dir[line] = DirEntry {
            sharers: bit,
            owner: Some(pid),
        };
        self.touch(pid, line);
        (u64::from(victims.count_ones()), wrote_back)
    }

    /// Before a fill: if `pid`'s cache is full, evicts its least recently
    /// used line. Returns whether the victim was dirty (a write-back).
    fn make_room(&mut self, pid: usize) -> bool {
        if self.resident[pid] < self.capacity {
            return false;
        }
        let (bit, lines) = (1 << pid, self.dir.len());
        let uses = &self.last_use[pid * lines..][..lines];
        let victim = (0..lines)
            .filter(|&line| self.dir[line].sharers & bit != 0)
            .min_by_key(|&line| uses[line])
            .expect("a full cache holds a line");
        let e = &mut self.dir[victim];
        let dirty = e.owner == Some(pid);
        e.sharers &= !bit;
        e.owner = None;
        self.resident[pid] -= 1;
        dirty
    }

    /// Debug builds, after every access: an owner is the sole sharer, every
    /// resident count is its processor's presence bits, and no cache is
    /// over capacity.
    pub(crate) fn check_invariants(&self) {
        let mut held = vec![0; self.resident.len()];
        for (line, e) in self.dir.iter().enumerate() {
            if let Some(owner) = e.owner {
                assert_eq!(
                    e.sharers,
                    1 << owner,
                    "line {line}: owner p{owner} is not the sole sharer"
                );
            }
            for p in pids(e.sharers) {
                held[p] += 1;
            }
        }
        assert_eq!(
            held, self.resident,
            "resident counts out of step with presence bits"
        );
        assert!(
            self.resident.iter().all(|&n| n <= self.capacity),
            "a cache is over capacity"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LineState::{Modified, Shared};

    /// `nprocs` caches of `capacity` lines over 16 lines.
    fn table(nprocs: usize, capacity: usize) -> Coherence {
        Coherence::new(nprocs, 16, capacity)
    }

    /// A line's presence mask and owner.
    fn row(c: &Coherence, line: usize) -> (u128, Option<usize>) {
        (c.dir[line].sharers, c.dir[line].owner)
    }

    #[test]
    fn readers_accumulate_without_an_owner() {
        let mut c = table(2, 4);
        assert_eq!(c.state(0, 1), None);
        assert!(!c.share(0, 1));
        assert!(!c.share(1, 1));
        assert_eq!(row(&c, 1), (0b11, None));
        assert_eq!((c.state(0, 1), c.state(1, 1)), (Some(Shared), Some(Shared)));
        c.check_invariants();
    }

    #[test]
    fn a_writer_invalidates_every_other_copy() {
        let mut c = table(3, 4);
        for pid in 0..3 {
            c.share(pid, 1);
        }
        assert_eq!(c.own(1, 1), (2, false));
        assert_eq!(row(&c, 1), (0b010, Some(1)));
        assert_eq!(c.state(1, 1), Some(Modified));
        assert_eq!((c.state(0, 1), c.state(2, 1)), (None, None));
        // Already the owner, or the sole sharer: nobody to invalidate.
        assert_eq!(c.own(1, 1), (0, false));
        c.share(2, 5);
        assert_eq!(c.own(2, 5), (0, false));
        c.check_invariants();
    }

    #[test]
    fn a_reader_downgrades_the_owner() {
        let mut c = table(2, 4);
        c.own(0, 1);
        c.share(1, 1);
        assert_eq!(row(&c, 1), (0b11, None));
        assert_eq!(c.state(0, 1), Some(Shared));
        c.check_invariants();
    }

    #[test]
    fn a_full_cache_evicts_its_least_recently_used_line() {
        let mut c = table(2, 2);
        c.share(0, 1);
        c.share(0, 2);
        c.share(1, 2);
        c.touch(0, 1); // 2 is now p0's LRU
        assert!(!c.share(0, 3), "a clean victim is not written back");
        assert_eq!(
            (c.state(0, 1), c.state(0, 2), c.state(0, 3)),
            (Some(Shared), None, Some(Shared))
        );
        // Only p0's copy went.
        assert_eq!(row(&c, 2), (0b10, None));
        c.check_invariants();
    }

    #[test]
    fn a_dirty_victim_is_written_back() {
        let mut c = table(1, 1);
        c.own(0, 1);
        assert!(c.share(0, 2));
        assert_eq!(row(&c, 1), (0, None));
        assert_eq!(c.own(0, 3), (0, false), "the Shared victim was clean");
        c.check_invariants();
    }

    #[test]
    fn an_upgrade_in_place_does_not_evict() {
        let mut c = table(1, 1);
        c.share(0, 1);
        assert_eq!(c.own(0, 1), (0, false));
        assert_eq!(c.state(0, 1), Some(Modified));
        c.check_invariants();
    }

    #[test]
    fn an_invalidation_frees_the_victims_slot() {
        let mut c = table(2, 1);
        c.share(0, 1);
        c.own(1, 1);
        // p0's only slot is free again: filling it evicts nothing.
        assert!(!c.share(0, 2));
        assert_eq!(c.state(0, 2), Some(Shared));
        c.check_invariants();
    }

    #[test]
    fn masks_list_their_bits_ascending() {
        assert_eq!(pids(0b1010_0001).collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(pids(1 << 127 | 1).collect::<Vec<_>>(), vec![0, 127]);
        assert_eq!(pids(0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        Coherence::new(1, 16, 0);
    }
}
