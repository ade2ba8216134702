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
//! **The state is stored once**, in one row per line of the run's memory
//! image: an owner word, then a presence bit per processor in ⌈P / 64⌉
//! words. A processor's state for a line is *read off that row* — the owner
//! is `Modified`, a set presence bit `Shared`, neither absent — so no copy
//! exists that could disagree with it. On the bus machine the row plays the
//! role of the snoop results; on the NUMA machine it is a full-map directory.
//!
//! The table is sized once, from the run's image and processor count, and
//! never grows: the engine faults an address outside the image first. The
//! caches are **unbounded**: a line leaves a cache only when another
//! processor's write invalidates it (DESIGN.md, "The coherence table").

use std::mem::take;

/// Coherence state of a line in one processor's private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineState {
    /// Clean copy; other caches may also hold the line.
    Shared,
    /// Exclusive dirty copy; no other cache holds the line.
    Modified,
}

/// All private caches and the directory over a fixed range of lines.
#[derive(Debug, Clone)]
pub(crate) struct Coherence {
    /// Words per row: the owner word, then the presence words.
    width: usize,
    /// One row per line of the memory image. The owner word is `pid + 1`
    /// while `pid` holds the line Modified, else 0; presence bit `p` is set
    /// ⇔ processor `p` caches the line.
    rows: Vec<u64>,
}

/// Where `pid`'s presence bit sits in a row: the word, and the bit in it.
fn presence(pid: usize) -> (usize, u64) {
    (1 + pid / 64, 1 << (pid % 64))
}

impl Coherence {
    /// Empty caches over `lines` lines, for `nprocs` processors.
    pub(crate) fn new(lines: usize, nprocs: usize) -> Self {
        let width = 1 + nprocs.div_ceil(64);
        let rows = vec![0; lines * width];
        Coherence { width, rows }
    }

    /// State of `line` in `pid`'s cache, if present.
    pub(crate) fn state(&self, pid: usize, line: usize) -> Option<LineState> {
        let (row, (word, bit)) = (line * self.width, presence(pid));
        if self.rows[row] == pid as u64 + 1 {
            Some(LineState::Modified)
        } else if self.rows[row + word] & bit != 0 {
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
        let (row, (word, bit)) = (line * self.width, presence(pid));
        self.rows[row] = 0;
        self.rows[row + word] |= bit;
    }

    /// `pid` takes `line` Modified, invalidating every other copy. Returns
    /// how many copies that was. Out of line, so that a hit in the engine's
    /// `access` does not pay for this loop's registers.
    #[inline(never)]
    pub(crate) fn own(&mut self, pid: usize, line: usize) -> u64 {
        let (word, bit) = presence(pid);
        let row = &mut self.rows[line * self.width..][..self.width];
        let mine = u32::from(row[word] & bit != 0);
        let copies: u32 = row[1..].iter_mut().map(|w| take(w).count_ones()).sum();
        row[0] = pid as u64 + 1;
        row[word] = bit;
        u64::from(copies - mine)
    }

    /// Debug builds, after every access to `line`: its owner is its sole
    /// sharer. An access changes no other row, so the table stays checked.
    pub(crate) fn check_line(&self, line: usize) {
        let row = &self.rows[line * self.width..][..self.width];
        if let Some(o) = (row[0] as usize).checked_sub(1) {
            let (word, bit) = presence(o);
            let sole = row[word] == bit && row[1..].iter().filter(|&&w| w != 0).count() == 1;
            assert!(sole, "line {line}: owner p{o} is not the sole sharer");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LineState::{Modified, Shared};

    /// A line's sharers and owner.
    fn row(c: &Coherence, line: usize) -> (Vec<usize>, Option<usize>) {
        let row = &c.rows[line * c.width..][..c.width];
        let present = |&p: &usize| row[presence(p).0] & presence(p).1 != 0;
        let sharers = (0..64 * (c.width - 1)).filter(present).collect();
        (sharers, (row[0] as usize).checked_sub(1))
    }

    #[test]
    fn readers_accumulate_without_an_owner() {
        let mut c = Coherence::new(16, 4);
        assert_eq!(c.state(0, 1), None);
        c.share(0, 1);
        c.share(1, 1);
        assert_eq!(row(&c, 1), (vec![0, 1], None));
        assert_eq!((c.state(0, 1), c.state(1, 1)), (Some(Shared), Some(Shared)));
        c.check_line(1);
    }

    #[test]
    fn a_writer_invalidates_every_other_copy() {
        let mut c = Coherence::new(16, 4);
        for pid in 0..3 {
            c.share(pid, 1);
        }
        assert_eq!(c.own(1, 1), 2);
        assert_eq!(row(&c, 1), (vec![1], Some(1)));
        assert_eq!(c.state(1, 1), Some(Modified));
        assert_eq!((c.state(0, 1), c.state(2, 1)), (None, None));
        // Already the owner, or the sole sharer: nobody to invalidate.
        assert_eq!(c.own(1, 1), 0);
        c.share(2, 5);
        assert_eq!(c.own(2, 5), 0);
        c.check_line(1);
        c.check_line(5);
        // Three presence words: the writer's bit in the middle one is no victim.
        let mut c = Coherence::new(16, 131);
        for pid in [0, 63, 64, 130] {
            c.share(pid, 1);
        }
        assert_eq!(c.own(64, 1), 3);
        assert_eq!(row(&c, 1), (vec![64], Some(64)));
        c.check_line(1);
    }

    #[test]
    fn a_reader_downgrades_the_owner() {
        let mut c = Coherence::new(16, 4);
        c.own(0, 1);
        c.share(1, 1);
        assert_eq!(row(&c, 1), (vec![0, 1], None));
        assert_eq!(c.state(0, 1), Some(Shared));
        c.check_line(1);
    }

    #[test]
    fn an_upgrade_in_place_does_not_evict() {
        let mut c = Coherence::new(16, 4);
        c.share(0, 1);
        assert_eq!(c.own(0, 1), 0);
        assert_eq!(c.state(0, 1), Some(Modified));
        c.check_line(1);
    }
}
