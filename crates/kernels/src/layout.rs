//! Cache-line-granular layout of shared synchronization variables.
//!
//! Every scalable algorithm of the era pads its per-processor spin variables
//! to distinct cache lines (Anderson is explicit about this; MCS nodes and
//! dissemination flags likewise). [`Region`] hands each logical slot its own
//! line so kernels never introduce accidental false sharing, and experiment
//! drivers can size the simulated memory from [`Region::words`].

use crate::Addr;

/// A contiguous run of cache lines assigned to one synchronization object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: Addr,
    line_words: usize,
    lines: usize,
}

impl Region {
    /// Creates a region of `lines` cache lines starting at word `base`
    /// (which should itself be line-aligned; the constructor checks).
    pub fn new(base: Addr, line_words: usize, lines: usize) -> Self {
        assert!(
            line_words.is_power_of_two(),
            "line_words must be a power of two"
        );
        assert_eq!(base % line_words, 0, "region base must be line-aligned");
        Region {
            base,
            line_words,
            lines,
        }
    }

    /// Word address of the start of slot `idx` (one slot = one line).
    pub fn slot(&self, idx: usize) -> Addr {
        assert!(idx < self.lines, "slot {idx} out of {} lines", self.lines);
        self.base + idx * self.line_words
    }

    /// Word address of word `word` within slot `idx`.
    pub fn slot_word(&self, idx: usize, word: usize) -> Addr {
        assert!(word < self.line_words, "word {word} exceeds line size");
        self.slot(idx) + word
    }

    /// Total words covered (for sizing simulated memory).
    pub fn words(&self) -> usize {
        self.lines * self.line_words
    }

    /// Number of line-sized slots.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// End (one past the last word) of the region; the next free address.
    pub fn end(&self) -> Addr {
        self.base + self.words()
    }

    /// A sub-region starting at slot `first` with `lines` slots; used by
    /// composite kernels (e.g. the QSM barrier reuses lock-node slots).
    pub fn sub(&self, first: usize, lines: usize) -> Region {
        assert!(first + lines <= self.lines, "sub-region out of bounds");
        Region {
            base: self.slot(first),
            line_words: self.line_words,
            lines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_line_strided() {
        let r = Region::new(16, 8, 4);
        assert_eq!(r.slot(0), 16);
        assert_eq!(r.slot(1), 24);
        assert_eq!(r.slot(3), 40);
        assert_eq!(r.words(), 32);
        assert_eq!(r.end(), 48);
    }

    #[test]
    fn slot_word_offsets() {
        let r = Region::new(0, 8, 2);
        assert_eq!(r.slot_word(1, 3), 11);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn slot_bounds_checked() {
        Region::new(0, 8, 2).slot(2);
    }

    #[test]
    #[should_panic(expected = "exceeds line size")]
    fn word_bounds_checked() {
        Region::new(0, 8, 2).slot_word(0, 8);
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn misaligned_base_rejected() {
        Region::new(3, 8, 1);
    }

    #[test]
    fn sub_region() {
        let r = Region::new(0, 8, 10);
        let s = r.sub(2, 3);
        assert_eq!(s.slot(0), 16);
        assert_eq!(s.lines(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sub_region_bounds() {
        Region::new(0, 8, 4).sub(3, 2);
    }
}
