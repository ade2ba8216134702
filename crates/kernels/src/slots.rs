//! The lock service's slot lifecycle on simulated words: `service`'s
//! [`protocol::slot_attach`] and [`protocol::slot_detach`] over a small
//! direct-mapped array, which memsim and the checker run as shipped, the
//! way the [`crate::locks::qsm`] kernel runs the service's QSM queue. The
//! service's keyed mutex request, [`protocol::keyed_lock`] and
//! [`protocol::keyed_unlock`], runs on it unchanged.
//!
//! The array is one shard. Its critical section is the service mutex's
//! protocol ([`protocol::lock`] and [`protocol::unlock`]) on a word of its
//! own. Each slot is two words: a tenant word, the bound key plus one in
//! the high half and the reference count in the low half (0 while the
//! slot is free), and the word the key's primitive uses. A key lives only
//! in slot `key % slots`, so an attach that finds another key there parks
//! on that slot's tenant word, and freeing the slot wakes every attacher
//! parked there. A critical section reads the tenant word once and keeps
//! it, as a register would.

use crate::layout::Region;
use crate::{Addr, SyncCtx, Word};
use service::protocol::{self, SlotMap, FREE};

/// A direct-mapped slot array in a [`Region`]: line 0 the critical
/// section's mutex word, line `1 + i` slot `i`'s tenant word and word. Keys
/// are below `u32::MAX`.
#[derive(Debug, Clone, Copy)]
pub struct SlotArray {
    region: Region,
}

const REFS: Word = u32::MAX as Word;

impl SlotArray {
    const TENANT: usize = 0;
    const WORD: usize = 1;

    /// Lines an array of `slots` slots takes.
    pub fn lines(slots: usize) -> usize {
        1 + slots
    }

    /// The array laid out in `region`, one slot per line past the first.
    pub fn new(region: Region) -> Self {
        assert!(region.lines() >= 2, "a slot array needs at least one slot");
        SlotArray { region }
    }

    fn slots(&self) -> Word {
        self.region.lines() as Word - 1
    }

    fn home(&self, key: Word) -> u32 {
        (key % self.slots()) as u32
    }

    fn at(&self, slot: u32, field: usize) -> Addr {
        self.region.slot_word(1 + slot as usize, field)
    }

    /// Every slot's words when the keys `live` lists as `(key, refs, word)`
    /// are attached and the rest of the slots are free.
    pub fn image(&self, live: &[(Word, Word, Word)]) -> Vec<(Addr, Word)> {
        let mut image: Vec<(Addr, Word)> = (0..self.slots() as u32)
            .flat_map(|slot| {
                [
                    (self.at(slot, Self::TENANT), 0),
                    (self.at(slot, Self::WORD), 0),
                ]
            })
            .collect();
        for &(key, refs, word) in live {
            let slot = self.home(key) as usize;
            image[2 * slot].1 = (key + 1) << 32 | refs;
            image[2 * slot + 1].1 = word;
        }
        image
    }

    /// Final-state check: the mutex word free, and every slot as
    /// [`SlotArray::image`] of `live` has it.
    pub fn holds(&self, mem: &[Word], live: &[(Word, Word, Word)]) -> Result<(), String> {
        if mem[self.region.slot(0)] != FREE {
            return Err("the slot array's mutex is still held".into());
        }
        match self.image(live).into_iter().find(|&(a, v)| mem[a] != v) {
            Some((a, v)) => Err(format!("slot word {a} holds {:#x}, not {v:#x}", mem[a])),
            None => Ok(()),
        }
    }

    /// The tenant word of `slot`, the key's home, read once per critical
    /// section.
    fn tenant<C: SyncCtx>(&self, c: &mut C, held: &mut Option<Word>, slot: u32) -> Word {
        *held.get_or_insert_with(|| c.load(self.at(slot, Self::TENANT)))
    }

    fn set_tenant<C: SyncCtx>(&self, c: &mut C, held: &mut Option<Word>, slot: u32, t: Word) {
        c.store(self.at(slot, Self::TENANT), t);
        *held = Some(t);
    }
}

impl<C: SyncCtx> SlotMap<Addr, C> for SlotArray {
    /// The key's home slot's tenant word, once read.
    type Shard = Option<Word>;
    fn with_shard<R>(&self, c: &mut C, f: impl FnOnce(&mut C, &mut Option<Word>) -> R) -> R {
        let lock = self.region.slot(0);
        protocol::lock(c, lock, || ());
        let r = f(c, &mut None);
        protocol::unlock(c, lock);
        r
    }
    fn lookup(&self, c: &mut C, s: &mut Option<Word>, key: Word) -> Option<u32> {
        let slot = self.home(key);
        (self.tenant(c, s, slot) >> 32 == key + 1).then_some(slot)
    }
    fn insert(&self, c: &mut C, s: &mut Option<Word>, key: Word, slot: u32) {
        self.set_tenant(c, s, slot, (key + 1) << 32);
    }
    fn remove(&self, c: &mut C, s: &mut Option<Word>, key: Word) {
        self.set_tenant(c, s, self.home(key), 0);
    }
    fn allocate(&self, c: &mut C, s: &mut Option<Word>, key: Word) -> Result<u32, (Addr, Word)> {
        let slot = self.home(key);
        match self.tenant(c, s, slot) {
            0 => Ok(slot),
            other => Err((self.at(slot, Self::TENANT), other)),
        }
    }
    fn free(&self, c: &mut C, _: &mut Option<Word>, slot: u32) {
        c.wake(self.at(slot, Self::TENANT), usize::MAX);
    }
    fn refs(&self, c: &mut C, s: &mut Option<Word>, slot: u32) -> Word {
        self.tenant(c, s, slot) & REFS
    }
    fn set_refs(&self, c: &mut C, s: &mut Option<Word>, slot: u32, refs: Word) {
        let key = self.tenant(c, s, slot) & !REFS;
        self.set_tenant(c, s, slot, key | refs);
    }
    fn word(&self, _: &Option<Word>, slot: u32) -> Addr {
        self.at(slot, Self::WORD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::SeqCtx;

    #[test]
    fn attach_binds_counts_and_detach_resets() {
        let slots = SlotArray::new(Region::new(0, 4, SlotArray::lines(2)));
        let mut c = SeqCtx::new(1, 12);
        let w = protocol::slot_attach(&mut c, &slots, 5);
        c.store(w, 9);
        assert_eq!(protocol::slot_attach(&mut c, &slots, 5), w);
        assert!(!protocol::slot_detach(&mut c, &slots, 5));
        assert_eq!(c.mem[w], 9, "a reference keeps the word");
        assert!(protocol::slot_detach(&mut c, &slots, 5));
        assert_eq!(slots.holds(&c.mem, &[]), Ok(()));
        // The keyed request: a free key's word taken HELD by the fast path,
        // then released and its slot recycled.
        let (w, contended) = protocol::keyed_lock(&mut c, &slots, 5, || panic!("contended"));
        assert!(contended.is_none());
        assert_eq!(c.mem[w], protocol::HELD);
        assert!(protocol::keyed_unlock(&mut c, &slots, 5, w));
        assert_eq!(slots.holds(&c.mem, &[]), Ok(()));
    }
}
