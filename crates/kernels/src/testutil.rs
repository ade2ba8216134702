//! A single-threaded test double for kernel unit tests.

use crate::{Addr, LockEvent, ProcCtx, SyncCtx, Waited, Word};

/// A trivial single-threaded context over a plain vector, for unit tests
/// of kernel *logic* that do not need concurrency: sequences of
/// acquire/release by one caller, layout arithmetic, and so on. It records
/// the lock events instrumented kernels report.
pub struct SeqCtx {
    pub pid: usize,
    pub nprocs: usize,
    pub mem: Vec<Word>,
    pub delays: u64,
    pub events: Vec<LockEvent>,
}

impl SeqCtx {
    pub fn new(nprocs: usize, words: usize) -> Self {
        SeqCtx {
            pid: 0,
            nprocs,
            mem: vec![0; words],
            delays: 0,
            events: Vec::new(),
        }
    }
}

impl SyncCtx for SeqCtx {
    fn load(&mut self, addr: Addr) -> Word {
        self.mem[addr]
    }
    fn store(&mut self, addr: Addr, val: Word) {
        self.mem[addr] = val;
    }
    fn swap(&mut self, addr: Addr, val: Word) -> Word {
        std::mem::replace(&mut self.mem[addr], val)
    }
    fn cas(&mut self, addr: Addr, expected: Word, new: Word) -> Result<Word, Word> {
        let old = self.mem[addr];
        if old == expected {
            self.mem[addr] = new;
            Ok(old)
        } else {
            Err(old)
        }
    }
    fn fetch_add(&mut self, addr: Addr, delta: Word) -> Word {
        let old = self.mem[addr];
        self.mem[addr] = old.wrapping_add(delta);
        old
    }
    fn wait(&mut self, addr: Addr, expected: Word, _tag: Option<Word>) -> Waited {
        let seen = self.spin_while(addr, expected);
        Waited {
            parked: false,
            seen,
        }
    }
    fn wake(&mut self, _addr: Addr, _n: usize) -> usize {
        0
    }
    fn delay(&mut self, cycles: u64) {
        self.delays += cycles;
    }
}

impl ProcCtx for SeqCtx {
    fn pid(&self) -> usize {
        self.pid
    }
    fn nprocs(&self) -> usize {
        self.nprocs
    }
    fn spin_while(&mut self, addr: Addr, val: Word) -> Word {
        let cur = self.mem[addr];
        assert_ne!(
            cur, val,
            "SeqCtx: single-threaded spin_while(mem[{addr}]=={val}) would hang"
        );
        cur
    }
    fn spin_until(&mut self, addr: Addr, val: Word) {
        assert_eq!(
            self.mem[addr], val,
            "SeqCtx: single-threaded spin_until(mem[{addr}]=={val}) would hang"
        );
    }
    fn lock_event(&mut self, event: LockEvent) {
        self.events.push(event);
    }
}

#[test]
fn seqctx_ops_behave() {
    let mut c = SeqCtx::new(1, 4);
    c.store(0, 5);
    assert_eq!(c.load(0), 5);
    assert_eq!(c.swap(0, 6), 5);
    assert_eq!(c.cas(0, 6, 7), Ok(6));
    assert_eq!(c.cas(0, 6, 8), Err(7));
    assert_eq!(c.fetch_add(1, 3), 0);
    assert_eq!(c.load(1), 3);
    assert!(!c.test_and_set(2));
    assert!(c.test_and_set(2));
    c.delay(10);
    assert_eq!(c.delays, 10);
}
