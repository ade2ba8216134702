//! Stackful coroutines: the transport between a body of straight-line code
//! and the loop that decides when it advances. Two clients: `memsim` runs
//! each simulated processor's body as one under its engine loop, and
//! `interleave` runs each thread of a checked program as one under its
//! scheduler loop.
//!
//! A `Coroutine` runs a closure on a stack of its own. `Coroutine::resume`
//! switches the calling thread onto that stack until the closure calls
//! `suspend` (or returns, or panics), which switches back. A switch is ten
//! instructions *inlined into its caller* and ended by a `jmp`: it pushes
//! `rbp`, `rbx` and the address to continue at, swaps stack pointers, pops
//! the other side's three words and jumps. No host scheduler, no atomic —
//! and no `ret`, which is most of what a switch used to cost. The CPU
//! predicts every `ret` from a stack of the `call`s it has executed. A
//! switch written as a function that returns on the other stack mispredicts
//! that return and leaves the predictor holding the wrong stack's history,
//! so the next few `ret`s on each side mispredict too. Inlined and ended by
//! a jump, a switch executes no `ret` at all, each side returns only to
//! where it itself called from, and the jump is an ordinary indirect branch
//! with a handful of targets. Measured on the development host, a
//! `resume` + `suspend` round trip with nothing in between fell from 22 ns
//! to 3.3 ns; with the suspending side three calls deep, as a processor's
//! body is, from 38 ns to 15–17 ns, which is what those three calls and
//! returns take with no switch among them.
//!
//! That only holds while the *resuming* side does not return through a
//! frame it entered before the switch: if it also sits three calls below
//! its loop, the round trip is 75–90 ns with this switch or the old one.
//! So `resume` and `suspend` are `#[inline(always)]`, and each client
//! resumes from the frame that loops: `memsim`'s engine inlines its step
//! into `run_live`, and `interleave`'s `Explorer::execute_with` resumes the
//! chosen thread from its decision loop.
//!
//! All of the workspace's `unsafe` for this lives here, behind a safe API.
//! What a reader must not break:
//!
//! * **A coroutine lives and dies on one host thread.** `Coroutine` is
//!   neither `Send` nor `Sync`; the "currently running coroutine" is a
//!   thread-local that `resume` saves and restores, so coroutines nest (a
//!   body may itself drive coroutines) but never migrate.
//! * **Panics stop at the root.** The first frame on every stack is
//!   `entry`, which runs the body under `catch_unwind` and hands the
//!   payload to the resumer as `Step::Done`. It is entered by the switch's
//!   jump with a zero return address above it and a zero `rbp`, which is
//!   where a backtrace walk — by unwind tables or by frame pointers — ends.
//! * **A suspended coroutine is never freed.** Dropping a `Coroutine` that
//!   is suspended mid-body leaks its stack and control block instead: the
//!   frames on it may own values whose destructors have not run and which
//!   nothing will ever run now. Coroutines that never started, or finished,
//!   return their stack to the thread's cache.
//! * **Stack budget.** Every stack is [`STACK_BYTES`] (256 KiB) of
//!   lazily-committed anonymous memory above one `PROT_NONE` guard page, so
//!   a cached stack costs address space plus only the pages a body actually
//!   touched. Running past the budget is fail-stop: the guard page turns the
//!   overflow into `SIGSEGV` (Rust probes every page of a large frame, so a
//!   frame cannot step over it). Stacks are mapped on demand, cached per
//!   host thread without bound — a thread keeps as many as the widest run
//!   it has hosted — and unmapped when the thread exits.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "crates/simcore/src/coro.rs switches stacks with x86_64 System V assembly and maps them with \
     Linux mmap flags, and both `memsim` and `interleave` run on it; port `switch`, the initial \
     frame in `Coroutine::new` and the `Stack` constants to this target, with a CI job that \
     runs the tests there"
);

use std::cell::{Cell, RefCell};
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;

/// Usable bytes of every coroutine stack.
pub const STACK_BYTES: usize = 256 * 1024;
/// x86_64 Linux base page; the guard is one of these.
const PAGE: usize = 4096;
const MAP_BYTES: usize = PAGE + STACK_BYTES;

// <sys/mman.h> on x86_64 Linux. `std` links libc, so the symbols resolve
// without a crate for them.
const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// One mapping: a `PROT_NONE` guard page, then `STACK_BYTES` read-write.
struct Stack {
    base: *mut u8,
}

impl Stack {
    /// A stack from this thread's cache, or a fresh mapping.
    fn obtain() -> Stack {
        if let Some(stack) = STACKS.with(|s| s.borrow_mut().pop()) {
            return stack;
        }
        // SAFETY: an anonymous private mapping at an address the kernel
        // picks aliases no existing memory; the arguments are constants.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                MAP_BYTES,
                PROT_READ_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "cannot map a coroutine stack: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack { base: base.cast() };
        // SAFETY: the first page of the mapping just made, which nothing
        // references yet.
        let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
        assert!(
            rc == 0,
            "cannot protect a coroutine stack's guard page: {}",
            std::io::Error::last_os_error()
        );
        MAPPED.set(MAPPED.get() + 1);
        stack
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is owned by this value, and a stack is only
        // dropped when no coroutine has frames on it (see `Coroutine::drop`).
        unsafe { munmap(self.base.cast(), MAP_BYTES) };
    }
}

thread_local! {
    /// The coroutine running on this thread, innermost if they nest.
    static CURRENT: Cell<*mut Inner<'static>> = const { Cell::new(ptr::null_mut()) };
    /// Idle stacks; unmapped by the thread-local destructor.
    static STACKS: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    static MAPPED: Cell<usize> = const { Cell::new(0) };
    static SWITCHES: Cell<u64> = const { Cell::new(0) };
}

/// Stacks this thread has ever mapped (as opposed to reused from its cache).
pub fn stacks_mapped() -> usize {
    MAPPED.get()
}

/// Times this thread has switched onto a coroutine's stack: one per
/// `resume`, the one that starts a body included.
pub fn switches() -> u64 {
    SWITCHES.get()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Unstarted,
    Running,
    Suspended,
    Finished,
}

/// A coroutine's control block. Boxed so that its address is stable: the
/// suspended stack and `CURRENT` point at it.
struct Inner<'a> {
    stack: Stack,
    /// The coroutine's saved stack pointer while it is not running.
    sp: *mut u8,
    /// The resumer's saved stack pointer while the coroutine runs.
    resumer_sp: *mut u8,
    state: State,
    body: Option<Box<dyn FnOnce() + 'a>>,
    /// How the body ended, once it has.
    result: Option<std::thread::Result<()>>,
}

/// What a [`Coroutine::resume`] ended with.
pub enum Step {
    /// The body called [`suspend`].
    Suspended,
    /// The body returned, or panicked with the payload.
    Done(std::thread::Result<()>),
}

/// A closure running on its own stack, advanced by [`Coroutine::resume`].
pub struct Coroutine<'a> {
    /// From `Box::into_raw`; accessed through this pointer only, by the
    /// resumer and (via `CURRENT`) by the coroutine itself, never at once.
    inner: *mut Inner<'a>,
}

impl<'a> Coroutine<'a> {
    /// A coroutine that will run `body` on a stack from this thread's
    /// cache; nothing runs until the first [`Coroutine::resume`].
    pub fn new(body: impl FnOnce() + 'a) -> Self {
        let stack = Stack::obtain();
        // SAFETY: the four words below the top of the mapping (which is
        // 16-byte aligned) lie in its writable part, which no other code
        // can reach.
        let sp = unsafe {
            let frame = stack.base.add(MAP_BYTES).cast::<usize>().sub(4);
            // What `switch` pops: the address it jumps to, then rbx and rbp
            // (zero ends a frame-pointer walk). That leaves rsp = top - 8,
            // the alignment a `call` gives a function, with a null return
            // address for `entry` there (ends a CFI walk).
            frame.write_bytes(0, 4);
            frame.write(entry as *const () as usize);
            frame.cast::<u8>()
        };
        let inner = Box::new(Inner {
            stack,
            sp,
            resumer_sp: ptr::null_mut(),
            state: State::Unstarted,
            body: Some(Box::new(body)),
            result: None,
        });
        Coroutine {
            inner: Box::into_raw(inner),
        }
    }

    /// Whether the body has returned or panicked.
    pub fn is_done(&self) -> bool {
        // SAFETY: `inner` is live until drop, and the coroutine is not
        // running (it would hold the thread), so nothing else accesses it.
        unsafe { (*self.inner).state == State::Finished }
    }

    /// Runs the body until it next suspends or ends.
    ///
    /// # Panics
    ///
    /// If the coroutine has already ended (or is the caller itself).
    // Inlined with its `switch`, so that the resumer's side of a handoff
    // executes no `ret` (module docs).
    #[inline(always)]
    pub fn resume(&mut self) -> Step {
        let inner = self.inner;
        // SAFETY: `inner` is live until drop. Between here and `switch`
        // coming back, only the coroutine's side touches it, through the
        // same pointer published in `CURRENT`; the saved `sp` is either the
        // initial frame built in `new` or what `switch` stored when the
        // body suspended, both valid to load.
        unsafe {
            assert!(
                matches!((*inner).state, State::Unstarted | State::Suspended),
                "resumed a coroutine that is running or done"
            );
            (*inner).state = State::Running;
            let outer = CURRENT.replace(inner.cast());
            SWITCHES.set(SWITCHES.get() + 1);
            switch(&mut (*inner).resumer_sp, (*inner).sp);
            CURRENT.set(outer);
            match (*inner).result.take() {
                Some(result) => Step::Done(result),
                None => Step::Suspended,
            }
        }
    }
}

impl Drop for Coroutine<'_> {
    fn drop(&mut self) {
        // SAFETY: `inner` came from `Box::into_raw` and is freed only here.
        unsafe {
            if matches!((*self.inner).state, State::Unstarted | State::Finished) {
                let inner = Box::from_raw(self.inner);
                let Inner { stack, .. } = *inner;
                // Back to the thread's cache, or unmapped if it is exiting.
                let _ = STACKS.try_with(|s| s.borrow_mut().push(stack));
            }
            // Otherwise frames are live on the stack and may point at the
            // control block: leak both (module docs).
        }
    }
}

/// Switches from the running coroutine back to whoever resumed it; returns
/// when it is next resumed.
///
/// # Panics
///
/// If no coroutine is running on this thread.
// Inlined with its `switch`, like `Coroutine::resume`.
#[inline(always)]
pub fn suspend() {
    let inner = CURRENT.get();
    assert!(!inner.is_null(), "suspend() outside a coroutine");
    // SAFETY: `CURRENT` is non-null only while `resume` is switched into
    // that coroutine, so `inner` is live, this code is running on its
    // stack, and `resumer_sp` is what `switch` saved for the resumer.
    unsafe {
        (*inner).state = State::Suspended;
        switch(&mut (*inner).sp, (*inner).resumer_sp);
    }
}

/// First frame of every coroutine: runs the body, reports how it ended, and
/// switches away for good.
unsafe extern "C" fn entry() -> ! {
    let inner = CURRENT.get();
    // SAFETY: only `resume` transfers control here, with `CURRENT` set to
    // the live coroutine whose stack this is.
    unsafe {
        let body = (*inner).body.take().expect("coroutine started twice");
        (*inner).result = Some(catch_unwind(AssertUnwindSafe(body)));
        (*inner).state = State::Finished;
        switch(&mut (*inner).sp, (*inner).resumer_sp);
    }
    unreachable!("a finished coroutine was resumed");
}

/// Leaves the caller's stack for the one whose stack pointer is `load`, at
/// the address that stack has on top, having stored in `*save` where to
/// come back to this one; falls out of its end when something does.
///
/// # Safety
///
/// `load` must be a stack pointer this function stored earlier (and that has
/// not been switched to since), or an initial frame of the same layout
/// (`Coroutine::new`); `save` must be writable. MXCSR and the x87 control
/// word are not saved: Rust code does not change them.
#[inline(always)]
unsafe fn switch(save: *mut *mut u8, load: *mut u8) {
    // SAFETY: who saves what. `rbx` and `rbp` cannot be named as operands
    // (LLVM keeps them for its own use), so the block pushes them here and
    // pops the other side's before it jumps; both sides see their own values
    // again. `r12`–`r15` are declared clobbered and every other register —
    // general, vector, mask, x87, flags — is clobbered by
    // `clobber_abi("sysv64")`, so the compiler itself keeps, on this stack,
    // whichever of them hold something live, and nothing when they do not.
    // The block pushes, so it is not `nostack`: the compiler then has no
    // red-zone data below `rsp` while it runs, and `rsp` is as aligned as
    // for a call. It is not `nomem` either: the other side may write any
    // memory before control is back. The label is numeric and local, one
    // per inlined copy. Pushes and pops balance on each stack, so the
    // caller's unwind tables are right again once the block is left, and
    // no walk passes through a frame that is inside it: that frame's stack
    // is not running.
    unsafe {
        core::arch::asm!(
            "push rbp",
            "push rbx",
            "lea rax, [rip + 2f]",
            "push rax",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop rax",
            "pop rbx",
            "pop rbp",
            "jmp rax",
            "2:",
            inout("rdi") save => _,
            inout("rsi") load => _,
            out("rax") _,
            out("r12") _,
            out("r13") _,
            out("r14") _,
            out("r15") _,
            clobber_abi("sysv64"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_and_suspend_alternate_until_the_body_returns() {
        let log = RefCell::new(Vec::new());
        let before = switches();
        let mut co = Coroutine::new(|| {
            for i in 0..3 {
                log.borrow_mut().push(i);
                suspend();
            }
        });
        assert_eq!(switches(), before, "making a coroutine does not run it");
        for round in 0..3 {
            assert!(matches!(co.resume(), Step::Suspended));
            assert_eq!(log.borrow().len(), round + 1);
        }
        assert!(!co.is_done());
        assert!(matches!(co.resume(), Step::Done(Ok(()))));
        assert!(co.is_done());
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
        assert_eq!(switches(), before + 4, "one switch in per resume");
    }

    /// Keeps every named local — integers in `[..]`, doubles in the second
    /// list — live across `$rounds` evaluations of `$switch`, checking and
    /// advancing each one in between.
    macro_rules! carry_across {
        ($seed:expr, $rounds:expr, $switch:expr, [$($i:ident),*], [$($f:ident),*]) => {{
            let seed: u64 = std::hint::black_box($seed);
            let mut n = 0u64;
            $( n += 1; let mut $i: u64 = seed.wrapping_mul(n); )*
            $( n += 1; let mut $f: f64 = (seed.wrapping_mul(n) % 1024) as f64 / 4.0; )*
            for round in 0..$rounds {
                $switch;
                n = 0;
                $(
                    n += 1;
                    assert_eq!($i, seed.wrapping_mul(n).wrapping_add(round), stringify!($i));
                    $i = $i.wrapping_add(1);
                )*
                $(
                    n += 1;
                    let start = (seed.wrapping_mul(n) % 1024) as f64 / 4.0;
                    assert_eq!($f, start + round as f64, stringify!($f));
                    $f += 1.0;
                )*
            }
        }};
    }

    /// The switch saves `rbx` and `rbp` itself and leaves every other
    /// register to the compiler, on both sides. Each side here holds more
    /// live integers than there are general registers and as many doubles
    /// as there are vector registers, so in an optimized build some sit in
    /// `rbx`/`rbp`, some in registers the block declares clobbered, and the
    /// rest in the frame the block must leave intact; a debug build keeps
    /// them all in the frame, addressed off `rbp`.
    #[test]
    fn live_integers_and_doubles_survive_switches_on_both_sides() {
        let mut co = Coroutine::new(|| {
            carry_across!(
                0x9E37_79B9_7F4A_7C15,
                6,
                suspend(),
                [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15, b16, b17],
                [g0, g1, g2, g3, g4, g5, g6, g7, g8, g9, g10, g11, g12, g13, g14, g15]
            );
        });
        carry_across!(
            0x51ED_270B_9F3B_6A2D,
            6,
            assert!(matches!(co.resume(), Step::Suspended)),
            [a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17],
            [f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14, f15]
        );
        assert!(matches!(co.resume(), Step::Done(Ok(()))));
    }

    /// Calls `bottom` under `depth` frames that each keep a local alive
    /// across the call.
    #[inline(never)]
    fn under(depth: u64, bottom: &mut dyn FnMut()) -> u64 {
        let here = std::hint::black_box(depth * 3 + 1);
        if depth == 0 {
            bottom();
        } else {
            assert_eq!(under(depth - 1, bottom), (depth - 1) * 3 + 1);
        }
        here
    }

    #[inline(never)]
    fn park_here() {
        suspend();
    }

    #[inline(never)]
    fn park_there(mark: &Cell<u32>) {
        mark.set(mark.get() + 1);
        suspend();
        mark.set(mark.get() + 10);
    }

    /// `suspend` and `resume` are inlined, so every function that calls one
    /// holds its own copy of the switch and its own address to come back to.
    /// One coroutine suspends from several functions at several depths, is
    /// resumed from several depths, and each side always continues where it
    /// left.
    #[test]
    fn each_side_continues_where_it_switched_away_at_any_depth() {
        let mark = Cell::new(0);
        let trail = RefCell::new(Vec::new());
        let mut co = Coroutine::new(|| {
            for depth in [0, 3, 60, 7] {
                under(depth, &mut || {
                    trail.borrow_mut().push(depth);
                    suspend();
                    trail.borrow_mut().push(depth + 100);
                });
            }
            park_here();
            park_there(&mark);
            under(200, &mut park_here);
        });
        let mut resumes = 0;
        for depth in [5, 0, 90, 1, 0, 33] {
            assert_eq!(
                under(depth, &mut || {
                    assert!(matches!(co.resume(), Step::Suspended));
                    resumes += 1;
                }),
                depth * 3 + 1
            );
        }
        assert_eq!(resumes, 6);
        assert_eq!(mark.get(), 1, "suspended inside `park_there`");
        assert_eq!(*trail.borrow(), vec![0, 100, 3, 103, 60, 160, 7, 107]);
        assert!(matches!(co.resume(), Step::Suspended));
        assert_eq!(mark.get(), 11, "suspended under 200 frames");
        assert!(matches!(co.resume(), Step::Done(Ok(()))));
    }

    #[test]
    fn a_panic_stops_at_the_root_and_hands_over_its_payload() {
        let mut co = Coroutine::new(|| {
            suspend();
            std::panic::resume_unwind(Box::new(17u32));
        });
        assert!(matches!(co.resume(), Step::Suspended));
        let Step::Done(Err(payload)) = co.resume() else {
            panic!("the body panicked");
        };
        assert_eq!(payload.downcast_ref::<u32>(), Some(&17));
    }

    #[test]
    fn coroutines_nest() {
        let mut outer = Coroutine::new(|| {
            let mut inner = Coroutine::new(|| {
                suspend();
            });
            assert!(matches!(inner.resume(), Step::Suspended));
            suspend(); // the outer one, not `inner`
            assert!(matches!(inner.resume(), Step::Done(Ok(()))));
        });
        assert!(matches!(outer.resume(), Step::Suspended));
        assert!(matches!(outer.resume(), Step::Done(Ok(()))));
    }

    #[test]
    fn stacks_are_reused_and_a_suspended_one_is_leaked() {
        // Own thread: the cache and its counter are per host thread.
        std::thread::spawn(|| {
            drop(Coroutine::new(|| {}));
            assert_eq!(stacks_mapped(), 1);
            let mut done = Coroutine::new(|| {});
            assert!(matches!(done.resume(), Step::Done(Ok(()))));
            drop(done);
            assert_eq!(stacks_mapped(), 1, "unstarted and finished stacks recycle");

            let mut parked = Coroutine::new(suspend);
            assert!(matches!(parked.resume(), Step::Suspended));
            drop(parked);
            drop(Coroutine::new(|| {}));
            assert_eq!(
                stacks_mapped(),
                2,
                "a suspended coroutine's stack is not reused"
            );
        })
        .join()
        .unwrap();
    }
}
