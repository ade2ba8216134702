//! Stackful coroutines: the transport between a simulated processor's body
//! and the engine loop.
//!
//! A `Coroutine` runs a closure on a stack of its own. `Coroutine::resume`
//! switches the calling thread onto that stack until the closure calls
//! `suspend` (or returns, or panics), which switches back. A switch saves
//! and restores the six callee-saved registers and the stack pointer — tens
//! of nanoseconds, where handing over between two parked OS threads costs a
//! microsecond — and involves neither the host scheduler nor any atomic.
//!
//! All of the crate's `unsafe` for this lives here, behind a safe API. What
//! a reader must not break:
//!
//! * **A coroutine lives and dies on one host thread.** `Coroutine` is
//!   neither `Send` nor `Sync`; the "currently running coroutine" is a
//!   thread-local that `resume` saves and restores, so coroutines nest (a
//!   body may itself drive coroutines) but never migrate.
//! * **Panics stop at the root.** The first frame on every stack is
//!   `entry`, which runs the body under `catch_unwind` and hands the
//!   payload to the resumer as `Step::Done`. Its own return address is
//!   zero, which is where a backtrace walk ends.
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
    "crates/memsim/src/coro.rs switches stacks with x86_64 System V assembly and maps them with \
     Linux mmap flags; port `switch`, the initial frame in `Coroutine::new` and the `Stack` \
     constants to this target, with a CI job that runs the tests there"
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
}

/// Stacks this thread has ever mapped (as opposed to reused from its cache).
pub fn stacks_mapped() -> usize {
    MAPPED.get()
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
pub(crate) enum Step {
    /// The body called [`suspend`].
    Suspended,
    /// The body returned, or panicked with the payload.
    Done(std::thread::Result<()>),
}

/// A closure running on its own stack, advanced by [`Coroutine::resume`].
pub(crate) struct Coroutine<'a> {
    /// From `Box::into_raw`; accessed through this pointer only, by the
    /// resumer and (via `CURRENT`) by the coroutine itself, never at once.
    inner: *mut Inner<'a>,
}

impl<'a> Coroutine<'a> {
    pub(crate) fn new(body: impl FnOnce() + 'a) -> Self {
        let stack = Stack::obtain();
        // SAFETY: the eight words below the top of the mapping (which is
        // 16-byte aligned) lie in its writable part, which no other code
        // can reach.
        let sp = unsafe {
            let frame = stack.base.add(MAP_BYTES).cast::<usize>().sub(8);
            // What `switch` pops: r15, r14, r13, r12, rbx, rbp (zero ends a
            // frame-pointer walk), then `ret` into `entry`. That leaves
            // rsp = top - 8, the alignment a `call` gives a function, with
            // a null return address for `entry` there (ends a CFI walk).
            frame.write_bytes(0, 8);
            frame.add(6).write(entry as *const () as usize);
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
    pub(crate) fn is_done(&self) -> bool {
        // SAFETY: `inner` is live until drop, and the coroutine is not
        // running (it would hold the thread), so nothing else accesses it.
        unsafe { (*self.inner).state == State::Finished }
    }

    /// Runs the body until it next suspends or ends.
    ///
    /// # Panics
    ///
    /// If the coroutine has already ended (or is the caller itself).
    pub(crate) fn resume(&mut self) -> Step {
        let inner = self.inner;
        // SAFETY: `inner` is live until drop. Between here and `switch`
        // returning, only the coroutine's side touches it, through the
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
pub(crate) fn suspend() {
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

/// Saves the callee-saved registers and stack pointer of the caller into
/// `*save`, adopts the stack pointer `load`, and returns on that stack.
///
/// # Safety
///
/// `load` must be a stack pointer this function stored earlier (and that has
/// not been switched to since), or an initial frame of the same layout;
/// `save` must be writable. MXCSR and the x87 control word are not saved:
/// Rust code does not change them.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_and_suspend_alternate_until_the_body_returns() {
        let log = RefCell::new(Vec::new());
        let mut co = Coroutine::new(|| {
            for i in 0..3 {
                log.borrow_mut().push(i);
                suspend();
            }
        });
        for round in 0..3 {
            assert!(matches!(co.resume(), Step::Suspended));
            assert_eq!(log.borrow().len(), round + 1);
        }
        assert!(!co.is_done());
        assert!(matches!(co.resume(), Step::Done(Ok(()))));
        assert!(co.is_done());
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
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
