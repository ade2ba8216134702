//! The parking lot's operations, written once: enqueue-if-equal, park,
//! wake `n` by address, wake by tag and cancel, as steps over a bucketed
//! queue ([`Lot`]) and a per-waiter park token ([`Token`]), with the word
//! read through [`syncctx::SyncCtx`]. A substrate supplies buckets and
//! tokens; [`crate::futex::ParkingLot`] is the real-thread instance, and
//! the promises the steps keep are argued once, in [`crate::futex`].

use syncctx::SyncCtx;

/// A bucketed wait queue as the steps see it, shaped like
/// `service::protocol::SlotMap`: each address hashes to a bucket, a
/// critical section around a FIFO of entries that carry the address and
/// tag they parked with. `C` is the context a substrate's hooks run in.
pub trait Lot<C> {
    /// What a bucket's critical section holds.
    type Bucket;
    /// A queued waiter.
    type Entry: Token<C>;
    /// The index of the bucket that queues the waiters of `addr`.
    fn bucket(&self, addr: usize) -> usize;
    /// Runs `f` in bucket `i`'s critical section.
    fn with_bucket<R>(
        &self,
        c: &mut C,
        i: usize,
        f: impl FnOnce(&mut C, &mut Self::Bucket) -> R,
    ) -> R;
    /// Queues `e` behind the bucket's other entries.
    fn push(&self, c: &mut C, b: &mut Self::Bucket, e: &Self::Entry);
    /// Dequeues into `out`, oldest first, up to `n` entries that parked on
    /// the target's address: any of them when its tag is `None`, else
    /// those with that tag.
    fn remove_matching(
        &self,
        c: &mut C,
        b: &mut Self::Bucket,
        target: (usize, Option<u64>),
        n: usize,
        out: &mut Vec<Self::Entry>,
    );
    /// Dequeues `e` if it is still queued; whether it was.
    fn remove_entry(&self, c: &mut C, b: &mut Self::Bucket, e: &Self::Entry) -> bool;
}

/// A waiter's park token: given once, by the wake that dequeued it.
pub trait Token<C> {
    /// What sleeps on the token.
    type Parker<'p>: Copy;
    /// Whether the token has been given; if not, sleeps `p` on it. May
    /// return `false` early (spuriously): the caller looks again.
    fn park_token(&self, c: &mut C, p: Self::Parker<'_>) -> bool;
    /// Gives the token and wakes what sleeps on it.
    fn unpark_token(&self, c: &mut C);
}

/// Enqueue-if-equal: in `addr`'s bucket, queues and returns the entry
/// `entry` makes iff the word `w` at `addr` still holds `expected`; `None`,
/// having made nothing, once the word has changed.
#[inline]
pub fn enqueue<W: Copy, C: SyncCtx<W>, L: Lot<C>>(
    c: &mut C,
    lot: &L,
    w: W,
    addr: usize,
    expected: u64,
    entry: impl FnOnce() -> L::Entry,
) -> Option<L::Entry> {
    lot.with_bucket(c, lot.bucket(addr), |c, b| {
        if c.load(w) != expected {
            return None;
        }
        let e = entry();
        lot.push(c, b, &e);
        Some(e)
    })
}

/// Sleeps `p` on a queued entry's token until a wake gives it.
#[inline]
pub fn park<C, T: Token<C>>(c: &mut C, e: &T, p: T::Parker<'_>) {
    while !e.park_token(c, p) {}
}

/// Wakes up to `n` waiters of `addr`, oldest first, tagged or not; how many.
#[inline]
pub fn wake<C, L: Lot<C>>(c: &mut C, lot: &L, addr: usize, n: usize) -> usize {
    let mut woken = Vec::new();
    lot.with_bucket(c, lot.bucket(addr), |c, b| {
        lot.remove_matching(c, b, (addr, None), n, &mut woken)
    });
    unpark(c, &woken)
}

/// Wakes every waiter of each distinct target — an address, and a tag when
/// one is given — entering each bucket once however many targets share it;
/// how many.
pub fn wake_each<C, L: Lot<C>>(
    c: &mut C,
    lot: &L,
    targets: impl Iterator<Item = (usize, Option<u64>)>,
) -> usize {
    // Sorted by bucket, each bucket's targets are one run and a duplicate
    // target sits next to its twin, which dedup drops.
    let mut order: Vec<_> = targets.map(|t| (lot.bucket(t.0), t)).collect();
    order.sort_unstable();
    order.dedup();
    let mut woken = Vec::new();
    for run in order.chunk_by(|x, y| x.0 == y.0) {
        lot.with_bucket(c, run[0].0, |c, b| {
            for &(_, target) in run {
                lot.remove_matching(c, b, target, usize::MAX, &mut woken);
            }
        });
    }
    unpark(c, &woken)
}

/// Withdraws the entry `e` that parked on `addr`: whether it was still
/// queued. `false` means a wake dequeued it first and gives its token.
#[inline]
pub fn cancel<C, L: Lot<C>>(c: &mut C, lot: &L, addr: usize, e: &L::Entry) -> bool {
    lot.with_bucket(c, lot.bucket(addr), |c, b| lot.remove_entry(c, b, e))
}

/// Gives each dequeued entry its token outside every bucket: a woken
/// waiter that parks again at once must not find its bucket still held.
#[inline]
fn unpark<C, T: Token<C>>(c: &mut C, woken: &[T]) -> usize {
    for e in woken {
        e.unpark_token(c);
    }
    woken.len()
}
