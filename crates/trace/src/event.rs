//! The typed events a tracer records.

/// Sentinel pid for events whose counterpart is unknown (real-hardware
/// futex wakes cannot name the thread they woke; the simulator always can).
pub const NO_PID: usize = usize::MAX;

/// One trace record: a timestamp plus what happened.
///
/// On the simulator the timestamp is the processor's simulated local clock
/// in cycles; on real hardware (the `parking` runtime) it is microseconds
/// of monotonic time since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Timestamp, in the recording substrate's time unit.
    pub t: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Default for Event {
    fn default() -> Self {
        Event {
            t: 0,
            kind: EventKind::CtxSwitchIn,
        }
    }
}

/// What a recorded event describes. Lock ids come from
/// `kernels::locks::InstrumentedLock`; addresses are simulated word
/// addresses (or real `usize` futex-word addresses on hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The processor started acquiring lock `lock` (it may spin or park).
    LockAcquireStart { lock: usize },
    /// The processor now holds lock `lock` — the wait interval ends and the
    /// hold interval begins here.
    LockAcquired { lock: usize },
    /// The processor released lock `lock`.
    LockReleased { lock: usize },
    /// A `spin_while`/`spin_until` did not satisfy on the first probe; the
    /// processor started waiting on `addr`.
    SpinBegin { addr: usize },
    /// The spin on `addr` observed its predicate and returned.
    SpinEnd { addr: usize },
    /// The processor parked in futex `wait` on `addr` (the word still held
    /// the expected value).
    FutexPark { addr: usize },
    /// This processor's futex `wake` dequeued `wakee` from `addr`'s queue.
    /// `wakee` is [`NO_PID`] when the substrate cannot identify it.
    FutexWake { addr: usize, wakee: usize },
    /// The processor was woken from its futex `wait` park on `addr` by
    /// `waker` ([`NO_PID`] when unknown).
    FutexResume { addr: usize, waker: usize },
    /// The oversubscription scheduler placed the processor on a core.
    CtxSwitchIn,
    /// A barrier workload entered episode `id`.
    EpisodeBegin { id: u64 },
    /// A barrier workload left episode `id`.
    EpisodeEnd { id: u64 },
}

/// Coarse per-kind counter class, the currency of `counters` mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    LockAcquireStart,
    LockAcquired,
    LockReleased,
    SpinBegin,
    SpinEnd,
    FutexPark,
    FutexWake,
    FutexResume,
    CtxSwitchIn,
    EpisodeBegin,
    EpisodeEnd,
}

impl EventClass {
    /// Every class, in a fixed order (indexes the tracer's counter array).
    pub const ALL: [EventClass; 11] = [
        EventClass::LockAcquireStart,
        EventClass::LockAcquired,
        EventClass::LockReleased,
        EventClass::SpinBegin,
        EventClass::SpinEnd,
        EventClass::FutexPark,
        EventClass::FutexWake,
        EventClass::FutexResume,
        EventClass::CtxSwitchIn,
        EventClass::EpisodeBegin,
        EventClass::EpisodeEnd,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            EventClass::LockAcquireStart => "lock-acquire-start",
            EventClass::LockAcquired => "lock-acquired",
            EventClass::LockReleased => "lock-released",
            EventClass::SpinBegin => "spin-begin",
            EventClass::SpinEnd => "spin-end",
            EventClass::FutexPark => "futex-park",
            EventClass::FutexWake => "futex-wake",
            EventClass::FutexResume => "futex-resume",
            EventClass::CtxSwitchIn => "ctx-switch-in",
            EventClass::EpisodeBegin => "episode-begin",
            EventClass::EpisodeEnd => "episode-end",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl Event {
    /// The event as the four words a ring slot stores: time, class, and up
    /// to two operands.
    pub(crate) fn to_words(self) -> [u64; 4] {
        use EventKind::*;
        let (a, b) = match self.kind {
            LockAcquireStart { lock: a } | LockAcquired { lock: a } | LockReleased { lock: a } => {
                (a as u64, 0)
            }
            SpinBegin { addr } | SpinEnd { addr } | FutexPark { addr } => (addr as u64, 0),
            FutexWake { addr, wakee: pid } | FutexResume { addr, waker: pid } => {
                (addr as u64, pid as u64)
            }
            CtxSwitchIn => (0, 0),
            EpisodeBegin { id } | EpisodeEnd { id } => (id, 0),
        };
        [self.t, self.kind.class() as u64, a, b]
    }

    /// The inverse of [`Event::to_words`].
    pub(crate) fn from_words([t, class, id, b]: [u64; 4]) -> Event {
        use EventKind::*;
        let (a, b) = (id as usize, b as usize);
        let kind = match EventClass::ALL[class as usize] {
            EventClass::LockAcquireStart => LockAcquireStart { lock: a },
            EventClass::LockAcquired => LockAcquired { lock: a },
            EventClass::LockReleased => LockReleased { lock: a },
            EventClass::SpinBegin => SpinBegin { addr: a },
            EventClass::SpinEnd => SpinEnd { addr: a },
            EventClass::FutexPark => FutexPark { addr: a },
            EventClass::FutexWake => FutexWake { addr: a, wakee: b },
            EventClass::FutexResume => FutexResume { addr: a, waker: b },
            EventClass::CtxSwitchIn => CtxSwitchIn,
            EventClass::EpisodeBegin => EpisodeBegin { id },
            EventClass::EpisodeEnd => EpisodeEnd { id },
        };
        Event { t, kind }
    }
}

impl EventKind {
    /// The counter class this event belongs to.
    pub fn class(&self) -> EventClass {
        match self {
            EventKind::LockAcquireStart { .. } => EventClass::LockAcquireStart,
            EventKind::LockAcquired { .. } => EventClass::LockAcquired,
            EventKind::LockReleased { .. } => EventClass::LockReleased,
            EventKind::SpinBegin { .. } => EventClass::SpinBegin,
            EventKind::SpinEnd { .. } => EventClass::SpinEnd,
            EventKind::FutexPark { .. } => EventClass::FutexPark,
            EventKind::FutexWake { .. } => EventClass::FutexWake,
            EventKind::FutexResume { .. } => EventClass::FutexResume,
            EventKind::CtxSwitchIn => EventClass::CtxSwitchIn,
            EventKind::EpisodeBegin { .. } => EventClass::EpisodeBegin,
            EventKind::EpisodeEnd { .. } => EventClass::EpisodeEnd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_dense_and_distinct() {
        for (i, c) in EventClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let mut names: Vec<_> = EventClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventClass::ALL.len());
    }

    #[test]
    fn kind_maps_to_class() {
        assert_eq!(
            EventKind::FutexWake { addr: 3, wakee: 1 }.class(),
            EventClass::FutexWake
        );
        assert_eq!(EventKind::CtxSwitchIn.class(), EventClass::CtxSwitchIn);
    }

    #[test]
    fn every_kind_survives_its_words() {
        use EventKind::*;
        for kind in [
            LockAcquireStart { lock: 1 },
            LockAcquired { lock: 2 },
            LockReleased { lock: 3 },
            SpinBegin { addr: 4 },
            SpinEnd { addr: 5 },
            FutexPark { addr: usize::MAX },
            FutexWake {
                addr: 6,
                wakee: NO_PID,
            },
            FutexResume { addr: 7, waker: 8 },
            CtxSwitchIn,
            EpisodeBegin { id: u64::MAX },
            EpisodeEnd { id: 9 },
        ] {
            let ev = Event { t: 42, kind };
            assert_eq!(Event::from_words(ev.to_words()), ev);
        }
    }
}
