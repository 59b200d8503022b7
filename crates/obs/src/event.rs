//! Bounded lock-free event buffer: the timestamped feed behind the live
//! telemetry exports.
//!
//! The span tracer and metrics registry aggregate — they answer "how
//! much time, how many" but not "when". The event buffer records the
//! *when*: each [`Event`] carries a nanosecond timestamp relative to a
//! process-wide epoch, a [`EventKind`], two small integer operands and
//! one `f64` payload. The batched Monte-Carlo engine feeds it per
//! super-iteration (lane seat/retire/refill, accepted steps, pivot
//! re-analyses) and the span tracer mirrors shallow span open/close
//! pairs into it, so [`crate::trace::render_chrome_trace`] can rebuild
//! a timeline after the run.
//!
//! # Concurrency and overflow
//!
//! Recording never blocks and never takes a lock: a writer claims a
//! slot with one `fetch_add` and fills it with relaxed stores, then
//! publishes it with a release store of the ring's generation. The
//! buffer is *bounded*: it keeps the first [`EventRing::capacity`]
//! events after a [`reset_events`] and counts everything past that as
//! dropped ([`EventRing::dropped`]) — a coherent prefix of the run
//! beats a shredded suffix when the goal is inspecting a timeline, and
//! the drop count itself is surfaced as the `mc.ring_dropped_events`
//! metric so silent truncation is impossible.
//!
//! Like tracing and metrics, recording has a process-wide switch
//! ([`set_events`]); when it is off the per-event cost is one relaxed
//! atomic load at instrumentation setup points and nothing per event.
//! [`reset_events`] must not race active recording: call it between
//! runs, after parallel sections have joined (in-flight events from
//! before the reset are discarded via a generation tag).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EVENTS: AtomicBool = AtomicBool::new(false);

/// Turns event recording on or off process-wide.
///
/// Toggle only between runs; instrumentation sites check the switch
/// once per run, not per event.
pub fn set_events(on: bool) {
    EVENTS.store(on, Ordering::Relaxed);
}

/// `true` when event recording is enabled.
#[inline]
pub fn events_enabled() -> bool {
    EVENTS.load(Ordering::Relaxed)
}

/// Default capacity of the global ring: enough for every fast-fidelity
/// run in the repo with headroom; a full e3 sweep overflows and reports
/// the overflow through [`EventRing::dropped`].
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 18;

/// What an [`Event`] describes. Discriminants are stable: they appear
/// in exported traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A span opened; `a` = interned span path id, `b` = thread id.
    SpanBegin = 0,
    /// A span closed; operands as in [`EventKind::SpanBegin`].
    SpanEnd = 1,
    /// A Monte-Carlo lane was seated with a fresh die at engine start;
    /// `a` = engine session and lane ([`lane_operand`]), `b` = die index.
    LaneSeat = 2,
    /// A lane finished its die; operands as in [`EventKind::LaneSeat`].
    LaneRetire = 3,
    /// A lane was refilled with a queued die mid-run; operands as in
    /// [`EventKind::LaneSeat`].
    LaneRefill = 4,
    /// A transient step was accepted; `a` = session and lane
    /// ([`lane_operand`]), `b` = Newton iterations spent, `value` =
    /// accepted dt in seconds.
    StepAccepted = 5,
    /// Pivot growth invalidated a cached analysis and forced a fresh
    /// symbolic pass; `a` = session and lane, `b` = analyses performed.
    Reanalysis = 6,
    /// End-of-super-iteration occupancy sample; `a` = busy lanes,
    /// `b` = session and total lanes ([`lane_operand`]), `value` = busy
    /// fraction.
    Occupancy = 7,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::SpanBegin,
            1 => EventKind::SpanEnd,
            2 => EventKind::LaneSeat,
            3 => EventKind::LaneRetire,
            4 => EventKind::LaneRefill,
            5 => EventKind::StepAccepted,
            6 => EventKind::Reanalysis,
            7 => EventKind::Occupancy,
            _ => return None,
        })
    }
}

/// Operands are stored in 28 bits each (values are truncated); plenty
/// for lane, die, path and thread ids.
const OPERAND_MASK: u32 = (1 << 28) - 1;

/// Low bits of a lane operand holding the lane; the bits above hold the
/// engine session.
const LANE_BITS: u32 = 12;

/// Session ids cycle below this, so a packed operand fits the 28-bit
/// operand.
const SESSION_CYCLE: u32 = OPERAND_MASK >> LANE_BITS;

/// A fresh id for one batched-engine session. Ids are unique among the
/// last 65 535 sessions, which is what lets the trace exporter tell
/// apart the lanes of engines running at the same time.
pub fn next_session() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed) % SESSION_CYCLE
}

/// Packs an engine session and a lane into one event operand: the
/// session in the high 16 bits, the lane in the low 12 (lanes past 4095
/// alias).
pub fn lane_operand(session: u32, lane: usize) -> u32 {
    ((session % SESSION_CYCLE) << LANE_BITS) | (lane as u32 & ((1 << LANE_BITS) - 1))
}

/// Splits a [`lane_operand`] into `(session, lane)`.
pub fn split_lane_operand(a: u32) -> (u32, u32) {
    (a >> LANE_BITS, a & ((1 << LANE_BITS) - 1))
}

/// One recorded telemetry event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Nanoseconds since the process-wide epoch (first use of the
    /// telemetry clock).
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First operand (lane, span path id, …) — see [`EventKind`].
    pub a: u32,
    /// Second operand (die, thread id, …) — see [`EventKind`].
    pub b: u32,
    /// Floating-point payload (dt, occupancy fraction, …).
    pub value: f64,
}

/// Nanoseconds since the process-wide telemetry epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Small dense id of the calling thread, for event operands.
pub fn current_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

struct Slot {
    t_ns: AtomicU64,
    /// `kind` (8 bits) | `a` (28 bits) | `b` (28 bits).
    meta: AtomicU64,
    value_bits: AtomicU64,
    /// 0 = empty; `generation + 1` = published for that generation.
    ready: AtomicU64,
}

/// The bounded lock-free event buffer (see the module docs for the
/// keep-first-overflow contract).
pub struct EventRing {
    slots: Box<[Slot]>,
    /// Total events offered since the last reset; grows past
    /// `capacity` when events are dropped.
    next: AtomicU64,
    /// Bumped by [`EventRing::reset`] so stale in-flight writes from
    /// before a reset are never published.
    generation: AtomicU64,
}

impl EventRing {
    /// A ring holding at most `capacity` events per run.
    pub fn with_capacity(capacity: usize) -> EventRing {
        EventRing {
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    t_ns: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    value_bits: AtomicU64::new(0),
                    ready: AtomicU64::new(0),
                })
                .collect(),
            next: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// Maximum events retained between resets.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one event stamped with [`now_ns`]. Never blocks; past
    /// capacity the event is counted as dropped instead.
    pub fn push(&self, kind: EventKind, a: u32, b: u32, value: f64) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.slots.len() as u64 {
            return; // dropped; `next` keeps the count
        }
        let generation = self.generation.load(Ordering::Acquire);
        let slot = &self.slots[idx as usize];
        slot.t_ns.store(now_ns(), Ordering::Relaxed);
        let meta =
            ((kind as u64) << 56) | (((a & OPERAND_MASK) as u64) << 28) | (b & OPERAND_MASK) as u64;
        slot.meta.store(meta, Ordering::Relaxed);
        slot.value_bits.store(value.to_bits(), Ordering::Relaxed);
        slot.ready.store(generation + 1, Ordering::Release);
    }

    /// Events recorded and retained since the last reset.
    pub fn len(&self) -> usize {
        (self.next.load(Ordering::Relaxed) as usize).min(self.slots.len())
    }

    /// `true` when nothing has been recorded since the last reset.
    pub fn is_empty(&self) -> bool {
        self.next.load(Ordering::Relaxed) == 0
    }

    /// Events offered past capacity (and therefore not retained) since
    /// the last reset.
    pub fn dropped(&self) -> u64 {
        self.next
            .load(Ordering::Relaxed)
            .saturating_sub(self.slots.len() as u64)
    }

    /// Copies the retained events out, in recording order. Slots whose
    /// writer has not yet published (or that predate the current
    /// generation) are skipped.
    pub fn snapshot(&self) -> Vec<Event> {
        let generation = self.generation.load(Ordering::Acquire);
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        for slot in &self.slots[..n] {
            if slot.ready.load(Ordering::Acquire) != generation + 1 {
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let Some(kind) = EventKind::from_u8((meta >> 56) as u8) else {
                continue;
            };
            out.push(Event {
                t_ns: slot.t_ns.load(Ordering::Relaxed),
                kind,
                a: ((meta >> 28) as u32) & OPERAND_MASK,
                b: (meta as u32) & OPERAND_MASK,
                value: f64::from_bits(slot.value_bits.load(Ordering::Relaxed)),
            });
        }
        out
    }

    /// Discards all retained events and the drop count. Must not race
    /// active recording (call between runs).
    pub fn reset(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.next.store(0, Ordering::Relaxed);
    }
}

/// The process-wide ring (capacity [`DEFAULT_EVENT_CAPACITY`]),
/// allocated on first use.
pub fn event_ring() -> &'static EventRing {
    static RING: OnceLock<EventRing> = OnceLock::new();
    RING.get_or_init(|| EventRing::with_capacity(DEFAULT_EVENT_CAPACITY))
}

/// Records one event into the global ring when [`events_enabled`];
/// no-op (one relaxed load) otherwise.
#[inline]
pub fn record_event(kind: EventKind, a: u32, b: u32, value: f64) {
    if events_enabled() {
        event_ring().push(kind, a, b, value);
    }
}

/// Clears the global ring (no-op if it was never touched). Part of
/// [`crate::reset`]; must not race active recording.
pub fn reset_events() {
    event_ring().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_snapshot_roundtrip() {
        let ring = EventRing::with_capacity(8);
        ring.push(EventKind::LaneSeat, 2, 5, 0.0);
        ring.push(EventKind::StepAccepted, 2, 3, 1.5e-12);
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::LaneSeat);
        assert_eq!((events[0].a, events[0].b), (2, 5));
        assert_eq!(events[1].kind, EventKind::StepAccepted);
        assert_eq!(events[1].value, 1.5e-12);
        assert!(events[1].t_ns >= events[0].t_ns);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overflow_counts_drops_and_keeps_prefix() {
        let ring = EventRing::with_capacity(4);
        for i in 0..10u32 {
            ring.push(EventKind::Occupancy, i, 4, f64::from(i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let events = ring.snapshot();
        assert_eq!(events.len(), 4);
        // Keep-first: the retained prefix is the oldest events.
        assert_eq!(events[0].a, 0);
        assert_eq!(events[3].a, 3);
        ring.reset();
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.dropped(), 0);
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn reset_discards_previous_generation() {
        let ring = EventRing::with_capacity(4);
        ring.push(EventKind::LaneSeat, 0, 0, 0.0);
        ring.reset();
        ring.push(EventKind::LaneRetire, 1, 1, 0.0);
        let events = ring.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::LaneRetire);
    }

    #[test]
    fn concurrent_pushes_never_lose_more_than_capacity() {
        let ring = EventRing::with_capacity(64);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..100u32 {
                        ring.push(EventKind::StepAccepted, t, i, 1.0);
                    }
                });
            }
        });
        assert_eq!(ring.len() as u64 + ring.dropped(), 400);
        assert_eq!(ring.snapshot().len(), 64);
    }

    #[test]
    fn lane_operands_round_trip() {
        for (session, lane) in [(0, 0), (7, 31), (SESSION_CYCLE - 1, 4095)] {
            let a = lane_operand(session, lane);
            assert_eq!(a & OPERAND_MASK, a, "fits the 28-bit operand");
            assert_eq!(split_lane_operand(a), (session, lane as u32));
        }
        assert_ne!(next_session(), next_session());
    }

    #[test]
    fn operands_truncate_to_28_bits() {
        let ring = EventRing::with_capacity(2);
        ring.push(EventKind::SpanBegin, u32::MAX, u32::MAX, 0.0);
        let e = ring.snapshot()[0];
        assert_eq!(e.a, OPERAND_MASK);
        assert_eq!(e.b, OPERAND_MASK);
    }

    #[test]
    fn disabled_record_event_is_a_noop() {
        // Gated: the switch and ring are process-wide and other gated
        // tests toggle them.
        let _g = crate::span::tests_gate();
        set_events(false);
        assert!(!events_enabled());
        let before = event_ring().len();
        record_event(EventKind::Occupancy, 0, 0, 0.5);
        assert_eq!(event_ring().len(), before);
    }
}
