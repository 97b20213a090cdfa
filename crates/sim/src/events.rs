//! The simulator's deterministic event queue.
//!
//! # Contract
//!
//! The queue obeys one deterministic law (pinned by
//! `tests/scheduler_diff.rs`, which drives it against a naive sorted-`Vec`
//! reference model with random operation streams):
//!
//! * **Ordering law** — events fire in ascending `(time, EventId)` order.
//!   The id is assigned from a single monotonic counter at `schedule`
//!   time, so same-instant events fire in scheduling order. This makes
//!   whole-system runs bit-for-bit reproducible, which the calibration
//!   tests rely on.
//! * **EventId monotonicity** — the n-th `schedule` call returns id `n`;
//!   ids are never reused and never depend on internal storage layout.
//! * **Cancel semantics** — `cancel` returns `true` iff the event was
//!   still pending; fired, already-cancelled, and never-issued ids report
//!   `false`. Cancelled events are invisible to `pop`/`peek_time`/`len`.
//! * **Clock** — `now()` is the timestamp of the most recently popped
//!   event (never rewound); `peek_time` reports the next event's raw
//!   scheduled time (which may lie in the past), while `pop` returns the
//!   clamped `max(now, at)`.
//!
//! # Layout
//!
//! A binary min-heap of 24-byte `(at_ps, id, slot)` keys over a payload
//! slab, so heap sifts never move payloads. An id ring maps each live id
//! to its slab slot, giving O(1) `cancel` and O(1) tombstone checks when a
//! cancelled key surfaces at the top of the heap.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{Duration, Time};

/// A handle to a scheduled event, usable for cancellation.
///
/// Ids are assigned from a single monotonic counter per queue, so the id
/// doubles as the same-time tiebreaker: the ordering law is `(time, id)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

/// Retired-id marker in the id ring.
const NIL: u32 = u32::MAX;

/// A time-ordered queue of events with stable same-time ordering and
/// O(1) cancellation (lazy deletion with bounded tombstone debt: the heap
/// compacts whenever cancelled keys outnumber half the live ones, so
/// cancel-heavy plans cannot grow it without bound).
///
/// ```
/// use hwdp_sim::events::EventQueue;
/// use hwdp_sim::time::{Duration, Time};
///
/// let mut q = EventQueue::new();
/// let a = q.schedule(Time::ZERO + Duration::from_nanos(10), 'a');
/// q.schedule(Time::ZERO + Duration::from_nanos(10), 'b');
/// q.cancel(a);
/// assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// `(at_ps, id, slot)` keys; ids are unique, so `slot` never decides
    /// an ordering.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Payloads of pending events; `None` marks a free slot.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    /// `ring[id - base_id]` is the slab slot of a pending event, or
    /// [`NIL`] once it fired or was cancelled. The front is trimmed as ids
    /// retire, so the ring covers exactly `base_id..next_id`.
    ring: VecDeque<u32>,
    base_id: u64,
    next_id: u64,
    live: usize,
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`Time::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            ring: VecDeque::new(),
            base_id: 0,
            next_id: 0,
            live: 0,
            now: Time::ZERO,
        }
    }

    /// The time of the most recently popped event ([`Time::ZERO`] before the
    /// first pop). Popping never moves time backwards.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `payload` to fire at `at`, returning a cancellation handle.
    ///
    /// Scheduling in the past is permitted (the event fires "immediately",
    /// i.e. before any later event) but never rewinds [`Self::now`].
    pub fn schedule(&mut self, at: Time, payload: E) -> EventId {
        let id = self.next_id;
        self.next_id += 1;
        let si = match self.free.pop() {
            Some(si) => {
                self.slab[si as usize] = Some(payload);
                si
            }
            None => {
                self.slab.push(Some(payload));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((at.as_ps(), id, si)));
        self.ring.push_back(si);
        self.live += 1;
        EventId(id)
    }

    /// The ring index of `id` if it is still pending.
    fn pending_index(&self, id: u64) -> Option<usize> {
        let idx = id.checked_sub(self.base_id)? as usize;
        (*self.ring.get(idx)? != NIL).then_some(idx)
    }

    /// Retires the pending id at ring index `idx`, frees its slab slot and
    /// returns the payload.
    fn retire(&mut self, idx: usize) -> Option<E> {
        let si = std::mem::replace(&mut self.ring[idx], NIL);
        while self.ring.front() == Some(&NIL) {
            self.ring.pop_front();
            self.base_id += 1;
        }
        self.live -= 1;
        self.free.push(si);
        self.slab[si as usize].take()
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending — ids that already fired (or were already
    /// cancelled, or were never issued) report `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(idx) = self.pending_index(id.0) else { return false };
        self.retire(idx);
        // Drop tombstoned keys once they outnumber half the live events,
        // bounding the heap's footprint under cancel-heavy plans
        // (fault-injection watchdogs cancel almost every event).
        if self.heap.len() - self.live > self.live / 2 {
            let (ring, base_id) = (&self.ring, self.base_id);
            self.heap.retain(|&Reverse((_, id, _))| {
                id.checked_sub(base_id)
                    .and_then(|idx| ring.get(idx as usize))
                    .is_some_and(|&si| si != NIL)
            });
        }
        true
    }

    /// Discards cancelled keys at the top of the heap and returns the
    /// earliest pending key with its ring index.
    fn settle(&mut self) -> Option<(u64, usize)> {
        while let Some(&Reverse((at, id, _))) = self.heap.peek() {
            if let Some(idx) = self.pending_index(id) {
                return Some((at, idx));
            }
            self.heap.pop();
        }
        None
    }

    /// Pops the earliest pending event, advancing [`Self::now`] to its
    /// timestamp (clamped so time never goes backwards).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_until(Time::ZERO + Duration::from_ps(u64::MAX))
    }

    /// Pops the earliest pending event if its scheduled time is at or
    /// before `deadline`; otherwise leaves the queue untouched and returns
    /// `None`.
    pub fn pop_until(&mut self, deadline: Time) -> Option<(Time, E)> {
        let (at, idx) = self.settle()?;
        if at > deadline.as_ps() {
            return None;
        }
        self.heap.pop();
        let payload = self.retire(idx)?;
        self.now = self.now.max(Time::ZERO + Duration::from_ps(at));
        Some((self.now, payload))
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.settle().map(|(at, _)| Time::ZERO + Duration::from_ps(at))
    }

    /// Keys physically held by the heap, cancelled ones included.
    #[cfg(test)]
    pub(crate) fn heap_entries(&self) -> usize {
        self.heap.len()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> Time {
        Time::ZERO + Duration::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at(30), 3);
        q.schedule(at(10), 1);
        q.schedule(at(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_fires_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(at(50), ());
        q.pop();
        assert_eq!(q.now(), at(50));
        // Scheduling in the past fires but does not rewind the clock.
        q.schedule(at(10), ());
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, at(50));
        assert_eq!(q.now(), at(50));
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(at(10), 'a');
        q.schedule(at(20), 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn cancel_of_popped_id_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(at(10), 'a');
        assert_eq!(q.pop().map(|(_, e)| e), Some('a'));
        assert!(!q.cancel(a), "a fired event is no longer cancellable");
        assert_eq!(q.len(), 0, "phantom tombstones must not distort len()");
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(at(10), 'a');
        q.schedule(at(20), 'b');
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(at(20)));
    }

    #[test]
    fn peek_then_past_schedule_keeps_global_order() {
        // A schedule behind the peeked head (but after `now`) still fires
        // first.
        let mut q = EventQueue::new();
        q.schedule(at(1_000_000), 'z');
        assert_eq!(q.peek_time(), Some(at(1_000_000)));
        q.schedule(at(100), 'a');
        q.schedule(at(200), 'b');
        assert_eq!(q.peek_time(), Some(at(100)));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'z']);
    }

    #[test]
    fn far_future_times_pop_in_order() {
        // Timestamps spread over the whole 64-bit picosecond domain.
        let mut q = EventQueue::new();
        let mut times: Vec<u64> = (0..16).map(|k| 1u64 << (k * 4)).rev().collect();
        times.push(u64::MAX);
        for &t in &times {
            q.schedule(Time::ZERO + Duration::from_ps(t), t);
        }
        times.sort_unstable();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, times);
    }

    #[test]
    fn pop_until_stops_at_the_deadline() {
        let mut q = EventQueue::new();
        q.schedule(at(10), 'a');
        q.schedule(at(20), 'b');
        assert_eq!(q.pop_until(at(15)), Some((at(10), 'a')));
        assert_eq!(q.pop_until(at(15)), None, "b lies past the deadline");
        assert_eq!(q.len(), 1, "a refused pop leaves the event pending");
        assert_eq!(q.now(), at(10));
        assert_eq!(q.pop_until(at(20)), Some((at(20), 'b')), "inclusive deadline");
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cancel_heavy_plan_does_not_grow_the_queue_unboundedly() {
        // A fault-injection-style plan: every scheduled watchdog but one
        // in ten is cancelled before it fires. Without compaction the
        // heap retains one tombstone per cancel forever; with the
        // cancelled > live/2 threshold the physical heap stays within a
        // small factor of the live count.
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        for round in 0u64..200 {
            for i in 0..10 {
                let id = q.schedule(at(round * 100 + i), (round, i));
                if i == 0 {
                    keep.push(id);
                } else {
                    assert!(q.cancel(id));
                }
            }
        }
        assert_eq!(q.len(), keep.len());
        assert!(
            q.heap.len() <= q.len() + q.len() / 2 + 1,
            "tombstone debt unbounded: heap holds {} entries for {} live events",
            q.heap.len(),
            q.len()
        );
        assert!(
            q.slab.len() - q.free.len() == q.len(),
            "cancelled payloads are released immediately"
        );
        // The survivors still pop in exact (time, id) order.
        let mut last = Time::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, keep.len());
    }
}
