//! Scheduler-contract scenarios on a recycled [`EventQueue`].
//!
//! `events::tests` checks the queue's laws on a fresh queue, where ids
//! start at 0 and slab slots are handed out in id order. These tests run
//! the same scenarios (first written for the timing wheel the simulator
//! used to schedule with, whose names they keep) on a queue that has
//! already been through schedule/cancel/pop traffic: ids start far from
//! 0, compaction has run, and the slab hands out freed slots in an order
//! unrelated to the ids. The ordering law, cancel semantics and clock must
//! not notice the difference.

#[cfg(test)]
mod tests {
    use crate::events::EventQueue;
    use crate::time::{Duration, Time};

    fn at(ns: u64) -> Time {
        Time::ZERO + Duration::from_nanos(ns)
    }

    /// An empty queue at [`Time::ZERO`] whose id counter, id ring and slab
    /// free list carry the history of 64 events: every odd one cancelled
    /// (which compacts the heap), the even ones popped.
    fn recycled<E>(fill: impl Fn(u64) -> E) -> EventQueue<E> {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..64).map(|i| q.schedule(Time::ZERO, fill(i))).collect();
        for id in ids.iter().skip(1).step_by(2) {
            assert!(q.cancel(*id));
        }
        while q.pop().is_some() {}
        assert!(q.is_empty());
        assert_eq!(q.now(), Time::ZERO);
        q
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = recycled(|_| 0);
        w.schedule(at(30), 3);
        w.schedule(at(10), 1);
        w.schedule(at(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_fires_in_scheduling_order() {
        let mut w = recycled(|_| 0);
        for i in 0..100 {
            w.schedule(at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_monotonically() {
        let mut w = recycled(|_| ());
        w.schedule(at(50), ());
        w.pop();
        assert_eq!(w.now(), at(50));
        // Scheduling in the past fires but does not rewind the clock.
        w.schedule(at(10), ());
        let (t, _) = w.pop().unwrap();
        assert_eq!(t, at(50));
        assert_eq!(w.now(), at(50));
    }

    #[test]
    fn cancel_removes_event() {
        let mut w = recycled(|_| ' ');
        let a = w.schedule(at(10), 'a');
        w.schedule(at(20), 'b');
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "double-cancel reports false");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop().map(|(_, e)| e), Some('b'));
    }

    #[test]
    fn cancel_of_popped_id_is_false() {
        let mut w = recycled(|_| ' ');
        let a = w.schedule(at(10), 'a');
        assert_eq!(w.pop().map(|(_, e)| e), Some('a'));
        assert!(!w.cancel(a));
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut w = recycled(|_| ' ');
        let a = w.schedule(at(10), 'a');
        w.schedule(at(20), 'b');
        w.cancel(a);
        assert_eq!(w.peek_time(), Some(at(20)));
    }

    #[test]
    fn empty_wheel_behaviour() {
        let mut w = recycled(|_| ());
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.pop(), None);
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn peek_then_past_schedule_keeps_global_order() {
        // A schedule behind the peeked head (but after `now`) still fires
        // first.
        let mut w = recycled(|_| ' ');
        w.schedule(at(1_000_000), 'z');
        assert_eq!(w.peek_time(), Some(at(1_000_000)));
        w.schedule(at(100), 'a');
        w.schedule(at(200), 'b');
        assert_eq!(w.peek_time(), Some(at(100)));
        let order: Vec<char> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'z']);
    }

    #[test]
    fn far_future_times_span_all_levels() {
        // One timestamp per 4-bit digit of the picosecond domain, up to
        // bits 60..64, scheduled in descending order.
        let mut w = recycled(|i| i);
        let mut times: Vec<u64> = (0..16).map(|k| 1u64 << (k * 4)).rev().collect();
        for &t in &times {
            w.schedule(Time::ZERO + Duration::from_ps(t), t);
        }
        times.sort_unstable();
        let order: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, times);
    }

    #[test]
    fn cancel_heavy_plan_does_not_grow_the_wheel_unboundedly() {
        let mut w = recycled(|i| (i, 0));
        let mut kept = 0usize;
        for round in 0u64..200 {
            for i in 0..10 {
                let id = w.schedule(at(round * 100 + i), (round, i));
                if i == 0 {
                    kept += 1;
                } else {
                    assert!(w.cancel(id));
                }
            }
        }
        assert_eq!(w.len(), kept);
        assert!(
            w.heap_entries() <= w.len() + w.len() / 2 + 1,
            "tombstone debt unbounded: {} heap entries for {} live events",
            w.heap_entries(),
            w.len()
        );
        let mut last = Time::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = w.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, kept);
    }
}
