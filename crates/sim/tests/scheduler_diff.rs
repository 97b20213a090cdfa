//! Differential suite for the event queue: [`EventQueue`] against a naive
//! reference model that keeps its pending events in a sorted `Vec`.
//!
//! Both are driven with *identical* operation streams — schedule
//! (including same-timestamp bursts and far-future times), pop,
//! deadline-bounded pop, peek, cancel (including cancel-of-popped and
//! double-cancel), and cancel+reschedule — and every observable result
//! must agree exactly: cancel booleans, pop order and clamped times,
//! peeked times, and live counts. Issued [`EventId`]s must be strictly
//! increasing.
//!
//! Runs under `scripts/ci.sh --proptest` alongside the other kernel
//! property suites.

use hwdp_sim::events::{EventId, EventQueue};
use hwdp_sim::time::{Duration, Time};
use proptest::prelude::*;

/// The reference model: pending `(at_ps, id, payload)` triples kept
/// sorted by `(at_ps, id)`, so the ordering law holds by construction.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, usize)>,
    next_id: u64,
    now: u64,
}

impl Model {
    fn schedule(&mut self, at: u64, payload: usize) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let pos = self.pending.partition_point(|&(t, i, _)| (t, i) < (at, id));
        self.pending.insert(pos, (at, id, payload));
        id
    }

    fn cancel(&mut self, id: u64) -> bool {
        match self.pending.iter().position(|&(_, i, _)| i == id) {
            Some(pos) => {
                self.pending.remove(pos);
                true
            }
            None => false,
        }
    }

    fn pop_until(&mut self, deadline: u64) -> Option<(Time, usize)> {
        let &(at, _, payload) = self.pending.first()?;
        if at > deadline {
            return None;
        }
        self.pending.remove(0);
        self.now = self.now.max(at);
        Some((ps(self.now), payload))
    }

    fn pop(&mut self) -> Option<(Time, usize)> {
        self.pop_until(u64::MAX)
    }

    fn peek_time(&self) -> Option<Time> {
        self.pending.first().map(|&(at, _, _)| ps(at))
    }
}

fn ps(t: u64) -> Time {
    Time::ZERO + Duration::from_ps(t)
}

/// The queue and the model side by side, with the ids each issued in
/// scheduling order (index `k` in both refers to the same event).
#[derive(Default)]
struct Pair {
    queue: EventQueue<usize>,
    model: Model,
    issued: Vec<(EventId, u64)>,
}

impl Pair {
    fn schedule(&mut self, at: u64, payload: usize) {
        let id = self.queue.schedule(ps(at), payload);
        let raw = self.model.schedule(at, payload);
        if let Some(&(last, _)) = self.issued.last() {
            assert!(id > last, "EventIds must be strictly increasing");
        }
        self.issued.push((id, raw));
    }

    /// Cancels the `sel % issued`-th id ever handed out (which may already
    /// have fired or been cancelled); both must report the same result.
    fn cancel(&mut self, sel: u64) {
        if self.issued.is_empty() {
            return;
        }
        let (id, raw) = self.issued[(sel % self.issued.len() as u64) as usize];
        assert_eq!(self.queue.cancel(id), self.model.cancel(raw), "cancel({id:?}) diverged");
    }

    fn pop(&mut self) -> Option<(Time, usize)> {
        let got = self.queue.pop();
        assert_eq!(got, self.model.pop(), "pop diverged");
        assert_eq!(self.queue.now(), ps(self.model.now), "clock diverged");
        got
    }

    fn check_len(&self) {
        assert_eq!(self.queue.len(), self.model.pending.len(), "len diverged");
        assert_eq!(self.queue.is_empty(), self.model.pending.is_empty());
    }

    /// Drains both; the tail order must agree too. Returns the count.
    fn drain(&mut self) -> usize {
        let mut n = 0;
        while self.pop().is_some() {
            n += 1;
        }
        self.check_len();
        n
    }
}

/// One step of the interpreted operation stream. Raw `(kind, a, b)`
/// triples decode into ops so proptest shrinking stays effective.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Schedule at a derived time; the payload is the op index.
    Schedule(u64),
    /// Pop one event.
    Pop,
    /// Pop one event if it is due by the derived deadline.
    PopUntil(u64),
    /// Peek the next pending time.
    Peek,
    /// Cancel the `a % issued`-th id ever handed out.
    Cancel(u64),
    /// Cancel an id then immediately schedule a replacement (the
    /// reschedule idiom the fault watchdogs use).
    Reschedule(u64, u64),
}

/// Derives a timestamp mixing the interesting regimes: dense small times
/// (same-timestamp bursts), microsecond-scale spreads (the fig12 shape),
/// millisecond timers, and the full 64-bit domain.
fn derive_time(a: u64, b: u64) -> u64 {
    match b % 7 {
        0 => a % 64,                                // near-identical instants
        1 | 2 => a % 5_000,                         // dense bursts
        3 | 4 => a % 100_000_000,                   // ~100 us spread
        5 => (a % 1_000) * 1_000_000_000,           // ms-scale timers
        _ => a.wrapping_mul(0x9E37_79B9_7F4A_7C15), // full u64 domain
    }
}

fn decode(raw: &[(u8, u64, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(k, a, b)| match k % 9 {
            // Weight toward schedule/pop so streams stay busy.
            0..=2 => Op::Schedule(derive_time(a, b)),
            3 | 4 => Op::Pop,
            5 => Op::PopUntil(derive_time(b, a)),
            6 => Op::Peek,
            7 => Op::Cancel(a),
            _ => Op::Reschedule(a, derive_time(a, b)),
        })
        .collect()
}

/// Runs one stream against the queue and the model, asserting observable
/// equivalence at every step. Returns the number of events that fired.
fn run_diff(ops: &[Op]) -> usize {
    let mut p = Pair::default();
    let mut fired = 0usize;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Schedule(t) => p.schedule(t, i),
            Op::Pop => fired += usize::from(p.pop().is_some()),
            Op::PopUntil(deadline) => {
                let got = p.queue.pop_until(ps(deadline));
                assert_eq!(got, p.model.pop_until(deadline), "pop_until diverged at op {i}");
                assert_eq!(p.queue.now(), ps(p.model.now), "clock diverged at op {i}");
                fired += usize::from(got.is_some());
            }
            Op::Peek => {
                assert_eq!(p.queue.peek_time(), p.model.peek_time(), "peek diverged at op {i}");
            }
            Op::Cancel(sel) => {
                p.cancel(sel);
            }
            Op::Reschedule(sel, t) => {
                p.cancel(sel);
                p.schedule(t, i);
            }
        }
        p.check_len();
    }
    fired + p.drain()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline differential property: arbitrary op streams observe
    /// no difference between the queue and the sorted-`Vec` model.
    #[test]
    fn queue_matches_reference_model(
        raw in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..400)
    ) {
        run_diff(&decode(&raw));
    }

    /// Same-timestamp burst storms: every event lands on one instant, so
    /// ordering rests entirely on EventId FIFO stability.
    #[test]
    fn same_instant_bursts_stay_fifo(
        t in any::<u64>(),
        n in 1usize..300,
        cancels in prop::collection::vec(any::<u64>(), 0..64)
    ) {
        let mut p = Pair::default();
        for i in 0..n {
            p.schedule(t, i);
        }
        for sel in cancels {
            p.cancel(sel);
        }
        let mut last = None;
        while let Some((_, payload)) = p.pop() {
            prop_assert!(last < Some(payload), "FIFO among equal times");
            last = Some(payload);
        }
    }

    /// Cancel-of-popped ids: fire some events, then cancel a mix of
    /// fired and pending ids — fired ids must report `false` and the
    /// residual state must match the model.
    #[test]
    fn cancel_of_popped_ids_agrees(
        times in prop::collection::vec(any::<u64>(), 2..100),
        pops in 1usize..50,
        cancels in prop::collection::vec(any::<u64>(), 1..100)
    ) {
        let mut p = Pair::default();
        for (i, &t) in times.iter().enumerate() {
            p.schedule(derive_time(t, i as u64), i);
        }
        for _ in 0..pops.min(times.len()) {
            p.pop();
        }
        for sel in cancels {
            p.cancel(sel);
            p.check_len();
        }
        p.drain();
    }

    /// Cancel-heavy streams: most scheduled events are cancelled before
    /// they fire, so cancelled keys repeatedly outnumber half the live
    /// ones and the queue compacts mid-stream. Order must survive it.
    #[test]
    fn cancel_heavy_streams_survive_compaction(
        rounds in prop::collection::vec(
            (prop::collection::vec(any::<u64>(), 1..40), any::<u64>(), 0usize..4),
            1..30
        )
    ) {
        let mut p = Pair::default();
        for (r, (times, seed, pops)) in rounds.iter().enumerate() {
            let first = p.issued.len();
            for (i, &t) in times.iter().enumerate() {
                p.schedule(derive_time(t, *seed), r * 1_000 + i);
            }
            // Cancel all but roughly one in four of this round's events.
            for (k, &t) in times.iter().enumerate() {
                if (t ^ seed) % 4 != 0 {
                    p.cancel((first + k) as u64);
                }
            }
            for _ in 0..*pops {
                p.pop();
            }
            p.check_len();
        }
        p.drain();
    }
}

/// A fixed fig12-shaped smoke stream (no proptest shrinkage, always the
/// same trace): interleaved schedule/pop with microsecond deltas, ~10 %
/// cancels, and periodic peeks and deadline pops — the inner-loop shape
/// the campaigns exercise, pinned deterministically.
#[test]
fn fig12_shaped_stream_is_equivalent() {
    let mut raw = Vec::new();
    let mut x = 0x1234_5678_9abc_def0u64;
    for i in 0..4_000u64 {
        // xorshift64 for a deterministic pseudo-random stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let kind = match x % 10 {
            0..=3 => 0u8, // schedule
            4..=5 => 3,   // pop
            6 => 5,       // pop until
            7 => 6,       // peek
            8 => 7,       // cancel
            _ => 8,       // reschedule
        };
        raw.push((kind, x, i));
    }
    let fired = run_diff(&decode(&raw));
    assert!(fired > 500, "the smoke stream actually fired events ({fired})");
}
