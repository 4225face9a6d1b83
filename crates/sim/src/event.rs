//! The event queue at the heart of the discrete-event engine.

use crate::time::SimTime;

/// A deterministic priority queue of timestamped events.
///
/// Events are delivered in non-decreasing time order; events scheduled for
/// the same instant are delivered in scheduling order (FIFO), which makes
/// simulation runs reproducible regardless of payload type.
///
/// Internally a 4-ary min-heap ordered on `(time, seq)`: popping the
/// minimum dominates a simulation run's profile, and the wider fan-out
/// halves the sift-down depth over a binary heap while the children of a
/// node share a cache line or two. Every key is unique (the sequence
/// number breaks ties), so *any* correct heap pops the same order — the
/// layout is a pure performance choice with no effect on determinism.
///
/// # Example
///
/// ```
/// use aria_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(1), 'b');
/// q.schedule(SimTime::from_secs(1), 'c'); // same instant: FIFO
/// q.schedule(SimTime::ZERO, 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: Vec<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    clamped: u64,
    peak: usize,
}

/// Heap arity. Four children per node: sift-down compares one extra pair
/// per level but needs half the levels, a known win for pop-heavy heaps.
const ARITY: usize = 4;

#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue { heap: Vec::new(), next_seq: 0, now: SimTime::ZERO, clamped: 0, peak: 0 }
    }

    /// Reserves room for at least `additional` more pending events, so a
    /// known burst of schedules (a world's per-node start-up timers) does
    /// not regrow the heap once per doubling. Capacity only: pop order
    /// and every observable counter are unaffected.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Restores the heap invariant upward from `pos` after a push.
    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if self.heap[pos].key() < self.heap[parent].key() {
                self.heap.swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    /// Restores the heap invariant downward from `pos` after a pop.
    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let first = ARITY * pos + 1;
            if first >= self.heap.len() {
                break;
            }
            let end = (first + ARITY).min(self.heap.len());
            let mut best = first;
            for child in first + 1..end {
                if self.heap[child].key() < self.heap[best].key() {
                    best = child;
                }
            }
            if self.heap[pos].key() <= self.heap[best].key() {
                break;
            }
            self.heap.swap(pos, best);
            pos = best;
        }
    }

    /// Schedules `event` for delivery at instant `at`.
    ///
    /// Scheduling in the past is a logic error in the simulation layers
    /// above; it is tolerated here (the event fires "now") but flagged in
    /// debug builds and counted in [`EventQueue::clamped_count`] so release
    /// builds can assert the count stayed zero instead of silently
    /// reordering causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        if at < self.now {
            self.clamped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at: at.max(self.now), seq, event });
        self.peak = self.peak.max(self.heap.len());
        self.sift_up(self.heap.len() - 1);
    }

    /// How many events were scheduled in the past and clamped to `now`.
    ///
    /// Always zero in a causally sound simulation; see
    /// [`EventQueue::schedule`].
    pub fn clamped_count(&self) -> u64 {
        self.clamped
    }

    /// Removes and returns the earliest event together with its timestamp,
    /// advancing the queue clock, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let entry = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// The next event (the one [`EventQueue::pop`] would return) without
    /// removing it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.first().map(|e| (e.at, &e.event))
    }

    // --- exploration hooks ------------------------------------------------
    //
    // The bounded model checker (crates/model) treats this queue as a
    // *pending set* rather than a timeline: it removes events out of
    // delivery order to enumerate alternative message interleavings. The
    // two hooks below exist for that driver only; [`EventQueue::pop`]
    // remains the sole delivery path of the event-queue driver.

    /// Removes and returns the earliest (smallest `(time, seq)`) pending
    /// event satisfying `pred`, **without** advancing the queue clock.
    ///
    /// `None` if no pending event matches. Used by the exploration driver
    /// to force a specific delivery; pair with
    /// [`EventQueue::advance_clock`] when the removed event should also
    /// move time forward.
    pub fn remove_where(&mut self, mut pred: impl FnMut(&E) -> bool) -> Option<(SimTime, E)> {
        let mut best: Option<usize> = None;
        for (i, entry) in self.heap.iter().enumerate() {
            if pred(&entry.event) && best.is_none_or(|b| entry.key() < self.heap[b].key()) {
                best = Some(i);
            }
        }
        let pos = best?;
        let entry = self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            // The swapped-in tail element may violate the heap invariant
            // in either direction.
            self.sift_down(pos);
            self.sift_up(pos);
        }
        Some((entry.at, entry.event))
    }

    /// Advances the queue clock to `to` without delivering anything.
    ///
    /// # Panics
    ///
    /// Panics if `to` is in the past: the exploration driver may reorder
    /// deliveries but never time itself.
    pub fn advance_clock(&mut self, to: SimTime) {
        assert!(to >= self.now, "clock moved backwards: {to} < {}", self.now);
        self.now = to;
    }

    /// Iterates over every pending event with its timestamp and sequence
    /// number, in unspecified (heap) order.
    ///
    /// Like [`EventQueue::iter`] but exposing the FIFO tie-break key, so
    /// state canonicalization can order same-instant events exactly as
    /// [`EventQueue::pop`] would deliver them.
    pub fn entries(&self) -> impl Iterator<Item = (SimTime, u64, &E)> + '_ {
        self.heap.iter().map(|e| (e.at, e.seq, &e.event))
    }

    /// Iterates over every pending event in unspecified (heap) order.
    ///
    /// This is an inspection hook for state-machine auditing — e.g.
    /// `World::check_invariants` cross-checks per-flood in-flight counts
    /// against the messages actually pending here. Delivery order is
    /// still decided exclusively by [`EventQueue::pop`].
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> + '_ {
        self.heap.iter().map(|e| (e.at, &e.event))
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// High-water mark of [`EventQueue::len`] over the queue's lifetime —
    /// the deepest the pending set has ever been. Purely observational
    /// (feeds the probe layer's gauge events); never affects delivery.
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), 3);
        q.schedule(SimTime::from_secs(10), 1);
        q.schedule(SimTime::from_secs(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn ties_resolve_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_secs(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(42), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(42));
    }

    #[test]
    fn interleaved_scheduling_preserves_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "a");
        let (t, _) = q.pop().unwrap();
        // schedule relative to popped time
        q.schedule(t + SimDuration::from_secs(5), "c");
        q.schedule(t + SimDuration::from_secs(1), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peak_len_is_a_high_water_mark() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        q.schedule(SimTime::ZERO, 3);
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.peak_len(), 3, "draining must not lower the mark");
        q.schedule(SimTime::from_secs(1), 4);
        assert_eq!(q.peak_len(), 3, "returning below the mark keeps it");
    }

    #[test]
    fn clamped_count_stays_zero_for_sound_schedules() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 'a');
        q.pop();
        q.schedule(SimTime::from_secs(1), 'b'); // exactly `now` is fine
        q.schedule(SimTime::from_secs(2), 'c');
        assert_eq!(q.clamped_count(), 0);
    }

    // The two halves of the past-scheduling guard: debug builds panic at
    // the offending `schedule` call, release builds clamp silently and
    // bump the counter for `World::check_invariants` to catch.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_schedules_panic_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 'a');
        q.pop();
        q.schedule(SimTime::from_secs(3), 'b');
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn past_schedules_are_clamped_and_counted() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 'a');
        q.pop();
        q.schedule(SimTime::from_secs(3), 'b');
        assert_eq!(q.clamped_count(), 1);
        // The clamped event fires at `now`, not in the past.
        let (at, e) = q.pop().unwrap();
        assert_eq!((at, e), (SimTime::from_secs(10), 'b'));
    }

    #[test]
    fn heap_pops_total_order_under_interleaving() {
        // Exercise the 4-ary heap with a scrambled schedule: pops must
        // come out sorted by (time, scheduling order) whatever the push
        // order was, including pushes interleaved with pops.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for i in 0..400u64 {
            let t = SimTime::from_millis((i * 7919) % 1000);
            q.schedule(t, i);
            expected.push((t, i));
        }
        expected.sort();
        let mut popped = Vec::new();
        for _ in 0..100 {
            popped.push(q.pop().unwrap());
        }
        // Later schedules clamp to the clock but keep FIFO order.
        let now = q.now();
        for i in 400..420u64 {
            q.schedule(now + SimDuration::from_millis(i), i);
            expected.push((now + SimDuration::from_millis(i), i));
        }
        expected.sort();
        popped.extend(std::iter::from_fn(|| q.pop()));
        assert_eq!(popped, expected);
    }

    #[test]
    fn iter_visits_every_pending_event_without_consuming() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 'b');
        q.schedule(SimTime::from_secs(1), 'a');
        let mut seen: Vec<(SimTime, char)> = q.iter().map(|(t, &e)| (t, e)).collect();
        seen.sort();
        assert_eq!(
            seen,
            [(SimTime::from_secs(1), 'a'), (SimTime::from_secs(2), 'b')]
        );
        assert_eq!(q.len(), 2, "iteration must not consume");
    }

    #[test]
    fn peek_time_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), 'x');
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.peek(), Some((SimTime::from_secs(7), &'x')));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn remove_where_takes_the_earliest_match_and_keeps_the_heap() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.schedule(SimTime::from_secs((i * 13) % 20), i);
        }
        // Remove all odd events, earliest-first; they must come out in
        // (time, seq) order among themselves.
        let mut odd = Vec::new();
        while let Some((at, e)) = q.remove_where(|e| e % 2 == 1) {
            odd.push((at, e));
        }
        let mut sorted = odd.clone();
        sorted.sort_by_key(|&(t, e)| (t, e));
        assert_eq!(odd.len(), 25);
        assert!(odd.iter().zip(&sorted).all(|(a, b)| a.0 == b.0), "matches out of order");
        // The clock never moved and the survivors still pop in order.
        assert_eq!(q.now(), SimTime::ZERO);
        let rest: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
        let mut expected = rest.clone();
        expected.sort_by_key(|&(t, e)| (t, e));
        assert_eq!(rest.iter().map(|r| r.0).collect::<Vec<_>>(),
                   expected.iter().map(|r| r.0).collect::<Vec<_>>());
        assert!(rest.iter().all(|(_, e)| e % 2 == 0));
    }

    #[test]
    fn remove_where_without_match_is_a_no_op() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 'a');
        assert_eq!(q.remove_where(|&e| e == 'z'), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn advance_clock_moves_time_without_delivering() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(9), 'a');
        q.advance_clock(SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
        assert_eq!(q.len(), 1);
        // Scheduling relative to the advanced clock stays causal.
        q.schedule(SimTime::from_secs(5), 'b');
        assert_eq!(q.clamped_count(), 0);
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn advance_clock_refuses_to_rewind() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_clock(SimTime::from_secs(5));
        q.advance_clock(SimTime::from_secs(4));
    }

    #[test]
    fn entries_expose_fifo_sequence_numbers() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let mut seen: Vec<(SimTime, u64, char)> =
            q.entries().map(|(t, s, &e)| (t, s, e)).collect();
        seen.sort();
        assert_eq!(seen.len(), 2);
        assert!(seen[0].1 < seen[1].1, "seq must break the tie");
        assert_eq!((seen[0].2, seen[1].2), ('a', 'b'));
    }

    #[test]
    fn cloned_queues_replay_identically() {
        let mut q = EventQueue::new();
        for i in 0..20u64 {
            q.schedule(SimTime::from_secs((i * 7) % 10), i);
        }
        let mut fork = q.clone();
        let a: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<(SimTime, u64)> = std::iter::from_fn(|| fork.pop()).collect();
        assert_eq!(a, b);
    }
}
