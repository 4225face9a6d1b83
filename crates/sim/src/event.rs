//! The event queue at the heart of the discrete-event engine.

use crate::time::SimTime;
use std::collections::VecDeque;

/// A deterministic priority queue of timestamped events.
///
/// Events are delivered in non-decreasing time order; events scheduled for
/// the same instant are delivered in scheduling order (FIFO), which makes
/// simulation runs reproducible regardless of payload type.
///
/// Internally a *monotone radix queue*. A simulation never schedules
/// before the instant it last popped, so every pending key `at` is
/// `>= last` (the timestamp of the latest refill) and can be filed by the
/// highest base-16 digit in which it differs from `last`: list 0 holds
/// the entries with `at == last`, list `(level, digit)` those whose
/// highest differing digit is number `level` and has value `digit`.
/// `schedule` appends to the tail of one list; `pop` takes the head of
/// list 0 and, when that is empty, moves `last` to the minimum of the
/// lowest non-empty list and refiles that one list. An entry only ever
/// moves to a lower level, so it is touched at most once per differing
/// digit — about twice for the 5–150 ms delays a run is made of — instead
/// of once per level of a heap.
///
/// All entries live in one slab of slots threaded into intrusive singly
/// linked lists; popped slots go to a LIFO free list and are reused by
/// the next `schedule`, so the slab never outgrows the deepest the
/// pending set has been ([`EventQueue::peak_len`]) and payloads never
/// move once written.
///
/// Entries with equal timestamps are always in the same list (the list
/// is a function of `at` and `last` only), new entries join at the tail,
/// and refiling walks a list front to back — so FIFO among ties holds
/// without ever comparing sequence numbers, and the delivery order is
/// exactly ascending `(time, seq)`, the order any correct priority queue
/// on that key produces. The layout is a pure performance choice with no
/// effect on determinism (DESIGN.md §9 has the measurements behind it).
///
/// Beside the radix lists sits a *sorted lane*: a FIFO of entries that
/// [`EventQueue::schedule_sorted`] appends for callers whose timestamps
/// never decrease, such as a world's periodic per-node timers. The lane
/// is ascending by `(time, seq)` by construction, so it needs no refiling
/// at all; `pop` delivers from whichever of the lane front and the radix
/// front is smaller by `(time, seq)`. Lane entries draw their sequence
/// numbers from the same counter as `schedule`, so the delivery order is
/// exactly what scheduling everything through `schedule` would give. An
/// out-of-order `schedule_sorted` falls back to `schedule`: a wrong
/// caller is slower, never wrong.
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
    slab: Vec<Slot<E>>,
    /// Head of the LIFO list of vacant slots, threaded through `next`.
    free: u32,
    /// Per list: first and last slot, and the smallest `at` linked since
    /// the list was last empty. `tails` and `mins` are meaningful only
    /// while `heads` is not [`NIL`].
    heads: [u32; LISTS],
    tails: [u32; LISTS],
    mins: [SimTime; LISTS],
    /// Bit `l` set iff `digit_masks[l] != 0`.
    level_mask: u16,
    /// Bit `d` of entry `l` set iff list `(l, d)` is non-empty.
    digit_masks: [u16; LEVELS],
    /// The radix reference point: every linked `at` is `>= last`, and
    /// list 0 holds exactly the entries with `at == last`. Moves only in
    /// [`EventQueue::pop`].
    last: SimTime,
    /// The sorted lane: `(at, seq, event)`, strictly ascending by
    /// `(at, seq)`, never below `last`.
    lane: VecDeque<(SimTime, u64, E)>,
    /// Pending events: linked slots plus lane entries.
    len: usize,
    next_seq: u64,
    now: SimTime,
    clamped: u64,
    peak: usize,
}

/// Bits per radix digit. Base 16: binary digits were measured to refile
/// every entry twice as often, wider digits to spread a paper-scale
/// pending set over too many near-empty lists.
const DIGIT_BITS: u32 = 4;
const DIGITS: usize = 1 << DIGIT_BITS;
const LEVELS: usize = (u64::BITS / DIGIT_BITS) as usize;
const LISTS: usize = 1 + LEVELS * DIGITS;
/// The null link.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot<E> {
    at: SimTime,
    seq: u64,
    /// Next slot in the same list (or the next vacant slot).
    next: u32,
    /// `None` while the slot is on the free list.
    event: Option<E>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            heads: [NIL; LISTS],
            tails: [NIL; LISTS],
            mins: [SimTime::ZERO; LISTS],
            level_mask: 0,
            digit_masks: [0; LEVELS],
            last: SimTime::ZERO,
            lane: VecDeque::new(),
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            clamped: 0,
            peak: 0,
        }
    }

    /// Reserves room in the sorted lane for at least `additional` more
    /// entries than it holds, so a known set of periodic timers (a
    /// world's one tick per node) fits without regrowing the lane once
    /// per doubling. Capacity only: pop order and every observable
    /// counter are unaffected.
    pub fn reserve(&mut self, additional: usize) {
        self.lane.reserve(additional);
    }

    /// The list an entry with timestamp `at` belongs to under the current
    /// `last`.
    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "the digit is masked below DIGITS")]
    fn list_of(&self, at: SimTime) -> usize {
        let diff = at.as_millis() ^ self.last.as_millis();
        if diff == 0 {
            return 0;
        }
        let level = (u64::BITS - 1 - diff.leading_zeros()) / DIGIT_BITS;
        let digit = (at.as_millis() >> (DIGIT_BITS * level)) as usize & (DIGITS - 1);
        1 + level as usize * DIGITS + digit
    }

    /// The `(level, digit)` that names `list` (>= 1) in the two masks.
    #[inline]
    fn mask_bit(list: usize) -> (usize, usize) {
        ((list - 1) / DIGITS, (list - 1) % DIGITS)
    }

    /// Appends slot `idx` to the list its timestamp selects.
    #[inline]
    fn link(&mut self, idx: u32) {
        let at = self.slab[idx as usize].at;
        let list = self.list_of(at);
        self.slab[idx as usize].next = NIL;
        if self.heads[list] == NIL {
            self.heads[list] = idx;
            self.mins[list] = at;
            if list != 0 {
                let (level, digit) = Self::mask_bit(list);
                self.digit_masks[level] |= 1 << digit;
                self.level_mask |= 1 << level;
            }
        } else {
            self.slab[self.tails[list] as usize].next = idx;
            if at < self.mins[list] {
                self.mins[list] = at;
            }
        }
        self.tails[list] = idx;
    }

    /// Marks `list` (>= 1) empty in `heads` and both masks.
    fn clear_list(&mut self, list: usize) {
        let (level, digit) = Self::mask_bit(list);
        self.heads[list] = NIL;
        self.digit_masks[level] &= !(1 << digit);
        if self.digit_masks[level] == 0 {
            self.level_mask &= !(1 << level);
        }
    }

    /// The list holding the earliest linked entry and that entry's
    /// timestamp, or `None` if no slot is linked (the sorted lane is not
    /// consulted). O(1): list 0 if it has
    /// anything, else the lowest digit of the lowest level — every entry
    /// there is smaller than every entry of a higher digit or level.
    #[inline]
    fn front(&self) -> Option<(usize, SimTime)> {
        if self.heads[0] != NIL {
            return Some((0, self.last));
        }
        if self.level_mask == 0 {
            return None;
        }
        let level = self.level_mask.trailing_zeros() as usize;
        let digit = self.digit_masks[level].trailing_zeros() as usize;
        let list = 1 + level * DIGITS + digit;
        Some((list, self.mins[list]))
    }

    /// Vacates slot `idx` (already unlinked) and returns its payload.
    #[inline]
    fn release(&mut self, idx: u32) -> E {
        let slot = &mut self.slab[idx as usize];
        let event = slot.event.take().expect("a linked slot holds an event");
        slot.next = self.free;
        self.free = idx;
        self.len -= 1;
        event
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
        // `now >= last` always (see `pop`), so the clamp also keeps the
        // radix invariant `at >= last`.
        let slot = Slot { at: at.max(self.now), seq: self.next_seq, next: NIL, event: Some(event) };
        self.next_seq += 1;
        let idx = match self.free {
            NIL => {
                let idx = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&idx| idx != NIL)
                    .expect("fewer than u32::MAX events pending at once");
                self.slab.push(slot);
                idx
            }
            vacant => {
                self.free = self.slab[vacant as usize].next;
                self.slab[vacant as usize] = slot;
                vacant
            }
        };
        self.link(idx);
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Schedules `event` for delivery at instant `at`, for callers whose
    /// timestamps never decrease: the entry is appended to the sorted
    /// lane in O(1) and never refiled. Delivery order is exactly that of
    /// [`EventQueue::schedule`]. An `at` below the lane's tail or below
    /// `now` goes through `schedule` instead, with its past-schedule
    /// guard and clamp accounting.
    pub fn schedule_sorted(&mut self, at: SimTime, event: E) {
        if at < self.now || self.lane.back().is_some_and(|&(tail, ..)| at < tail) {
            return self.schedule(at, event);
        }
        self.lane.push_back((at, self.next_seq, event));
        self.next_seq += 1;
        self.len += 1;
        self.peak = self.peak.max(self.len);
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
        self.pop_due(SimTime::from_millis(u64::MAX))
    }

    /// Like [`EventQueue::pop`], but leaves the queue untouched and
    /// returns `None` if the earliest event is later than `deadline`.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let mut radix = self.front();
        let lane = self.lane.front().map(|&(at, seq, _)| (at, seq));
        let at = match (radix, lane) {
            (None, None) => return None,
            (Some((_, at)), None) | (None, Some((at, _))) => at,
            (Some((_, radix_at)), Some((lane_at, _))) => radix_at.min(lane_at),
        };
        if at > deadline {
            return None;
        }
        let from_lane = match (radix, lane) {
            (Some((list, radix_at)), Some((lane_at, seq))) if radix_at == lane_at => {
                // A tie in time: the radix front's first entry at `at` is
                // the head of list 0 once its list is settled.
                self.settle(list, at);
                radix = Some((0, at));
                seq < self.slab[self.heads[0] as usize].seq
            }
            (Some((_, radix_at)), Some((lane_at, _))) => lane_at < radix_at,
            (radix, _) => radix.is_none(),
        };
        // The one place `now` can move backwards — and only after the
        // exploration driver ran it ahead with `advance_clock`.
        self.now = at;
        if from_lane {
            self.len -= 1;
            return self.lane.pop_front().map(|(at, _, event)| (at, event));
        }
        let (list, _) = radix.expect("the radix lists hold the front");
        self.settle(list, at);
        let idx = self.heads[0];
        self.heads[0] = self.slab[idx as usize].next;
        Some((at, self.release(idx)))
    }

    /// Makes list 0 hold the radix front, given what
    /// [`EventQueue::front`] returned: moves the reference point to the
    /// global minimum `at` and refiles the one list that held it.
    /// Everything in that list agrees with the new `last` above the
    /// list's own digit, so it lands in list 0 or a strictly lower level,
    /// in its old order.
    #[inline]
    fn settle(&mut self, list: usize, at: SimTime) {
        if list == 0 {
            return;
        }
        self.last = at;
        let mut idx = self.heads[list];
        self.clear_list(list);
        while idx != NIL {
            let next = self.slab[idx as usize].next;
            self.link(idx);
            idx = next;
        }
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let radix = self.front().map(|(_, at)| at);
        let lane = self.lane.front().map(|&(at, ..)| at);
        radix.into_iter().chain(lane).min()
    }

    /// The next event (the one [`EventQueue::pop`] would return) without
    /// removing it. Walks the front radix list to its first minimum, so
    /// unlike [`EventQueue::peek_time`] it is not O(1).
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        let radix = self.front().map(|(list, at)| {
            let mut idx = self.heads[list];
            while self.slab[idx as usize].at != at {
                idx = self.slab[idx as usize].next;
            }
            let slot = &self.slab[idx as usize];
            (at, slot.seq, slot.event.as_ref().expect("a linked slot holds an event"))
        });
        let lane = self.lane.front().map(|(at, seq, event)| (*at, *seq, event));
        let (at, _, event) = match (radix, lane) {
            (Some(radix), Some(lane)) => {
                if (lane.0, lane.1) < (radix.0, radix.1) {
                    lane
                } else {
                    radix
                }
            }
            (radix, lane) => radix.or(lane)?,
        };
        Some((at, event))
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
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (idx, slot) in self.slab.iter().enumerate() {
            let Some(event) = &slot.event else { continue };
            if pred(event) && best.is_none_or(|(at, seq, _)| (slot.at, slot.seq) < (at, seq)) {
                best = Some((slot.at, slot.seq, idx));
            }
        }
        // The lane is sorted, so its first match is its earliest.
        if let Some(pos) = self.lane.iter().position(|(_, _, event)| pred(event)) {
            let (at, seq, _) = self.lane[pos];
            if best.is_none_or(|(best_at, best_seq, _)| (at, seq) < (best_at, best_seq)) {
                self.len -= 1;
                return self.lane.remove(pos).map(|(at, _, event)| (at, event));
            }
        }
        let (at, _, idx) = best?;
        #[expect(clippy::cast_possible_truncation, reason = "slab indices fit u32")]
        let idx = idx as u32;

        // Unlink from the middle of its list: find the predecessor, then
        // repair whichever of head, tail and minimum the slot carried.
        let list = self.list_of(at);
        let next = self.slab[idx as usize].next;
        let mut prev = NIL;
        let mut cursor = self.heads[list];
        while cursor != idx {
            prev = cursor;
            cursor = self.slab[cursor as usize].next;
        }
        if prev == NIL {
            self.heads[list] = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if next == NIL {
            self.tails[list] = prev;
        }
        if list != 0 {
            if self.heads[list] == NIL {
                self.clear_list(list);
            } else if at == self.mins[list] {
                let mut min = SimTime::from_millis(u64::MAX);
                let mut cursor = self.heads[list];
                while cursor != NIL {
                    min = min.min(self.slab[cursor as usize].at);
                    cursor = self.slab[cursor as usize].next;
                }
                self.mins[list] = min;
            }
        }
        Some((at, self.release(idx)))
    }

    /// Advances the queue clock to `to` without delivering anything.
    ///
    /// Pending events may then lie before `now`; they keep their places
    /// (the radix reference point does not move) and the next
    /// [`EventQueue::pop`] sets the clock back to the popped timestamp.
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
    /// number, in unspecified (slab, then lane) order.
    ///
    /// Like [`EventQueue::iter`] but exposing the FIFO tie-break key, so
    /// state canonicalization can order same-instant events exactly as
    /// [`EventQueue::pop`] would deliver them.
    pub fn entries(&self) -> impl Iterator<Item = (SimTime, u64, &E)> + '_ {
        let linked =
            self.slab.iter().filter_map(|s| s.event.as_ref().map(|event| (s.at, s.seq, event)));
        linked.chain(self.lane.iter().map(|(at, seq, event)| (*at, *seq, event)))
    }

    /// Iterates over every pending event in unspecified (slab, then lane)
    /// order.
    ///
    /// This is an inspection hook for state-machine auditing — e.g.
    /// `World::check_invariants` cross-checks per-flood in-flight counts
    /// against the messages actually pending here. Delivery order is
    /// still decided exclusively by [`EventQueue::pop`].
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> + '_ {
        self.entries().map(|(at, _, event)| (at, event))
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of [`EventQueue::len`] over the queue's lifetime —
    /// the deepest the pending set has ever been. Purely observational
    /// (feeds the probe layer's gauge events); never affects delivery.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Audits the queue's internal structure, returning the first
    /// inconsistency found: every linked slot is in the list its
    /// timestamp selects, same-instant neighbours are in sequence order,
    /// each list's tail and tracked minimum and both bit masks are exact,
    /// linked and vacant slots partition the slab, the sorted lane is
    /// strictly ascending by `(time, seq)` and never below the radix
    /// reference, and `len` counts the linked slots plus the lane.
    /// Read-only and O(slab + lane); `World::try_check_invariants` calls
    /// it beside the topology and scheduler-queue audits.
    pub fn validate(&self) -> Result<(), String> {
        if self.now < self.last {
            return Err(format!("clock {} is behind the radix reference {}", self.now, self.last));
        }
        let mut seen = vec![false; self.slab.len()];
        let mut visit = |idx: u32, what: std::fmt::Arguments<'_>| -> Result<(), String> {
            match seen.get_mut(idx as usize) {
                None => Err(format!("{what} links to slot {idx} outside the slab")),
                Some(true) => Err(format!("{what} reaches slot {idx} twice")),
                Some(slot) => {
                    *slot = true;
                    Ok(())
                }
            }
        };

        let mut linked = 0usize;
        for list in 0..LISTS {
            let mut min: Option<SimTime> = None;
            let mut prev: Option<(u32, SimTime, u64)> = None;
            let mut idx = self.heads[list];
            while idx != NIL {
                visit(idx, format_args!("list {list}"))?;
                let slot = &self.slab[idx as usize];
                if slot.event.is_none() {
                    return Err(format!("list {list} links vacant slot {idx}"));
                }
                if self.list_of(slot.at) != list {
                    return Err(format!(
                        "slot {idx} at {} is in list {list}, not {} (last {})",
                        slot.at,
                        self.list_of(slot.at),
                        self.last
                    ));
                }
                if prev.is_some_and(|(_, at, seq)| at == slot.at && seq >= slot.seq) {
                    return Err(format!("list {list} breaks FIFO among ties at slot {idx}"));
                }
                min = Some(min.map_or(slot.at, |m| m.min(slot.at)));
                prev = Some((idx, slot.at, slot.seq));
                linked += 1;
                idx = slot.next;
            }
            if let Some((tail, ..)) = prev {
                if self.tails[list] != tail {
                    return Err(format!(
                        "list {list} ends at slot {tail}, tail says {}",
                        self.tails[list]
                    ));
                }
                if list != 0 && Some(self.mins[list]) != min {
                    return Err(format!(
                        "list {list} tracks minimum {}, holds {min:?}",
                        self.mins[list]
                    ));
                }
            }
            if list != 0 {
                let (level, digit) = Self::mask_bit(list);
                if (self.digit_masks[level] >> digit & 1 == 1) != prev.is_some() {
                    return Err(format!(
                        "digit mask of level {level} is wrong about digit {digit}"
                    ));
                }
            }
        }
        for (level, &mask) in self.digit_masks.iter().enumerate() {
            if (self.level_mask >> level & 1 == 1) != (mask != 0) {
                return Err(format!("level mask is wrong about level {level}"));
            }
        }

        let mut vacant = 0usize;
        let mut idx = self.free;
        while idx != NIL {
            visit(idx, format_args!("the free list"))?;
            if self.slab[idx as usize].event.is_some() {
                return Err(format!("the free list links occupied slot {idx}"));
            }
            vacant += 1;
            idx = self.slab[idx as usize].next;
        }
        if linked + vacant != self.slab.len() {
            return Err(format!(
                "{linked} linked + {vacant} vacant slots do not cover a slab of {}",
                self.slab.len()
            ));
        }
        let mut prev: Option<(SimTime, u64)> = None;
        for (i, &(at, seq, _)) in self.lane.iter().enumerate() {
            if at < self.last {
                return Err(format!(
                    "lane entry {i} at {at} is below the radix reference {}",
                    self.last
                ));
            }
            if prev.is_some_and(|prev| prev >= (at, seq)) {
                return Err(format!("lane entry {i} at {at} (seq {seq}) is out of order"));
            }
            prev = Some((at, seq));
        }
        if linked + self.lane.len() != self.len {
            return Err(format!(
                "len is {}, {linked} slots are linked and the lane holds {}",
                self.len,
                self.lane.len()
            ));
        }
        Ok(())
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
        q.validate().unwrap();
        // The clamped event fires at `now`, not in the past.
        let (at, e) = q.pop().unwrap();
        assert_eq!((at, e), (SimTime::from_secs(10), 'b'));
    }

    #[test]
    fn heap_pops_total_order_under_interleaving() {
        // A scrambled schedule: pops must come out sorted by (time,
        // scheduling order) whatever the push order was, including
        // pushes interleaved with pops.
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
        q.validate().unwrap();
        popped.extend(std::iter::from_fn(|| q.pop()));
        assert_eq!(popped, expected);
        q.validate().unwrap();
    }

    #[test]
    fn iter_visits_every_pending_event_without_consuming() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 'b');
        q.schedule(SimTime::from_secs(1), 'a');
        let mut seen: Vec<(SimTime, char)> = q.iter().map(|(t, &e)| (t, e)).collect();
        seen.sort();
        assert_eq!(seen, [(SimTime::from_secs(1), 'a'), (SimTime::from_secs(2), 'b')]);
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
            q.validate().unwrap();
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
        assert_eq!(
            rest.iter().map(|r| r.0).collect::<Vec<_>>(),
            expected.iter().map(|r| r.0).collect::<Vec<_>>()
        );
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
        let mut seen: Vec<(SimTime, u64, char)> = q.entries().map(|(t, s, &e)| (t, s, e)).collect();
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

    #[test]
    fn pop_due_stops_at_the_deadline_without_touching_the_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(3), 'b');
        assert_eq!(q.pop_due(SimTime::from_millis(999)), None);
        assert_eq!((q.now(), q.len()), (SimTime::ZERO, 2));
        assert_eq!(q.pop_due(SimTime::from_secs(1)), Some((SimTime::from_secs(1), 'a')));
        assert_eq!(q.now(), SimTime::from_secs(1));
        assert_eq!(q.pop_due(SimTime::from_secs(2)), None);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        assert_eq!(q.pop_due(SimTime::from_secs(9)), Some((SimTime::from_secs(3), 'b')));
        assert_eq!(q.pop_due(SimTime::from_secs(9)), None);
    }

    #[test]
    fn slots_are_recycled_across_bursts() {
        let mut q = EventQueue::new();
        for round in 0..3u64 {
            let base = q.now();
            for i in 0..64u64 {
                q.schedule(base + SimDuration::from_millis((i * 37) % 50), round * 64 + i);
            }
            q.validate().unwrap();
            while q.pop().is_some() {}
            q.validate().unwrap();
        }
        q.schedule(q.now(), 0);
        assert_eq!(q.peak_len(), 64);
        assert_eq!(q.slab.len(), q.peak_len(), "a drained burst's slots serve the next one");
    }

    #[test]
    fn reserve_counts_vacant_slots() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.schedule_sorted(SimTime::ZERO, i);
        }
        while q.pop().is_some() {}
        let before = q.lane.capacity();
        q.reserve(8);
        assert_eq!(q.lane.capacity(), before, "eight vacant lane slots already cover the request");
        q.reserve(before + 1);
        assert!(q.lane.capacity() > before);
        assert!(q.slab.is_empty(), "sorted schedules never touch the slab");
    }

    #[test]
    fn sorted_lane_interleaves_with_the_radix_lists_by_time_then_seq() {
        // Lane and radix entries at the same instant come out in
        // scheduling order, whichever structure holds them.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), "r0");
        q.schedule_sorted(SimTime::from_secs(1), "l0");
        q.schedule_sorted(SimTime::from_secs(2), "l1");
        q.schedule(SimTime::from_secs(2), "r1");
        q.schedule_sorted(SimTime::from_secs(2), "l2");
        q.schedule(SimTime::from_secs(1), "r2");
        q.schedule_sorted(SimTime::from_secs(3), "l3");
        assert_eq!((q.len(), q.lane.len()), (7, 4));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.peek(), Some((SimTime::from_secs(1), &"l0")));
        let mut order = Vec::new();
        while let Some((_, e)) = q.pop() {
            q.validate().unwrap();
            order.push(e);
        }
        assert_eq!(order, ["l0", "r2", "r0", "l1", "r1", "l2", "l3"]);
        assert_eq!(q.peak_len(), 7);
    }

    #[test]
    fn out_of_order_sorted_schedules_fall_back_to_the_radix_lists() {
        let mut q = EventQueue::new();
        q.schedule_sorted(SimTime::from_secs(5), 'b');
        q.schedule_sorted(SimTime::from_secs(4), 'a'); // below the tail
        q.schedule_sorted(SimTime::from_secs(5), 'c'); // equal to the tail
        assert_eq!(q.lane.len(), 2);
        q.validate().unwrap();
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'b', 'c']);
        assert_eq!(q.clamped_count(), 0);
    }

    #[test]
    fn exploration_hooks_see_the_lane() {
        let mut q = EventQueue::new();
        q.schedule_sorted(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(1), 2);
        q.schedule_sorted(SimTime::from_secs(2), 3);
        let mut seen: Vec<(SimTime, u64, i32)> = q.entries().map(|(t, s, &e)| (t, s, e)).collect();
        seen.sort();
        assert_eq!(seen.iter().map(|&(.., e)| e).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(q.remove_where(|&e| e != 2), Some((SimTime::from_secs(1), 1)));
        assert_eq!(q.remove_where(|&e| e == 3), Some((SimTime::from_secs(2), 3)));
        assert_eq!(q.remove_where(|&e| e == 3), None);
        assert_eq!((q.len(), q.now()), (1, SimTime::ZERO));
        q.validate().unwrap();
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 2)));
    }

    #[test]
    fn pop_due_leaves_a_tied_lane_and_radix_front_untouched() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'r');
        q.schedule_sorted(SimTime::from_secs(3), 'l');
        assert_eq!(q.pop_due(SimTime::from_secs(2)), None);
        q.validate().unwrap();
        assert_eq!(q.pop_due(SimTime::from_secs(3)), Some((SimTime::from_secs(3), 'r')));
        assert_eq!(q.pop_due(SimTime::from_secs(3)), Some((SimTime::from_secs(3), 'l')));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn past_sorted_schedules_are_clamped_and_counted() {
        let mut q = EventQueue::new();
        q.schedule_sorted(SimTime::from_secs(10), 'a');
        q.pop();
        q.schedule_sorted(SimTime::from_secs(3), 'b');
        assert_eq!((q.clamped_count(), q.lane.len()), (1, 0));
        q.validate().unwrap();
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 'b')));
    }

    #[test]
    fn keys_across_every_radix_level_pop_in_order() {
        // One key per base-16 digit position, up to the last
        // representable instant, each with a same-instant twin.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let keys = (0..16).map(|level| 0xBu64 << (4 * level)).chain([u64::MAX - 1, u64::MAX]);
        for (i, key) in keys.enumerate() {
            for twin in 0..2 {
                q.schedule(SimTime::from_millis(key), (i, twin));
                expected.push((SimTime::from_millis(key), (i, twin)));
            }
        }
        q.validate().unwrap();
        let mut popped = Vec::new();
        while let Some(entry) = q.pop() {
            q.validate().unwrap();
            popped.push(entry);
        }
        assert_eq!(popped, expected);
        assert_eq!(q.now(), SimTime::from_millis(u64::MAX));
    }

    #[test]
    fn pop_after_advance_clock_delivers_overtaken_events_first() {
        // The exploration driver can run the clock past pending events;
        // they stay filed where they were and still pop in (time, seq)
        // order, ahead of anything scheduled at the advanced clock.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 'a');
        q.schedule(SimTime::from_secs(40), 'c');
        q.advance_clock(SimTime::from_secs(30));
        q.schedule(SimTime::from_secs(30), 'b');
        q.validate().unwrap();
        let order: Vec<(SimTime, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [
                (SimTime::from_secs(2), 'a'),
                (SimTime::from_secs(30), 'b'),
                (SimTime::from_secs(40), 'c')
            ]
        );
    }

    #[test]
    fn validate_names_a_corrupted_list() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        q.validate().unwrap();

        let mut broken = q.clone();
        broken.slab[0].at = SimTime::from_secs(500);
        assert!(broken.validate().unwrap_err().contains("is in list"));

        let mut broken = q.clone();
        broken.level_mask = 0;
        assert!(broken.validate().unwrap_err().contains("level mask"));

        let mut broken = q.clone();
        broken.len = 3;
        assert!(broken.validate().unwrap_err().contains("len is 3"));

        let mut broken = q;
        broken.pop();
        broken.free = NIL;
        assert!(broken.validate().unwrap_err().contains("do not cover"));
    }

    #[test]
    fn validate_names_a_corrupted_lane() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 'a');
        q.schedule_sorted(SimTime::from_secs(3), 'b');
        q.schedule_sorted(SimTime::from_secs(4), 'c');
        q.validate().unwrap();

        let mut broken = q.clone();
        broken.lane.swap(0, 1);
        assert!(broken.validate().unwrap_err().contains("out of order"));

        // Same instant, sequence numbers reversed.
        let mut broken = q.clone();
        broken.lane[1].0 = broken.lane[0].0;
        broken.lane[0].1 = broken.lane[1].1 + 1;
        assert!(broken.validate().unwrap_err().contains("out of order"));

        let mut broken = q.clone();
        broken.pop();
        broken.lane[0].0 = SimTime::from_secs(1);
        assert!(broken.validate().unwrap_err().contains("below the radix reference"));

        let mut broken = q;
        broken.lane.pop_back();
        assert!(broken.validate().unwrap_err().contains("the lane holds 1"));
    }
}
