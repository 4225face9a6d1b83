//! A monotonic-clock timer wheel for driver timers.
//!
//! The driver requests timers in relative [`SimDuration`]s; the runtime
//! anchors them to its monotonic clock (milliseconds since startup,
//! mapped onto [`aria_sim::SimTime`]) and delivers each exactly once.
//! The wheel is the simulator's own [`EventQueue`] — the one
//! `(deadline, arming order)` structure in the tree — behind the three
//! calls the runtime loop makes. The runtime arms relative to a clock
//! that never runs backwards and only pops what is already due, which is
//! exactly the queue's monotone contract. Arming before the last popped
//! deadline is that queue's past-schedule case: a debug build panics, a
//! release build fires the timer at the next `pop_due`.
//!
//! [`SimDuration`]: aria_sim::SimDuration

use aria_core::driver::Timer;
use aria_sim::{EventQueue, SimTime};

/// Pending timers ordered by deadline; FIFO among equal deadlines.
#[derive(Default)]
pub struct TimerWheel {
    queue: EventQueue<Timer>,
}

impl TimerWheel {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// Schedules `timer` to fire at `fire_at`.
    pub fn arm(&mut self, fire_at: SimTime, timer: Timer) {
        self.queue.schedule(fire_at, timer);
    }

    /// The earliest pending deadline, if any timer is armed.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops the next timer due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Timer> {
        self.queue.pop_due(now).map(|(_, timer)| timer)
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_grid::JobId;

    #[test]
    fn fires_in_deadline_order_fifo_on_ties() {
        let mut wheel = TimerWheel::new();
        let t = |n: u64| Timer::ExecutionComplete { job: JobId::new(n) };
        wheel.arm(SimTime::from_millis(30), t(3));
        wheel.arm(SimTime::from_millis(10), t(1));
        wheel.arm(SimTime::from_millis(10), t(2));
        assert_eq!(wheel.next_deadline(), Some(SimTime::from_millis(10)));
        assert_eq!(wheel.pop_due(SimTime::from_millis(5)), None);
        assert_eq!(wheel.pop_due(SimTime::from_millis(10)), Some(t(1)));
        assert_eq!(wheel.pop_due(SimTime::from_millis(10)), Some(t(2)));
        assert_eq!(wheel.pop_due(SimTime::from_millis(10)), None);
        assert_eq!(wheel.pop_due(SimTime::from_millis(31)), Some(t(3)));
        assert!(wheel.is_empty());
    }
}
