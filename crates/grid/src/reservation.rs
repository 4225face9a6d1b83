//! Advance reservations (paper future work, §VI).
//!
//! A reservation blocks a node's executor for a fixed window — computing
//! time sold ahead of time to a virtual organization, outside the
//! meta-scheduler's control. The local scheduler must plan around these
//! windows: since jobs are never preempted (§III-A), a job may only
//! start if it finishes before the next reservation begins. The
//! [`crate::Policy::Backfill`] policy exploits the resulting gaps by
//! letting shorter queued jobs jump ahead when the head job does not fit
//! (EASY-style backfill on a single executor).

use aria_sim::{SimDuration, SimTime};
use std::error::Error;
use std::fmt;

/// A committed executor reservation: the half-open window
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// First blocked instant.
    pub start: SimTime,
    /// First instant after the window.
    pub end: SimTime,
}

impl Reservation {
    /// Creates a reservation window.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end > start, "reservation window is empty or inverted");
        Reservation { start, end }
    }

    /// Creates a reservation from a start and a duration.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    pub fn starting_at(start: SimTime, duration: SimDuration) -> Self {
        Reservation::new(start, start + duration)
    }

    /// Whether this window overlaps `[start, start + duration)`.
    pub fn overlaps(&self, start: SimTime, duration: SimDuration) -> bool {
        start < self.end && start + duration > self.start
    }

    /// Whether the window covers the instant `t`.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

impl fmt::Display for Reservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {})", self.start, self.end)
    }
}

/// Error returned when a reservation overlaps an existing one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservationConflict {
    /// The existing window that blocked the insertion.
    pub existing: Reservation,
}

impl fmt::Display for ReservationConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reservation conflicts with existing window {}", self.existing)
    }
}

impl Error for ReservationConflict {}

/// A node's reservation calendar: sorted, non-overlapping windows.
///
/// # Example
///
/// ```
/// use aria_grid::{Reservation, ReservationCalendar};
/// use aria_sim::{SimDuration, SimTime};
///
/// let mut calendar = ReservationCalendar::new();
/// calendar.try_add(Reservation::starting_at(SimTime::from_hours(2), SimDuration::from_hours(1)))?;
///
/// // A 3h job at t=0 would overlap the window: the earliest fit is
/// // after the reservation ends.
/// let start = calendar.earliest_fit(SimTime::ZERO, SimDuration::from_hours(3));
/// assert_eq!(start, SimTime::from_hours(3));
/// // A 2h job fits immediately.
/// assert_eq!(calendar.earliest_fit(SimTime::ZERO, SimDuration::from_hours(2)), SimTime::ZERO);
/// # Ok::<(), aria_grid::ReservationConflict>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReservationCalendar {
    /// Sorted by start, pairwise disjoint.
    windows: Vec<Reservation>,
}

impl ReservationCalendar {
    /// An empty calendar.
    pub fn new() -> Self {
        ReservationCalendar::default()
    }

    /// The committed windows, sorted by start.
    pub fn windows(&self) -> &[Reservation] {
        &self.windows
    }

    /// Whether no windows are committed.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Commits a window.
    ///
    /// # Errors
    ///
    /// Returns [`ReservationConflict`] if the window overlaps a committed
    /// one; the calendar is unchanged.
    pub fn try_add(&mut self, reservation: Reservation) -> Result<(), ReservationConflict> {
        let pos = self.windows.partition_point(|w| w.start < reservation.start);
        for neighbor in self.windows[pos.saturating_sub(1)..].iter().take(2) {
            if neighbor
                .overlaps(reservation.start, reservation.end.saturating_since(reservation.start))
            {
                return Err(ReservationConflict { existing: *neighbor });
            }
        }
        self.windows.insert(pos, reservation);
        Ok(())
    }

    /// The window covering instant `t`, if any.
    pub fn active_at(&self, t: SimTime) -> Option<&Reservation> {
        let pos = self.windows.partition_point(|w| w.start <= t);
        self.windows[..pos].last().filter(|w| w.contains(t))
    }

    /// The first window starting strictly after `t`.
    pub fn next_after(&self, t: SimTime) -> Option<&Reservation> {
        let pos = self.windows.partition_point(|w| w.start <= t);
        self.windows.get(pos)
    }

    /// Whether a run of `duration` starting at `start` would collide
    /// with a committed window.
    pub fn blocks(&self, start: SimTime, duration: SimDuration) -> bool {
        if duration.is_zero() {
            return self.active_at(start).is_some();
        }
        // Check the window active at `start` and the next one.
        if self.active_at(start).is_some() {
            return true;
        }
        self.next_after(start).is_some_and(|w| w.overlaps(start, duration))
    }

    /// Earliest instant `>= from` at which a run of `duration` fits
    /// before (or between/after) the committed windows.
    pub fn earliest_fit(&self, from: SimTime, duration: SimDuration) -> SimTime {
        let mut candidate = from;
        for _ in 0..=self.windows.len() {
            if let Some(active) = self.active_at(candidate) {
                candidate = active.end;
                continue;
            }
            match self.next_after(candidate) {
                Some(w) if w.overlaps(candidate, duration) => candidate = w.end,
                _ => return candidate,
            }
        }
        candidate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hours(h: u64) -> SimTime {
        SimTime::from_hours(h)
    }

    fn window(start_h: u64, end_h: u64) -> Reservation {
        Reservation::new(hours(start_h), hours(end_h))
    }

    #[test]
    fn overlap_detection_is_half_open() {
        let w = window(2, 4);
        assert!(w.overlaps(hours(1), SimDuration::from_hours(2))); // touches [1,3)
        assert!(!w.overlaps(hours(0), SimDuration::from_hours(2))); // [0,2) just misses
        assert!(!w.overlaps(hours(4), SimDuration::from_hours(1))); // starts at end
        assert!(w.contains(hours(2)));
        assert!(!w.contains(hours(4)));
    }

    #[test]
    fn try_add_keeps_windows_sorted_and_disjoint() {
        let mut c = ReservationCalendar::new();
        c.try_add(window(5, 6)).unwrap();
        c.try_add(window(1, 2)).unwrap();
        c.try_add(window(3, 4)).unwrap();
        let starts: Vec<u64> = c.windows().iter().map(|w| w.start.as_secs() / 3600).collect();
        assert_eq!(starts, [1, 3, 5]);
        // Overlapping insertions are rejected and leave the calendar intact.
        let err = c.try_add(window(3, 5)).unwrap_err();
        assert_eq!(err.existing, window(3, 4));
        assert!(c.try_add(window(0, 2)).is_err());
        assert!(c.try_add(window(5, 7)).is_err());
        assert_eq!(c.windows().len(), 3);
        // Exactly abutting windows are fine.
        c.try_add(window(2, 3)).unwrap();
        assert_eq!(c.windows().len(), 4);
    }

    #[test]
    fn active_and_next_lookups() {
        let mut c = ReservationCalendar::new();
        c.try_add(window(2, 4)).unwrap();
        c.try_add(window(6, 7)).unwrap();
        assert_eq!(c.active_at(hours(3)), Some(&window(2, 4)));
        assert_eq!(c.active_at(hours(5)), None);
        assert_eq!(c.active_at(hours(4)), None); // half-open
        assert_eq!(c.next_after(hours(0)), Some(&window(2, 4)));
        assert_eq!(c.next_after(hours(4)), Some(&window(6, 7)));
        assert_eq!(c.next_after(hours(7)), None);
    }

    #[test]
    fn blocks_checks_collisions() {
        let mut c = ReservationCalendar::new();
        c.try_add(window(2, 4)).unwrap();
        assert!(!c.blocks(hours(0), SimDuration::from_hours(2)));
        assert!(c.blocks(hours(1), SimDuration::from_hours(2)));
        assert!(c.blocks(hours(3), SimDuration::from_hours(1)));
        assert!(!c.blocks(hours(4), SimDuration::from_hours(10)));
        assert!(c.blocks(hours(2), SimDuration::ZERO));
        assert!(!c.blocks(hours(1), SimDuration::ZERO));
    }

    #[test]
    fn earliest_fit_walks_gaps() {
        let mut c = ReservationCalendar::new();
        c.try_add(window(2, 4)).unwrap();
        c.try_add(window(5, 6)).unwrap();
        // 1h fits right away in [0,2).
        assert_eq!(c.earliest_fit(SimTime::ZERO, SimDuration::from_hours(1)), SimTime::ZERO);
        // 3h does not fit before 2h, nor in the [4,5) gap: lands at 6h.
        assert_eq!(c.earliest_fit(SimTime::ZERO, SimDuration::from_hours(3)), hours(6));
        // 1h starting from inside the first window: next gap.
        assert_eq!(c.earliest_fit(hours(3), SimDuration::from_hours(1)), hours(4));
        // Empty calendar: immediately.
        assert_eq!(
            ReservationCalendar::new().earliest_fit(hours(9), SimDuration::from_hours(100)),
            hours(9)
        );
    }

    #[test]
    #[should_panic(expected = "empty or inverted")]
    fn inverted_window_panics() {
        Reservation::new(hours(2), hours(2));
    }
}
