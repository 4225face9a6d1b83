//! Shared bounded worker-permit pool.
//!
//! Every parallel surface in the workspace — the multi-seed scenario
//! runner (`aria_scenarios::Runner::run_many`), the model checker's
//! frontier fan-out (`cargo xtask explore --workers`) and the chaos
//! campaign (`cargo xtask chaos --workers`) — draws its worker threads
//! from one process-wide budget sized to the machine's core count.
//! Without a shared budget, concurrent callers multiply: `cargo test`
//! runs tests on parallel threads and several of them call `run_many`,
//! so N callers each spawning a core count of workers would put N×cores
//! threads on the scheduler, and oversubscription turns a speedup into
//! context-switch thrash.
//!
//! The pool hands out *permits*, not threads. A caller that wants up to
//! `n` workers calls [`reserve`], receives a [`Reservation`] granting
//! `min(n, permits still available)` (possibly zero — the caller then
//! runs serially on its own thread), spawns that many *scoped* threads,
//! and returns the permits when the reservation drops. The calling
//! thread itself is never counted: it is already scheduled.
//!
//! [`reserve`] never blocks. Blocking would make one caller's progress
//! depend on when another releases its permits — and deadlock outright
//! if a worker ever reserved while its spawner held the rest — and
//! determinism never depends on the grant anyway: each consumer
//! produces bit-identical results at any worker count, including zero.
//! The budget only shapes wall-clock time.

use std::sync::{Mutex, OnceLock};

/// Process-wide count of unreserved worker permits.
///
/// Initialized on first use to `available_parallelism - 1` (the calling
/// thread is already running; a budget of the full core count would
/// oversubscribe by one per nesting level).
static AVAILABLE: OnceLock<Mutex<usize>> = OnceLock::new();

fn budget() -> &'static Mutex<usize> {
    AVAILABLE.get_or_init(|| Mutex::new(default_budget()))
}

/// The initial permit budget: one less than the core count, floor 1.
pub fn default_budget() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1))
}

/// A grant of worker permits, returned to the shared budget on drop.
///
/// The grant may be smaller than requested — including zero, in which
/// case the caller should run its work serially on the current thread.
#[derive(Debug)]
pub struct Reservation {
    granted: usize,
}

impl Reservation {
    /// Number of worker threads this reservation entitles the holder to
    /// spawn (in addition to the calling thread).
    pub fn workers(&self) -> usize {
        self.granted
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if self.granted > 0 {
            let mut avail = budget().lock().expect("worker-permit budget poisoned");
            *avail += self.granted;
        }
    }
}

/// Reserves up to `want` worker permits from the shared budget.
///
/// Returns immediately with a grant of `min(want, available)`; never
/// blocks, so concurrent callers (`Runner::run_many` from parallel
/// tests, `xtask explore`/`chaos` workers) never wait on each other. A
/// zero grant means the budget is exhausted and the caller should fall
/// back to running serially.
pub fn reserve(want: usize) -> Reservation {
    if want == 0 {
        return Reservation { granted: 0 };
    }
    let mut avail = budget().lock().expect("worker-permit budget poisoned");
    let granted = want.min(*avail);
    *avail -= granted;
    Reservation { granted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The tests share one process-global budget and `cargo test` runs
    // them on parallel threads, so each test that takes permits holds
    // this lock: an assertion about what is left after "reserve
    // everything" would otherwise race with a neighbour returning its
    // permits.
    static EXCLUSIVE: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        // A neighbour that failed while holding the lock left no state
        // behind (its reservations dropped during unwinding).
        EXCLUSIVE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn grant_is_bounded_by_request() {
        let _guard = exclusive();
        let r = reserve(1);
        assert!(r.workers() <= 1);
    }

    #[test]
    fn zero_request_takes_nothing() {
        let r = reserve(0);
        assert_eq!(r.workers(), 0);
    }

    #[test]
    fn dropping_a_reservation_returns_its_permits() {
        let _guard = exclusive();
        let first = reserve(usize::MAX);
        let taken = first.workers();
        // Everything is reserved now; a second request gets nothing.
        assert_eq!(reserve(1).workers(), 0);
        drop(first);
        // After the drop the permits are back.
        let again = reserve(usize::MAX);
        assert_eq!(again.workers(), taken);
    }

    #[test]
    fn budget_never_goes_negative() {
        let _guard = exclusive();
        let a = reserve(2);
        let b = reserve(usize::MAX);
        let c = reserve(usize::MAX);
        assert_eq!(c.workers(), 0);
        drop(a);
        drop(b);
    }

    #[test]
    fn nested_reserve_under_an_exhausted_budget_runs_serial_without_blocking() {
        let _guard = exclusive();
        // The nesting contract: a caller holds every permit while one of
        // its worker threads asks for more. The inner call must come
        // back at once with a zero grant ("run serial"); were it to wait
        // for permits, the join below would never return.
        let outer = reserve(usize::MAX);
        let inner = std::thread::scope(|scope| {
            scope.spawn(|| reserve(usize::MAX).workers()).join().expect("worker panicked")
        });
        assert_eq!(inner, 0);
        drop(outer);
    }
}
