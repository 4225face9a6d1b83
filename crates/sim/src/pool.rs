//! The workspace's one parallel map, over a shared bounded thread budget.
//!
//! Every parallel surface in the workspace — the multi-seed scenario
//! runner (`aria_scenarios::Runner::run_many`), the baseline comparison,
//! the model checker's frontier fan-out (`cargo xtask explore --workers`)
//! and the chaos campaign (`cargo xtask chaos --workers`) — is a call to
//! [`map`], the only place outside the benchmark crate that spawns a
//! thread.
//!
//! [`map`] takes a lane count that **includes the calling thread**: the
//! caller claims items like every other lane, and only the `lanes − 1`
//! extra scoped threads draw permits from one process-wide budget sized
//! to the machine's core count. Without a shared budget, concurrent
//! callers multiply: `cargo test` runs tests on parallel threads and
//! several of them call `run_many`, so N callers each spawning a core
//! count of threads would put N×cores threads on the scheduler, and
//! oversubscription turns a speedup into context-switch thrash.
//!
//! Taking permits never blocks. A grant smaller than asked for —
//! including zero, which runs every item on the caller — only shapes
//! wall-clock time: [`map`] returns results in item order whatever the
//! grant, so each consumer produces bit-identical output at any lane
//! count. Blocking would make one caller's progress depend on when
//! another releases its permits, and deadlock outright if a lane that
//! holds permits waited on a nested [`map`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide count of unreserved extra-thread permits.
///
/// Initialized on first use to one less than the core count, floor 1:
/// the calling thread is already running, so a budget of the full core
/// count would oversubscribe by one per nesting level.
static AVAILABLE: OnceLock<Mutex<usize>> = OnceLock::new();

fn budget() -> &'static Mutex<usize> {
    AVAILABLE.get_or_init(|| Mutex::new(default_lanes().saturating_sub(1).max(1)))
}

/// The default lane count of every `--workers` option and of
/// `Runner`: the machine's core count, calling thread included.
pub fn default_lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A grant of extra-thread permits, returned to the shared budget on drop.
#[derive(Debug)]
struct Reservation {
    granted: usize,
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if self.granted > 0 {
            let mut avail = budget().lock().expect("thread-permit budget poisoned");
            *avail += self.granted;
        }
    }
}

/// Takes up to `want` permits from the shared budget: a grant of
/// `min(want, available)`, at once and never blocking.
fn reserve(want: usize) -> Reservation {
    if want == 0 {
        return Reservation { granted: 0 };
    }
    let mut avail = budget().lock().expect("thread-permit budget poisoned");
    let granted = want.min(*avail);
    *avail -= granted;
    Reservation { granted }
}

/// Applies `f` to every item on up to `lanes` threads and returns the
/// results in item order.
///
/// The calling thread is one lane. Up to `lanes − 1` extra scoped
/// threads — never more than `items.len() − 1` — come from the shared
/// budget; every lane claims the next unclaimed item off one shared
/// cursor until none is left. With no extra thread granted, `f` runs on
/// every item in order on the caller. A panic in `f` on any lane
/// propagates to the caller once every lane has stopped.
pub fn map<T: Sync, R: Send>(items: &[T], lanes: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let reservation = reserve(lanes.saturating_sub(1).min(items.len().saturating_sub(1)));
    if reservation.granted == 0 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let lane = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor publishes no data. The items are shared
            // read-only, and results reach the caller through `join`.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            done.push((i, f(item)));
        }
        done
    };
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let extras: Vec<_> = (0..reservation.granted).map(|_| scope.spawn(lane)).collect();
        tagged.extend(lane());
        for extra in extras {
            match extra.join() {
                Ok(done) => tagged.extend(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, MutexGuard};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

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
        assert!(r.granted <= 1);
    }

    #[test]
    fn zero_request_takes_nothing() {
        let r = reserve(0);
        assert_eq!(r.granted, 0);
    }

    #[test]
    fn dropping_a_reservation_returns_its_permits() {
        let _guard = exclusive();
        let first = reserve(usize::MAX);
        let taken = first.granted;
        // Everything is reserved now; a second request gets nothing.
        assert_eq!(reserve(1).granted, 0);
        drop(first);
        // After the drop the permits are back.
        let again = reserve(usize::MAX);
        assert_eq!(again.granted, taken);
    }

    #[test]
    fn budget_never_goes_negative() {
        let _guard = exclusive();
        let a = reserve(2);
        let b = reserve(usize::MAX);
        let c = reserve(usize::MAX);
        assert_eq!(c.granted, 0);
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
            scope.spawn(|| reserve(usize::MAX).granted).join().expect("worker panicked")
        });
        assert_eq!(inner, 0);
        drop(outer);
    }

    #[test]
    fn map_returns_item_order_at_any_lane_count() {
        let _guard = exclusive();
        let items: Vec<u64> = (0..100).collect();
        let squares: Vec<u64> = items.iter().map(|i| i * i).collect();
        for lanes in [1, 2, 8] {
            assert_eq!(map(&items, lanes, |i| i * i), squares, "lanes={lanes}");
        }
        assert!(map(&[] as &[u64], 8, |i| i * i).is_empty());
    }

    #[test]
    fn map_under_an_exhausted_budget_runs_every_item_on_the_caller() {
        let _guard = exclusive();
        let held = reserve(usize::MAX);
        let caller = thread::current().id();
        let executors = map(&[0u8; 16], 8, |_| thread::current().id());
        assert!(executors.iter().all(|&id| id == caller));
        drop(held);
    }

    /// Maps two items on two lanes, each item waiting (up to ten
    /// seconds) until both have started, so they must run on two
    /// different threads when the caller is a lane. `f` then sees the
    /// ids of both executors and the caller's.
    fn map_two_rendezvous<R: Send>(f: impl Fn(&[ThreadId], ThreadId) -> R + Sync) -> Vec<R> {
        let caller = thread::current().id();
        let started = Mutex::new(Vec::new());
        let both = Condvar::new();
        map(&[0, 1], 2, |_| {
            let ids = {
                let mut ids = started.lock().expect("rendezvous lock");
                ids.push(thread::current().id());
                both.notify_all();
                let timeout = Duration::from_secs(10);
                let (ids, _) = both
                    .wait_timeout_while(ids, timeout, |ids| ids.len() < 2)
                    .expect("rendezvous lock");
                ids.clone()
            };
            f(&ids, caller)
        })
    }

    #[test]
    fn map_runs_items_on_the_calling_thread_when_extras_are_granted() {
        let _guard = exclusive();
        let executors = map_two_rendezvous(|ids, caller| (ids.to_vec(), caller));
        let (ids, caller) = &executors[0];
        assert_eq!(ids.len(), 2, "both items started together");
        assert!(ids.contains(caller), "the caller is one of the executing lanes");
    }

    #[test]
    #[should_panic(expected = "lane panicked")]
    fn map_propagates_a_panic_from_an_extra_lane() {
        let _guard = exclusive();
        map_two_rendezvous(|_, caller| {
            if thread::current().id() != caller {
                panic!("lane panicked");
            }
        });
    }
}
