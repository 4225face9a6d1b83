//! Small shared helpers: order statistics, process accounting (`VmHWM`,
//! CPU seconds) and the time-boxed repetition loop every workload uses.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of `f` over `items`.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The `p`-th percentile (0..=100) of `values` by linear interpolation
/// between order statistics.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// Median and 85th percentile of job latencies in milliseconds. With the
/// 72 jobs a full-length `live_udp` run submits, the 85th is the highest
/// percentile with at least ten samples beyond it. `(0, 0)` when no job
/// completed, which the output checks report as a violation.
pub fn latency_p50_p85(latencies_ms: &[f64]) -> (f64, f64) {
    if latencies_ms.is_empty() {
        return (0.0, 0.0);
    }
    (
        percentile(latencies_ms, 50.0),
        percentile(latencies_ms, 85.0),
    )
}

/// Peak resident set (`VmHWM`) of this process in KiB; 0 off Linux.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Starts a repetition from the memory state of a fresh process: hands
/// the allocator's free pages back to the kernel (`malloc_trim`), then
/// resets `VmHWM` to the current resident set (writing `5` to
/// `/proc/self/clear_refs`), so the next [`peak_rss_kb`] reads the peak
/// of one repetition instead of the process's.
///
/// Without the trim a repetition inherits the heap its predecessors
/// left behind: on the full-size mesh a light seed that followed heavy
/// ones peaked 25 % higher and ran 12 % slower than in a process of its
/// own. Where the kernel refuses the reset, the peak simply keeps
/// covering the whole process.
pub fn fresh_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointer and only
        // releases memory the allocator holds free; it may be called at
        // any time from any thread.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU seconds (user + system) consumed so far by `(this process, its
/// reaped children)`, from `getrusage`, whose microsecond fields do not
/// share the 10 ms granularity of `/proc/self/stat`: a live cluster's
/// children use only ~100 ms in a whole run. `(0, 0)` off Linux.
pub fn cpu_secs() -> (f64, f64) {
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    (
        rusage_cpu_secs(RUSAGE_SELF),
        rusage_cpu_secs(RUSAGE_CHILDREN),
    )
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage_cpu_secs(who: i32) -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }
    /// `struct rusage` as 64-bit Linux lays it out: two timevals, then
    /// fourteen longs this benchmark does not read.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [c_long; 14],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, exclusively borrowed value with the size
    // and layout of the C `struct rusage` on this target (checked by the
    // cfg above), and `getrusage` writes nothing but that struct.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&usage.utime) + secs(&usage.stime)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn rusage_cpu_secs(_who: i32) -> f64 {
    0.0
}

/// Which seed each repetition of a workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SeedPlan {
    /// Repetition `i` runs seed `S + i`; one closing repetition runs `S`
    /// again so its fingerprint can be compared with the first.
    Advance,
    /// Every repetition runs seed `S` (for repetitions too long to
    /// afford distinct seeds plus a repeat).
    Fixed,
}

impl SeedPlan {
    /// The repetitions of `reps` (as [`repeat`] returned them) that the
    /// statistics are taken over: all but `Advance`'s closing one, which
    /// would count seed `S` twice. With the seven repetitions a full-size
    /// mesh run fits, that pulls the medians towards one seed's value.
    pub fn measured<R>(self, reps: &[R]) -> &[R] {
        match self {
            SeedPlan::Advance => &reps[..reps.len() - 1],
            SeedPlan::Fixed => reps,
        }
    }
}

/// Runs `rep(seed)` until `seconds` have elapsed (at least `min_reps`
/// times) and returns the results in order. The first and the last
/// repetition always share seed `S`.
pub fn repeat<R>(
    seed: u64,
    seconds: f64,
    min_reps: usize,
    plan: SeedPlan,
    mut rep: impl FnMut(u64) -> R,
) -> Vec<R> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut results = Vec::new();
    // `Advance` spends its last slot on the repeat of `S`, and leaves
    // room for it inside the budget.
    let closing = usize::from(plan == SeedPlan::Advance);
    loop {
        let done = results.len();
        let enough = done + closing >= min_reps.max(1 + closing);
        let elapsed = started.elapsed();
        let time_up = done > 0 && elapsed + elapsed / done as u32 * closing as u32 >= budget;
        if enough && time_up {
            break;
        }
        let offset = if plan == SeedPlan::Advance {
            done as u64
        } else {
            0
        };
        results.push(rep(seed + offset));
    }
    if plan == SeedPlan::Advance {
        results.push(rep(seed));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0], 100.0), 2.0);
    }

    #[test]
    fn repeat_closes_on_the_first_seed() {
        let seeds = repeat(7, 0.0, 3, SeedPlan::Advance, |s| s);
        assert_eq!(seeds, [7, 8, 7]);
        assert_eq!(SeedPlan::Advance.measured(&seeds), [7, 8]);
        let seeds = repeat(7, 0.0, 2, SeedPlan::Fixed, |s| s);
        assert_eq!(seeds, [7, 7]);
        assert_eq!(SeedPlan::Fixed.measured(&seeds), [7, 7]);
        let seeds = repeat(7, 0.0, 1, SeedPlan::Advance, |s| s);
        assert_eq!(seeds, [7, 7]);
    }
}
