//! Property-based tests for the simulation kernel: event ordering,
//! statistics algebra and time arithmetic.

use aria_sim::{stats, EventQueue, SimDuration, SimRng, SimTime, Summary, TimeSeries};
use proptest::prelude::*;

/// Removes the earliest entry of the sorted model whose payload `keep`s.
fn take_first(
    model: &mut Vec<(u64, u64, usize)>,
    keep: impl Fn(usize) -> bool,
) -> Option<(SimTime, usize)> {
    let pos = model.iter().position(|&(_, _, e)| keep(e))?;
    let (at, _, e) = model.remove(pos);
    Some((SimTime::from_millis(at), e))
}

proptest! {
    /// The event queue is a stable priority queue under any interleaving
    /// of its operations: every result equals that of a `Vec` kept sorted
    /// by `(time, scheduling order)`, where `schedule` and
    /// `schedule_sorted` calls share one scheduling order, so the sorted
    /// lane never shows in the delivery order. `len`, `peak_len`,
    /// `clamped_count` and the clock agree after every step, the
    /// structure audits clean, and a clone taken mid-run replays the rest
    /// identically.
    ///
    /// Each op is `(kind, delay class, raw)`. Delay classes cover what a
    /// run schedules — same-instant bursts, link latencies (5–150 ms),
    /// sub-digit steps, the 5 min INFORM period — and what it does not:
    /// keys past 2^32 ms and at the end of the representable range.
    /// `schedule_sorted` calls mostly extend the lane, and also tie with
    /// its tail, fall below it (the fallback to `schedule`) and, without
    /// debug assertions (where the guard clamps instead of panicking),
    /// land in the past.
    #[test]
    fn event_queue_is_stable_and_sorted(
        ops in proptest::collection::vec((0u8..20, 0u8..6, any::<u64>()), 1..400),
    ) {
        // (at, seq, payload), ascending; `pop` is `remove(0)`.
        let mut model: Vec<(u64, u64, usize)> = Vec::new();
        let (mut now, mut peak, mut clamped) = (0u64, 0usize, 0u64);
        // The latest time handed to `schedule_sorted`, so most sorted
        // calls extend the lane and some tie with its tail.
        let mut sorted_tail = 0u64;
        let mut queues = vec![EventQueue::new()];
        for (i, &(kind, class, raw)) in ops.iter().enumerate() {
            if i == ops.len() / 2 {
                queues.push(queues[0].clone());
            }
            match kind {
                0..=7 => {
                    let at = match class {
                        0 => now,
                        1 => now.saturating_add(5 + raw % 146),
                        2 => now.saturating_add(1 + raw % 15),
                        3 => now.saturating_add(300_000),
                        4 => now.saturating_add((1 << 32) + raw % (1 << 20)),
                        _ => (u64::MAX - raw % 16).max(now),
                    };
                    let pos = model.partition_point(|&(t, _, _)| t <= at);
                    model.insert(pos, (at, i as u64, i));
                    for q in &mut queues {
                        q.schedule(SimTime::from_millis(at), i);
                    }
                }
                16..=19 => {
                    let base = sorted_tail.max(now);
                    let mut at = match class {
                        0 => base,
                        1 => base.saturating_add(5 + raw % 146),
                        2 => base.saturating_add(300_000),
                        3 => now.saturating_add(raw % 150),
                        4 => base.saturating_add((1 << 32) + raw % (1 << 20)),
                        _ if raw % 2 == 0 => (u64::MAX - raw % 16).max(now),
                        _ => now.saturating_sub(1 + raw % 100),
                    };
                    if at < now && cfg!(debug_assertions) {
                        at = now; // the debug guard panics on a past schedule
                    }
                    clamped += u64::from(at < now);
                    sorted_tail = sorted_tail.max(at);
                    let fires = at.max(now);
                    let pos = model.partition_point(|&(t, _, _)| t <= fires);
                    model.insert(pos, (fires, i as u64, i));
                    for q in &mut queues {
                        q.schedule_sorted(SimTime::from_millis(at), i);
                    }
                }
                8..=10 => {
                    let expected = take_first(&mut model, |_| true);
                    now = expected.map_or(now, |(at, _)| at.as_millis());
                    for q in &mut queues {
                        prop_assert_eq!(q.pop(), expected);
                    }
                }
                11 => {
                    let deadline = now.saturating_add(raw % 200);
                    let due = model.first().is_some_and(|&(at, _, _)| at <= deadline);
                    let expected = if due { take_first(&mut model, |_| true) } else { None };
                    now = expected.map_or(now, |(at, _)| at.as_millis());
                    for q in &mut queues {
                        prop_assert_eq!(q.pop_due(SimTime::from_millis(deadline)), expected);
                    }
                }
                12 => {
                    let expected = model.first().map(|&(at, _, e)| (SimTime::from_millis(at), e));
                    for q in &queues {
                        prop_assert_eq!(q.peek().map(|(at, &e)| (at, e)), expected);
                        prop_assert_eq!(q.peek_time(), expected.map(|(at, _)| at));
                    }
                }
                13 => {
                    let (modulus, residue) = (2 + usize::from(class), usize::from(raw % 2 == 1));
                    let expected = take_first(&mut model, |e| e % modulus == residue);
                    for q in &mut queues {
                        prop_assert_eq!(q.remove_where(|&e| e % modulus == residue), expected);
                    }
                }
                14 => {
                    now = now.saturating_add(raw % 100);
                    for q in &mut queues {
                        q.advance_clock(SimTime::from_millis(now));
                    }
                }
                _ => {
                    let mut entries: Vec<_> = queues[0].entries().map(|(at, s, &e)| (at, s, e)).collect();
                    entries.sort();
                    let payloads: Vec<usize> = entries.iter().map(|&(_, _, e)| e).collect();
                    prop_assert_eq!(payloads, model.iter().map(|&(_, _, e)| e).collect::<Vec<_>>());
                }
            }
            peak = peak.max(model.len());
            for q in &queues {
                prop_assert_eq!(q.validate(), Ok(()));
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.peak_len(), peak);
                prop_assert_eq!(q.clamped_count(), clamped);
                prop_assert_eq!(q.now(), SimTime::from_millis(now));
            }
        }
        let rest: Vec<(SimTime, usize)> =
            model.iter().map(|&(at, _, e)| (SimTime::from_millis(at), e)).collect();
        for mut q in queues {
            prop_assert_eq!(std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(), rest.clone());
        }
    }

    /// Summary::merge is associative with respect to the data: merging
    /// partitions equals summarizing the concatenation.
    #[test]
    fn summary_merge_equals_concatenation(
        left in proptest::collection::vec(-1e6f64..1e6, 0..100),
        right in proptest::collection::vec(-1e6f64..1e6, 0..100),
    ) {
        let mut merged: Summary = left.iter().copied().collect();
        let rhs: Summary = right.iter().copied().collect();
        merged.merge(&rhs);
        let full: Summary = left.iter().chain(right.iter()).copied().collect();
        prop_assert_eq!(merged.count(), full.count());
        prop_assert!((merged.mean() - full.mean()).abs() <= 1e-6 * (1.0 + full.mean().abs()));
        prop_assert!(
            (merged.variance() - full.variance()).abs()
                <= 1e-5 * (1.0 + full.variance().abs())
        );
        prop_assert_eq!(merged.min(), full.min());
        prop_assert_eq!(merged.max(), full.max());
    }

    /// Percentiles are order statistics: within [min, max], monotone in q,
    /// and members of the sample.
    #[test]
    fn percentile_is_an_order_statistic(
        values in proptest::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let p_lo = stats::percentile(&values, lo);
        let p_hi = stats::percentile(&values, hi);
        prop_assert!(p_lo <= p_hi);
        prop_assert!(values.contains(&p_lo));
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p_lo >= min && p_hi <= max);
    }

    /// Time arithmetic: (t + d) - d == t and saturating_since is the
    /// inverse of addition.
    #[test]
    fn time_arithmetic_round_trips(t in 0u64..1_000_000_000, d in 0u64..1_000_000) {
        let time = SimTime::from_millis(t);
        let duration = SimDuration::from_millis(d);
        let later = time + duration;
        prop_assert_eq!(later - duration, time);
        prop_assert_eq!(later.saturating_since(time), duration);
        prop_assert_eq!(time.saturating_since(later), SimDuration::ZERO);
        prop_assert_eq!(later.signed_delta(time), d as i64);
    }

    /// Duration scaling: div then mul by the same factor stays within
    /// rounding error of the original.
    #[test]
    fn duration_scaling_round_trips(ms in 1000u64..100_000_000, factor in 1.0f64..2.0) {
        let d = SimDuration::from_millis(ms);
        let there_and_back = d.div_f64(factor).mul_f64(factor);
        let error = there_and_back.as_millis().abs_diff(d.as_millis());
        prop_assert!(error <= 2, "{d} -> {there_and_back}");
    }

    /// Forked RNG streams are reproducible and chance() frequencies track
    /// their probability.
    #[test]
    fn rng_forks_reproduce(seed in any::<u64>(), stream in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        let mut fa = a.fork(stream);
        let mut fb = b.fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    /// TimeSeries::average of identical series is the series itself, and
    /// thinning preserves the first sample.
    #[test]
    fn series_average_identity(values in proptest::collection::vec(-1e3f64..1e3, 1..50)) {
        let mut ts = TimeSeries::new(SimDuration::from_mins(1));
        for &v in &values {
            ts.push(v);
        }
        let avg = TimeSeries::average([&ts, &ts]).unwrap();
        prop_assert_eq!(avg.values(), ts.values());
        let thinned = ts.thin(3);
        prop_assert_eq!(thinned.values()[0], values[0]);
    }
}
