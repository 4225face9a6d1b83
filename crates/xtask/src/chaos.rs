//! `cargo xtask chaos` — randomized transport-fault schedules under
//! invariant auditing, with a shrinking counterexample reporter.
//!
//! ```text
//! cargo xtask chaos                         # default budget: 15 schedules
//! cargo xtask chaos --schedules 40 --seed 7 # bigger sweep, different stream
//! cargo xtask chaos --sweep                 # loss sweep of the iMixed scenario
//! cargo xtask chaos --self-check            # prove the shrinker on a planted violation
//! cargo xtask chaos --shrink-out chaos.jsonl
//! ```
//!
//! Each schedule derives a random [`FaultPlan`] (loss, duplicates,
//! jitter, partition windows) from the harness seed, runs a small world
//! under [`World::run_audited`] — every protocol invariant checked
//! after every event — and then applies the **job-conservation
//! oracle**: `completed + lost + abandoned == submitted`. Any violation
//! is shrunk to a minimal replayable fault list:
//!
//! * every fault that fires carries a sequential injection index;
//! * the shrinker re-runs with [`FaultPlan::keep`] allow-lists, greedily
//!   removing one index at a time and adopting the re-run's actually
//!   fired subset whenever the violation persists;
//! * the loop ends 1-minimal — removing *any* surviving injection makes
//!   the run pass — and the final keep-list replays the violation
//!   deterministically (`(config, seed, keep)` is the whole state).
//!
//! The minimal run is re-executed with a recording probe and exported in
//! the `aria-probe` JSONL schema (`--shrink-out`), so `cargo xtask probe
//! timeline` can visualise the counterexample.

use aria_core::{FaultPlan, PartitionWindow, World, WorldConfig};
use aria_probe::{NullProbe, Probe, RingRecorder, TraceMeta};
use aria_sim::{SimDuration, SimRng, SimTime};
use aria_workload::{JobGenerator, SubmissionSchedule};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask chaos [--schedules N] [--seed N] [--nodes N] [--jobs N] \
                     [--workers N] [--sweep] [--self-check] [--shrink-out PATH]";

/// Parses the CLI flags and runs the harness.
pub fn run(args: &[String]) -> ExitCode {
    let mut schedules = 15u64;
    let mut seed = 1u64;
    let mut nodes = 24usize;
    let mut jobs = 18usize;
    let mut workers = aria_sim::pool::default_lanes();
    let mut self_check = false;
    let mut sweep = false;
    // `--shrink-out PATH` takes a string value, so it is stripped before
    // the numeric-flag loop below.
    let mut args = args.to_vec();
    let mut shrink_out: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--shrink-out") {
        if pos + 1 >= args.len() {
            eprintln!("xtask chaos: --shrink-out needs a path");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
        shrink_out = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut number = |what: &str| -> Result<u64, String> {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{flag} {what}: {e}"))
        };
        let parsed = match flag.as_str() {
            "--schedules" => number("schedules").map(|v| schedules = v),
            "--seed" => number("seed").map(|v| seed = v),
            "--nodes" => number("nodes").map(|v| nodes = v as usize),
            "--jobs" => number("jobs").map(|v| jobs = v as usize),
            "--workers" => number("workers").map(|v| workers = (v as usize).max(1)),
            "--sweep" => {
                sweep = true;
                Ok(())
            }
            "--self-check" => {
                self_check = true;
                Ok(())
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(message) = parsed {
            eprintln!("xtask chaos: {message}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    if self_check {
        return self_check_shrinker(shrink_out.as_deref());
    }
    if sweep {
        return loss_sweep(seed);
    }
    chaos(schedules, seed, nodes, jobs, workers, shrink_out.as_deref())
}

/// One randomized chaos case: a world shape plus a fault plan. The
/// trajectory is a pure function of `(case, keep)`, which is what makes
/// shrinking sound.
struct ChaosCase {
    nodes: usize,
    jobs: usize,
    world_seed: u64,
    plan: FaultPlan,
    /// The planted self-check oracle: additionally demand that every
    /// job completes without the failsafe ever firing — false under
    /// heavy loss by design, so the shrinker has something to shrink.
    strict: bool,
}

/// What one audited run produced.
struct RunOutcome {
    /// `Err` when an invariant or the oracle failed.
    verdict: Result<(), String>,
    /// Injection indices that fired (the shrinker's currency).
    fired: Vec<u64>,
    /// Human-readable fault log of the run.
    records: Vec<String>,
    completed: u64,
    lost: usize,
    abandoned: usize,
}

impl ChaosCase {
    /// Runs the case with an injection allow-list (`None` = everything
    /// fires) and applies the audit + conservation oracle.
    fn execute<P: Probe>(&self, keep: Option<Vec<u64>>, probe: P) -> (RunOutcome, World<P>) {
        let mut config = WorldConfig::small_test(self.nodes);
        config.fault = FaultPlan { keep, ..self.plan.clone() };
        let mut world = World::with_probe(config, self.world_seed, probe);
        let mut generator = JobGenerator::paper_batch();
        let schedule =
            SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_secs(40), self.jobs);
        world.submit_schedule(&schedule, &mut generator);
        let audited = world.run_audited();

        let completed = world.metrics().completed_count();
        let lost = world.lost_jobs().len();
        let abandoned = world.abandoned_jobs().len();
        let recovered = world.recovered_count();
        let verdict = audited.and_then(|()| {
            if completed as usize + lost + abandoned != self.jobs {
                return Err(format!(
                    "job conservation violated: {completed} completed + {lost} lost + \
                     {abandoned} abandoned != {} submitted",
                    self.jobs
                ));
            }
            if self.strict && (completed as usize != self.jobs || recovered > 0) {
                return Err(format!(
                    "planted oracle violated: {completed}/{} completed, {recovered} failsafe \
                     recover(ies)",
                    self.jobs
                ));
            }
            Ok(())
        });
        let outcome = RunOutcome {
            verdict,
            fired: world.fault_log().iter().map(|r| r.index).collect(),
            records: world.fault_log().iter().map(ToString::to_string).collect(),
            completed,
            lost,
            abandoned,
        };
        (outcome, world)
    }

    fn execute_plain(&self, keep: Option<Vec<u64>>) -> RunOutcome {
        self.execute(keep, NullProbe).0
    }
}

/// Derives the `k`-th randomized case from the harness RNG.
fn random_case(plan_rng: &mut SimRng, nodes: usize, jobs: usize) -> ChaosCase {
    let loss = plan_rng.f64_range(0.0, 0.45);
    let duplicate = plan_rng.f64_range(0.0, 0.25);
    let jitter_ms = plan_rng.u64_range(0, 1200);
    let mut partitions = Vec::new();
    if plan_rng.chance(0.5) {
        let count = 1 + usize::from(plan_rng.chance(0.3));
        for _ in 0..count {
            partitions.push(PartitionWindow {
                start: SimTime::from_mins(plan_rng.u64_range(2, 600)),
                duration: SimDuration::from_mins(plan_rng.u64_range(3, 40)),
            });
        }
    }
    ChaosCase {
        nodes,
        jobs,
        world_seed: plan_rng.next_u64(),
        plan: FaultPlan { loss, duplicate, jitter_ms, partitions, keep: None },
        strict: false,
    }
}

/// The main harness loop: run `schedules` randomized cases, shrink and
/// report the first violation.
///
/// Case derivation is serial — each `fork` advances the master RNG
/// stream — but the audited runs are pure functions of their case, so
/// they fan out across `workers` lanes of [`aria_sim::pool::map`], the
/// calling thread included. Outcomes come back and are reported in
/// schedule order, and any shrink runs serially on the calling thread,
/// so stdout/stderr are byte-identical to a `--workers 1` run at every
/// worker count. (On a violation the serial loop would stop early where
/// the fan-out has already run the later schedules; that surplus work is
/// pure and its results are discarded.)
fn chaos(
    schedules: u64,
    seed: u64,
    nodes: usize,
    jobs: usize,
    workers: usize,
    out: Option<&str>,
) -> ExitCode {
    println!(
        "xtask chaos: {schedules} schedule(s), seed {seed}, {nodes} nodes, {jobs} jobs \
         (audited: every invariant checked after every event)"
    );
    let mut master = SimRng::seed_from(seed);
    let cases: Vec<ChaosCase> = (0..schedules)
        .map(|k| {
            let mut plan_rng = master.fork(k + 1);
            random_case(&mut plan_rng, nodes, jobs)
        })
        .collect();
    let outcomes = aria_sim::pool::map(&cases, workers, |case| case.execute_plain(None));
    for (k, (case, outcome)) in cases.iter().zip(outcomes).enumerate() {
        let plan = &case.plan;
        println!(
            "schedule {k:>3}: loss {:>4.1}% dup {:>4.1}% jitter {:>4}ms partitions {} -> \
             {} completed / {} lost / {} abandoned, {} injection(s) fired: {}",
            plan.loss * 100.0,
            plan.duplicate * 100.0,
            plan.jitter_ms,
            plan.partitions.len(),
            outcome.completed,
            outcome.lost,
            outcome.abandoned,
            outcome.fired.len(),
            if outcome.verdict.is_ok() { "ok" } else { "VIOLATION" },
        );
        if let Err(message) = outcome.verdict {
            eprintln!("xtask chaos: schedule {k} violated the oracle: {message}");
            report_shrunk(case, outcome.fired, out);
            return ExitCode::FAILURE;
        }
    }
    println!("xtask chaos: all {schedules} schedule(s) passed the audit and conservation oracle");
    ExitCode::SUCCESS
}

/// Greedy keep-list shrink: try removing one surviving injection at a
/// time; whenever the violation persists, adopt the re-run's actually
/// fired subset (always ⊆ the candidate, so the list is monotonically
/// shrinking). Terminates 1-minimal.
fn shrink(case: &ChaosCase, mut kept: Vec<u64>) -> (Vec<u64>, usize) {
    let mut runs = 0usize;
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < kept.len() {
            let mut candidate = kept.clone();
            candidate.remove(i);
            let outcome = case.execute_plain(Some(candidate));
            runs += 1;
            if outcome.verdict.is_err() {
                kept = outcome.fired;
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            break;
        }
    }
    (kept, runs)
}

/// Shrinks a violating case, prints the minimal fault list, and exports
/// the minimal run's probe trace when `--shrink-out` was given.
fn report_shrunk(case: &ChaosCase, fired: Vec<u64>, out: Option<&str>) {
    let initial = fired.len();
    let (kept, runs) = shrink(case, fired);
    let (outcome, world) = case.execute(Some(kept.clone()), RingRecorder::default());
    let verdict = outcome
        .verdict
        .expect_err("a shrunk schedule must still violate (shrinking only keeps violating runs)");
    eprintln!(
        "xtask chaos: shrunk {initial} -> {} injection(s) in {runs} re-run(s); minimal schedule \
         (world seed {}, keep {:?}):",
        kept.len(),
        case.world_seed,
        kept,
    );
    for record in &outcome.records {
        eprintln!("    {record}");
    }
    eprintln!("xtask chaos: minimal schedule still fails with: {verdict}");
    if let Some(path) = out {
        let meta = TraceMeta {
            scenario: "chaos-shrunk".to_string(),
            seed: case.world_seed,
            nodes: case.nodes as u64,
            jobs: case.jobs as u64,
        };
        let trace = world.into_probe().into_trace(meta);
        match std::fs::write(path, aria_probe::schema::to_jsonl(&trace)) {
            Ok(()) => eprintln!(
                "xtask chaos: minimal-run trace written to {path} ({} probe event(s))",
                trace.entries.len()
            ),
            Err(error) => eprintln!("xtask chaos: cannot write {path}: {error}"),
        }
    }
}

/// `--sweep` — the graceful-degradation table: iMixed at increasing
/// loss, conservation checked at every rate, zero lost jobs demanded up
/// to 10%.
fn loss_sweep(seed: u64) -> ExitCode {
    let runner = aria_scenarios::Runner::scaled(40, 30);
    let losses = [0.0, 0.02, 0.05, 0.10, 0.20, 0.35, 0.50];
    println!("xtask chaos --sweep: iMixed, 40 nodes, 30 jobs, seed {seed}");
    println!("  loss   completed  lost  abandoned  recovered  injections  conserved");
    let mut failed = false;
    for point in aria_scenarios::loss_sweep(&runner, &losses, seed) {
        println!(
            "  {:>4.0}%  {:>9}  {:>4}  {:>9}  {:>9}  {:>10}  {}",
            point.loss * 100.0,
            point.completed,
            point.lost,
            point.abandoned,
            point.recovered,
            point.injections,
            if point.conserved() { "yes" } else { "NO" },
        );
        if !point.conserved() {
            eprintln!("xtask chaos: conservation violated at {:.0}% loss", point.loss * 100.0);
            failed = true;
        }
        if point.loss <= 0.10 && point.lost > 0 {
            eprintln!(
                "xtask chaos: {} job(s) lost at {:.0}% loss — the failsafe must absorb \
                 moderate loss",
                point.lost,
                point.loss * 100.0
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("xtask chaos --sweep: ledger balanced at every rate");
        ExitCode::SUCCESS
    }
}

/// Proves the shrinker on a planted violation: a fixed heavy-loss case
/// under the deliberately-strict oracle (every job completes, failsafe
/// never fires) must fail, shrink to a 1-minimal keep-list, and replay.
fn self_check_shrinker(out: Option<&str>) -> ExitCode {
    let case = ChaosCase {
        nodes: 8,
        jobs: 3,
        world_seed: 0xC4A05,
        plan: FaultPlan { loss: 0.75, jitter_ms: 300, ..FaultPlan::none() },
        strict: true,
    };
    let outcome = case.execute_plain(None);
    let Err(message) = outcome.verdict else {
        eprintln!("chaos --self-check: the planted violation was NOT caught");
        return ExitCode::FAILURE;
    };
    println!("chaos --self-check: planted violation caught: {message}");
    let initial = outcome.fired.len();
    let (kept, runs) = shrink(&case, outcome.fired);
    if kept.is_empty() || kept.len() >= initial {
        eprintln!(
            "chaos --self-check: shrink made no progress ({initial} -> {} injections)",
            kept.len()
        );
        return ExitCode::FAILURE;
    }
    // 1-minimality: removing any surviving injection must make the run pass.
    for i in 0..kept.len() {
        let mut candidate = kept.clone();
        candidate.remove(i);
        if case.execute_plain(Some(candidate)).verdict.is_err() {
            eprintln!("chaos --self-check: keep-list is not 1-minimal (index {} removable)", kept[i]);
            return ExitCode::FAILURE;
        }
    }
    // Determinism: the minimal keep-list must replay the same verdict
    // with exactly the kept injections firing.
    let replay = case.execute_plain(Some(kept.clone()));
    if replay.fired != kept || replay.verdict.is_ok() {
        eprintln!("chaos --self-check: minimal keep-list did not replay the violation");
        return ExitCode::FAILURE;
    }
    println!(
        "chaos --self-check: shrunk {initial} -> {} injection(s) in {runs} re-run(s), \
         1-minimal, replays deterministically:",
        kept.len()
    );
    for record in &replay.records {
        println!("    {record}");
    }
    if out.is_some() {
        report_shrunk(&case, kept, out);
    }
    ExitCode::SUCCESS
}
