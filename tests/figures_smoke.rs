//! Smoke tests for the figure-reproduction harness: every table and
//! figure renders at reduced scale and shows the paper's qualitative
//! shape.

use aria_scenarios::{Campaign, Runner, Scenario};

fn campaign() -> Campaign {
    Campaign::new(Runner::scaled(50, 60), vec![1, 2])
}

#[test]
fn every_artifact_renders() {
    let mut c = campaign();
    for id in [
        "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "baselines", "ablations",
    ] {
        let out = c.render(id).unwrap_or_else(|| panic!("unknown id {id}"));
        assert!(!out.is_empty(), "{id} rendered empty");
        assert!(out.starts_with("# "), "{id} missing title: {out}");
    }
}

#[test]
fn fig1_reaches_total_jobs_in_all_policies() {
    let mut c = campaign();
    let fig = c.fig1();
    // Last CSV data row (the figure is followed by an ASCII chart).
    let last_row = fig
        .lines()
        .rfind(|l| l.starts_with(|c: char| c.is_ascii_digit()) && l.contains(','))
        .unwrap();
    // All six series end at the total job count (60).
    let cols: Vec<&str> = last_row.split(',').collect();
    assert_eq!(cols.len(), 7, "{last_row}");
    for value in &cols[1..] {
        assert_eq!(*value, "60.0", "series did not finish all jobs: {last_row}");
    }
}

#[test]
fn fig2_rescheduling_beats_plain_for_sjf_and_mixed() {
    let runner = Runner::scaled(50, 120);
    let seeds = [1, 2, 3];
    let results = runner.run_many(
        &[Scenario::Sjf, Scenario::ISjf, Scenario::Mixed, Scenario::IMixed],
        &seeds,
    );
    let mean = |i: usize| results[i].completion().mean();
    assert!(
        mean(1) < mean(0),
        "iSJF ({:.0}s) should beat SJF ({:.0}s)",
        mean(1),
        mean(0)
    );
    assert!(
        mean(3) < mean(2),
        "iMixed ({:.0}s) should beat Mixed ({:.0}s)",
        mean(3),
        mean(2)
    );
}

#[test]
fn fig10_inform_traffic_scales_with_batch_size() {
    let runner = Runner::scaled(50, 100);
    let seeds = [1, 2];
    let results =
        runner.run_many(&[Scenario::IInform1, Scenario::IMixed, Scenario::IInform4], &seeds);
    let inform = |i: usize| results[i].avg_messages(aria_metrics::TrafficClass::Inform);
    assert!(
        inform(0) < inform(2),
        "iInform1 ({:.0}) should send less INFORM traffic than iInform4 ({:.0})",
        inform(0),
        inform(2)
    );
    assert!(inform(1) <= inform(2) * 1.05, "baseline should not exceed iInform4");
}

#[test]
fn baselines_artifact_renders_all_four_schedulers() {
    let mut c = Campaign::new(Runner::scaled(30, 20).workers(1), vec![1]);
    let out = c.render("baselines").expect("known artifact");
    for scheduler in ["ARiA(iMixed)", "central", "gossip", "multireq_k3"] {
        assert!(out.contains(scheduler), "missing {scheduler}: {out}");
    }
    // Gossip row reports nonzero message traffic; central reports none.
    let central_row = out.lines().find(|l| l.starts_with("central,")).unwrap();
    assert!(central_row.ends_with(",0"), "{central_row}");
}

#[test]
fn ablations_artifact_renders_every_variant() {
    let mut c = Campaign::new(Runner::scaled(30, 20).workers(1), vec![1]);
    let out = c.render("ablations").expect("known artifact");
    let mut lines = out.lines();
    assert!(lines.next().unwrap().starts_with("# Ablations"), "{out}");
    assert_eq!(
        lines.next().unwrap(),
        "ablation,variant,completion_s,waiting_s,request_msgs_per_job,accept_msgs_per_job,messages"
    );
    let rows: Vec<(&str, &str)> = lines
        .map(|line| {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 7, "{line}");
            (cols[0], cols[1])
        })
        .collect();
    assert_eq!(
        rows,
        [
            ("forward_on_match", "false"),
            ("forward_on_match", "true"),
            ("overlay", "blatant"),
            ("overlay", "random_regular_4"),
            ("overlay", "small_world_4_0.2"),
            ("overlay", "ring"),
            ("policies", "FCFS"),
            ("policies", "SJF"),
            ("policies", "LJF"),
            ("policies", "PRIORITY"),
            ("reservations", "FCFS"),
            ("reservations", "BACKFILL"),
        ]
    );
}

#[test]
fn fig9_accuracy_scenarios_stay_feasible() {
    let runner = Runner::scaled(40, 40);
    let results = runner.run_many(
        &[Scenario::IPrecise, Scenario::IAccuracy25, Scenario::IAccuracyBad],
        &[3],
    );
    for r in &results {
        assert_eq!(r.runs[0].completed, 40, "{} lost jobs", r.scenario);
    }
    // Optimistic estimation (AccuracyBad) inflates execution time.
    let precise_exec = results[0].execution().mean();
    let bad_exec = results[2].execution().mean();
    assert!(
        bad_exec > precise_exec,
        "optimistic ERT should lengthen executions: {bad_exec:.0}s vs {precise_exec:.0}s"
    );
}
