//! Deadline scheduling with EDF local schedulers and the NAL cost
//! function: how dynamic rescheduling rescues deadline jobs (the paper's
//! Figure 4, scaled down).
//!
//! ```text
//! cargo run --release -p aria-scenarios --example deadline_campaign
//! ```

use aria_scenarios::{Runner, Scenario};

fn main() {
    let runner = Runner::scaled(150, 400);
    let seeds = [1, 2, 3];

    let scenarios =
        [Scenario::Deadline, Scenario::IDeadline, Scenario::DeadlineH, Scenario::IDeadlineH];
    let results = runner.run_many(&scenarios, &seeds);

    println!("scenario     missed  avg lateness  avg missed time");
    for r in &results {
        println!(
            "{:11} {:7.1} {:11.1}min {:14.1}min",
            r.scenario.name(),
            r.avg_missed_deadlines(),
            r.avg_lateness_secs() / 60.0,
            r.avg_missed_time_secs() / 60.0,
        );
    }

    let soft_plain = results[0].avg_missed_deadlines();
    let soft_resched = results[1].avg_missed_deadlines();
    let hard_plain = results[2].avg_missed_deadlines();
    let hard_resched = results[3].avg_missed_deadlines();
    println!(
        "\nrescheduling cuts misses: soft {soft_plain:.1} -> {soft_resched:.1}, \
         tight {hard_plain:.1} -> {hard_resched:.1}"
    );
    println!("(the paper reports 187 -> 4 and 236 -> 59 at full 500-node scale)");
}
