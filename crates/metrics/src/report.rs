//! CSV export of collected metrics — the bridge from simulation runs to
//! external plotting/analysis tools (hand-rolled; no `csv` dependency).

use crate::collector::MetricsCollector;
use crate::record::JobRecord;
use crate::traffic::{TrafficClass, TrafficLedger};
use aria_sim::TimeSeries;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Renders labelled time series as CSV: a `time_s` column followed by
/// one column per series. Ragged lengths leave trailing cells empty.
///
/// # Panics
///
/// Panics if the series do not share one sampling period.
pub fn series_csv(series: &[(&str, &TimeSeries)]) -> String {
    let mut out = String::from("time_s");
    for (label, _) in series {
        let _ = write!(out, ",{}", quote(label));
    }
    out.push('\n');
    let Some((_, first)) = series.first() else {
        return out;
    };
    assert!(series.iter().all(|(_, s)| s.period() == first.period()), "series periods differ");
    let rows = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for i in 0..rows {
        let _ = write!(out, "{}", first.time_at(i).as_secs());
        for (_, s) in series {
            match s.values().get(i) {
                Some(v) => {
                    let _ = write!(out, ",{v}");
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders per-job life-cycle records as CSV, one row per job.
pub fn records_csv<'a, I>(records: I) -> String
where
    I: IntoIterator<Item = &'a JobRecord>,
{
    let mut out = String::from(
        "job,submitted_s,first_assigned_s,assignments,reschedules,started_s,executed_on,\
         completed_s,waiting_s,execution_s,completion_s,deadline_s,deadline_slack_s\n",
    );
    for r in records {
        let opt_t =
            |t: Option<aria_sim::SimTime>| t.map_or(String::new(), |t| t.as_secs().to_string());
        let opt_d =
            |d: Option<aria_sim::SimDuration>| d.map_or(String::new(), |d| d.as_secs().to_string());
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.id.raw(),
            r.submitted_at.as_secs(),
            opt_t(r.first_assigned_at),
            r.assignments,
            r.reschedules,
            opt_t(r.started_at),
            r.executed_on.map_or(String::new(), |n| n.to_string()),
            opt_t(r.completed_at),
            opt_d(r.waiting_time()),
            opt_d(r.execution_time()),
            opt_d(r.completion_time()),
            opt_t(r.deadline),
            r.deadline_slack().map_or(String::new(), |s| (s / 1000).to_string()),
        );
    }
    out
}

/// Renders a traffic ledger as CSV, one row per message class.
pub fn traffic_csv(ledger: &TrafficLedger) -> String {
    let mut out = String::from("class,messages,bytes\n");
    for class in TrafficClass::ALL {
        let _ = writeln!(out, "{},{},{}", class, ledger.messages(class), ledger.bytes(class));
    }
    let _ = writeln!(out, "TOTAL,{},{}", ledger.total_messages(), ledger.total_bytes());
    out
}

/// Writes a full report for one run into `dir`: `series.csv` (completed /
/// idle / queued gauges), `jobs.csv` and `traffic.csv`.
///
/// # Errors
///
/// Propagates filesystem errors (directory creation, file writes).
pub fn write_report(dir: &Path, metrics: &MetricsCollector) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("series.csv"),
        series_csv(&[
            ("completed_jobs", metrics.completed_series()),
            ("idle_nodes", metrics.idle_series()),
            ("queued_jobs", metrics.queued_series()),
        ]),
    )?;
    std::fs::write(dir.join("jobs.csv"), records_csv(metrics.records().values()))?;
    std::fs::write(dir.join("traffic.csv"), traffic_csv(metrics.traffic()))?;
    Ok(())
}

/// Quotes a CSV field if it contains separators or quotes.
fn quote(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_grid::{Architecture, JobId, JobRequirements, JobSpec, OperatingSystem};
    use aria_sim::{SimDuration, SimTime};

    fn sample_collector() -> MetricsCollector {
        let mut m = MetricsCollector::new(SimDuration::from_mins(1));
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        let job = JobSpec::with_deadline(
            JobId::new(0),
            req,
            SimDuration::from_hours(1),
            SimTime::from_mins(200),
        );
        m.job_submitted(&job, SimTime::from_mins(1));
        m.job_assigned(job.id, SimTime::from_mins(2), false);
        m.job_started(job.id, 7, SimTime::from_mins(10));
        m.sample_gauges(3, 1);
        m.job_completed(job.id, SimTime::from_mins(70));
        m.sample_gauges(4, 0);
        m.record_message(TrafficClass::Request);
        m.record_message(TrafficClass::Accept);
        m
    }

    #[test]
    fn series_csv_has_header_and_rows() {
        let m = sample_collector();
        let csv = series_csv(&[
            ("completed_jobs", m.completed_series()),
            ("idle_nodes", m.idle_series()),
        ]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,completed_jobs,idle_nodes");
        assert_eq!(lines[1], "0,0,3");
        assert_eq!(lines[2], "60,1,4");
    }

    #[test]
    fn series_csv_handles_ragged_lengths() {
        let mut a = TimeSeries::new(SimDuration::from_secs(1));
        a.push(1.0);
        a.push(2.0);
        let mut b = TimeSeries::new(SimDuration::from_secs(1));
        b.push(9.0);
        let csv = series_csv(&[("a", &a), ("b", &b)]);
        assert!(csv.lines().nth(2).unwrap().ends_with("2,"), "{csv}");
    }

    #[test]
    #[should_panic(expected = "periods differ")]
    fn series_csv_rejects_mixed_periods() {
        let a = TimeSeries::new(SimDuration::from_secs(1));
        let b = TimeSeries::new(SimDuration::from_secs(2));
        series_csv(&[("a", &a), ("b", &b)]);
    }

    #[test]
    fn records_csv_renders_complete_rows() {
        let m = sample_collector();
        let csv = records_csv(m.records().values());
        let row = csv.lines().nth(1).unwrap();
        // job 0: submitted 60s, assigned 120s, started 600s on node 7,
        // completed 4200s => waiting 540s, execution 3600s, completion 4140s,
        // deadline 12000s => slack 7800s.
        assert_eq!(row, "0,60,120,1,0,600,7,4200,540,3600,4140,12000,7800");
    }

    #[test]
    fn records_csv_leaves_blanks_for_incomplete_jobs() {
        let mut m = MetricsCollector::new(SimDuration::from_mins(1));
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        let job = JobSpec::batch(JobId::new(5), req, SimDuration::from_hours(1));
        m.job_submitted(&job, SimTime::ZERO);
        let csv = records_csv(m.records().values());
        assert!(csv.lines().nth(1).unwrap().starts_with("5,0,,0,0,,,"), "{csv}");
    }

    #[test]
    fn traffic_csv_totals_add_up() {
        let m = sample_collector();
        let csv = traffic_csv(m.traffic());
        assert!(csv.contains("REQUEST,1,1024"));
        assert!(csv.contains("ACCEPT,1,128"));
        assert!(csv.contains("TOTAL,2,1152"));
    }

    #[test]
    fn write_report_creates_all_files() {
        let dir = std::env::temp_dir().join(format!("aria_report_test_{}", std::process::id()));
        let m = sample_collector();
        write_report(&dir, &m).unwrap();
        for file in ["series.csv", "jobs.csv", "traffic.csv"] {
            let content = std::fs::read_to_string(dir.join(file)).unwrap();
            assert!(content.lines().count() >= 2, "{file} too short");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_quoting_escapes_separators() {
        assert_eq!(quote("plain"), "plain");
        assert_eq!(quote("a,b"), "\"a,b\"");
        assert_eq!(quote("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
