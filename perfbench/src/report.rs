//! The metric tables (normative names and units, mirrored by
//! `BENCHMARK.json`) and the result a workload run produces.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them from its untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_job", "ms"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p85_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`, reported by the traced run. A
/// workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.trace_overhead_ratio", "ratio"),
    // In-situ spans and counts around `World`.
    ("core.world.new_s", "s"),
    ("core.world.submit_s", "s"),
    ("core.world.run_s", "s"),
    ("core.world.events", "count"),
    ("core.world.ns_per_event", "ns"),
    ("core.world.events_per_job", "count"),
    ("core.world.msgs.request", "count"),
    ("core.world.msgs.accept", "count"),
    ("core.world.msgs.inform", "count"),
    ("core.world.msgs.assign", "count"),
    ("core.world.flood_slots", "count"),
    ("core.world.spilled_flood_slots", "count"),
    ("core.world.hops_per_request", "count"),
    ("core.world.offers_per_request", "count"),
    ("probe.record.ring_overhead_ratio", "ratio"),
    ("probe.record.events_recorded", "count"),
    ("probe.schema.to_jsonl_ns_per_entry", "ns"),
    ("probe.schema.from_jsonl_ns_per_entry", "ns"),
    ("sim.event.peak_pending", "count"),
    ("sim.event.share_est", "ratio"),
    ("grid.queue.share_est", "ratio"),
    ("core.shard.sharded2_speedup", "ratio"),
    ("core.shard.cores", "count"),
    // Isolated replays at fixed sizes.
    ("sim.event.push_pop_ns.d1e3", "ns"),
    ("sim.event.push_pop_ns.d1e5", "ns"),
    ("sim.event.push_pop_ns.d1e6", "ns"),
    ("grid.queue.ettc_ns.d1", "ns"),
    ("grid.queue.ettc_ns.d50", "ns"),
    ("grid.queue.ettc_ns.d500", "ns"),
    ("grid.queue.nal_ns.d1", "ns"),
    ("grid.queue.nal_ns.d50", "ns"),
    ("grid.queue.nal_ns.d500", "ns"),
    ("grid.queue.cycle_ns.fcfs", "ns"),
    ("grid.queue.cycle_ns.sjf", "ns"),
    ("grid.queue.cycle_ns.edf", "ns"),
    ("overlay.blatant.build_s.n500", "s"),
    ("overlay.blatant.build_s.n2000", "s"),
    ("overlay.blatant.join_us", "us"),
    ("overlay.builders.random_regular_s.n1e4", "s"),
    ("overlay.builders.random_regular_s.n1e5", "s"),
    ("overlay.topology.sampled_path_len.n500", "hops"),
    ("workload.jobs.generate_feasible_ns", "ns"),
    ("node.timer.arm_pop_ns.d16", "ns"),
    ("node.timer.arm_pop_ns.d4096", "ns"),
    ("jsdl.roundtrip_us_per_job", "us"),
    // True self times of the driver mesh.
    ("core.driver.handle_s", "s"),
    ("core.driver.handle_ns.submit", "ns"),
    ("core.driver.handle_ns.timer", "ns"),
    ("core.driver.handle_ns.msg_request", "ns"),
    ("core.driver.handle_ns.msg_accept", "ns"),
    ("core.driver.handle_ns.msg_inform", "ns"),
    ("core.driver.handle_ns.msg_assign", "ns"),
    ("core.driver.handle_ns.msg_ack", "ns"),
    ("core.driver.inputs", "count"),
    ("core.driver.outputs_per_input", "count"),
    ("core.driver.visited_len_mean", "count"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.encode_ns.request", "ns"),
    ("codec.encode_ns.accept", "ns"),
    ("codec.encode_ns.inform", "ns"),
    ("codec.encode_ns.assign", "ns"),
    ("codec.encode_ns.ack", "ns"),
    ("codec.decode_ns.request", "ns"),
    ("codec.decode_ns.accept", "ns"),
    ("codec.decode_ns.inform", "ns"),
    ("codec.decode_ns.assign", "ns"),
    ("codec.decode_ns.ack", "ns"),
    ("codec.bytes_per_frame.request", "B"),
    ("codec.bytes_per_frame.accept", "B"),
    ("codec.bytes_per_frame.inform", "B"),
    ("codec.bytes_per_frame.assign", "B"),
    ("codec.bytes_per_frame.ack", "B"),
    ("codec.frames", "count"),
    ("codec.frames_over_mtu_ratio", "ratio"),
    ("bench.mesh.queue_s", "s"),
    // The live cluster, from `ClusterOutcome` and `/proc`.
    ("node.cluster.harness_overhead_s", "s"),
    ("node.runtime.cpu_ms_per_job", "ms"),
    ("node.runtime.peak_rss_kb", "kB"),
    ("node.runtime.events_per_job.flood_hop", "count"),
    ("node.runtime.events_per_job.bid_sent", "count"),
    ("node.runtime.events_per_job.assigned", "count"),
    ("node.runtime.events_per_job.ack_received", "count"),
    ("node.runtime.retransmits", "count"),
    ("node.runtime.trace_dropped", "count"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Jobs submitted over all repetitions.
    pub attempted: u64,
    /// Jobs not completed exactly once (lost, abandoned or duplicated).
    pub failed: u64,
    /// Output-check violations; empty means the run is correct.
    pub violations: Vec<String>,
    /// Fingerprint of the first repetition (seed `S`), for pinning.
    pub fingerprint: String,
    /// Free-form context lines printed above the result.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` for the declared metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both tables: that is a typo in the
    /// benchmark, not a property of the run.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in report.rs"));
        self.values.insert(declared.0, value);
    }

    /// Records a failed check.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Whether every check passed and every job completed exactly once.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The result line: one JSON object holding every metric of `table`.
    /// An end-to-end metric that was never set is a violation (a
    /// per-layer one reads 0: the workload does not exercise that layer).
    pub fn result_line(
        &mut self,
        table: &[(&'static str, &'static str)],
        required: bool,
    ) -> String {
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.violations
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if required => {
                    self.violations
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
                None => 0.0,
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn missing_end_to_end_metric_is_a_violation() {
        let mut report = Report {
            attempted: 1,
            ..Report::default()
        };
        report.set("run_s", 1.5);
        let json = report.result_line(END_TO_END, true);
        assert!(json.starts_with("{\"correct\": false"));
        assert!(json.contains("\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let mut report = Report::default();
        let json = report.result_line(PER_LAYER, false);
        assert!(json.starts_with("{\"correct\": true"));
    }
}
