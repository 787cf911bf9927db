//! The metric tables: every name, unit, direction and regression bound
//! the benchmark reports. `BENCHMARK.json` repeats them for the driver;
//! `run --check` fails when the two disagree.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; per-layer metrics have
    /// none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload. The four simulated
/// quantities (latencies, messages, bytes) repeat bit for bit from a
/// seed; their bounds cover only the difference between seeds.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("events_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_event", "us", Lower, 0.25),
    e2e("sim_latency_ms_p50", "ms", Lower, 0.05),
    e2e("sim_latency_ms_p99", "ms", Lower, 0.15),
    e2e("msgs_per_event", "1", Lower, 0.05),
    e2e("bytes_per_event", "B", Lower, 0.05),
    e2e("peak_rss_mib", "MiB", Lower, 0.1),
];

/// The end-to-end metrics that are simulated quantities: two runs of the
/// same code at the same seed must agree on them exactly.
pub const SIMULATED: [&str; 4] = [
    "sim_latency_ms_p50",
    "sim_latency_ms_p99",
    "msgs_per_event",
    "bytes_per_event",
];

/// Single-layer metrics of the traced run; layers are the crates.
pub const PER_LAYER: [Metric; 59] = [
    layer("wire.encode_v2_ns", "ns", Lower),
    layer("wire.decode_v2_ns", "ns", Lower),
    layer("wire.probe_walk_ns", "ns", Lower),
    layer("wire.encode_xml_ns", "ns", Lower),
    layer("wire.decode_xml_ns", "ns", Lower),
    layer("wire.v2_bytes_per_event", "B", Lower),
    layer("wire.xml_bytes_per_event", "B", Lower),
    layer("wire.retransmit_ratio", "1", Lower),
    layer("wire.batch_fill", "1", Higher),
    layer("filter.match_ns", "ns", Lower),
    layer("filter.probe_reject_ns", "ns", Lower),
    layer("filter.insert_ns", "ns", Lower),
    layer("filter.remove_ns", "ns", Lower),
    layer("filter.index_entries", "count", Lower),
    layer("filter.scan_conjunctions", "count", Lower),
    layer("profile.parse_ns", "ns", Lower),
    layer("profile.interests_ns", "ns", Lower),
    layer("gds.route_ns", "ns", Lower),
    layer("gds.pruned_edge_ratio", "1", Higher),
    layer("gds.rendezvous_confined_ratio", "1", Higher),
    layer("gds.summary_updates_per_churn", "1", Lower),
    layer("sim.step_ns", "ns", Lower),
    layer("sim.steps_per_event", "1", Lower),
    layer("greenstone.rebuild_us", "us", Lower),
    layer("store.ingest_ns_per_doc", "ns", Lower),
    layer("core.publish_call_us_p50", "us", Lower),
    layer("core.publish_call_us_p99", "us", Lower),
    layer("core.subscribe_us_p50", "us", Lower),
    layer("core.subscribe_us_p99", "us", Lower),
    layer("core.churn_subscribe_us_p50", "us", Lower),
    layer("core.unsubscribe_us_p50", "us", Lower),
    layer("core.deliver_ns", "ns", Lower),
    layer("core.alerting_overhead_ratio", "1", Lower),
    layer("core.probe_skip_ratio", "1", Higher),
    layer("core.decode_errors", "count", Lower),
    layer("core.drain_us_p50", "us", Lower),
    layer("state.append_ns", "ns", Lower),
    layer("state.journal_bytes_per_sub", "B", Lower),
    layer("state.appends_per_churn", "1", Lower),
    layer("alerts.observe_ns", "ns", Lower),
    layer("alerts.suppressed_ratio", "1", Lower),
    layer("driver.cpu_wall_ratio", "1", Higher),
    layer("driver.rep_spread", "1", Lower),
    layer("driver.burst_wall_us_p50", "us", Lower),
    layer("driver.burst_wall_us_p99", "us", Lower),
    layer("driver.gen_share", "1", Lower),
    layer("driver.trace_overhead_ratio", "1", Lower),
    layer("driver.noisy_reps", "count", Lower),
    layer("driver.checked_deliveries", "count", Higher),
    layer("attrib.wire_share", "1", Lower),
    layer("attrib.filter_share", "1", Lower),
    layer("attrib.profile_share", "1", Lower),
    layer("attrib.gds_share", "1", Lower),
    layer("attrib.sim_share", "1", Lower),
    layer("attrib.greenstone_share", "1", Lower),
    layer("attrib.core_share", "1", Lower),
    layer("attrib.state_share", "1", Lower),
    layer("attrib.alerts_share", "1", Lower),
    layer("attrib.unattributed_share", "1", Lower),
];

/// Measured values keyed by metric name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every metric of `table`,
    /// in table order, each with its unit.
    ///
    /// # Panics
    ///
    /// Panics when a metric of the table was not measured.
    pub fn to_json(&self, table: &[Metric]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|m| {
                let v = self
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{} was not measured", m.name));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A float with all its digits; JSON has no NaN or infinity, and a
/// metric that came out as one is reported as 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
