//! The traced run's per-layer metrics: micro-measurements of each layer's
//! public functions, ratios from the system's counters over the measured
//! region, percentiles of the harness's own spans, and the attribution
//! estimate that combines them.

use crate::driver::{Noise, Plan, Rep};
use crate::gen::Doc;
use crate::metrics::Values;
use crate::stats::{median, quantile};
use crate::sut::{Layers, Switches};
use crate::trace::Tracer;
use std::time::Instant;

/// A call slower than this is timed over 10³ calls instead of 10⁴.
const SLOW_CALL_NS: f64 = 100_000.0;

/// Median nanoseconds per call of `call`, over 100 batches.
fn time_ns(layers: &mut Layers, call: fn(&mut Layers)) -> f64 {
    // Three pilot calls warm buffers and size the batches.
    let pilot = (0..3)
        .map(|_| {
            let t = Instant::now();
            call(layers);
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::MAX, f64::min);
    let batch = if pilot > SLOW_CALL_NS { 10 } else { 100 };
    let samples: Vec<f64> = (0..100)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                call(layers);
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// Median nanoseconds per call of `first` and of `second`, run in
/// alternating batches: 100 calls of `first`, then 100 of `second` that
/// undo them, so the structure they change stays at its workload size.
fn time_pair_ns(
    layers: &mut Layers,
    first: fn(&mut Layers),
    second: fn(&mut Layers),
) -> (f64, f64) {
    let batch = 100;
    let mut samples = (Vec::new(), Vec::new());
    for _ in 0..100 {
        for (call, out) in [(first, &mut samples.0), (second, &mut samples.1)] {
            let t = Instant::now();
            for _ in 0..batch {
                call(layers);
            }
            out.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
    }
    (median(&samples.0), median(&samples.1))
}

/// A metric name and the one call it times.
type Timed = (&'static str, fn(&mut Layers));

const TIMED: [Timed; 14] = [
    ("wire.encode_v2_ns", Layers::wire_encode_v2),
    ("wire.decode_v2_ns", Layers::wire_decode_v2),
    ("wire.probe_walk_ns", Layers::wire_probe_walk),
    ("wire.encode_xml_ns", Layers::wire_encode_xml),
    ("wire.decode_xml_ns", Layers::wire_decode_xml),
    ("filter.match_ns", Layers::filter_match),
    ("filter.probe_reject_ns", Layers::filter_probe),
    ("profile.parse_ns", Layers::profile_parse),
    ("profile.interests_ns", Layers::profile_interests),
    ("gds.route_ns", Layers::gds_route),
    ("sim.step_ns", Layers::sim_step),
    ("core.deliver_ns", Layers::core_deliver),
    ("state.append_ns", Layers::state_append),
    ("alerts.observe_ns", Layers::alerts_observe),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn p(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile(samples, q)
    }
}

/// Every per-layer metric of one traced run. `untraced` and `traced` are
/// the run's repetitions without and with spans; `tracer` holds the
/// spans of the traced ones and receives one span per micro-measurement.
pub fn per_layer(plan: &Plan, untraced: &[Rep], traced: &[Rep], tracer: &mut Tracer) -> Values {
    let w = plan.workload;
    let mut v = Values::default();

    // --- micro-measurements on the workload's own inputs --------------
    let publishes: Vec<&[Doc]> = plan.inputs.publishes.iter().map(|p| &p.docs[..]).collect();
    let texts = plan
        .inputs
        .subscriptions
        .iter()
        .filter(|s| s.server == 0)
        .map(|s| s.text.clone())
        .collect();
    tracer.enter("micro.fixture", 0);
    let mut layers = Layers::new(w.switches, w.build, &publishes, texts);
    tracer.exit();
    for (name, call) in TIMED {
        tracer.enter(name, 0);
        v.set(name, time_ns(&mut layers, call));
        tracer.exit();
    }
    tracer.enter("filter.insert_remove", 0);
    let (insert, remove) = time_pair_ns(&mut layers, Layers::filter_insert, Layers::filter_remove);
    tracer.exit();
    v.set("filter.insert_ns", insert);
    v.set("filter.remove_ns", remove);
    tracer.enter("greenstone.rebuild_us", 0);
    v.set(
        "greenstone.rebuild_us",
        time_ns(&mut layers, Layers::greenstone_build) / 1e3,
    );
    tracer.exit();
    tracer.enter("store.ingest_ns_per_doc", 0);
    v.set(
        "store.ingest_ns_per_doc",
        time_ns(&mut layers, Layers::store_ingest),
    );
    tracer.exit();
    v.set("wire.v2_bytes_per_event", layers.wire_v2_bytes_per_event());
    v.set(
        "wire.xml_bytes_per_event",
        layers.wire_xml_bytes_per_event(),
    );
    v.set("filter.index_entries", layers.filter_index_entries());
    v.set(
        "filter.scan_conjunctions",
        layers.filter_scan_conjunctions(),
    );
    v.set(
        "state.journal_bytes_per_sub",
        layers.state_journal_bytes_per_sub(),
    );
    drop(layers);

    // --- counters over the measured region (identical in every rep) ---
    let rep = &untraced[0];
    let c = |name: &str| rep.counter(name) as f64;
    let events = rep.events as f64;
    let churn = rep.churn_ops as f64;
    let probes = c("core.probe_skip") + c("core.probe_pass");
    v.set(
        "wire.retransmit_ratio",
        ratio(c("net.retransmits"), c("net.sent")),
    );
    v.set(
        "wire.batch_fill",
        ratio(c("wire.batch.coalesced"), c("wire.batch.flushes")),
    );
    // Edges a flood would have crossed: those it did plus those pruned.
    v.set(
        "gds.pruned_edge_ratio",
        ratio(
            c("gds.pruned_edges"),
            c("gds.pruned_edges") + c("gds.messages"),
        ),
    );
    v.set(
        "gds.rendezvous_confined_ratio",
        ratio(c("gds.rendezvous_confined"), events),
    );
    v.set(
        "gds.summary_updates_per_churn",
        ratio(c("gds.summary_updates"), churn),
    );
    v.set("sim.steps_per_event", rep.steps as f64 / events);
    v.set("core.probe_skip_ratio", ratio(c("core.probe_skip"), probes));
    v.set("core.decode_errors", c("core.decode_error"));
    v.set(
        "state.appends_per_churn",
        ratio(c("state.journal_appends"), churn),
    );
    v.set(
        "alerts.suppressed_ratio",
        ratio(c("alerts.suppressed"), c("alert.notifications")),
    );
    v.set("driver.checked_deliveries", rep.verdict.expected as f64);

    // --- the harness's own spans --------------------------------------
    let us =
        |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|ns| ns / 1e3).collect() };
    let publish_us = us("publish");
    v.set("core.publish_call_us_p50", p(&publish_us, 0.5));
    v.set("core.publish_call_us_p99", p(&publish_us, 0.99));
    let subscribe_us: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.subscribe_ns.iter().map(|ns| ns / 1e3))
        .collect();
    v.set("core.subscribe_us_p50", p(&subscribe_us, 0.5));
    v.set("core.subscribe_us_p99", p(&subscribe_us, 0.99));
    v.set(
        "core.churn_subscribe_us_p50",
        p(&us("churn.subscribe"), 0.5),
    );
    v.set("core.unsubscribe_us_p50", p(&us("churn.unsubscribe"), 0.5));
    v.set("core.drain_us_p50", p(&us("drain"), 0.5));
    let build_us = v.get("greenstone.rebuild_us").expect("set above");
    let publish_p50 = v.get("core.publish_call_us_p50").expect("set above");
    v.set(
        "core.alerting_overhead_ratio",
        ratio(publish_p50 - build_us, build_us),
    );

    // --- the driver itself --------------------------------------------
    let cpu = |reps: &[Rep]| median(&reps.iter().map(|r| r.cpu_s).collect::<Vec<_>>());
    let noise = Noise::of(untraced);
    let bursts: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.burst_wall_us.iter().copied())
        .collect();
    v.set(
        "driver.cpu_wall_ratio",
        median(
            &untraced
                .iter()
                .map(|r| r.cpu_s / r.wall_s)
                .collect::<Vec<_>>(),
        ),
    );
    v.set("driver.rep_spread", noise.spread);
    v.set("driver.noisy_reps", noise.starved as f64);
    v.set("driver.burst_wall_us_p50", p(&bursts, 0.5));
    v.set("driver.burst_wall_us_p99", p(&bursts, 0.99));
    v.set(
        "driver.trace_overhead_ratio",
        ratio(cpu(traced), cpu(untraced)),
    );
    // Region time not inside a call into the system: generation,
    // conversion and bookkeeping.
    let in_system: f64 = [
        "advance",
        "publish",
        "churn.subscribe",
        "churn.unsubscribe",
        "drain",
        "settle",
    ]
    .iter()
    .flat_map(|name| tracer.durations(name))
    .sum();
    let region: f64 = tracer.durations("run").iter().sum();
    v.set("driver.gen_share", 1.0 - ratio(in_system, region));

    // --- attribution: per-call cost × call count ÷ region CPU ---------
    // An estimate made from outside; README.md gives the model. All in
    // nanoseconds over one repetition.
    let ns = |name: &str| v.get(name).expect("measured above");
    let binary = w.switches != Switches::Paper;
    // Every flooded event reaches every subscriber server once. On the
    // binary wire the probe counters say so exactly, and how many were
    // then decoded and matched; on the paper's wire all of them are.
    let deliveries = if binary {
        probes
    } else {
        events * plan.subscribers.len() as f64
    };
    let matched = if binary {
        c("core.probe_pass")
    } else {
        deliveries
    };
    let (encode, decode) = if binary {
        (ns("wire.encode_v2_ns"), ns("wire.decode_v2_ns"))
    } else {
        (ns("wire.encode_xml_ns"), ns("wire.decode_xml_ns"))
    };
    let per_rep =
        |name: &str| tracer.durations(name).iter().sum::<f64>() / traced.len().max(1) as f64;
    let churn_subscribes = us("churn.subscribe").len() as f64 / traced.len().max(1) as f64;
    let wire = encode * events + decode * matched;
    let filter_churn = (ns("filter.insert_ns") + ns("filter.remove_ns")) * churn / 2.0;
    let filter =
        ns("filter.match_ns") * matched + ns("filter.probe_reject_ns") * probes + filter_churn;
    let profile = (ns("profile.parse_ns") + ns("profile.interests_ns")) * churn_subscribes;
    let gds = ns("gds.route_ns") * c("gds.messages");
    let sim = ns("sim.step_ns") * rep.steps as f64;
    let greenstone = build_us * 1e3 * events;
    let state = ns("state.append_ns") * c("state.journal_appends");
    let alerts = if w.switches == Switches::Production {
        ns("alerts.observe_ns") * c("alert.notifications")
    } else {
        0.0
    };
    // What the calls into the core cost beyond the pieces above: on
    // delivery, on publish, on subscribe and cancel, and on drain.
    let core = (ns("core.deliver_ns") * deliveries
        - decode * matched
        - ns("filter.match_ns") * matched
        - ns("filter.probe_reject_ns") * probes)
        .max(0.0)
        + ((publish_p50 - build_us) * 1e3 - encode).max(0.0) * events
        + (per_rep("churn.subscribe") + per_rep("churn.unsubscribe")
            - filter_churn
            - profile
            - state)
            .max(0.0)
        + per_rep("drain");
    let region_cpu_ns = cpu(untraced) * 1e9;
    let mut attributed = 0.0;
    for (name, part) in [
        ("attrib.wire_share", wire),
        ("attrib.filter_share", filter),
        ("attrib.profile_share", profile),
        ("attrib.gds_share", gds),
        ("attrib.sim_share", sim),
        ("attrib.greenstone_share", greenstone),
        ("attrib.core_share", core),
        ("attrib.state_share", state),
        ("attrib.alerts_share", alerts),
    ] {
        let share = ratio(part, region_cpu_ns);
        attributed += share;
        v.set(name, share);
    }
    v.set("attrib.unattributed_share", 1.0 - attributed);
    v
}
