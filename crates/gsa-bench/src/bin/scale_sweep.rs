//! Experiment E7-scale — simulation-runtime throughput at population
//! scale: {40, 200, 1000} GDS nodes × {10⁴, 10⁵, 10⁶} subscribed
//! profiles × per-link latency distributions.
//!
//! Every cell floods the same pre-encoded event storm from the deepest
//! directory node over an exact-size breadth-first tree (fanout 4) and
//! measures wall-clock events/s and routed messages/s through the
//! zero-allocation hot loop: interned counter slots, indexed link
//! lookups, pooled command buffers and deliveries matched by each
//! server's filter engine. Profiles are spread over four watcher
//! servers; all but one profile per watcher is a cold indexed equality
//! the probe rejects, so the cell exercises the at-scale common case —
//! a delivery that matches almost nothing. Every cell asserts exact
//! delivery (events × watchers) before it reports a number.
//!
//! Writes `BENCH_e7_scale.json` in the working directory. `--smoke`
//! runs one tiny cell for CI.

use gsa_bench::Table;
use gsa_core::{System, WireConfig};
use gsa_gds::{GdsMessage, GdsTopology};
use gsa_simnet::LinkConfig;
use gsa_types::{
    keys, ClientId, CollectionId, DocSummary, Event, EventId, EventKind, HostName, MessageId,
    MetadataRecord, SimDuration, SimTime,
};
use gsa_wire::codec::event_to_xml;
use gsa_wire::Payload;
use std::fmt::Write as _;
use std::time::Instant;

/// Watcher servers the profile population is spread over.
const WATCHERS: usize = 4;
/// Tree fanout for the exact-size breadth-first builder.
const FANOUT: usize = 4;
/// Events injected per burst / sim-time gap between bursts.
const BURST: usize = 32;
const BURST_GAP: SimDuration = SimDuration::from_millis(10);

/// An exact-`n`-node tree: `gds-1` is the root; node `i` (1-based,
/// breadth-first) hangs off node `(i - 2) / FANOUT + 1`, so every
/// stratum fills left to right and the node count is hit exactly —
/// `balanced_tree` can only produce geometric sizes.
fn exact_tree(n: usize) -> GdsTopology {
    assert!(n >= 1);
    let mut topo = GdsTopology::new();
    topo.add("gds-1", 1, None);
    let mut stratum = vec![0u8; n + 1];
    stratum[1] = 1;
    for i in 2..=n {
        let parent = (i - 2) / FANOUT + 1;
        stratum[i] = stratum[parent] + 1;
        topo.add(
            format!("gds-{i}"),
            stratum[i],
            Some(&format!("gds-{parent}")),
        );
    }
    topo
}

/// One per-link latency distribution.
struct Distro {
    label: &'static str,
    /// Default link every edge starts from.
    base: LinkConfig,
    /// When set, tree edges into strata 1–2 are overridden with a WAN
    /// link — a campus tree hanging off a slow national core.
    wan_core: bool,
}

fn lan() -> Distro {
    Distro {
        label: "lan",
        base: LinkConfig::new(SimDuration::from_millis(1))
            .with_jitter(SimDuration::from_micros(200)),
        wan_core: false,
    }
}

fn distros() -> Vec<Distro> {
    vec![
        lan(),
        Distro {
            label: "wan-core",
            base: LinkConfig::new(SimDuration::from_millis(1))
                .with_jitter(SimDuration::from_micros(200)),
            wan_core: true,
        },
        Distro {
            label: "jittered",
            base: LinkConfig::new(SimDuration::from_millis(5))
                .with_jitter(SimDuration::from_millis(4)),
            wan_core: false,
        },
    ]
}

/// The flood payload: a two-document rebuild event serialised through
/// the canonical codec, frozen once at the origin by the v2 wire.
fn event_payload(publisher: &HostName, seq: u64) -> Payload {
    let mut md = MetadataRecord::new();
    md.add(keys::TITLE, format!("Bulk import {seq}"));
    md.add(keys::CREATOR, "Witten, I.");
    let event = Event::new(
        EventId::new(publisher.clone(), seq),
        CollectionId::new(publisher.clone(), "D"),
        EventKind::DocumentsAdded,
        SimTime::from_millis(seq),
    )
    .with_docs(vec![
        DocSummary::new(format!("doc-{seq}a"))
            .with_metadata(md.clone())
            .with_excerpt("an excerpt of the imported document text"),
        DocSummary::new(format!("doc-{seq}b")).with_metadata(md),
    ]);
    Payload::from(event_to_xml(&event))
}

struct Row {
    nodes: usize,
    profiles: usize,
    distro: &'static str,
    events: usize,
    setup_ms: f64,
    wall_ms: f64,
    events_per_sec: f64,
    msgs: u64,
    msgs_per_sec: f64,
    notifications: usize,
    mean_latency_ms: f64,
    max_latency_ms: f64,
}

/// Events per cell: a roughly constant routed-message budget, so every
/// cell measures for a comparable wall-clock slice regardless of how
/// many edges one event crosses.
fn events_for(nodes: usize) -> usize {
    (300_000 / (nodes + WATCHERS)).clamp(96, 1_500)
}

/// Measured repetitions per cell; the best run is reported. The
/// container's wall clock is noisy enough that single-shot numbers
/// swing by tens of percent, and best-of-N is the standard defence:
/// the fastest run is the one least perturbed by the host.
const REPS: usize = 5;

/// Runs one cell: builds the exact tree, attaches the publisher at the
/// deepest node and `WATCHERS` servers spread across the tree, loads
/// the profile population, then floods pre-encoded publishes in bursts
/// [`REPS`] times — each repetition on a fresh `MessageId` range so
/// GDS duplicate suppression never short-circuits a flood — and
/// reports the fastest flood + dispatch wall-clock.
fn run_cell(nodes: usize, profiles: usize, distro: Distro, events: usize) -> Row {
    let setup_started = Instant::now();
    let mut system = System::new(0xE7);
    system.set_wire(WireConfig::v2());
    system.set_default_link(distro.base.clone());

    let topo = exact_tree(nodes);
    system.add_gds_topology(&topo);
    if distro.wan_core {
        let wan = LinkConfig::new(SimDuration::from_millis(40))
            .with_jitter(SimDuration::from_millis(5));
        for spec in topo.specs() {
            let Some(parent) = topo.parent_of(&spec.name) else {
                continue;
            };
            if spec.stratum <= 2 {
                let a = system.sim().node_id(parent.as_str()).expect("gds registered");
                let b = system
                    .sim()
                    .node_id(spec.name.as_str())
                    .expect("gds registered");
                system.sim_mut().set_link(a, b, wan.clone());
            }
        }
    }

    let publisher = HostName::new("Hamilton");
    let origin_gds = HostName::new(format!("gds-{nodes}"));
    system.add_server(publisher.as_str(), origin_gds.as_str());

    // Watchers sit at evenly spaced tree positions; each carries an
    // equal slice of the profile population plus one hot profile that
    // every flooded event matches, so delivery is observable end to
    // end.
    let mut watchers: Vec<(String, ClientId)> = Vec::new();
    for w in 0..WATCHERS {
        let at = 1 + w * nodes.saturating_sub(1) / WATCHERS;
        let host = format!("watcher-{w}");
        system.add_server(&host, &format!("gds-{at}"));
        let quota = profiles / WATCHERS;
        for i in 0..quota.saturating_sub(1) {
            let client = ClientId::from_raw((w * profiles + i) as u64);
            system
                .subscribe_text(&host, client, &format!(r#"host = "cold-{w}-{i}""#))
                .expect("valid cold profile");
        }
        let hot = system.add_client(&host);
        system
            .subscribe_text(&host, hot, r#"host = "Hamilton""#)
            .expect("valid hot profile");
        watchers.push((host, hot));
    }
    system.run_until_quiet(SimTime::from_secs(5));
    let setup_ms = setup_started.elapsed().as_secs_f64() * 1e3;

    let publisher_node = system
        .sim()
        .node_id(publisher.as_str())
        .expect("publisher registered");
    let origin_node = system
        .sim()
        .node_id(origin_gds.as_str())
        .expect("origin gds registered");

    let mut best: Option<Row> = None;
    for rep in 0..REPS {
        let base = (rep * events) as u64;
        let sent_before = system.metrics().counter("net.sent");

        // Pre-encode the storm so the timed loop pays only what the
        // runtime pays: injection, flooding, delivery, match dispatch.
        let messages: Vec<gsa_core::SysMessage> = (1..=events as u64)
            .map(|i| {
                let seq = base + i;
                gsa_core::SysMessage::Gds(GdsMessage::Publish {
                    id: MessageId::from_raw(seq),
                    payload: event_payload(&publisher, seq),
                })
            })
            .collect();
        let flood_start = system.now();
        let mut publish_at: Vec<SimTime> = Vec::with_capacity(events + 1);
        publish_at.push(SimTime::ZERO); // index = seq - base, 1-based
        for b in 0..events {
            publish_at.push(flood_start + BURST_GAP.saturating_mul((b / BURST) as u64));
        }

        let started = Instant::now();
        for (i, msg) in messages.into_iter().enumerate() {
            if i > 0 && i % BURST == 0 {
                let next = flood_start + BURST_GAP.saturating_mul((i / BURST) as u64);
                system.run_until(next);
            }
            system.sim_mut().inject(publisher_node, origin_node, msg);
        }
        system.run_until_quiet(system.now() + SimDuration::from_secs(30));
        let wall = started.elapsed();

        let mut latencies_us: Vec<u64> = Vec::new();
        let mut notifications = 0usize;
        for (host, client) in watchers.iter() {
            for n in system.take_notifications(host, *client) {
                let idx = (n.event.id.seq() - base) as usize;
                latencies_us.push((n.at - publish_at[idx]).as_micros());
                notifications += 1;
            }
        }
        assert_eq!(
            notifications,
            events * WATCHERS,
            "cell {nodes}x{profiles}/{} rep {rep}: every watcher must see every event",
            distro.label
        );

        let msgs = system.metrics().counter("net.sent") - sent_before;
        let wall_secs = wall.as_secs_f64().max(1e-9);
        let mean_latency_ms =
            latencies_us.iter().sum::<u64>() as f64 / latencies_us.len() as f64 / 1e3;
        let max_latency_ms = latencies_us.iter().copied().max().unwrap_or(0) as f64 / 1e3;
        let row = Row {
            nodes,
            profiles,
            distro: distro.label,
            events,
            setup_ms,
            wall_ms: wall.as_secs_f64() * 1e3,
            events_per_sec: events as f64 / wall_secs,
            msgs,
            msgs_per_sec: msgs as f64 / wall_secs,
            notifications,
            mean_latency_ms,
            max_latency_ms,
        };
        if best
            .as_ref()
            .is_none_or(|b| row.events_per_sec > b.events_per_sec)
        {
            best = Some(row);
        }
    }
    best.expect("REPS >= 1")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    println!("E7-scale: runtime throughput sweep (nodes x profiles x latency distribution)");
    println!(
        "    fanout {FANOUT}, {WATCHERS} watchers, burst {BURST}/{} ms, v2 wire, best of {REPS}",
        BURST_GAP.as_micros() / 1_000
    );
    println!();

    let mut rows: Vec<Row> = Vec::new();
    if smoke {
        rows.push(run_cell(40, 2_000, lan(), 96));
    } else {
        // The full grid on the LAN distribution…
        for &nodes in &[40usize, 200, 1_000] {
            for &profiles in &[10_000usize, 100_000, 1_000_000] {
                rows.push(run_cell(nodes, profiles, lan(), events_for(nodes)));
            }
        }
        // …and the distribution sweep at the centre cell.
        for distro in distros().into_iter().skip(1) {
            rows.push(run_cell(200, 100_000, distro, events_for(200)));
        }
    }

    let mut table = Table::new(vec![
        "nodes",
        "profiles",
        "distro",
        "events",
        "setup-ms",
        "wall-ms",
        "ev/s",
        "msgs",
        "msg/s",
        "mean-lat-ms",
        "max-lat-ms",
    ]);
    for r in &rows {
        table.row(vec![
            r.nodes.to_string(),
            r.profiles.to_string(),
            r.distro.to_string(),
            r.events.to_string(),
            format!("{:.0}", r.setup_ms),
            format!("{:.1}", r.wall_ms),
            format!("{:.0}", r.events_per_sec),
            r.msgs.to_string(),
            format!("{:.0}", r.msgs_per_sec),
            format!("{:.2}", r.mean_latency_ms),
            format!("{:.2}", r.max_latency_ms),
        ]);
    }
    println!("{table}");

    if !smoke {
        let json = render_json(&rows);
        let path = "BENCH_e7_scale.json";
        std::fs::write(path, &json).expect("write BENCH_e7_scale.json");
        println!("\nwrote {path}");
    }
}

fn render_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e7_scale_sweep\",\n");
    let _ = writeln!(out, "  \"fanout\": {FANOUT},");
    let _ = writeln!(out, "  \"watchers\": {WATCHERS},");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"nodes\": {}, \"profiles\": {}, \"distro\": \"{}\", \
             \"events\": {}, \"setup_ms\": {:.1}, \"wall_ms\": {:.2}, \
             \"events_per_sec\": {:.1}, \"msgs\": {}, \"msgs_per_sec\": {:.1}, \
             \"notifications\": {}, \"mean_latency_ms\": {:.3}, \"max_latency_ms\": {:.3}}}{}",
            r.nodes,
            r.profiles,
            r.distro,
            r.events,
            r.setup_ms,
            r.wall_ms,
            r.events_per_sec,
            r.msgs,
            r.msgs_per_sec,
            r.notifications,
            r.mean_latency_ms,
            r.max_latency_ms,
            comma,
        )
        .expect("string write");
    }
    out.push_str("  ]\n}\n");
    out
}
