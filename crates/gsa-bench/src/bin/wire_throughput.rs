//! Experiment E5-wire — throughput and bandwidth of the wire-format-v2
//! fast path: {xml, binary} × {batch off, 8, 64} × tree sizes.
//!
//! Each cell floods the same event storm over the same GDS tree with
//! the per-hop reliability layer on. The XML rows pay the paper's §6
//! costs: every forwarded frame re-serialises the SOAP/XML message for
//! byte accounting and deep-clones the payload tree at every hop. The
//! binary rows freeze the payload once at the origin (encode-once),
//! forward a ref-counted buffer, and account bytes in O(1); batching
//! additionally coalesces flood frames per edge, so a whole batch
//! rides one reliable sequence number and is acked as a unit.
//!
//! Every cell asserts full delivery (events × watchers notifications)
//! before it reports a number — a fast wire that drops events would be
//! cheating.
//!
//! Writes `BENCH_e5_wire.json` in the working directory. `--smoke`
//! runs a single tiny cell per variant for CI.

use gsa_bench::Table;
use gsa_core::{AlertingCore, BatchConfig, ReliabilityConfig, System, WireConfig};
use gsa_gds::{balanced_tree, figure2_tree, GdsMessage, GdsTopology};
use gsa_types::{
    keys, ClientId, CollectionId, CounterId, DocSummary, Event, EventId, EventKind, HostName,
    MessageId, MetadataRecord, SimDuration, SimTime,
};
use gsa_wire::binary::payload_bytes_from_xml;
use gsa_wire::codec::event_to_xml;
use gsa_wire::Payload;
use std::fmt::Write as _;
use std::time::Instant;

/// One swept wire configuration.
#[derive(Clone)]
struct Variant {
    label: &'static str,
    config: WireConfig,
}

fn variants() -> Vec<Variant> {
    let batched = |n: usize| {
        WireConfig::v2_batched(BatchConfig {
            max_events: n,
            max_delay: SimDuration::from_millis(2),
        })
    };
    vec![
        Variant {
            label: "xml",
            config: WireConfig::default(),
        },
        Variant {
            label: "binary",
            config: WireConfig::v2(),
        },
        Variant {
            label: "binary+b8",
            config: batched(8),
        },
        Variant {
            label: "binary+b64",
            config: batched(64),
        },
    ]
}

/// One swept tree.
struct Tree {
    label: &'static str,
    topo: GdsTopology,
    depth: u8,
}

fn trees(smoke: bool) -> Vec<Tree> {
    if smoke {
        return vec![Tree {
            label: "figure2",
            topo: figure2_tree(),
            depth: 3,
        }];
    }
    vec![
        Tree {
            label: "figure2",
            topo: figure2_tree(),
            depth: 3,
        },
        Tree {
            label: "bal-2x4",
            topo: balanced_tree(2, 4),
            depth: 4,
        },
        Tree {
            label: "bal-3x4",
            topo: balanced_tree(3, 4),
            depth: 4,
        },
    ]
}

/// A realistic flood payload: a rebuild event with two documents and
/// title/creator metadata, serialised through the canonical event
/// codec (so the binary wire can use its native event encoding).
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
    tree: &'static str,
    nodes: usize,
    depth: u8,
    variant: &'static str,
    events: usize,
    notifications: usize,
    wall_ms: f64,
    events_per_sec: f64,
    frames: u64,
    bytes: u64,
    bytes_per_event: f64,
    batch_flushes: u64,
    batch_coalesced: u64,
    retransmits: u64,
}

/// Runs one cell: builds the world, floods `events` publishes in
/// bursts, and measures wall-clock, frames and bytes.
fn run_cell(tree: &Tree, variant: &Variant, events: usize) -> Row {
    let mut system = System::new(417);
    system.set_reliability(ReliabilityConfig::default());
    system.set_wire(variant.config.clone());
    system.add_gds_topology(&tree.topo);

    // The publisher sits at the deepest node; one watcher server at
    // every other directory node, each subscribed to the publisher.
    let deepest = tree
        .topo
        .specs()
        .iter()
        .max_by_key(|s| s.stratum)
        .expect("non-empty tree")
        .name
        .clone();
    let publisher = HostName::new("Hamilton");
    system.add_server(publisher.as_str(), deepest.as_str());
    let mut watchers = Vec::new();
    for spec in tree.topo.specs() {
        if spec.name == deepest {
            continue;
        }
        let host = format!("watcher-{}", spec.name.as_str());
        system.add_server(&host, spec.name.as_str());
        let client = system.add_client(&host);
        system
            .subscribe_text(&host, client, r#"host = "Hamilton""#)
            .expect("valid profile");
        watchers.push((host, client));
    }
    // Settle registrations, hello exchanges and the first heartbeats.
    system.run_until_quiet(SimTime::from_secs(5));

    let publisher_node = system
        .sim()
        .node_id(publisher.as_str())
        .expect("publisher registered");
    let origin_node = system.sim().node_id(deepest.as_str()).expect("gds node");
    let frames_before = system.metrics().counter("net.frames");
    let bytes_before = system.metrics().counter("net.bytes_sent");

    // Event storm: bursts of 16 publishes every 10 ms — inside the
    // 2 ms batch window within a burst, across it between bursts.
    let started = Instant::now();
    let mut seq = 0u64;
    while (seq as usize) < events {
        for _ in 0..16 {
            if seq as usize >= events {
                break;
            }
            seq += 1;
            system.sim_mut().inject(
                publisher_node,
                origin_node,
                gsa_core::SysMessage::Gds(GdsMessage::Publish {
                    id: MessageId::from_raw(seq),
                    payload: event_payload(&publisher, seq),
                }),
            );
        }
        let next = system.now() + SimDuration::from_millis(10);
        system.run_until(next);
    }
    // Drain: reliability timers re-arm forever, so run for a fixed
    // window rather than until quiet. Two seconds covers the last
    // burst's flood plus any retransmission round trips; the delivery
    // assertion below catches a window cut too short.
    let drain = system.now() + SimDuration::from_secs(2);
    system.run_until(drain);
    let wall = started.elapsed();

    let mut notifications = 0usize;
    for (host, client) in &watchers {
        notifications += system.take_notifications(host, *client).len();
    }
    let expected = events * watchers.len();
    assert_eq!(
        notifications, expected,
        "cell {}/{}: every watcher must see every event",
        tree.label, variant.label
    );

    let frames = system.metrics().counter("net.frames") - frames_before;
    let bytes = system.metrics().counter("net.bytes_sent") - bytes_before;
    let wall_secs = wall.as_secs_f64().max(1e-9);
    Row {
        tree: tree.label,
        nodes: tree.topo.len(),
        depth: tree.depth,
        variant: variant.label,
        events,
        notifications,
        wall_ms: wall.as_secs_f64() * 1e3,
        events_per_sec: events as f64 / wall_secs,
        frames,
        bytes,
        bytes_per_event: bytes as f64 / events as f64,
        batch_flushes: system.metrics().counter("wire.batch.flushes"),
        batch_coalesced: system.metrics().counter("wire.batch.coalesced"),
        retransmits: system.metrics().counter("net.retransmits"),
    }
}

/// One deliver+filter cell: end-to-end cost of a GDS Deliver at a
/// watcher server, from frozen v2 bytes to notification (or to a
/// probe rejection), at a controlled match ratio.
struct DeliveryRow {
    match_pct: u32,
    mode: &'static str,
    events: usize,
    notifications: usize,
    wall_ms: f64,
    events_per_sec: f64,
    probe_skipped: u64,
    probe_passed: u64,
    decode_errors: u64,
}

/// Drives one `AlertingCore` directly with frozen binary Delivers —
/// no simulator, no network — so the measured cost is exactly the
/// delivery path this experiment compares: decode-always versus the
/// zero-materialisation probe. `match_pct` of the events originate
/// from the one host the hot profile watches; the rest are cold. A
/// fan of 64 cold equality profiles makes the filter index realistic.
fn run_delivery_cell(match_pct: u32, probe: bool, events: usize) -> DeliveryRow {
    let mut core = AlertingCore::new("Watcher", "gds-1");
    core.set_probe(probe);
    for i in 0..64u64 {
        let profile = format!(r#"host = "cold-{i}""#);
        core.subscribe(
            ClientId::from_raw(i),
            gsa_profile::parse_profile(&profile).expect("valid profile"),
        )
        .expect("indexable profile");
    }
    let hot_client = ClientId::from_raw(64);
    core.subscribe(
        hot_client,
        gsa_profile::parse_profile(r#"host = "Hamilton""#).expect("valid profile"),
    )
    .expect("indexable profile");

    // Frozen payloads are pre-encoded: the timed loop pays only what a
    // watcher pays after the frame is off the wire.
    let gds = HostName::new("gds-1");
    let messages: Vec<gsa_core::SysMessage> = (0..events as u64)
        .map(|seq| {
            let matches = match match_pct {
                0 => false,
                50 => seq % 2 == 0,
                _ => seq % (100 / match_pct as u64) == 0,
            };
            let host = if matches { "Hamilton" } else { "Elsewhere" };
            let event = Event::new(
                EventId::new(host, seq),
                CollectionId::new(host, "D"),
                EventKind::DocumentsAdded,
                SimTime::from_millis(seq),
            )
            .with_docs(vec![
                DocSummary::new(format!("doc-{seq}a"))
                    .with_metadata([(keys::TITLE, "Bulk import")].into_iter().collect())
                    .with_excerpt("an excerpt of the imported document text"),
                DocSummary::new(format!("doc-{seq}b")),
            ]);
            let bytes = payload_bytes_from_xml(&event_to_xml(&event));
            gsa_core::SysMessage::Gds(GdsMessage::Deliver {
                id: MessageId::from_raw(seq),
                origin: host.into(),
                payload: Payload::from_frozen(bytes.into()),
            })
        })
        .collect();

    let started = Instant::now();
    let mut notifications = 0usize;
    for msg in messages {
        let eff = core.handle_message(&gds, msg, SimTime::ZERO);
        notifications += eff.notified;
    }
    let wall = started.elapsed();
    let counts = core.counts_mut();
    let wall_secs = wall.as_secs_f64().max(1e-9);
    DeliveryRow {
        match_pct,
        mode: if probe { "probe" } else { "decode" },
        events,
        notifications,
        wall_ms: wall.as_secs_f64() * 1e3,
        events_per_sec: events as f64 / wall_secs,
        probe_skipped: counts.get(CounterId::CORE_PROBE_SKIP),
        probe_passed: counts.get(CounterId::CORE_PROBE_PASS),
        decode_errors: counts.get(CounterId::CORE_DECODE_ERROR),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let events = if smoke { 32 } else { 400 };

    println!("E5-wire: wire-format throughput ({{xml,binary}} × batching × tree size)");
    println!("    events/cell={events}, reliability on, burst 16 events / 10 ms");
    println!();

    let mut rows: Vec<Row> = Vec::new();
    for tree in trees(smoke) {
        for variant in variants() {
            rows.push(run_cell(&tree, &variant, events));
        }
    }

    let mut table = Table::new(vec![
        "tree", "nodes", "depth", "wire", "events", "wall-ms", "ev/s", "frames", "bytes",
        "B/event", "flushes", "coalesced", "retx",
    ]);
    for r in &rows {
        table.row(vec![
            r.tree.to_string(),
            r.nodes.to_string(),
            r.depth.to_string(),
            r.variant.to_string(),
            r.events.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.0}", r.events_per_sec),
            r.frames.to_string(),
            r.bytes.to_string(),
            format!("{:.0}", r.bytes_per_event),
            r.batch_flushes.to_string(),
            r.batch_coalesced.to_string(),
            r.retransmits.to_string(),
        ]);
    }
    println!("{table}");

    // Per-tree summary against the XML baseline.
    for tree in trees(smoke) {
        let base = rows
            .iter()
            .find(|r| r.tree == tree.label && r.variant == "xml")
            .expect("baseline row");
        for r in rows.iter().filter(|r| r.tree == tree.label) {
            if r.variant == "xml" {
                continue;
            }
            println!(
                "  {}/{:<10} {:>5.2}x ev/s, {:>4.1}% of baseline bytes/event",
                r.tree,
                r.variant,
                r.events_per_sec / base.events_per_sec,
                100.0 * r.bytes_per_event / base.bytes_per_event,
            );
        }
    }

    // Deliver+filter sweep: end-to-end watcher cost per delivered
    // binary event, decode-always versus attribute probe, at match
    // ratios {0, 1, 50}%. The probe and decode runs of each ratio must
    // produce the same notification count — a probe that was fast by
    // dropping matches would be cheating.
    let delivery_events = if smoke { 2_000 } else { 100_000 };
    println!();
    println!("E5-deliver: watcher delivery path (decode-always vs binary probe)");
    println!("    events/cell={delivery_events}, 65 equality profiles, frozen v2 payloads");
    println!();
    let mut delivery: Vec<DeliveryRow> = Vec::new();
    for match_pct in [0u32, 1, 50] {
        let decode = run_delivery_cell(match_pct, false, delivery_events);
        let probe = run_delivery_cell(match_pct, true, delivery_events);
        assert_eq!(
            decode.notifications, probe.notifications,
            "match {match_pct}%: probe must deliver exactly the decode-always set"
        );
        delivery.push(decode);
        delivery.push(probe);
    }
    let mut dtable = Table::new(vec![
        "match%", "mode", "events", "notifs", "wall-ms", "ev/s", "skipped", "passed", "decode-err",
    ]);
    for r in &delivery {
        dtable.row(vec![
            r.match_pct.to_string(),
            r.mode.to_string(),
            r.events.to_string(),
            r.notifications.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.0}", r.events_per_sec),
            r.probe_skipped.to_string(),
            r.probe_passed.to_string(),
            r.decode_errors.to_string(),
        ]);
    }
    println!("{dtable}");
    for pair in delivery.chunks(2) {
        if let [decode, probe] = pair {
            println!(
                "  match {:>2}%: probe {:>5.2}x ev/s over decode-always ({} of {} skipped)",
                decode.match_pct,
                probe.events_per_sec / decode.events_per_sec,
                probe.probe_skipped,
                probe.events,
            );
        }
    }

    if !smoke {
        let json = render_json(&rows, &delivery, events);
        let path = "BENCH_e5_wire.json";
        std::fs::write(path, &json).expect("write BENCH_e5_wire.json");
        println!("\nwrote {path}");
    }
}

fn render_json(rows: &[Row], delivery: &[DeliveryRow], events: usize) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e5_wire_throughput\",\n");
    let _ = writeln!(out, "  \"events_per_cell\": {events},");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"tree\": \"{}\", \"nodes\": {}, \"depth\": {}, \"wire\": \"{}\", \
             \"events\": {}, \"notifications\": {}, \"wall_ms\": {:.2}, \
             \"events_per_sec\": {:.1}, \"frames\": {}, \"bytes\": {}, \
             \"bytes_per_event\": {:.1}, \"batch_flushes\": {}, \
             \"batch_coalesced\": {}, \"retransmits\": {}}}{}",
            r.tree,
            r.nodes,
            r.depth,
            r.variant,
            r.events,
            r.notifications,
            r.wall_ms,
            r.events_per_sec,
            r.frames,
            r.bytes,
            r.bytes_per_event,
            r.batch_flushes,
            r.batch_coalesced,
            r.retransmits,
            comma,
        )
        .expect("string write");
    }
    out.push_str("  ],\n  \"delivery\": [\n");
    for (i, r) in delivery.iter().enumerate() {
        let comma = if i + 1 == delivery.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"match_pct\": {}, \"mode\": \"{}\", \"events\": {}, \
             \"notifications\": {}, \"wall_ms\": {:.2}, \"events_per_sec\": {:.1}, \
             \"probe_skipped\": {}, \"probe_passed\": {}, \"decode_errors\": {}}}{}",
            r.match_pct,
            r.mode,
            r.events,
            r.notifications,
            r.wall_ms,
            r.events_per_sec,
            r.probe_skipped,
            r.probe_passed,
            r.decode_errors,
            comma,
        )
        .expect("string write");
    }
    out.push_str("  ]\n}\n");
    out
}
