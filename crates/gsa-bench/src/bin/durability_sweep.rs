//! Experiment E8 — durable-state cost: filling a journal and recovering
//! from it.
//!
//! The paper has no persistence story: a crashed alerting server simply
//! loses its subscription registry. This experiment prices the repair we
//! add in two parts:
//!
//! * **Part A** drives a [`JournalStateStore`] directly (no simulation)
//!   over journal length × fill: what an append costs while the store
//!   compacts itself, how many snapshots that took and what is left on
//!   the medium, then what recovery from that medium costs. The `mixed`
//!   fill is a registry in use (subscribes, one cancel and one summary
//!   version in ten); `subscribes` is a set-up — three-literal profiles
//!   nobody cancels, the case where a snapshot saves nothing at
//!   recovery and only its write cost shows.
//! * **Part B** is a small end-to-end sanity cell: the same workload and
//!   server-crash fault plan run through the hybrid scheme with the
//!   journal backend and with the volatile default, showing recovered
//!   vs lost subscriptions.
//!
//! Times are host wall-clock (`std::time::Instant`), the one
//! measurement here that cannot come from the deterministic simulator;
//! the medium is in-memory, so the numbers isolate encode, compaction,
//! decode and replay CPU cost from disk speed.
//!
//! Writes `BENCH_e8_durability.json` in the working directory (the repo
//! root when run via `cargo run --release --bin durability_sweep`).

use gsa_bench::{run_scheme, Oracle, RunConfig, Scheme, Table};
use gsa_profile::{parse_profile, ProfileExpr};
use gsa_state::{JournalConfig, JournalStateStore, MemMedium, StateStore};
use gsa_types::{ClientId, CounterId, ProfileId, SimDuration};
use gsa_workload::{
    FaultPlan, FaultPlanParams, GsWorld, ProfileMix, ProfilePopulation, RebuildSchedule,
    WorldParams,
};
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Fill {
    /// Nine subscribes in ten records, one cancel, one summary version.
    Mixed,
    /// Three-literal subscribes only.
    Subscribes,
}

impl Fill {
    fn label(self) -> &'static str {
        match self {
            Fill::Mixed => "mixed",
            Fill::Subscribes => "subscribes",
        }
    }
}

struct StoreRow {
    fill: Fill,
    records: usize,
    append_ns: u128,
    snapshot_writes: u64,
    snapshot_bytes: usize,
    journal_bytes: usize,
    replayed: u64,
    profiles: usize,
    recover_us: u128,
}

/// Writes `records` state changes through a journal store with the
/// default tuning, returning the crashed medium, the wall-clock cost of
/// an append (compactions included) and the snapshots written.
fn fill_store(fill: Fill, records: usize) -> (MemMedium, u128, u64) {
    let medium = MemMedium::new();
    let mut store = JournalStateStore::new(medium.clone(), JournalConfig::default());
    let exprs: Vec<ProfileExpr> = (0..16)
        .map(|i| {
            let text = match fill {
                Fill::Mixed => format!(r#"host = "host-{i}""#),
                Fill::Subscribes => format!(
                    r#"host = "host-{i}" AND kind = "documents-added" AND dc.Subject = "subject-{i}""#
                ),
            };
            parse_profile(&text).expect("static profile")
        })
        .collect();
    let started = Instant::now();
    for i in 0..records as u64 {
        match i % 10 {
            // i-9 lands on an i%10==0 slot, so the target was subscribed.
            9 if fill == Fill::Mixed && i > 10 => {
                store.record_unsubscribe(ProfileId::from_raw(i - 9));
            }
            8 if fill == Fill::Mixed => store.record_summary_version(i / 8),
            _ => store.record_subscribe(
                ProfileId::from_raw(i),
                ClientId::from_raw(i % 64),
                &exprs[(i % 16) as usize],
            ),
        }
    }
    let append_ns = started.elapsed().as_nanos() / records as u128;
    let snapshot_writes = store.counts_mut().get(CounterId::STATE_SNAPSHOT_WRITES);
    (medium, append_ns, snapshot_writes)
}

/// Median wall-clock recovery time over `reps` fresh stores opened on
/// copies of the same medium, plus the last recovery's shape.
fn time_recovery(medium: &MemMedium, reps: usize) -> (u128, u64, usize) {
    let mut times = Vec::with_capacity(reps);
    let mut replayed = 0;
    let mut profiles = 0;
    for _ in 0..reps {
        let mut store = JournalStateStore::new(medium.clone_deep(), JournalConfig::default());
        let started = Instant::now();
        let recovered = store.recover();
        times.push(started.elapsed().as_micros());
        profiles = recovered.profiles.len();
        replayed = store.counts_mut().get(CounterId::STATE_REPLAY_RECORDS);
    }
    times.sort_unstable();
    (times[times.len() / 2], replayed, profiles)
}

struct SanityRow {
    label: &'static str,
    expected: usize,
    delivered: usize,
    false_negatives: usize,
    lost_subscriptions: usize,
}

/// Part B: one small chaos cell with hard server crashes, durable vs
/// volatile.
fn sanity_cells(smoke: bool) -> Vec<SanityRow> {
    let params = WorldParams {
        servers: if smoke { 8 } else { 16 },
        ..WorldParams::small(801)
    };
    let world = GsWorld::generate(&params);
    let profiles = if smoke { 16 } else { 40 };
    let population = ProfilePopulation::generate(802, &world, profiles, &ProfileMix::default());
    let horizon = SimDuration::from_secs(if smoke { 30 } else { 60 });
    let rebuilds = if smoke { 6 } else { 16 };
    let schedule = RebuildSchedule::generate(803, &world, rebuilds, horizon, 3);
    let fault_params = FaultPlanParams {
        horizon,
        loss_bursts: 0,
        crashes: 0,
        partition_waves: 0,
        server_crashes: 2,
        server_outage: SimDuration::from_secs(8),
        ..FaultPlanParams::default()
    };
    let faults =
        FaultPlan::generate_with_servers(804, &[], &world.hosts, &[], &fault_params);

    let mut rows = Vec::new();
    for (label, durable) in [("hybrid+durable", true), ("hybrid+memstate", false)] {
        let cfg = RunConfig {
            seed: 805,
            drain: SimDuration::from_secs(30),
            reliable: true,
            faults: Some(faults.clone()),
            durable,
            ..RunConfig::default()
        };
        let outcome = run_scheme(Scheme::Hybrid, &world, &population, &schedule, &[], &cfg);
        let oracle = Oracle::build(
            &world,
            &population,
            &schedule,
            &outcome.cancels,
            &outcome.partitions,
            SimDuration::from_secs(5),
        );
        let q = oracle.classify(&outcome.deliveries);
        rows.push(SanityRow {
            label,
            expected: q.expected,
            delivered: q.delivered,
            false_negatives: q.false_negatives,
            lost_subscriptions: outcome
                .subscribed
                .saturating_sub(outcome.cancels.len())
                .saturating_sub(outcome.stored_client_profiles),
        });
    }
    rows
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let lengths: &[usize] = if smoke {
        &[100, 2_000]
    } else {
        &[1_000, 5_000, 10_000, 20_000, 40_000]
    };
    let reps = if smoke { 3 } else { 5 };

    println!("E8: durable-state cost (journal length x fill)");
    println!();

    let mut rows: Vec<StoreRow> = Vec::new();
    for fill in [Fill::Mixed, Fill::Subscribes] {
        for &records in lengths {
            let (medium, append_ns, snapshot_writes) = fill_store(fill, records);
            let (recover_us, replayed, profiles) = time_recovery(&medium, reps);
            rows.push(StoreRow {
                fill,
                records,
                append_ns,
                snapshot_writes,
                snapshot_bytes: medium.snapshot_len(),
                journal_bytes: medium.journal_len(),
                replayed,
                profiles,
                recover_us,
            });
        }
    }

    let mut table = Table::new(vec![
        "fill",
        "records",
        "append-ns",
        "snapshots",
        "snap-bytes",
        "journal-bytes",
        "replayed",
        "profiles",
        "recover-us",
    ]);
    for r in &rows {
        table.row(vec![
            r.fill.label().to_string(),
            r.records.to_string(),
            r.append_ns.to_string(),
            r.snapshot_writes.to_string(),
            r.snapshot_bytes.to_string(),
            r.journal_bytes.to_string(),
            r.replayed.to_string(),
            r.profiles.to_string(),
            r.recover_us.to_string(),
        ]);
    }
    println!("{table}");
    println!("(snapshots = compactions the store ran by itself; replayed = journal records)");
    println!();

    let sanity = sanity_cells(smoke);
    let mut stable = Table::new(vec![
        "scheme", "expected", "delivered", "false-neg", "lost-subs",
    ]);
    for r in &sanity {
        stable.row(vec![
            r.label.to_string(),
            r.expected.to_string(),
            r.delivered.to_string(),
            r.false_negatives.to_string(),
            r.lost_subscriptions.to_string(),
        ]);
    }
    println!("two hard server crashes, reliable transport, same plan:");
    println!("{stable}");

    if !smoke {
        let json = render_json(&rows, &sanity);
        let path = "BENCH_e8_durability.json";
        std::fs::write(path, &json).expect("write BENCH_e8_durability.json");
        println!("\nwrote {path}");
    }
}

fn render_json(rows: &[StoreRow], sanity: &[SanityRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e8_durability\",\n  \"store\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"fill\": \"{}\", \"records\": {}, \"append_ns\": {}, \
             \"snapshot_writes\": {}, \"snapshot_bytes\": {}, \"journal_bytes\": {}, \
             \"replayed_records\": {}, \"recovered_profiles\": {}, \"recover_us\": {}}}{}",
            r.fill.label(),
            r.records,
            r.append_ns,
            r.snapshot_writes,
            r.snapshot_bytes,
            r.journal_bytes,
            r.replayed,
            r.profiles,
            r.recover_us,
            comma,
        )
        .expect("string write");
    }
    out.push_str("  ],\n  \"crash_sanity\": [\n");
    for (i, r) in sanity.iter().enumerate() {
        let comma = if i + 1 == sanity.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"scheme\": \"{}\", \"expected\": {}, \"delivered\": {}, \
             \"false_negatives\": {}, \"lost_subscriptions\": {}}}{}",
            r.label, r.expected, r.delivered, r.false_negatives, r.lost_subscriptions, comma,
        )
        .expect("string write");
    }
    out.push_str("  ]\n}\n");
    out
}
