//! Experiment E3 — the filtering engines compared (paper Section 5,
//! citing Fabret et al. for the equality-preferred algorithm).
//!
//! Sweeps the number of registered profiles and measures events/second
//! for three engines over the same event stream:
//!
//! * `naive` — linear scan, every profile evaluated per event (only run
//!   at small profile counts; it degrades linearly);
//! * `baseline` — the first-generation string-keyed equality-preferred
//!   engine this release replaced;
//! * `interned` — the current engine (interned symbols, flat index,
//!   reusable scratch) driven through the allocation-free batch path.
//!
//! Besides the human-readable table, writes machine-readable results to
//! `BENCH_e3_filter.json` in the working directory (the repo root when
//! launched via `cargo run`).

use gsa_bench::Table;
use gsa_filter::{BaselineEngine, FilterEngine, MatchScratch, NaiveFilter};
use gsa_types::{Event, EventId, EventKind, ProfileId, SimTime};
use gsa_workload::{DocumentGenerator, GsWorld, ProfileMix, ProfilePopulation, WorldParams};
use std::fmt::Write as _;
use std::time::Instant;

/// Profile counts where the naive scan is still cheap enough to run.
const NAIVE_CUTOFF: usize = 5_000;

fn events(world: &GsWorld, n: usize) -> Vec<Event> {
    let mut gen = DocumentGenerator::new(31);
    let publics = world.public_collections();
    (0..n)
        .map(|i| {
            let c = publics[i % publics.len()].clone();
            Event::new(
                EventId::new(c.host().clone(), i as u64),
                c,
                EventKind::CollectionRebuilt,
                SimTime::ZERO,
            )
            .with_docs(
                gen.documents(&format!("e{i}"), 3)
                    .iter()
                    .map(|d| d.summary(200))
                    .collect(),
            )
        })
        .collect()
}

/// Runs `pass` (one full sweep over the event batch, returning the total
/// match count) repeatedly until enough wall time has accumulated for a
/// stable rate; returns (events/second, matches per pass).
fn measure(batch_len: usize, mut pass: impl FnMut() -> usize) -> (f64, usize) {
    // Warm-up pass: populates caches and grows scratch buffers.
    let matches = pass();
    let mut reps = 0u32;
    let t = Instant::now();
    loop {
        let m = pass();
        assert_eq!(m, matches, "non-deterministic match count");
        reps += 1;
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed >= 0.25 || reps >= 50 {
            return ((batch_len * reps as usize) as f64 / elapsed, matches);
        }
    }
}

struct Row {
    profiles: usize,
    naive: Option<f64>,
    baseline: f64,
    interned: f64,
    matches: usize,
}

fn main() {
    // A large collection space so profiles are selective: the
    // equality-preferred engines' work should track *matching* profiles,
    // not registered ones.
    let world = GsWorld::generate(&WorldParams {
        seed: 41,
        servers: 100,
        ..WorldParams::default()
    });
    let event_batch = events(&world, 200);
    let mix = ProfileMix {
        watch_collection: 0.2,
        watch_host: 0.05,
        subject_equals: 0.55,
        text_query: 0.15,
        title_wildcard: 0.05,
        kind_equals: 0.0,
    };
    println!("E3: filter throughput — naive / baseline / interned");
    println!("    (200 events x 3 docs per measurement, ~200 collections, selective profiles)");
    println!();
    let mut table = Table::new(vec![
        "profiles",
        "naive ev/s",
        "baseline ev/s",
        "interned ev/s",
        "interned/baseline",
        "matches",
    ]);
    let mut rows = Vec::new();
    for &count in &[100usize, 500, 1_000, 5_000, 10_000, 20_000, 50_000, 100_000] {
        let population = ProfilePopulation::generate(42, &world, count, &mix);
        let mut naive = NaiveFilter::new();
        let mut baseline = BaselineEngine::new();
        let mut interned = FilterEngine::new();
        for (i, (_, _, expr)) in population.profiles.iter().enumerate() {
            let id = ProfileId::from_raw(i as u64);
            baseline.insert(id, expr).expect("indexable");
            interned.insert(id, expr).expect("indexable");
            if count <= NAIVE_CUTOFF {
                naive.insert(id, expr.clone());
            }
        }

        let (baseline_rate, baseline_matches) = measure(event_batch.len(), || {
            event_batch.iter().map(|e| baseline.matches(e).len()).sum()
        });
        let mut scratch = MatchScratch::new();
        let mut matched = Vec::new();
        let (interned_rate, interned_matches) = measure(event_batch.len(), || {
            let mut total = 0;
            for e in &event_batch {
                interned.matches_into(e, &mut scratch, &mut matched);
                total += matched.len();
            }
            total
        });
        assert_eq!(interned_matches, baseline_matches, "engines must agree");

        let naive_rate = (count <= NAIVE_CUTOFF).then(|| {
            let (rate, naive_matches) = measure(event_batch.len(), || {
                event_batch.iter().map(|e| naive.matches(e).len()).sum()
            });
            assert_eq!(naive_matches, interned_matches, "engines must agree");
            rate
        });

        table.row(vec![
            count.to_string(),
            naive_rate.map_or_else(|| "-".to_string(), |r| format!("{r:.0}")),
            format!("{baseline_rate:.0}"),
            format!("{interned_rate:.0}"),
            format!("{:.1}x", interned_rate / baseline_rate),
            interned_matches.to_string(),
        ]);
        rows.push(Row {
            profiles: count,
            naive: naive_rate,
            baseline: baseline_rate,
            interned: interned_rate,
            matches: interned_matches,
        });
    }
    println!("{table}");

    let json = render_json(&rows, event_batch.len());
    let path = "BENCH_e3_filter.json";
    std::fs::write(path, &json).expect("write BENCH_e3_filter.json");
    println!("wrote {path}");
}

fn render_json(rows: &[Row], batch: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"experiment\": \"E3 filter throughput\",");
    let _ = writeln!(s, "  \"events_per_pass\": {batch},");
    let _ = writeln!(s, "  \"docs_per_event\": 3,");
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let naive = r
            .naive
            .map_or_else(|| "null".to_string(), |v| format!("{v:.1}"));
        let _ = write!(
            s,
            "    {{\"profiles\": {}, \"naive_ev_s\": {}, \"baseline_ev_s\": {:.1}, \
             \"interned_ev_s\": {:.1}, \"interned_vs_baseline\": {:.2}, \
             \"matches\": {}}}",
            r.profiles,
            naive,
            r.baseline,
            r.interned,
            r.interned / r.baseline,
            r.matches
        );
        s.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
