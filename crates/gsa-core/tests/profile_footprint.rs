//! Footprint pin: what one server spends per stored profile.
//!
//! A cold profile — `host = "cold-0-<i>"`, the population of the
//! benchmark's `million_cold` — costs one hash-map entry (id → slot) and
//! otherwise only rows of dense tables, so 100 000 of them are held to
//! 300 requested bytes and 1.1 heap blocks each (the one block is the
//! expression's value string). Cancelling and re-subscribing the whole
//! population reuses slots, slab rows and symbols: no table grows and the
//! live bytes stay put. And one subscribe — parsing its text included —
//! costs a handful of allocator calls, at most 4 for a cold profile and
//! 12 for the benchmark's two-literal shapes. Counts from a counting
//! allocator, not timings.

use gsa_core::SubscriptionManager;
use gsa_profile::parse_profile;
use gsa_types::{
    ClientId, CollectionId, DocSummary, Event, EventId, EventKind, ProfileId, SimTime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// Per thread: the test harness allocates on its own thread while a
    /// test runs, and only the measuring thread's allocations count.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    /// Allocator calls made by this thread, tracked or not: tests
    /// running side by side each count their own.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}
/// Requested bytes and blocks currently live.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_BLOCKS: AtomicI64 = AtomicI64::new(0);

fn tracking() -> bool {
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

fn count_call() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        if tracking() {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
            LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        if tracking() {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if tracking() {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const POPULATION: usize = 100_000;

fn event_from(host: &str) -> Arc<Event> {
    Arc::new(
        Event::new(
            EventId::new(host, 1),
            CollectionId::new(host, "C"),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![DocSummary::new("d0"), DocSummary::new("d1")]),
    )
}

/// Subscribes the population; parsing is the caller's cost, not the
/// server's, so the texts' temporaries are freed before anything is read.
fn subscribe_all(subs: &mut SubscriptionManager) -> Vec<ProfileId> {
    (0..POPULATION)
        .map(|i| {
            let expr = parse_profile(&format!(r#"host = "cold-0-{i}""#)).unwrap();
            subs.subscribe(ClientId::from_raw(i as u64), expr)
                .unwrap()
                .id()
        })
        .collect()
}

#[test]
fn a_cold_profile_costs_one_block_and_churn_ratchets_nothing() {
    // Everything measured is created, and dropped, while tracking.
    TRACKING.set(true);
    let mut subs = SubscriptionManager::new();
    let mut ids = subscribe_all(&mut subs);
    let ids_bytes = (ids.capacity() * std::mem::size_of::<ProfileId>()) as i64;
    let bytes = || LIVE_BYTES.load(Ordering::SeqCst) - ids_bytes;
    let blocks = || LIVE_BLOCKS.load(Ordering::SeqCst) - 1;

    let per_profile = |n: i64| n as f64 / POPULATION as f64;
    let round_one = (bytes(), subs.filter_stats());
    assert_eq!(subs.len(), POPULATION);
    assert!(
        per_profile(round_one.0) <= 300.0,
        "{} bytes per cold profile",
        per_profile(round_one.0)
    );
    assert!(
        per_profile(blocks()) <= 1.1,
        "{} blocks per cold profile",
        per_profile(blocks())
    );

    for round in 2..=10 {
        for id in ids.drain(..) {
            assert!(subs.unsubscribe(id));
        }
        assert!(subs.is_empty());
        ids = subscribe_all(&mut subs);
        // Same slots, same conjunction rows, same symbols, same keys.
        assert_eq!(subs.filter_stats(), round_one.1, "round {round}");
        let drift = (bytes() - round_one.0).abs() as f64 / round_one.0 as f64;
        assert!(drift <= 0.05, "round {round}: live bytes moved by {drift}");
    }

    // After ten rounds every profile is still found through its slot …
    let hit = subs.match_event(&event_from("cold-0-7"), SimTime::ZERO);
    assert_eq!(hit.len(), 1);
    assert_eq!(
        (hit[0].profile, hit[0].client),
        (ids[7], ClientId::from_raw(7))
    );
    drop(hit);
    // … and, warm, an event the population has nothing for is rejected
    // without touching the allocator.
    let miss = event_from("Hamilton");
    assert!(subs.match_event(&miss, SimTime::ZERO).is_empty());
    let before = calls();
    for _ in 0..64 {
        assert!(subs.match_event(&miss, SimTime::ZERO).is_empty());
    }
    assert_eq!(calls() - before, 0);

    drop(subs);
    drop(ids);
    drop(miss);
    TRACKING.set(false);
    assert_eq!(
        LIVE_BLOCKS.load(Ordering::SeqCst),
        0,
        "the count is of live blocks"
    );
}

/// A profile text of each shape the benchmark subscribes, numbered so
/// that its value is one no profile has named before.
type Shape = (&'static str, fn(usize) -> String, u64);

/// The benchmark's shapes (`million_cold`'s and `paper_match`'s), each
/// with its ceiling on allocator calls for one parse plus one subscribe.
const SHAPES: [Shape; 5] = [
    ("cold", |i| format!(r#"host = "cold-0-{i}""#), 4),
    (
        "creator equality",
        |i| format!(r#"collection = "Hamilton.D" AND dc.Creator = "w{i}""#),
        12,
    ),
    (
        "subject equality",
        |i| format!(r#"collection = "Hamilton.D" AND dc.Subject = "w{i}""#),
        12,
    ),
    (
        "text query",
        |i| format!(r#"collection = "Hamilton.D" AND text ? (w{i})"#),
        12,
    ),
    (
        "title wildcard",
        |i| format!(r#"collection = "Hamilton.D" AND dc.Title ~ "*w{i}*""#),
        12,
    ),
];

#[test]
fn a_subscribe_parses_and_indexes_in_a_few_allocations() {
    const WARM: usize = 20_000;
    let mut subs = SubscriptionManager::new();
    for i in 0..WARM {
        let (_, text, _) = SHAPES[i % SHAPES.len()];
        let expr = parse_profile(&text(i)).unwrap();
        subs.subscribe(ClientId::from_raw(i as u64), expr).unwrap();
    }
    let mut counts = Vec::new();
    for (k, (name, text, ceiling)) in SHAPES.into_iter().enumerate() {
        let text = text(WARM + k);
        let before = calls();
        let expr = parse_profile(&text).unwrap();
        let parsed = calls();
        subs.subscribe(ClientId::from_raw((WARM + k) as u64), expr)
            .unwrap();
        let (parse, subscribe) = (parsed - before, calls() - parsed);
        counts.push(format!("{name}: {parse} + {subscribe}"));
        assert!(
            parse + subscribe <= ceiling,
            "{name}: {parse} + {subscribe} allocator calls, ceiling {ceiling} (all: {counts:?})"
        );
    }
}
