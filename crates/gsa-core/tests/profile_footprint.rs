//! Footprint pin: what one server spends per stored profile.
//!
//! A cold profile — `host = "cold-0-<i>"`, the population of the
//! benchmark's `million_cold` — costs one hash-map entry (id → slot) and
//! otherwise only rows of dense tables, so 100 000 of them are held to
//! 300 requested bytes and 1.1 heap blocks each (the one block is the
//! expression's value string). Cancelling and re-subscribing the whole
//! population reuses slots, slab rows and symbols: no table grows and the
//! live bytes stay put. Counts from a counting allocator, not timings.

use gsa_core::SubscriptionManager;
use gsa_profile::parse_profile;
use gsa_types::{
    ClientId, CollectionId, DocSummary, Event, EventId, EventKind, ProfileId, SimTime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// Per thread: the test harness allocates on its own thread while a
    /// test runs, and only the measuring thread's allocations count.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}
/// Requested bytes and blocks currently live, and allocator calls made.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_BLOCKS: AtomicI64 = AtomicI64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn tracking() -> bool {
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if tracking() {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
            LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if tracking() {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
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
    let before = CALLS.load(Ordering::SeqCst);
    for _ in 0..64 {
        assert!(subs.match_event(&miss, SimTime::ZERO).is_empty());
    }
    assert_eq!(CALLS.load(Ordering::SeqCst) - before, 0);

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
