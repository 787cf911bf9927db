//! Acceptance test for the zero-allocation matching claim: after one
//! warm-up call, [`FilterEngine::matches_into`] performs no heap
//! allocation on the equality path, nor for tokenizing excerpts and
//! evaluating `text ? (query)` literals against them, nor for sliding
//! the windows of ASCII titles past gram-keyed wildcards.
//!
//! A counting wrapper around the system allocator is installed as the
//! global allocator; the window between warm-up and assertion is the
//! only region where allocations are counted.

use gsa_filter::{FilterEngine, MatchScratch};
use gsa_profile::parse_profile;
use gsa_types::{
    keys, CollectionId, DocSummary, Event, EventId, EventKind, MetadataRecord, ProfileId, SimTime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

thread_local! {
    /// Per thread: the test harness allocates on its own thread while a
    /// test runs, and only the measuring thread's allocations count.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn make_event(host: &str, seq: u64, subject: &str) -> Event {
    let title = format!("Collected {}-NOTEBOOKS, vol. {seq}", subject.to_uppercase());
    let md: MetadataRecord = [(keys::SUBJECT, subject), (keys::TITLE, &title)]
        .into_iter()
        .collect();
    Event::new(
        EventId::new(host, seq),
        CollectionId::new(host, "demo"),
        EventKind::DocumentsAdded,
        SimTime::from_millis(seq),
    )
    .with_docs(vec![
        DocSummary::new(format!("doc-{seq}-a"))
            .with_metadata(md.clone())
            .with_excerpt(format!("Lectures on {subject}: Quantum THEORY, volume {seq}")),
        DocSummary::new(format!("doc-{seq}-b"))
            .with_metadata(md)
            .with_excerpt(format!("a history of {subject} in {host} — Überblick")),
    ])
}

/// A warm `matches_into` allocates nothing.
#[test]
fn matches_into_is_allocation_free_after_warmup() {
    let hosts = ["London", "Paris", "Waikato", "Berlin"];
    let subjects = ["physics", "history", "botany", "music"];

    let mut engine = FilterEngine::new();
    let mut id = 0u64;
    // Host / collection / kind / subject equality and id-lists,
    // including multi-conjunction DNF shapes and two-equality
    // conjunctions — one event-level, one document-level literal, keyed
    // on the second and verified on the first — and filter queries on the
    // excerpt: token-keyed terms and conjunctions, a residual behind an
    // equality, and the scanned shapes (negations, a prefix). And title
    // wildcards keyed on windows of 3, 4 and 8 bytes: segments of 3, 4,
    // 8 and 12 bytes, the last slid through by an 8-byte window.
    for host in hosts {
        for subject in subjects {
            let notebooks = format!("{subject}-notebooks");
            for text in [
                format!(r#"collection = "{host}.demo" AND dc.Subject = "{subject}""#),
                format!(r#"dc.Subject = "{subject}" AND host = "nowhere""#),
                format!(r#"host = "{host}""#),
                format!(r#"subject = "{subject}""#),
                format!(r#"host = "{host}" AND subject = "{subject}""#),
                format!(r#"host = "{host}" AND event = "documents_added""#),
                format!(r#"host in ["{host}", "nowhere"] OR subject = "{subject}""#),
                format!(r#"collection = "{host}.demo""#),
                format!(r#"text ? ({subject})"#),
                format!(r#"text ? ({subject} AND quantum)"#),
                format!(r#"host = "{host}" AND text ? (lectures OR {subject})"#),
                format!(r#"NOT text ? ({subject})"#),
                format!(r#"text ? (NOT {subject} AND theory)"#),
                format!(r#"text ? (überb* AND {subject})"#),
                format!(r#"dc.Title ~ "*{}*""#, &subject[..3]),
                format!(r#"dc.Title ~ "*{}*""#, &subject[1..5]),
                format!(r#"dc.Title ~ "*{}*vol*""#, &notebooks[..8]),
                format!(r#"dc.Title ~ "*{}*""#, &notebooks[..12]),
            ] {
                engine
                    .insert(ProfileId::from_raw(id), &parse_profile(&text).unwrap())
                    .unwrap();
                id += 1;
            }
        }
    }

    // Events are built up-front so only matching itself is measured.
    let events: Vec<Event> = (0..64)
        .map(|i| make_event(hosts[i % hosts.len()], i as u64, subjects[i % subjects.len()]))
        .collect();

    let mut scratch = MatchScratch::new();
    let mut matched = Vec::new();

    // Warm-up: grows scratch slots, key buffers and the output vector.
    for event in &events {
        engine.matches_into(event, &mut scratch, &mut matched);
        assert!(!matched.is_empty());
    }

    ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.set(true);
    let mut total = 0usize;
    for _ in 0..4 {
        for event in &events {
            engine.matches_into(event, &mut scratch, &mut matched);
            total += matched.len();
        }
    }
    TRACKING.set(false);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert!(total > 0, "matching produced no results");
    assert_eq!(
        allocs, 0,
        "matches_into allocated {allocs} times across {} warm calls",
        events.len() * 4
    );
}
