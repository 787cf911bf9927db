//! Acceptance test for the zero-materialisation delivery claim: after
//! one warm-up pass, probing a *non-matching* frozen binary event —
//! [`EventProbe::from_payload`] plus [`FilterEngine::probe_matches`] —
//! performs no heap allocation at all. The probe walks the frozen
//! bytes in place and checks the equality literals of what the interned
//! index turns up; no `Event`, no strings, no XML tree.
//!
//! Same counting-allocator harness as `zero_alloc.rs`: a wrapper around
//! the system allocator counts allocations only inside the measured
//! window.

use gsa_filter::{FilterEngine, MatchScratch};
use gsa_profile::parse_profile;
use gsa_types::{
    keys, CollectionId, DocSummary, Event, EventId, EventKind, MetadataRecord, ProfileId, SimTime,
};
use gsa_wire::binary::payload_bytes_from_xml;
use gsa_wire::codec::event_to_xml;
use gsa_wire::EventProbe;
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
    let md: MetadataRecord = [(keys::SUBJECT, subject)].into_iter().collect();
    Event::new(
        EventId::new(host, seq),
        CollectionId::new(host, "demo"),
        EventKind::DocumentsAdded,
        SimTime::from_millis(seq),
    )
    .with_docs(vec![
        DocSummary::new(format!("doc-{seq}-a")).with_metadata(md.clone()),
        DocSummary::new(format!("doc-{seq}-b")).with_metadata(md),
    ])
}

#[test]
fn probing_non_matching_binary_events_is_allocation_free_after_warmup() {
    // Indexed-equality profiles anchored to hosts/subjects that the
    // event stream never produces: every probe must reject, and the
    // engine has no scan-set profiles that would short-circuit to
    // pass-through (that path is trivially allocation-free anyway).
    let mut engine = FilterEngine::new();
    let mut id = 0u64;
    for host in ["Alexandria", "Pergamon", "Nineveh"] {
        for subject in ["papyrus", "cuneiform"] {
            for text in [
                format!(r#"host = "{host}""#),
                format!(r#"subject = "{subject}""#),
                format!(r#"host = "{host}" AND subject = "{subject}""#),
                format!(r#"collection = "{host}.scrolls""#),
                format!(r#"host in ["{host}", "nowhere"] AND event = "documents_removed""#),
            ] {
                engine
                    .insert(ProfileId::from_raw(id), &parse_profile(&text).unwrap())
                    .unwrap();
                id += 1;
            }
        }
    }
    // Two-equality conjunctions keyed on a subject the stream does carry:
    // the probe reaches them on every document and must reject on the
    // event-level literal, by membership in the context's pairs.
    for subject in ["physics", "history", "botany", "music"] {
        let text = format!(r#"collection = "Alexandria.scrolls" AND dc.Subject = "{subject}""#);
        engine
            .insert(ProfileId::from_raw(id), &parse_profile(&text).unwrap())
            .unwrap();
        id += 1;
    }

    // Frozen v2 payload bytes are built up-front: the measured window
    // covers exactly what the delivery path does per non-matching
    // event — parse the header, probe each doc context, reject.
    let hosts = ["London", "Paris", "Waikato", "Berlin"];
    let subjects = ["physics", "history", "botany", "music"];
    let payloads: Vec<Vec<u8>> = (0..64)
        .map(|i| {
            let event = make_event(hosts[i % hosts.len()], i as u64, subjects[i % subjects.len()]);
            payload_bytes_from_xml(&event_to_xml(&event))
        })
        .collect();

    let mut scratch = MatchScratch::new();

    // Warm-up: grows scratch counters and the composed collection-key
    // buffer to steady-state capacity.
    for bytes in &payloads {
        let mut probe = EventProbe::from_payload(bytes).unwrap().unwrap();
        let candidate = engine.probe_matches(&mut probe, &mut scratch).unwrap();
        assert!(!candidate, "stream must be non-matching for this test");
    }

    ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.set(true);
    let mut rejected = 0usize;
    for _ in 0..4 {
        for bytes in &payloads {
            let mut probe = EventProbe::from_payload(bytes).unwrap().unwrap();
            if !engine.probe_matches(&mut probe, &mut scratch).unwrap() {
                rejected += 1;
            }
        }
    }
    TRACKING.set(false);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(rejected, payloads.len() * 4, "every probe must reject");
    assert_eq!(
        allocs, 0,
        "probe path allocated {allocs} times across {rejected} rejections"
    );
}
