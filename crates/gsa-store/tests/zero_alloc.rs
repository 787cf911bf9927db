//! Acceptance test for the allocation-free build path: after warm-up,
//! [`InvertedIndex::add`] of a replaced document whose terms the
//! dictionary already holds performs **0** heap allocations, whatever its
//! token count — no `String` per token, no per-document count map, the
//! replaced document's id reused, and compaction rewriting in place.
//!
//! A counting wrapper around the system allocator is installed as the
//! global allocator; the windows between warm-up and assertion are the
//! only regions where allocations are counted.

use gsa_store::{InvertedIndex, Query};
use gsa_types::DocId;
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

const DOCS: usize = 64;
const WORDS: usize = 12;

/// Document `doc`'s text: always the same twelve words (so every term
/// stays in the dictionary while the document is replaced), each
/// `repeats` times, in mixed case so the lowercasing buffer is used.
fn text(doc: usize, repeats: usize) -> String {
    let words = (0..WORDS * repeats).map(|k| format!("Word{}", (doc * 5 + k % WORDS * 3) % 97));
    words.collect::<Vec<_>>().join(", ")
}

#[test]
fn replacing_a_document_of_known_terms_allocates_nothing_whatever_its_length() {
    let short: Vec<String> = (0..DOCS).map(|d| text(d, 1)).collect();
    let long: Vec<String> = (0..DOCS).map(|d| text(d, 100)).collect();
    let mut idx = InvertedIndex::new();

    // One round replaces every document; ids are built outside the
    // window, as the caller of `add` owns them.
    let round = |idx: &mut InvertedIndex, texts: &[String], track: bool| {
        let ids: Vec<DocId> = (0..DOCS).map(|d| DocId::new(format!("d{d}"))).collect();
        ALLOCS.store(0, Ordering::SeqCst);
        TRACKING.set(track);
        for (id, text) in ids.into_iter().zip(texts) {
            idx.add(id, text);
        }
        TRACKING.set(false);
        ALLOCS.load(Ordering::SeqCst)
    };

    // Warm-up: the dictionary, the scratch buffers and every posting
    // list grow to their working size. A compaction comes every
    // `DOCS + 1` replacements, so it takes `DOCS` rounds to have fallen
    // at every point of a round once.
    for _ in 0..DOCS / 2 {
        round(&mut idx, &short, false);
        round(&mut idx, &long, false);
    }

    let short_allocs = round(&mut idx, &short, true);
    let long_allocs = round(&mut idx, &long, true);
    assert_eq!(
        (short_allocs, long_allocs),
        (0, 0),
        "{DOCS} replacements allocated {short_allocs} times at {WORDS} tokens and {long_allocs} times at {} tokens",
        WORDS * 100
    );
    assert_eq!(idx.len(), DOCS);
    assert!(!idx.execute(&Query::term("word0")).is_empty());
}
