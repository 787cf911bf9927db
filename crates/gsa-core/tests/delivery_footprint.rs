//! Delivery-tail pin: what one server spends per delivered notification.
//!
//! From a match to a mailbox entry a notification is built once and moved
//! once, and it names its documents by position in the event it shares.
//! So on a warm core a delivery from an event of up to 64 documents costs
//! the allocator nothing: no copy of a document id, no second copy for
//! the effects, no label strings for the policy gate, no map entry for a
//! client drained before. Beyond 64 documents the positions take one
//! block per notification. A match the policy engine suppresses is never
//! built and costs nothing. Allocator calls from a counting allocator,
//! not timings.

use gsa_alerts::AlertPolicyConfig;
use gsa_core::{AlertingCore, SysMessage};
use gsa_gds::GdsMessage;
use gsa_profile::parse_profile;
use gsa_types::{
    ClientId, CollectionId, DocSummary, Event, EventId, EventKind, HostName, MessageId, SimTime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocator calls this thread made while it was tracking. Per
    /// thread: the tests run beside each other and beside the harness.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PROFILES: u64 = 1_000;
const CLIENTS: u64 = 200;

/// A core whose every profile matches whatever `London` publishes.
fn london_watchers(policies: Option<AlertPolicyConfig>) -> AlertingCore {
    let mut core = AlertingCore::new("A", "gds-1");
    core.set_alert_policies(policies);
    for i in 0..PROFILES {
        let expr = parse_profile(r#"host = "London""#).unwrap();
        core.subscribe(ClientId::from_raw(i % CLIENTS), expr).unwrap();
    }
    core
}

/// One delivery of a `docs`-document event from `host`, as the XML wire
/// brings it (no frozen bytes: it is decoded whatever it matches). Returns
/// the notifications delivered and the allocator calls the step made.
fn deliver(core: &mut AlertingCore, seq: &mut u64, host: &str, docs: usize) -> (usize, u64) {
    *seq += 1;
    let docs = (0..docs).map(|d| DocSummary::new(format!("d{d}"))).collect();
    let origin = CollectionId::new(host, "E");
    let event = Event::new(EventId::new(host, *seq), origin, EventKind::DocumentsAdded, SimTime::ZERO)
        .with_docs(docs);
    let msg = SysMessage::Gds(GdsMessage::Deliver {
        id: MessageId::from_raw(*seq),
        origin: host.into(),
        payload: gsa_wire::codec::event_to_xml(&event).into(),
    });
    let from = HostName::new("gds-1");
    let before = CALLS.get();
    TRACKING.set(true);
    let effects = core.handle_message(&from, msg, SimTime::ZERO);
    TRACKING.set(false);
    (effects.notified, CALLS.get() - before)
}

fn drain_all(core: &mut AlertingCore) -> usize {
    (0..CLIENTS)
        .map(|c| core.take_notifications(ClientId::from_raw(c)).len())
        .sum()
}

/// What the deliveries of one `docs`-document event cost beyond
/// receiving it: the step's calls minus those of the same event from a
/// host nobody watches. Ends with every mailbox drained.
fn delivery_calls(core: &mut AlertingCore, seq: &mut u64, docs: usize) -> u64 {
    let (none, miss) = deliver(core, seq, "Paris", docs);
    let (all, hit) = deliver(core, seq, "London", docs);
    assert_eq!((none, all), (0, PROFILES as usize));
    assert_eq!(drain_all(core), PROFILES as usize);
    hit - miss
}

#[test]
fn a_delivery_costs_its_matched_docs_and_nothing_else() {
    let per_policy = [None, Some(AlertPolicyConfig::observe_only())].map(|policies| {
        let mut core = london_watchers(policies);
        let mut seq = 0;
        // Warm, on the largest event to come: every buffer grown, every
        // alert instance fired, every client notified and drained once.
        delivery_calls(&mut core, &mut seq, 65);
        assert_eq!(core.subscriptions().mailboxes(), CLIENTS as usize);

        // All a docless event costs is the buffers of the drained
        // mailboxes it refills …
        let refill = delivery_calls(&mut core, &mut seq, 0);
        assert!(refill <= 3 * CLIENTS, "{refill} calls to refill the mailboxes");
        // … and so does one that matches through its documents, up to
        // 64 of them; beyond, each notification's positions are a block.
        for (docs, per_notification) in [(1, 0), (2, 0), (64, 0), (65, 1)] {
            let calls = delivery_calls(&mut core, &mut seq, docs);
            assert_eq!(calls - refill, PROFILES * per_notification, "{docs} documents");
        }
        // Draining and refilling again is the same work on the same map.
        assert_eq!(delivery_calls(&mut core, &mut seq, 0), refill);
        assert_eq!(core.subscriptions().mailboxes(), CLIENTS as usize);
        refill
    });
    // The policy gate, observing every delivery, allocated for none.
    assert_eq!(per_policy[0], per_policy[1]);
}

#[test]
fn a_suppressed_match_allocates_nothing() {
    let mut core = london_watchers(Some(AlertPolicyConfig::dedup_only()));
    let mut seq = 0;
    // The first match of each profile fires and is delivered; the second
    // is the first suppressed one and warms that path.
    delivery_calls(&mut core, &mut seq, 1);
    assert_eq!(deliver(&mut core, &mut seq, "London", 1).0, 0);
    let (_, miss) = deliver(&mut core, &mut seq, "Paris", 1);
    let (delivered, suppressed) = deliver(&mut core, &mut seq, "London", 1);
    assert_eq!((delivered, suppressed), (0, miss));
    assert_eq!(drain_all(&mut core), 0);
}
