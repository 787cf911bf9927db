//! A directory node forwards the frame it received. A flooded batch is
//! handed to every edge as the one shared frame, not copied item by
//! item, and a warm node does it without touching the allocator. At
//! the publisher's node a frame of publishes is built into `Broadcast`s
//! once, plus the `Deliver`s of a local server once. Counted with the
//! per-thread counting allocator of `message_sizes.rs`.

use gsa_gds::{GdsEffects, GdsMessage, GdsNode};
use gsa_types::{HostName, MessageId};
use gsa_wire::{Payload, XmlElement};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread. Per thread, so that the tests
    /// running beside a measured window do not show in it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `work` allocated, and what it returned.
fn allocations_of<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = work();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A v2 payload, frozen as it travels between directory nodes.
fn frozen_payload() -> Payload {
    let mut payload: Payload = XmlElement::new("event")
        .with_attr("kind", "documents-added")
        .into();
    payload.freeze();
    payload
}

/// Eight items of `form`, ids from `first`.
fn frame(
    first: u64,
    payload: &Payload,
    form: fn(MessageId, Payload) -> GdsMessage,
) -> Arc<[GdsMessage]> {
    (first..first + 8)
        .map(|id| form(MessageId::from_raw(id), payload.clone()))
        .collect()
}

fn broadcast(id: MessageId, payload: Payload) -> GdsMessage {
    GdsMessage::Broadcast {
        id,
        origin: "Hamilton".into(),
        payload,
    }
}

fn publish(id: MessageId, payload: Payload) -> GdsMessage {
    GdsMessage::Publish { id, payload }
}

/// A v2 node under `gds-1` with children `gds-3` … `gds-6`.
fn fan_out_4() -> GdsNode {
    let mut node = GdsNode::new("gds-2", 2, Some("gds-1".into()));
    node.set_encode_once(true);
    for child in 3..7 {
        node.add_child(format!("gds-{child}"));
    }
    node
}

/// Floods frames of `form` from `from` until the node's replay ring and
/// every reused buffer have reached their steady size; returns the next
/// free id.
fn warm(
    node: &mut GdsNode,
    effects: &mut GdsEffects,
    from: &HostName,
    form: fn(MessageId, Payload) -> GdsMessage,
) -> u64 {
    let payload = frozen_payload();
    let mut id = 1;
    for _ in 0..40 {
        effects.clear();
        node.handle_message_into(from, GdsMessage::Batch(frame(id, &payload, form)), effects);
        id += 8;
    }
    id
}

#[test]
fn a_warm_node_forwards_the_frame_it_received_without_allocating() {
    let mut node = fan_out_4();
    let parent = HostName::new("gds-1");
    let mut effects = GdsEffects::default();
    let id = warm(&mut node, &mut effects, &parent, broadcast);

    let payload = frozen_payload();
    let received = frame(id, &payload, broadcast);
    let msg = GdsMessage::Batch(received.clone());
    effects.clear();
    let (allocs, ()) = allocations_of(|| node.handle_message_into(&parent, msg, &mut effects));
    assert_eq!(allocs, 0, "forwarding a frame allocates nothing");

    let children: Vec<&str> = effects.outbound.iter().map(|out| out.to.as_str()).collect();
    assert_eq!(children, ["gds-3", "gds-4", "gds-5", "gds-6"]);
    for out in &effects.outbound {
        match &out.msg {
            GdsMessage::Batch(sent) => assert!(Arc::ptr_eq(sent, &received), "to {}", out.to),
            other => panic!("a child is sent the frame, not {other}"),
        }
    }
    assert_eq!(
        effects.runs,
        vec![Range { start: 0, end: 4 }],
        "one run over the four children"
    );
    // Held by the test, each child's copy of the reference, and the one
    // replay-ring entry of the run: nothing else holds the frame, and no
    // item of it was copied out.
    assert_eq!(Arc::strong_count(&received), 1 + 4 + 1);
}

#[test]
fn the_publishers_node_builds_one_frame_per_form() {
    for with_local in [false, true] {
        let mut node = fan_out_4();
        let publisher = HostName::new("Hamilton");
        let mut effects = GdsEffects::default();
        for server in std::iter::once("Hamilton").chain(with_local.then_some("Wellington")) {
            let server = HostName::new(server);
            node.handle_message_into(
                &server,
                GdsMessage::Register {
                    gs_host: server.clone(),
                },
                &mut effects,
            );
        }
        let id = warm(&mut node, &mut effects, &publisher, publish);

        let payload = frozen_payload();
        let msg = GdsMessage::Batch(frame(id, &payload, publish));
        effects.clear();
        let (allocs, ()) =
            allocations_of(|| node.handle_message_into(&publisher, msg, &mut effects));
        let frames = 1 + u64::from(with_local);
        assert_eq!(
            allocs, frames,
            "one Broadcast frame, and a Deliver frame for a local server"
        );

        let sent: Vec<(&str, &Arc<[GdsMessage]>)> = effects
            .outbound
            .iter()
            .map(|out| match &out.msg {
                GdsMessage::Batch(frame) => (out.to.as_str(), frame),
                other => panic!("a run goes out as frames, not {other}"),
            })
            .collect();
        let (delivered, forwarded) = sent.split_at(usize::from(with_local));
        if let [(to, deliver)] = delivered {
            assert_eq!(
                *to, "Wellington",
                "the publisher is not delivered its own event"
            );
            assert!(matches!(deliver[0], GdsMessage::Deliver { .. }));
            assert_eq!(Arc::strong_count(deliver), 1);
        }
        let names: Vec<&str> = forwarded.iter().map(|(to, _)| *to).collect();
        assert_eq!(names, ["gds-1", "gds-3", "gds-4", "gds-5", "gds-6"]);
        let built = forwarded[0].1;
        assert!(matches!(built[0], GdsMessage::Broadcast { .. }));
        assert!(forwarded.iter().all(|(_, frame)| Arc::ptr_eq(frame, built)));
        // The parent, four children and the run's replay-ring entry.
        assert_eq!(Arc::strong_count(built), 5 + 1);
    }
}
