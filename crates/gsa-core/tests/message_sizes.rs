//! GS-network frames are sized, printed and forwarded as the values
//! they are: no XML tree is built for a message envelope, and a
//! forwarded event is the one shared [`Payload`] — never a copy of the
//! event. The properties of `gsa-gds/tests/wire_sizes.rs`, extended to
//! `SysMessage::{Gs, Aux}` with the same counting allocator.

use gsa_core::{aux_to_xml, AlertingCore, AuxPayload, SysMessage};
use gsa_gds::GdsMessage;
use gsa_greenstone::{CollectionConfig, GsMessage, RequestId};
use gsa_store::SourceDocument;
use gsa_types::{
    CollectionId, DocSummary, Event, EventId, EventKind, HostName, MetadataRecord, SimTime,
};
use gsa_wire::codec::{event_from_xml, event_to_xml};
use gsa_wire::{Payload, Reliable, WireFormat};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread. Per thread, so that the tests
    /// running beside a measured window do not show in it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The counting allocator of the zero-allocation tests
/// (`gsa-simnet/tests/step_zero_alloc.rs`), counting per thread.
struct CountingAlloc;

fn count_one() {
    // No destructor is registered for a `Cell<u64>`, so the slot is
    // there for as long as the thread allocates.
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

/// A four-document rebuild event, about 2.5 KB of XML.
fn rebuild_event() -> Event {
    let docs = (0..4)
        .map(|d| {
            let mut metadata = MetadataRecord::new();
            metadata.add(
                "dc.Title",
                format!("Proceedings of the workshop, volume {d}"),
            );
            metadata.add("dc.Creator", "Hinze, Annika");
            metadata.add("dc.Creator", "Buchanan, George");
            metadata.add("dc.Subject", format!("subject-{d}"));
            metadata.add("dc.Language", "en");
            DocSummary::new(format!("HASH01{d:04x}"))
                .with_metadata(metadata)
                .with_excerpt("digital libraries need alerting services for readers ".repeat(5))
        })
        .collect();
    Event::new(
        EventId::new("London", 7),
        CollectionId::new("London", "E"),
        EventKind::CollectionRebuilt,
        SimTime::from_millis(1234),
    )
    .with_docs(docs)
}

/// Swallows what is printed into it.
struct Nowhere;

impl std::fmt::Write for Nowhere {
    fn write_str(&mut self, _: &str) -> std::fmt::Result {
        Ok(())
    }
}

#[test]
fn sizing_and_printing_an_envelope_allocates_nothing() {
    let forward = SysMessage::Aux(Reliable::Data {
        seq: 12,
        payload: AuxPayload::ForwardEvent {
            super_name: "D".into(),
            event: Payload::from_event(Arc::new(rebuild_event())),
        },
    });
    // The first sizing builds the payload's XML view and counts it; the
    // length is memoised for every clone and every later hop.
    let text_len = forward.wire_size(WireFormat::Xml);
    let frames = [
        SysMessage::Aux(Reliable::Ack {
            seq: u64::MAX,
            more: u64::MAX,
        }),
        forward,
        SysMessage::Gs(GsMessage::DescribeRequest {
            request: RequestId(3),
            collection: "D".into(),
        }),
    ];
    let (allocated, sizes) = allocations_of(|| {
        for frame in &frames {
            write!(Nowhere, "{frame}").unwrap();
        }
        [
            frames[0].wire_size(WireFormat::Xml),
            frames[1].wire_size(WireFormat::Xml),
            frames[2].wire_size(WireFormat::Xml),
        ]
    });
    assert_eq!(allocated, 0, "sizing or printing a frame allocated");
    assert_eq!(sizes[1], text_len);
    for (frame, size) in frames.iter().zip(sizes) {
        let written = match frame {
            SysMessage::Aux(frame) => aux_to_xml(frame),
            SysMessage::Gs(m) => m.to_xml(),
            other => unreachable!("{other}"),
        };
        assert_eq!(size, written.to_xml_string().len(), "size of {frame}");
    }
}

/// A London server whose collection E is observed by `k` auxiliary
/// profiles, one per super-collection host.
fn observed_by(k: usize) -> AlertingCore {
    let mut london = AlertingCore::new("London", "gds-2");
    london
        .add_collection(CollectionConfig::simple("E", "e"), SimTime::ZERO)
        .unwrap();
    for i in 0..k {
        let host = HostName::new(format!("super-{i}"));
        let plant = Reliable::Data {
            seq: 0,
            payload: AuxPayload::Plant {
                super_collection: CollectionId::new(host.clone(), "D"),
                sub_name: "E".into(),
            },
        };
        london.handle_message(&host, SysMessage::Aux(plant), SimTime::ZERO);
    }
    assert_eq!(london.aux_store().len(), k);
    london
}

#[test]
fn forwarding_to_k_supers_clones_no_event() {
    let mut costs = Vec::new();
    for k in [1usize, 2, 6] {
        let mut london = observed_by(k);
        let docs = vec![SourceDocument::new("e1", "european documents")];
        let now = SimTime::from_millis(5);
        let (allocated, built) = allocations_of(|| london.rebuild(&"E".into(), docs, now));
        let (_, effects) = built.unwrap();
        let forwards: Vec<&Payload> = effects
            .outbound
            .iter()
            .filter_map(|(_, m)| match m {
                SysMessage::Aux(Reliable::Data {
                    payload: AuxPayload::ForwardEvent { event, .. },
                    ..
                }) => Some(event),
                _ => None,
            })
            .collect();
        assert_eq!(forwards.len(), k);
        assert_eq!(
            london.pending_ops().len(),
            k,
            "each forward is logged until acknowledged"
        );
        // The GDS publish, every forward and every auxiliary-log entry
        // share one payload whatever k is: one XML view among them all.
        assert_eq!(effects.published, 1);
        let published = effects
            .outbound
            .iter()
            .find_map(|(_, m)| match m {
                SysMessage::Gds(GdsMessage::Publish { payload, .. }) => Some(payload),
                _ => None,
            })
            .expect("the event is published");
        let event = published.decode_event().unwrap();
        for forward in forwards {
            assert!(std::ptr::eq(forward.xml_element(), published.xml_element()), "k = {k}");
            assert_eq!(forward.decode_event().unwrap(), event);
        }
        costs.push(allocated);
    }
    // An extra forward costs its own bookkeeping — host names, the
    // auxiliary-log entry, the effects slot — and nothing that grows
    // with the event.
    let per_forward = (costs[2] - costs[1]) / 4;
    assert!(
        per_forward <= 10,
        "{per_forward} allocations per extra forward: {costs:?}"
    );
    assert!(costs[1] - costs[0] <= 10, "{costs:?}");
}

/// One forward of the four-document event, end to end: made, queued for
/// retry, sized for the network and decoded at the receiver. One XML
/// tree — the payload's shared view — and one decode; at the parent
/// commit the same path built the tree twice, copied the event twice and
/// took 503 allocations.
#[test]
fn one_forward_costs_one_tree_and_one_decode() {
    let event = Arc::new(rebuild_event());
    let (tree, xml) = allocations_of(|| event_to_xml(&event));
    let (decode, _) = allocations_of(|| event_from_xml(&xml).unwrap());
    let (allocated, (charged, received)) = allocations_of(|| {
        let payload = AuxPayload::ForwardEvent {
            super_name: "D".into(),
            event: Payload::from_event(Arc::clone(&event)),
        };
        let pending = payload.clone();
        let frame = SysMessage::Aux(Reliable::Data { seq: 1, payload });
        let charged = frame.wire_size(WireFormat::Xml);
        let SysMessage::Aux(Reliable::Data {
            payload: AuxPayload::ForwardEvent { event, .. },
            ..
        }) = frame
        else {
            unreachable!()
        };
        drop(pending);
        (charged, event.decode_event().unwrap())
    });
    assert_eq!(received, *event);
    assert!(charged > 2_000, "a {charged}-byte frame");
    println!("one forward: {allocated} allocations (tree {tree}, decode {decode})");
    assert!(
        allocated <= tree + decode + 4,
        "{allocated} allocations for a tree of {tree} and a decode of {decode}"
    );
}
