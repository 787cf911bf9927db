//! Figure 3 as a runnable scenario: alerting for *distributed*
//! collections via auxiliary profiles.
//!
//! `Hamilton.D` includes the remote sub-collection `London.E`. When the
//! servers start, Hamilton plants an auxiliary profile at London
//! ("London.E is a sub-collection of Hamilton.D"). When `London.E` is
//! rebuilt, the auxiliary profile matches locally at London, the event
//! is forwarded over the GS network to Hamilton, which *rewrites the
//! originating collection* from `London.E` to `Hamilton.D` and then
//! broadcasts it over the GDS — so a watcher of `Hamilton.D` anywhere in
//! the network is notified, even though the actual change happened on a
//! server that has never heard of them.
//!
//! Run with `cargo run -p gsa-integration --example distributed_alerting`.

use gsa_core::System;
use gsa_gds::figure2_tree;
use gsa_greenstone::{CollectionConfig, SubCollectionRef};
use gsa_store::SourceDocument;
use gsa_types::{CollectionId, SimTime};

fn main() {
    let mut system = System::new(3);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("London", "gds-2");
    system.add_server("Berlin", "gds-3"); // a third-party observer

    system.add_collection("London", CollectionConfig::simple("E", "euro docs"));
    system.add_collection(
        "Hamilton",
        CollectionConfig::simple("D", "distributed D").with_subcollection(
            SubCollectionRef::new("e", CollectionId::new("London", "E")),
        ),
    );
    system.run_until_quiet(SimTime::from_secs(5));

    let planted = system.inspect_core("London", |core| core.aux_store().len());
    println!("auxiliary profiles planted at London: {planted}");
    assert_eq!(planted, 1);
    system.inspect_core("London", |core| {
        for aux in core.aux_store().iter() {
            println!("  {aux}");
        }
    });

    // A client at Berlin — a host with no relationship to London at all —
    // watches the super-collection Hamilton.D.
    let watcher = system.add_client("Berlin");
    system
        .subscribe_text("Berlin", watcher, r#"collection = "Hamilton.D""#)
        .expect("profile");

    // The sub-collection is rebuilt on London.
    println!("\nrebuilding London.E ...");
    system
        .rebuild(
            "London",
            "E",
            vec![SourceDocument::new("e9", "fresh european content")],
        )
        .expect("rebuild");
    system.run_until_quiet(SimTime::from_secs(30));

    let inbox = system.take_notifications("Berlin", watcher);
    assert_eq!(inbox.len(), 1, "exactly one notification");
    let n = &inbox[0];
    println!("\nBerlin's watcher was notified:");
    println!("  origin:     {}", n.event.origin);
    println!("  provenance: {:?}", n.event.provenance.iter().map(ToString::to_string).collect::<Vec<_>>());
    println!("  documents:  {:?}", n.matched_docs().map(|d| d.as_str()).collect::<Vec<_>>());

    // The Section 4.2 transformation: the event names the
    // super-collection, with the sub-collection in its provenance.
    assert_eq!(n.event.origin, CollectionId::new("Hamilton", "D"));
    assert_eq!(n.event.provenance, vec![CollectionId::new("London", "E")]);

    // The forwarded event was acknowledged; nothing is left pending.
    let pending = system.inspect_core("London", |core| core.pending_ops().len());
    assert_eq!(pending, 0);
    println!("\nforwarding acknowledged; no pending operations remain at London");
}
