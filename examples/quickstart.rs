//! Quickstart: a two-server digital library with alerting, in ~40 lines.
//!
//! Builds a small GDS tree, two Greenstone servers, a subscriber, and
//! demonstrates the end-to-end flow: subscribe → collection rebuild →
//! notification.
//!
//! Run with `cargo run -p gsa-integration --example quickstart`.

use gsa_core::System;
use gsa_gds::figure2_tree;
use gsa_greenstone::CollectionConfig;
use gsa_store::SourceDocument;
use gsa_types::SimTime;

fn main() {
    // A deterministic simulated deployment (seed 7): the Figure 2 GDS
    // tree plus two Greenstone servers registered at different nodes.
    let mut system = System::new(7);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("London", "gds-2");

    // Hamilton hosts a collection of workshop papers.
    system.add_collection("Hamilton", CollectionConfig::simple("papers", "ICDCS papers"));
    system.run_until_quiet(SimTime::from_secs(5));

    // A user at London subscribes: any new document at Hamilton
    // mentioning "alerting" in its text.
    let user = system.add_client("London");
    system
        .subscribe_text("London", user, r#"host = "Hamilton" AND text ? (alerting)"#)
        .expect("valid profile");

    // Hamilton's administrator rebuilds the collection with two papers.
    system
        .rebuild(
            "Hamilton",
            "papers",
            vec![
                SourceDocument::new("p1", "a distributed alerting service for digital libraries"),
                SourceDocument::new("p2", "compression techniques for inverted indexes"),
            ],
        )
        .expect("collection exists");

    // Let the event flood the directory tree and be filtered at London.
    system.run_until_quiet(SimTime::from_secs(30));

    let inbox = system.take_notifications("London", user);
    println!("user at London received {} notification(s):", inbox.len());
    for n in &inbox {
        println!(
            "  {} — matched docs: {:?}",
            n.event,
            n.matched_docs().map(|d| d.as_str()).collect::<Vec<_>>()
        );
    }
    assert_eq!(inbox.len(), 1);
    assert_eq!(inbox[0].matched_docs().count(), 1, "only p1 mentions alerting");
    println!(
        "\nmessages on the wire: {} ({} bytes)",
        system.metrics().counter("net.sent"),
        system.metrics().counter("net.bytes_sent"),
    );
}
