//! The Section 7 discussion as a runnable scenario: a severed connection
//! between super- and sub-collection host delays notifications and
//! deletions, but never corrupts.
//!
//! Run with `cargo run -p gsa-integration --example partition_healing`.

use gsa_core::System;
use gsa_gds::figure2_tree;
use gsa_greenstone::{CollectionConfig, SubCollectionRef};
use gsa_store::SourceDocument;
use gsa_types::{CollectionId, SimDuration, SimTime};

fn main() {
    let mut system = System::new(4);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("London", "gds-2");
    system.add_collection("London", CollectionConfig::simple("E", "euro docs"));
    system.add_collection(
        "Hamilton",
        CollectionConfig::simple("D", "distributed D").with_subcollection(
            SubCollectionRef::new("e", CollectionId::new("London", "E")),
        ),
    );
    let watcher = system.add_client("Hamilton");
    system
        .subscribe_text("Hamilton", watcher, r#"collection = "Hamilton.D""#)
        .expect("profile");
    system.run_until_quiet(SimTime::from_secs(5));

    // --- Sever the network, then rebuild the sub-collection ------------
    println!("t={:>5.1}s  network severed (London partitioned away)", system.now().as_secs_f64());
    system.set_partition("London", 1);
    system.run_until(SimTime::from_secs(10));
    system
        .rebuild("London", "E", vec![SourceDocument::new("e1", "new content")])
        .expect("rebuild");
    println!("t={:>5.1}s  London.E rebuilt while cut off", system.now().as_secs_f64());

    // During the partition: nothing arrives, nothing false.
    system.run_until(SimTime::from_secs(40));
    let inbox = system.take_notifications("Hamilton", watcher);
    assert!(inbox.is_empty(), "no notification can cross a severed link");
    let pending = system.inspect_core("London", |c| c.pending_ops().len());
    println!(
        "t={:>5.1}s  still partitioned: 0 notifications, {} queued operation(s) at London",
        system.now().as_secs_f64(),
        pending
    );
    assert!(pending > 0, "the forwarded event is queued for retry");

    // --- Heal ------------------------------------------------------------
    system.heal_network();
    println!("t={:>5.1}s  network healed", system.now().as_secs_f64());
    system.run_until_quiet(system.now() + SimDuration::from_secs(60));

    let inbox = system.take_notifications("Hamilton", watcher);
    assert_eq!(inbox.len(), 1, "the delayed notification arrives exactly once");
    println!(
        "t={:>5.1}s  watcher notified: {} (delayed, not lost)",
        inbox[0].at.as_secs_f64(),
        inbox[0].event
    );
    let pending = system.inspect_core("London", |c| c.pending_ops().len());
    assert_eq!(pending, 0, "the queue drained after the heal");

    // --- Deletion reconciliation (the §7 case analysis) -----------------
    println!("\nrestructuring while partitioned:");
    system.set_partition("London", 1);
    system
        .remove_subcollection("Hamilton", "D", "e")
        .expect("restructure");
    system.run_for(SimDuration::from_secs(20));
    let aux = system.inspect_core("London", |c| c.aux_store().len());
    println!("  partitioned: auxiliary profile still on London: {aux}");
    assert_eq!(aux, 1, "the deletion cannot cross the severed link yet");

    system.heal_network();
    system.run_for(SimDuration::from_secs(20));
    let aux = system.inspect_core("London", |c| c.aux_store().len());
    let pending = system.inspect_core("Hamilton", |c| c.pending_ops().len());
    println!("  healed: auxiliary profiles on London: {aux}, pending ops at Hamilton: {pending}");
    assert_eq!(aux, 0, "the deletion reconciled after the heal");
    assert_eq!(pending, 0);
    println!("\nSection 7 verified: partitions delay, they never corrupt.");
}
