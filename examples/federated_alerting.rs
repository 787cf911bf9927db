//! Figure 2 as a runnable scenario: alerting for federated collections
//! via GDS event flooding.
//!
//! Seven GDS nodes on three strata, seven solitary Greenstone servers —
//! one registered at each node, as in the figure. A collection rebuild
//! at `Hamilton` (registered at the stratum-2 node `gds-4`) floods up to
//! the stratum-1 primary and down to every leaf; each server filters the
//! event against its locally stored profiles.
//!
//! Run with `cargo run -p gsa-integration --example federated_alerting`.

use gsa_core::System;
use gsa_gds::figure2_tree;
use gsa_greenstone::CollectionConfig;
use gsa_store::SourceDocument;
use gsa_types::SimTime;

fn main() {
    let mut system = System::new(2);
    system.sim_mut().enable_trace();
    system.add_gds_topology(&figure2_tree());

    // One Greenstone server per GDS node; "Hamilton" sits at gds-4 and
    // "London" at gds-2, as in the figure; five more solitary servers.
    let servers = [
        ("Hamilton", "gds-4"),
        ("London", "gds-2"),
        ("Auckland", "gds-1"),
        ("Berlin", "gds-3"),
        ("Cairo", "gds-5"),
        ("Delhi", "gds-6"),
        ("Edmonton", "gds-7"),
    ];
    for (host, gds) in servers {
        system.add_server(host, gds);
    }
    system.add_collection("Hamilton", CollectionConfig::simple("news", "newsletter"));
    system.run_until_quiet(SimTime::from_secs(5));

    // Clients at every *other* server store their profile locally there
    // (research problem 3: one access point, no profile redefinition).
    let mut clients = Vec::new();
    for (host, _) in servers.iter().skip(1) {
        let client = system.add_client(host);
        system
            .subscribe_text(host, client, r#"collection = "Hamilton.news""#)
            .expect("profile");
        clients.push((*host, client));
    }

    let sent_before = system.metrics().counter("net.sent");
    system
        .rebuild(
            "Hamilton",
            "news",
            vec![SourceDocument::new("n1", "issue one of the newsletter")],
        )
        .expect("rebuild");
    system.run_until_quiet(SimTime::from_secs(30));

    println!("event flooding trace (GDS tree, dotted arrows of Figure 2):");
    for entry in system.sim().trace() {
        if entry.summary.contains("Broadcast") || entry.summary.contains("Deliver") {
            println!(
                "  [{:>9}] {} -> {}",
                entry.at.to_string(),
                system.sim().node_name(entry.from),
                system.sim().node_name(entry.to),
            );
        }
    }

    println!();
    let mut notified = 0;
    for (host, client) in &clients {
        let inbox = system.take_notifications(host, *client);
        println!("  {host}: {} notification(s)", inbox.len());
        assert_eq!(inbox.len(), 1, "exactly-once delivery at {host}");
        notified += inbox.len();
    }
    assert_eq!(notified, 6);
    println!(
        "\nall {} subscribers notified exactly once; {} messages used for the broadcast",
        notified,
        system.metrics().counter("net.sent") - sent_before,
    );
}
