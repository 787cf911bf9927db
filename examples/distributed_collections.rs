//! Figure 1 as a runnable scenario: distributed Greenstone collections.
//!
//! Reconstructs the paper's example installation — hosts `Hamilton` and
//! `London`, collections `A`–`G` including the distributed collection
//! `Hamilton.D` (data set *d* plus sub-collection `London.E`), the
//! virtual collection `Hamilton.C`, and the private collection
//! `London.G` reachable only through `London.F` — then exercises the GS
//! protocol exactly as Section 3 walks through it.
//!
//! Run with `cargo run -p gsa-integration --example distributed_collections`.

use gsa_core::System;
use gsa_gds::figure2_tree;
use gsa_greenstone::{CollectionConfig, GsError, SubCollectionRef};
use gsa_store::{Query, SourceDocument};
use gsa_types::{CollectionId, SimDuration, SimTime};

fn doc(id: &str, text: &str) -> SourceDocument {
    SourceDocument::new(id, text)
}

fn main() {
    let mut system = System::new(1);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("London", "gds-2");

    // --- Hamilton: A, B, C (virtual), D (distributed) ------------------
    system.add_collection("Hamilton", CollectionConfig::simple("A", "collection A"));
    system.add_collection("Hamilton", CollectionConfig::simple("B", "collection B"));
    // C is virtual: no own data set, aggregates A.
    system.add_collection(
        "Hamilton",
        CollectionConfig::simple("C", "virtual collection C").with_subcollection(
            SubCollectionRef::new("a", CollectionId::new("Hamilton", "A")),
        ),
    );
    // D holds data set d and the remote sub-collection London.E.
    system.add_collection(
        "Hamilton",
        CollectionConfig::simple("D", "distributed collection D").with_subcollection(
            SubCollectionRef::new("e", CollectionId::new("London", "E")),
        ),
    );

    // --- London: E, F, G (private, under F) ----------------------------
    system.add_collection("London", CollectionConfig::simple("E", "collection E"));
    system.add_collection(
        "London",
        CollectionConfig::simple("F", "collection F").with_subcollection(
            SubCollectionRef::new("g", CollectionId::new("London", "G")),
        ),
    );
    system.add_collection("London", CollectionConfig::simple("G", "private collection G").private());

    // Data sets (squares in Figure 1).
    system.rebuild("Hamilton", "A", vec![doc("a1", "alpha animals")]).unwrap();
    system.rebuild("Hamilton", "B", vec![doc("b1", "botany basics")]).unwrap();
    system.rebuild("Hamilton", "D", vec![doc("d1", "dataset d: distributed systems")]).unwrap();
    system.rebuild("London", "E", vec![doc("e1", "dataset e: european history")]).unwrap();
    system.rebuild("London", "F", vec![doc("f1", "dataset f: folklore")]).unwrap();
    system.rebuild("London", "G", vec![doc("g1", "dataset g: guarded content")]).unwrap();
    system.run_until_quiet(SimTime::from_secs(10));

    // --- The Section 3 walk-through: access Hamilton.D -----------------
    println!("fetching Hamilton.D (transparent distributed resolution):");
    let result = system.fetch("Hamilton", "D", SimDuration::from_secs(30));
    for fetched in &result.docs {
        println!("  {} from {}", fetched.doc.id, fetched.collection);
    }
    assert_eq!(result.docs.len(), 2, "d1 locally + e1 from London");
    assert!(result.fatal.is_none());

    // The virtual collection C serves A's data transparently.
    let result = system.fetch("Hamilton", "C", SimDuration::from_secs(30));
    println!("\nfetching virtual Hamilton.C: {} doc(s), from {}",
        result.docs.len(), result.docs[0].collection);
    assert_eq!(result.docs[0].collection, CollectionId::new("Hamilton", "A"));

    // F exposes its private sub-collection G...
    let result = system.fetch("London", "F", SimDuration::from_secs(30));
    println!("\nfetching London.F: {} docs (f1 + private g1 via parent)", result.docs.len());
    assert_eq!(result.docs.len(), 2);

    // ...but G refuses direct access.
    let result = system.fetch("London", "G", SimDuration::from_secs(30));
    println!("fetching London.G directly: {:?}", result.fatal);
    assert_eq!(result.fatal, Some(GsError::PrivateCollection("G".into())));

    // Distributed search over D spans both hosts.
    let query = Query::parse("distributed OR european").expect("query");
    let result = system.search("Hamilton", "D", "text", &query, SimDuration::from_secs(30));
    println!("\nsearching Hamilton.D for `distributed OR european`:");
    for hit in &result.hits {
        println!("  {}", hit.doc);
    }
    assert_eq!(result.hits.len(), 2);

    // The GDS naming service locates servers without knowing addresses.
    let gds_node = system.resolve("Hamilton", "London", SimDuration::from_secs(10));
    println!("\nGDS naming service: London is served by {:?}", gds_node.unwrap());
}
