//! Integration tests for the Section 7 case analysis: every way a
//! super↔sub connection can be disturbed, and the reconciliation after.

use gsa_core::{System, SystemConfig};
use gsa_gds::figure2_tree;
use gsa_greenstone::{CollectionConfig, SubCollectionRef};
use gsa_store::SourceDocument;
use gsa_types::{CollectionId, SimDuration, SimTime};

fn doc(id: &str) -> SourceDocument {
    SourceDocument::new(id, "content")
}

fn world(seed: u64) -> System {
    let mut system = System::new(seed);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("London", "gds-2");
    system.add_collection("London", CollectionConfig::simple("E", "E"));
    system.add_collection(
        "Hamilton",
        CollectionConfig::simple("D", "D").with_subcollection(SubCollectionRef::new(
            "e",
            CollectionId::new("London", "E"),
        )),
    );
    system.run_until_quiet(SimTime::from_secs(5));
    system
}

#[test]
fn notification_is_delayed_not_lost() {
    let mut system = world(1);
    let watcher = system.add_client("Hamilton");
    system
        .subscribe_text("Hamilton", watcher, r#"collection = "Hamilton.D""#)
        .unwrap();
    system.set_partition("London", 1);
    system.run_until(SimTime::from_secs(10));
    system.rebuild("London", "E", vec![doc("e1")]).unwrap();
    system.run_until(SimTime::from_secs(60));
    assert!(system.take_notifications("Hamilton", watcher).is_empty());

    system.heal_network();
    system.run_until_quiet(SimTime::from_secs(200));
    let inbox = system.take_notifications("Hamilton", watcher);
    assert_eq!(inbox.len(), 1, "delayed, not lost");
    assert!(inbox[0].at > SimTime::from_secs(60));
}

#[test]
fn plant_during_partition_arrives_after_heal() {
    let mut system = System::new(2);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("London", "gds-2");
    system.add_collection("London", CollectionConfig::simple("E", "E"));
    system.set_partition("London", 1);
    // The super-collection is created while the sub host is unreachable.
    system.add_collection(
        "Hamilton",
        CollectionConfig::simple("D", "D").with_subcollection(SubCollectionRef::new(
            "e",
            CollectionId::new("London", "E"),
        )),
    );
    system.run_until(SimTime::from_secs(30));
    assert_eq!(system.inspect_core("London", |c| c.aux_store().len()), 0);
    assert_eq!(system.inspect_core("Hamilton", |c| c.pending_ops().len()), 1);

    system.heal_network();
    system.run_until_quiet(SimTime::from_secs(120));
    assert_eq!(system.inspect_core("London", |c| c.aux_store().len()), 1);
    assert_eq!(system.inspect_core("Hamilton", |c| c.pending_ops().len()), 0);
}

#[test]
fn delete_during_partition_reconciles_after_heal() {
    let mut system = world(3);
    system.set_partition("London", 1);
    system.remove_subcollection("Hamilton", "D", "e").unwrap();
    system.run_until(SimTime::from_secs(30));
    assert_eq!(
        system.inspect_core("London", |c| c.aux_store().len()),
        1,
        "the dangling auxiliary profile persists during the partition"
    );
    system.heal_network();
    system.run_until_quiet(SimTime::from_secs(120));
    assert_eq!(system.inspect_core("London", |c| c.aux_store().len()), 0);
    assert_eq!(system.inspect_core("Hamilton", |c| c.pending_ops().len()), 0);
}

/// A sub-collection removed during a partition and added back after the
/// heal keeps its auxiliary profile: the re-add's plant cancels the
/// delete still owed, so the delete's retry cannot take the new profile
/// away, and a later rebuild of the sub-collection reaches the
/// super-collection's watcher.
#[test]
fn a_sub_collection_re_added_after_the_heal_keeps_its_profile() {
    for seed in 1..=3 {
        let mut system = world(seed);
        let watcher = system.add_client("Hamilton");
        system
            .subscribe_text("Hamilton", watcher, r#"collection = "Hamilton.D""#)
            .unwrap();
        system.set_partition("London", 1);
        system.remove_subcollection("Hamilton", "D", "e").unwrap();
        system.run_for(SimDuration::from_millis(300));
        system.heal_network();
        let sub = SubCollectionRef::new("e", CollectionId::new("London", "E"));
        system.add_subcollection("Hamilton", "D", sub).unwrap();
        system.run_until_quiet(system.now() + SimDuration::from_secs(60));
        assert_eq!(
            system.inspect_core("London", |c| c.aux_store().len()),
            1,
            "seed {seed}: the re-added profile stays planted"
        );
        assert_eq!(system.inspect_core("Hamilton", |c| c.pending_ops().len()), 0);

        system.rebuild("London", "E", vec![doc("e1")]).unwrap();
        system.run_until_quiet(system.now() + SimDuration::from_secs(60));
        let inbox = system.take_notifications("Hamilton", watcher);
        assert_eq!(inbox.len(), 1, "seed {seed}: the rebuild reaches Hamilton.D");
    }
}

#[test]
fn delete_replay_after_heal_survives_message_loss() {
    // Section 7's deletion replay, hardened: the partition heals onto a
    // *lossy* network, so the queued Delete and its Ack each face a 20 %
    // drop on every hop. The auxiliary-operation log keeps re-sending
    // until the ack lands; the dangling auxiliary profile must still be
    // reaped exactly as in the clean-network case.
    let reliable = SystemConfig { reliable: true, ..SystemConfig::default() };
    let mut system = System::with_config(7, reliable);
    system.add_gds_topology(&figure2_tree());
    system.add_server("Hamilton", "gds-4");
    system.add_server("London", "gds-2");
    system.add_collection("London", CollectionConfig::simple("E", "E"));
    system.add_collection(
        "Hamilton",
        CollectionConfig::simple("D", "D").with_subcollection(SubCollectionRef::new(
            "e",
            CollectionId::new("London", "E"),
        )),
    );
    system.run_until_quiet(SimTime::from_secs(5));
    assert_eq!(system.inspect_core("London", |c| c.aux_store().len()), 1);

    system.set_partition("London", 1);
    system.remove_subcollection("Hamilton", "D", "e").unwrap();
    system.run_until(SimTime::from_secs(30));
    assert_eq!(
        system.inspect_core("London", |c| c.aux_store().len()),
        1,
        "the dangling auxiliary profile persists during the partition"
    );

    // Heal the partition but keep every link lossy from here on.
    system.set_drop_probability(0.2);
    system.heal_network();
    system.run_until_quiet(SimTime::from_secs(300));
    assert_eq!(
        system.inspect_core("London", |c| c.aux_store().len()),
        0,
        "the delete replay got through despite the loss"
    );
    assert_eq!(system.inspect_core("Hamilton", |c| c.pending_ops().len()), 0);
    assert!(
        system.metrics().counter("net.dropped") > 0,
        "the lossy phase actually dropped traffic"
    );
}

#[test]
fn dangling_profile_never_notifies_users_of_removed_super() {
    // Section 7's key argument: a dangling auxiliary profile "would
    // trigger notifications towards the super-collection only (which
    // cannot be reached)" — no user sees anything wrong.
    let mut system = world(4);
    let watcher = system.add_client("Hamilton");
    system
        .subscribe_text("Hamilton", watcher, r#"collection = "Hamilton.D""#)
        .unwrap();
    system.set_partition("London", 1);
    // The super-collection drops the sub while partitioned: the delete is
    // queued, the aux profile dangles on London.
    system.remove_subcollection("Hamilton", "D", "e").unwrap();
    // The dangling profile fires on a rebuild...
    system.run_until(SimTime::from_secs(10));
    system.rebuild("London", "E", vec![doc("e1")]).unwrap();
    system.run_until(SimTime::from_secs(40));
    // ...but the forwarded event cannot reach Hamilton, and after the
    // heal Hamilton no longer has the sub-collection reference, so the
    // rewrite is refused and the user never hears about it.
    system.heal_network();
    system.run_until_quiet(SimTime::from_secs(300));
    let inbox = system.take_notifications("Hamilton", watcher);
    assert!(
        inbox.is_empty(),
        "no user-visible false positive from the dangling profile"
    );
    // And the system reconciled fully.
    assert_eq!(system.inspect_core("London", |c| c.aux_store().len()), 0);
}

#[test]
fn repeated_partitions_still_deliver_exactly_once() {
    let mut system = world(5);
    let watcher = system.add_client("Hamilton");
    system
        .subscribe_text("Hamilton", watcher, r#"collection = "Hamilton.D""#)
        .unwrap();
    // Flap the network across the rebuild several times.
    system.set_partition("London", 1);
    system.run_until(SimTime::from_secs(10));
    system.rebuild("London", "E", vec![doc("e1")]).unwrap();
    for round in 0..4 {
        let base = 20 + round * 20;
        system.run_until(SimTime::from_secs(base));
        system.heal_network();
        system.run_until(SimTime::from_secs(base + 1));
        system.set_partition("London", 1);
    }
    system.heal_network();
    system.run_until_quiet(SimTime::from_secs(400));
    let inbox = system.take_notifications("Hamilton", watcher);
    assert_eq!(
        inbox.len(),
        1,
        "retries across flapping links must not duplicate"
    );
}

#[test]
fn rebuild_while_super_host_down_delivers_after_restart() {
    let mut system = world(6);
    let watcher = system.add_client("Hamilton");
    system
        .subscribe_text("Hamilton", watcher, r#"collection = "Hamilton.D""#)
        .unwrap();
    system.set_host_up("Hamilton", false);
    system.run_until(SimTime::from_secs(10));
    system.rebuild("London", "E", vec![doc("e1")]).unwrap();
    system.run_until(SimTime::from_secs(40));
    system.set_host_up("Hamilton", true);
    system.run_until_quiet(SimTime::from_secs(200));
    let inbox = system.take_notifications("Hamilton", watcher);
    assert_eq!(inbox.len(), 1, "host restart behaves like a healed link");
}

/// The crash model, a pinned modelling choice: a crash wipes a server's
/// volatile state but keeps its auxiliary-operation log (a real crash
/// would lose it). London crashes and restarts while a forwarded event
/// to a partitioned Hamilton is still owed; the log re-sends it after the
/// heal, and the watcher of `Hamilton.D` hears of the rebuild once.
#[test]
fn a_crash_keeps_the_auxiliary_log_and_delivers_once() {
    for seed in 1..=3 {
        let mut system = world(seed);
        let watcher = system.add_client("Hamilton");
        system
            .subscribe_text("Hamilton", watcher, r#"collection = "Hamilton.D""#)
            .unwrap();
        system.set_partition("Hamilton", 1);
        system.rebuild("London", "E", vec![doc("e1")]).unwrap();
        system.run_for(SimDuration::from_secs(3));
        assert_eq!(system.inspect_core("London", |c| c.pending_ops().len()), 1);
        system.crash_server("London");
        system.run_for(SimDuration::from_secs(1));
        system.restart_server("London");
        assert_eq!(
            system.inspect_core("London", |c| c.pending_ops().len()),
            1,
            "seed {seed}: the crash kept the forward"
        );
        system.run_for(SimDuration::from_secs(3));
        system.heal_network();
        system.run_until_quiet(system.now() + SimDuration::from_secs(60));
        let inbox = system.take_notifications("Hamilton", watcher);
        assert_eq!(inbox.len(), 1, "seed {seed}: notified exactly once");
        assert_eq!(system.inspect_core("London", |c| c.pending_ops().len()), 0);
    }
}
