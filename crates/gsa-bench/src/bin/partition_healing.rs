//! Experiment E5 — the Section 7 discussion, made executable: a severed
//! super↔sub connection only *delays* notifications and auxiliary-profile
//! deletions; it never produces user-visible false positives.
//!
//! The Figure 3 pair (Hamilton.D ⊃ London.E) is partitioned for a swept
//! window; London.E is rebuilt mid-partition. We measure when the
//! Hamilton.D watcher is finally notified, and separately verify that a
//! sub-collection removal during a partition reconciles on heal.

use gsa_bench::Table;
use gsa_core::{CoreConfig, System};
use gsa_greenstone::{CollectionConfig, SubCollectionRef};
use gsa_gds::figure2_tree;
use gsa_types::{CollectionId, SimDuration, SimTime};
use gsa_workload::DocumentGenerator;

fn build_world(seed: u64) -> System {
    let mut system = System::new(seed);
    system.add_gds_topology(&figure2_tree());
    // The defaults are the regime under test: pending operations are
    // retried every two seconds, for ever.
    let cfg = CoreConfig::default();
    system.add_server_with_config("Hamilton", "gds-4", cfg.clone());
    system.add_server_with_config("London", "gds-2", cfg);
    system.add_collection("London", CollectionConfig::simple("E", "e"));
    system.add_collection(
        "Hamilton",
        CollectionConfig::simple("D", "d").with_subcollection(SubCollectionRef::new(
            "e",
            CollectionId::new("London", "E"),
        )),
    );
    system.run_until_quiet(SimTime::from_secs(5));
    system
}

fn main() {
    println!("E5: dangling auxiliary profiles are harmless — notifications are delayed,");
    println!("    deletions reconcile, and no false positives reach users (paper §7)");
    println!();

    let mut table = Table::new(vec![
        "partition-s",
        "rebuild-at-s",
        "heal-at-s",
        "notified-at-s",
        "delay-after-heal-s",
        "false-positives",
    ]);

    for &partition_secs in &[0u64, 5, 15, 30, 60, 120] {
        let mut system = build_world(100 + partition_secs);
        let client = system.add_client("Hamilton");
        system
            .subscribe_text("Hamilton", client, r#"collection = "Hamilton.D""#)
            .expect("profile");
        system.run_until_quiet(SimTime::from_secs(8));

        let t0 = SimTime::from_secs(10);
        system.run_until(t0);
        if partition_secs > 0 {
            system.set_partition("London", 1);
        }
        // Rebuild mid-partition.
        let rebuild_at = t0 + SimDuration::from_secs(1);
        system.run_until(rebuild_at);
        let mut gen = DocumentGenerator::new(7);
        system
            .rebuild("London", "E", gen.documents("e", 3))
            .expect("rebuild");

        let heal_at = t0 + SimDuration::from_secs(partition_secs.max(1));
        system.run_until(heal_at);
        if partition_secs > 0 {
            system.heal_network();
        }
        system.run_until_quiet(heal_at + SimDuration::from_secs(300));

        let inbox = system.take_notifications("Hamilton", client);
        let notified_at = inbox.first().map(|n| n.at);
        // False positive check: exactly one notification, about
        // Hamilton.D, never about a cancelled or unrelated profile.
        let fp = inbox
            .iter()
            .filter(|n| n.event.origin != CollectionId::new("Hamilton", "D"))
            .count()
            + inbox.len().saturating_sub(1);

        let delay_after_heal = notified_at
            .map(|t| t.since(heal_at).as_secs_f64().max(0.0))
            .unwrap_or(f64::NAN);
        table.row(vec![
            partition_secs.to_string(),
            format!("{:.1}", rebuild_at.as_secs_f64()),
            format!("{:.1}", heal_at.as_secs_f64()),
            notified_at
                .map(|t| format!("{:.1}", t.as_secs_f64()))
                .unwrap_or_else(|| "never".into()),
            format!("{delay_after_heal:.1}"),
            fp.to_string(),
        ]);
    }
    println!("{table}");

    // Deletion reconciliation: remove the sub-collection while
    // partitioned; the auxiliary profile on London must be gone after
    // heal, and no notification may leak in between.
    let mut system = build_world(999);
    let client = system.add_client("Hamilton");
    system
        .subscribe_text("Hamilton", client, r#"collection = "Hamilton.D""#)
        .expect("profile");
    system.run_until_quiet(SimTime::from_secs(8));
    system.set_partition("London", 1);
    system
        .remove_subcollection("Hamilton", "D", "e")
        .expect("restructure");
    system.run_for(SimDuration::from_secs(30));
    let aux_during = system.inspect_core("London", |c| c.aux_store().len());
    system.heal_network();
    system.run_for(SimDuration::from_secs(30));
    let aux_after = system.inspect_core("London", |c| c.aux_store().len());
    let pending_after = system.inspect_core("Hamilton", |c| c.pending_ops().len());
    println!();
    println!("deletion during partition: aux profiles on London during partition = {aux_during},");
    println!("after heal = {aux_after}, unacknowledged ops at Hamilton = {pending_after}");
    assert_eq!(aux_after, 0, "deletion must reconcile after heal");
    assert_eq!(pending_after, 0, "delete must be acknowledged after heal");
}
