//! Deterministic chaos: the seeded fault plans from `gsa-workload`
//! replayed through the scheme runners, three fixed seeds.
//!
//! The contract under test is the robustness claim of the reliability
//! layer: with ambient loss, a loss burst, a transient GDS-node crash
//! and a partition wave all in one run, the reliable hybrid still
//! classifies perfectly against the oracle — zero false negatives, zero
//! false positives, zero duplicates — while the best-effort hybrid
//! measurably loses notifications on the same workload and faults.

use gsa_types::{HostName, SimDuration};
use gsa_workload::{
    run_scheme, FaultPlan, FaultPlanParams, GsWorld, Oracle, ProfileMix, ProfilePopulation,
    RebuildSchedule, RunConfig, Scheme, WorldParams,
};

const SEEDS: [u64; 3] = [41, 42, 43];

struct ChaosCell {
    world: GsWorld,
    population: ProfilePopulation,
    schedule: RebuildSchedule,
    faults: FaultPlan,
    fanout: usize,
}

fn cell(seed: u64) -> ChaosCell {
    let params = WorldParams {
        servers: 16,
        ..WorldParams::small(seed)
    };
    let world = GsWorld::generate(&params);
    let population = ProfilePopulation::generate(seed + 1, &world, 30, &ProfileMix::default());
    let horizon = SimDuration::from_secs(40);
    let schedule = RebuildSchedule::generate(seed + 2, &world, 12, horizon, 3);
    let fanout = 2;
    let (topo, _) = world.gds_tree(fanout);
    let crashable: Vec<HostName> = topo
        .specs()
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| s.name.clone())
        .collect();
    let faults = FaultPlan::generate(
        seed + 3,
        &crashable,
        &world.hosts,
        &FaultPlanParams {
            horizon,
            base_drop: 0.2,
            burst_drop: 0.4,
            loss_bursts: 1,
            crashes: 1,
            crash_outage: SimDuration::from_secs(6),
            partition_waves: 1,
            partition_length: SimDuration::from_secs(5),
            server_crashes: 0,
            server_outage: SimDuration::from_secs(8),
        },
    );
    ChaosCell {
        world,
        population,
        schedule,
        faults,
        fanout,
    }
}

fn run(cell: &ChaosCell, reliable: bool, pruned: bool) -> (gsa_workload::Quality, u64) {
    let outcome = run_scheme(
        Scheme::Hybrid,
        &cell.world,
        &cell.population,
        &cell.schedule,
        &[],
        &RunConfig {
            seed: 99,
            fanout: cell.fanout,
            drain: SimDuration::from_secs(40),
            reliable,
            pruned,
            base_drop: 0.2,
            faults: Some(cell.faults.clone()),
            durable: false,
            ..RunConfig::default()
        },
    );
    let oracle = Oracle::build(
        &cell.world,
        &cell.population,
        &cell.schedule,
        &outcome.cancels,
        &outcome.partitions,
        SimDuration::from_secs(5),
    );
    (oracle.classify(&outcome.deliveries), outcome.pruned_edges)
}

#[test]
fn reliable_hybrid_is_perfect_under_seeded_chaos() {
    for seed in SEEDS {
        let cell = cell(seed);
        assert!(!cell.faults.is_empty(), "the plan actually schedules faults");
        let (q, _) = run(&cell, true, false);
        assert!(q.expected > 0, "seed {seed}: workload produced deliveries");
        assert_eq!(q.false_negatives, 0, "seed {seed}: no lost notifications");
        assert_eq!(q.false_positives, 0, "seed {seed}: no spurious notifications");
        assert_eq!(q.duplicates, 0, "seed {seed}: no duplicate notifications");
    }
}

/// Pruning must not dent the robustness claim: with summaries steering
/// the flood *and* the full fault plan in force, the reliable hybrid
/// still classifies perfectly against the same oracle.
#[test]
fn reliable_pruned_hybrid_is_perfect_under_seeded_chaos() {
    for seed in SEEDS {
        let cell = cell(seed);
        let (q, pruned_edges) = run(&cell, true, true);
        assert!(q.expected > 0, "seed {seed}: workload produced deliveries");
        assert_eq!(q.false_negatives, 0, "seed {seed}: no lost notifications");
        assert_eq!(q.false_positives, 0, "seed {seed}: no spurious notifications");
        assert_eq!(q.duplicates, 0, "seed {seed}: no duplicate notifications");
        assert!(
            pruned_edges > 0,
            "seed {seed}: pruning actually engaged under chaos"
        );
    }
}

#[test]
fn best_effort_hybrid_measurably_fails_on_the_same_chaos() {
    let mut lost = 0;
    for seed in SEEDS {
        let cell = cell(seed);
        lost += run(&cell, false, false).0.false_negatives;
    }
    assert!(
        lost > 0,
        "best-effort delivery must lose notifications under 0.2+ loss and crashes \
         (otherwise the chaos plan is too gentle to prove anything)"
    );
}
