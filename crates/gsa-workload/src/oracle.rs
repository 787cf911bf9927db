//! Ground truth for delivery-quality experiments.
//!
//! The oracle computes, for a generated world + profile population +
//! rebuild schedule + churn schedule, exactly which (profile, rebuild)
//! notification pairs a *correct* alerting service must deliver:
//!
//! * a rebuild of collection `c` is announced under `c` itself (if
//!   public) and under every ancestor super-collection, local or remote
//!   (the Section 4.2 origin-rewriting semantics),
//! * a profile must be notified when any announced origin's event
//!   matches it,
//! * cancelled profiles must not be notified after their cancellation,
//! * pairs whose timing makes correctness ambiguous (event in flight
//!   while the subscription is cancelled, publisher or subscriber
//!   partitioned around publish time) are *don't-care*: they count
//!   neither as false positives nor as false negatives.
//!
//! Don't-care windows are keyed on **publish time only** — a fault
//! window (partition or merged `CrashServer` downtime) voids a pair
//! only when it overlaps `rebuild.at ± grace`. Deliveries themselves
//! carry no timestamp into classification, so a notification whose
//! *delivery* is deferred past the fault — a digest flush, a throttle
//! release, a retry after restart — is still judged against the full
//! contract rather than excused by a window it never published into.

use crate::runners::rebuild_docs;
use crate::{GsWorld, ProfilePopulation, RebuildSchedule};
use gsa_types::{CollectionId, Event, EventId, EventKind, HostName, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// The classification of one scheme's deliveries against the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Quality {
    /// Pairs a correct service must deliver.
    pub expected: usize,
    /// Expected pairs that were delivered (at least once).
    pub delivered: usize,
    /// Expected pairs never delivered.
    pub false_negatives: usize,
    /// Delivered pairs that are neither expected nor don't-care.
    pub false_positives: usize,
    /// Extra deliveries of already-delivered pairs.
    pub duplicates: usize,
    /// Deliveries falling into don't-care windows (not judged).
    pub dont_care: usize,
}

impl Quality {
    /// Recall: delivered / expected (1.0 when nothing was expected).
    pub fn recall(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.expected as f64
        }
    }
}

impl fmt::Display for Quality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expected={} delivered={} fn={} fp={} dup={} recall={:.3}",
            self.expected,
            self.delivered,
            self.false_negatives,
            self.false_positives,
            self.duplicates,
            self.recall()
        )
    }
}

/// The ground-truth notification set: `(profile, rebuild, origin)`
/// triples. One rebuild can be announced under several origins (the
/// sub-collection itself and each super-collection), and a profile may
/// legitimately be notified under each origin it matches.
#[derive(Debug, Clone)]
pub struct Oracle {
    expected: BTreeSet<(usize, usize, CollectionId)>,
    /// Don't-care applies to the whole (profile, rebuild) pair.
    dont_care: BTreeSet<(usize, usize)>,
}

impl Oracle {
    /// Builds the oracle.
    ///
    /// * `cancels` — profile index → cancellation time,
    /// * `partitions` — host → closed intervals during which it was cut
    ///   off,
    /// * `grace` — the ambiguity window around cancellations and
    ///   partitions (should exceed the end-to-end delivery latency).
    pub fn build(
        world: &GsWorld,
        population: &ProfilePopulation,
        schedule: &RebuildSchedule,
        cancels: &HashMap<usize, SimTime>,
        partitions: &HashMap<HostName, Vec<(SimTime, SimTime)>>,
        grace: SimDuration,
    ) -> Oracle {
        let parents = parent_map(world);
        let public = visibility_map(world);
        let mut expected = BTreeSet::new();
        let mut dont_care = BTreeSet::new();

        for (k, rebuild) in schedule.rebuilds.iter().enumerate() {
            let origins = announced_origins(&rebuild.collection, &parents, &public);
            let docs = rebuild_docs(k, rebuild.docs);
            let events: Vec<Event> = origins
                .iter()
                .map(|o| {
                    Event::new(
                        EventId::new(o.host().clone(), k as u64),
                        o.clone(),
                        EventKind::CollectionRebuilt,
                        rebuild.at,
                    )
                    .with_docs(docs.iter().map(|d| d.summary(200)).collect())
                })
                .collect();
            let publisher_cut = host_cut_around(partitions, rebuild.collection.host(), rebuild.at, grace);
            for (p, (sub_host, _topic, expr)) in population.profiles.iter().enumerate() {
                let matching: Vec<&Event> =
                    events.iter().filter(|e| expr.matches_event(e)).collect();
                if matching.is_empty() {
                    continue;
                }
                // Cancellation semantics.
                if let Some(cancel_at) = cancels.get(&p) {
                    if rebuild.at + grace >= *cancel_at {
                        if rebuild.at < *cancel_at + grace {
                            dont_care.insert((p, k));
                        }
                        // Published clearly after cancel: not expected and
                        // a delivery would be a false positive, so do not
                        // mark don't-care.
                        continue;
                    }
                }
                // Partition ambiguity. Origin hosts other than the
                // publisher (super-collection re-issuers) retry until
                // acknowledged, so only publisher and subscriber cuts
                // create ambiguity.
                if publisher_cut || host_cut_around(partitions, sub_host, rebuild.at, grace) {
                    dont_care.insert((p, k));
                    continue;
                }
                for e in matching {
                    expected.insert((p, k, e.origin.clone()));
                }
            }
        }
        Oracle {
            expected,
            dont_care,
        }
    }

    /// Classifies a scheme's deliveries (`(profile index, rebuild index,
    /// announced origin)`, one entry per delivered notification,
    /// duplicates included).
    pub fn classify(&self, deliveries: &[(usize, usize, CollectionId)]) -> Quality {
        let mut counts: BTreeMap<&(usize, usize, CollectionId), usize> = BTreeMap::new();
        for d in deliveries {
            *counts.entry(d).or_default() += 1;
        }
        let mut q = Quality {
            expected: self.expected.len(),
            ..Quality::default()
        };
        for (triple, n) in &counts {
            q.duplicates += n - 1;
            if self.expected.contains(*triple) {
                q.delivered += 1;
            } else if self.dont_care.contains(&(triple.0, triple.1)) {
                q.dont_care += 1;
            } else {
                q.false_positives += 1;
            }
        }
        q.false_negatives = self.expected.len() - q.delivered;
        q
    }
}

/// collection → collections that list it as a sub-collection.
fn parent_map(world: &GsWorld) -> BTreeMap<CollectionId, Vec<CollectionId>> {
    let mut parents: BTreeMap<CollectionId, Vec<CollectionId>> = BTreeMap::new();
    for (host, configs) in &world.collections {
        for config in configs {
            let parent_id = CollectionId::new(host.clone(), config.name.clone());
            for sub in &config.subcollections {
                parents
                    .entry(sub.target.clone())
                    .or_default()
                    .push(parent_id.clone());
            }
        }
    }
    parents
}

fn visibility_map(world: &GsWorld) -> BTreeMap<CollectionId, bool> {
    let mut out = BTreeMap::new();
    for (host, configs) in &world.collections {
        for config in configs {
            out.insert(
                CollectionId::new(host.clone(), config.name.clone()),
                config.visibility.is_public(),
            );
        }
    }
    out
}

/// The origins under which a rebuild of `c` is announced: `c` itself and
/// every ancestor, filtered to public collections, cycle-guarded.
fn announced_origins(
    c: &CollectionId,
    parents: &BTreeMap<CollectionId, Vec<CollectionId>>,
    public: &BTreeMap<CollectionId, bool>,
) -> Vec<CollectionId> {
    let mut seen: BTreeSet<CollectionId> = BTreeSet::new();
    let mut stack = vec![c.clone()];
    while let Some(current) = stack.pop() {
        if !seen.insert(current.clone()) {
            continue;
        }
        if let Some(ps) = parents.get(&current) {
            stack.extend(ps.iter().cloned());
        }
    }
    seen.into_iter()
        .filter(|id| public.get(id).copied().unwrap_or(false))
        .collect()
}

fn host_cut_around(
    partitions: &HashMap<HostName, Vec<(SimTime, SimTime)>>,
    host: &HostName,
    at: SimTime,
    grace: SimDuration,
) -> bool {
    let Some(intervals) = partitions.get(host) else {
        return false;
    };
    let window_end = at + grace;
    intervals
        .iter()
        .any(|(start, end)| *start <= window_end && at <= *end + grace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProfileMix, WorldParams};

    fn setup() -> (GsWorld, ProfilePopulation, RebuildSchedule) {
        let world = GsWorld::generate(&WorldParams::small(11));
        let pop = ProfilePopulation::generate(12, &world, 30, &ProfileMix::equality_only());
        let schedule =
            RebuildSchedule::generate(13, &world, 20, SimDuration::from_secs(60), 3);
        (world, pop, schedule)
    }

    #[test]
    fn perfect_delivery_classifies_clean() {
        let (world, pop, schedule) = setup();
        let oracle = Oracle::build(
            &world,
            &pop,
            &schedule,
            &HashMap::new(),
            &HashMap::new(),
            SimDuration::from_secs(2),
        );
        assert!(!oracle.expected.is_empty(), "workload should match something");
        // Deliver exactly the expected set.
        let deliveries: Vec<(usize, usize, CollectionId)> = oracle.expected.iter().cloned().collect();
        let q = oracle.classify(&deliveries);
        assert_eq!(q.false_negatives, 0);
        assert_eq!(q.false_positives, 0);
        assert_eq!(q.duplicates, 0);
        assert_eq!(q.recall(), 1.0);
    }

    #[test]
    fn missing_and_extra_deliveries_are_counted() {
        let (world, pop, schedule) = setup();
        let oracle = Oracle::build(
            &world,
            &pop,
            &schedule,
            &HashMap::new(),
            &HashMap::new(),
            SimDuration::from_secs(2),
        );
        let mut deliveries: Vec<(usize, usize, CollectionId)> =
            oracle.expected.iter().cloned().collect();
        let dropped = deliveries.pop().unwrap();
        // A duplicate and a bogus extra.
        deliveries.push(deliveries[0].clone());
        deliveries.push((9999, 9999, CollectionId::new("ghost", "x")));
        let q = oracle.classify(&deliveries);
        assert_eq!(q.false_negatives, 1);
        assert_eq!(q.false_positives, 1);
        assert_eq!(q.duplicates, 1);
        assert!(!oracle.expected.contains(&(dropped.0, 123456, dropped.2.clone())));
    }

    #[test]
    fn cancelled_profiles_are_not_expected_after_cancel() {
        let (world, pop, schedule) = setup();
        let clean = Oracle::build(
            &world,
            &pop,
            &schedule,
            &HashMap::new(),
            &HashMap::new(),
            SimDuration::from_secs(2),
        );
        // Cancel every profile at t=0: nothing is expected any more.
        let cancels: HashMap<usize, SimTime> =
            (0..pop.len()).map(|p| (p, SimTime::ZERO)).collect();
        let cancelled = Oracle::build(
            &world,
            &pop,
            &schedule,
            &cancels,
            &HashMap::new(),
            SimDuration::from_secs(2),
        );
        assert!(clean.expected.len() > cancelled.expected.len());
        assert_eq!(cancelled.expected.len(), 0);
        // A delivery for a cancelled profile is a false positive — pick a
        // rebuild clearly after the cancellation grace window.
        let pair = clean
            .expected
            .iter()
            .find(|(_, k, _)| schedule.rebuilds[*k].at >= SimTime::from_secs(5))
            .cloned()
            .expect("an expected pair after the grace window");
        let q = cancelled.classify(&[pair]);
        assert_eq!(q.false_positives, 1);
    }

    #[test]
    fn partitioned_windows_are_dont_care() {
        let (world, pop, schedule) = setup();
        // Partition every host for the whole run.
        let partitions: HashMap<HostName, Vec<(SimTime, SimTime)>> = world
            .hosts
            .iter()
            .map(|h| (h.clone(), vec![(SimTime::ZERO, SimTime::from_secs(600))]))
            .collect();
        let oracle = Oracle::build(
            &world,
            &pop,
            &schedule,
            &HashMap::new(),
            &partitions,
            SimDuration::from_secs(2),
        );
        assert_eq!(oracle.expected.len(), 0);
        // Nothing delivered is still clean.
        let q = oracle.classify(&[]);
        assert_eq!(q.false_negatives, 0);
        assert_eq!(q.recall(), 1.0);
    }

    #[test]
    fn crash_window_over_the_digest_flush_does_not_void_a_due_pair() {
        // Regression: crash windows merge into the same don't-care map
        // as partitions, and that map must stay keyed on publish time.
        // A CrashServer window that overlaps only the *digest flush*
        // (minutes after the rebuild published cleanly) must neither
        // demote the pair to don't-care nor excuse a missing delivery.
        let (world, pop, schedule) = setup();
        let grace = SimDuration::from_secs(2);
        let clean = Oracle::build(
            &world,
            &pop,
            &schedule,
            &HashMap::new(),
            &HashMap::new(),
            grace,
        );
        let (p, k, origin) = clean.expected.iter().next().cloned().unwrap();
        let publish = schedule.rebuilds[k].at;
        // The digest interval dwarfs the grace window, so a crash that
        // swallows the flush timer is far clear of publish ± grace.
        let flush_at = publish + SimDuration::from_secs(300);
        let partitions: HashMap<HostName, Vec<(SimTime, SimTime)>> = world
            .hosts
            .iter()
            .map(|h| (h.clone(), vec![(flush_at, flush_at + SimDuration::from_secs(8))]))
            .collect();
        let oracle = Oracle::build(&world, &pop, &schedule, &HashMap::new(), &partitions, grace);
        assert!(
            oracle.expected.contains(&(p, k, origin.clone())),
            "a pair published cleanly stays expected"
        );
        // Delivered (late, out of the flushed digest): judged as a hit.
        let q = oracle.classify(&[(p, k, origin.clone())]);
        assert_eq!(q.delivered, 1, "the late digest delivery counts");
        assert_eq!(q.dont_care, 0, "the crash window must not absorb it");
        // Never delivered: judged as a miss, not excused.
        let q = oracle.classify(&[]);
        assert!(
            q.false_negatives >= 1,
            "dropping the due digest is a real false negative"
        );
    }

    #[test]
    fn ancestor_announcements_are_expected() {
        // The seeded world has a collection with a public parent on
        // another host: a rebuild of the child is announced under it.
        let (world, _, _) = setup();
        let parents = parent_map(&world);
        let public = visibility_map(&world);
        let (child, remote_parent) = parents
            .iter()
            .find_map(|(child, ps)| {
                ps.iter()
                    .find(|p| p.host() != child.host() && public[*p])
                    .map(|p| (child, p))
            })
            .expect("seed 11 has a public parent on another host");
        let origins = announced_origins(child, &parents, &public);
        assert!(
            origins.contains(remote_parent),
            "remote super-collection must be announced"
        );
    }
}
