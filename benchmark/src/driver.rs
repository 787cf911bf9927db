//! One repetition: deploy, subscribe, publish in bursts, drain, verify.
//!
//! The publisher is an open loop in simulated time — a burst of 32
//! publishes every 10 ms of `SimTime`, whatever the system's progress —
//! and the harness is a closed loop in wall time: it drives the
//! simulator as fast as it goes, so throughput is work completed per
//! wall second at the stated input size.

use crate::gen::{Needs, Subscription};
use crate::stats;
use crate::sut::{Batch, Build, Delivery, Deployment, Oracle, OracleKind, OracleProfile};
use crate::trace::Tracer;
use crate::workloads::{
    import_is_update, previous_ids, Host, Inputs, Publisher, Tree, Workload, BURST, BURST_GAP_US,
    CHURN_EVERY, CHURN_LIFE_BURSTS, DRAIN_EVERY,
};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// Simulated time set-up runs for after the last initial subscription.
const SETUP_SETTLE_MS: u64 = 5_000;
/// Simulated time the run continues after the last burst, so that every
/// retransmission (0.5 s doubling to 4 s) has landed before the check.
const SETTLE_MS: u64 = 30_000;
/// Churned profiles alive at once: one is added per [`CHURN_EVERY`]
/// publishes and cancelled [`CHURN_LIFE_BURSTS`] bursts later.
const CHURN_LIVE: usize = CHURN_LIFE_BURSTS * BURST / CHURN_EVERY;

/// The system counters whose change over the measured region is kept.
pub const COUNTERS: [&str; 17] = [
    "net.sent",
    "net.bytes_sent",
    "net.delivered",
    "net.dropped",
    "net.retransmits",
    "wire.batch.coalesced",
    "wire.batch.flushes",
    "gds.messages",
    "gds.pruned_edges",
    "gds.rendezvous_confined",
    "gds.summary_updates",
    "core.probe_skip",
    "core.probe_pass",
    "core.decode_error",
    "state.journal_appends",
    "alerts.suppressed",
    "alert.notifications",
];

/// What every repetition of a run shares: the inputs and the expected
/// deliveries the benchmark computed from them.
pub struct Plan {
    pub workload: &'static Workload,
    pub inputs: Inputs,
    pub publishers: Vec<Publisher>,
    pub subscribers: Vec<Host>,
    /// Expected (client, event) pairs of the initial live profiles, sorted.
    static_pairs: Vec<(u64, u32)>,
    /// Per churned profile, the events its text matches, ascending.
    churn_matches: Vec<Rc<Vec<u32>>>,
    /// Every live initial client: the mailboxes that are drained.
    watched: Vec<(usize, u64)>,
}

impl Plan {
    pub fn new(workload: &'static Workload, inputs: Inputs) -> Plan {
        let publishers = workload.publishers();
        let subscribers = workload.subscribers();

        // What subscribers should see: every build announced under the
        // anchor collection (a sub-collection's rebuild arrives re-issued
        // under its super-collection's name).
        let mut oracle = Oracle::default();
        let anchor = &publishers[0];
        for (e, p) in inputs.publishes.iter().enumerate() {
            let kind = match workload.build {
                Build::Rebuild => OracleKind::Rebuilt,
                Build::Import if import_is_update(workload, e) => OracleKind::Updated,
                Build::Import => OracleKind::Added,
            };
            let removed = previous_ids(workload.build, publishers.len(), &inputs.publishes, e);
            oracle.push(
                &anchor.host.name,
                anchor.collection,
                kind,
                &p.docs,
                &removed,
            );
        }

        // A profile is evaluated against the events that carry the
        // word it needs (see `Needs`), once per distinct text.
        let mut events_with: HashMap<&str, Vec<u32>> = HashMap::new();
        for (e, p) in (0u32..).zip(&inputs.publishes) {
            for word in p.docs.iter().flat_map(|d| d.words()) {
                let events = events_with.entry(word).or_default();
                if events.last() != Some(&e) {
                    events.push(e);
                }
            }
        }
        let every_event: Vec<u32> = (0..inputs.publishes.len() as u32).collect();
        let mut by_text: HashMap<String, Rc<Vec<u32>>> = HashMap::new();
        let mut matches_of = |sub: &Subscription| -> Rc<Vec<u32>> {
            let candidates = match &sub.needs {
                Needs::Nothing => return Rc::default(),
                Needs::Word(word) => events_with
                    .get(word.as_str())
                    .map_or(&[][..], Vec::as_slice),
                Needs::Anchor => &every_event,
            };
            Rc::clone(by_text.entry(sub.text.clone()).or_insert_with(|| {
                let profile = OracleProfile::parse(&sub.text).expect("generated profiles parse");
                Rc::new(
                    candidates
                        .iter()
                        .copied()
                        .filter(|&e| oracle.matches(&profile, e))
                        .collect(),
                )
            }))
        };
        let mut static_pairs = Vec::new();
        let mut watched = Vec::new();
        for sub in &inputs.subscriptions {
            if sub.needs != Needs::Nothing {
                watched.push((sub.server, sub.client));
                static_pairs.extend(matches_of(sub).iter().map(|&e| (sub.client, e)));
            }
        }
        let churn_matches = inputs.churn.iter().map(|c| matches_of(&c.sub)).collect();
        static_pairs.sort_unstable();
        Plan {
            workload,
            inputs,
            publishers,
            subscribers,
            static_pairs,
            churn_matches,
            watched,
        }
    }
}

/// The outcome of checking one repetition's deliveries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// (client, event) pairs that had to arrive.
    pub expected: usize,
    pub false_negatives: usize,
    pub false_positives: usize,
    pub duplicates: usize,
    /// Notifications the system counted beyond those found in the
    /// drained mailboxes: a profile nobody watches fired.
    pub stray: usize,
    /// The first wrong pair, for the failure message.
    pub first_bad: Option<(u64, u32, &'static str)>,
    pub direct: usize,
    pub rewritten: usize,
}

impl Verdict {
    pub fn failures(&self) -> usize {
        self.false_negatives + self.false_positives + self.duplicates + self.stray
    }
}

/// One repetition's measurements.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub events: usize,
    pub steps: usize,
    /// Change of each of [`COUNTERS`] over the measured region.
    pub counters: [u64; COUNTERS.len()],
    /// Every drained notification, sorted.
    pub deliveries: Vec<Delivery>,
    pub verdict: Verdict,
    /// `Notification.at` minus the publish call's `SimTime`, per checked
    /// delivery, in microseconds.
    pub latencies_us: Vec<f64>,
    pub peak_rss_mib: f64,
    pub burst_wall_us: Vec<f64>,
    /// API calls the system refused (publish, subscribe, cancel).
    pub refused: usize,
    pub churn_ops: usize,
    /// Per-call durations of the initial subscribes (traced runs only).
    pub subscribe_ns: Vec<f64>,
}

impl Rep {
    pub fn counter(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("a kept counter");
        self.counters[i]
    }

    /// Operations attempted: expected pairs, publishes and churn calls.
    pub fn attempted(&self) -> usize {
        self.verdict.expected + self.events + self.churn_ops
    }

    pub fn failed(&self) -> usize {
        self.verdict.failures() + self.refused
    }
}

/// How steady a run's repetitions were: events per second of each, how
/// many ran below 0.9 CPU/wall (something else had the processor), and
/// how far apart the rates are as a share of their median.
pub struct Noise {
    pub rates: Vec<f64>,
    pub starved: usize,
    pub spread: f64,
}

impl Noise {
    pub fn of(reps: &[Rep]) -> Noise {
        let rates: Vec<f64> = reps.iter().map(|r| r.events as f64 / r.wall_s).collect();
        Noise {
            starved: reps.iter().filter(|r| r.cpu_s / r.wall_s < 0.9).count(),
            spread: stats::relative_spread(&rates),
            rates,
        }
    }
}

fn snapshot(d: &Deployment) -> [u64; COUNTERS.len()] {
    COUNTERS.map(|name| d.counter(name))
}

/// Runs one repetition on a fresh deployment.
pub fn run_rep(plan: &Plan, tracer: &mut Tracer) -> Rep {
    let w = plan.workload;
    let inputs = &plan.inputs;
    let mut refused = 0;

    // --- set-up -----------------------------------------------------
    let setup_started = Instant::now();
    tracer.enter("setup", 0);
    tracer.enter("setup.topology", 0);
    let mut d = Deployment::new(w.switches, inputs.link_base_us);
    match w.tree {
        Tree::Figure2 => d.add_figure2_tree(),
        Tree::Exact(n) => d.add_exact_tree(n),
    }
    for host in plan
        .publishers
        .iter()
        .map(|p| &p.host)
        .chain(&plan.subscribers)
    {
        d.add_server(&host.name, &host.gds);
    }
    match &plan.publishers[..] {
        [only] => d.add_collection(&only.host.name, only.collection),
        [sup, sub] => {
            d.add_collection(&sub.host.name, sub.collection);
            d.add_collection_over(
                &sup.host.name,
                sup.collection,
                &sub.host.name,
                sub.collection,
            );
        }
        _ => unreachable!("one or two publishers"),
    }
    tracer.exit();
    let mut subscribe_ns = Vec::new();
    for (k, block) in inputs.subscriptions.chunks(1_000).enumerate() {
        tracer.enter("setup.subscribe", k as u32);
        for sub in block {
            let started = tracer.enabled().then(Instant::now);
            if d.subscribe(&plan.subscribers[sub.server].name, sub.client, &sub.text)
                .is_none()
            {
                refused += 1;
            }
            if let Some(t) = started {
                subscribe_ns.push(t.elapsed().as_nanos() as f64);
            }
        }
        tracer.exit();
    }
    tracer.span("setup.settle", |_| d.settle(SETUP_SETTLE_MS));
    tracer.exit();
    let setup_s = setup_started.elapsed().as_secs_f64();
    if w.link_drop > 0.0 {
        d.set_link_drop(w.link_drop);
    }

    // --- measured region --------------------------------------------
    let events = inputs.publishes.len();
    let before = snapshot(&d);
    let cpu_before = stats::process_cpu_s();
    let region_started = Instant::now();
    tracer.enter("run", 0);
    let start_us = d.now_us() + BURST_GAP_US;
    let mut publish_at = Vec::with_capacity(events);
    let mut deliveries: Vec<Delivery> = Vec::new();
    let mut burst_wall_us = Vec::with_capacity(events / BURST);
    let mut steps = 0;
    // Per churned profile: the system's profile id, and the simulated
    // times of its subscribe and cancel calls.
    let mut churn_ids: Vec<Option<u64>> = vec![None; inputs.churn.len()];
    let mut churn_window = vec![(0u64, u64::MAX); inputs.churn.len()];
    let mut churn_next = 0;
    let mut churn_drained = 0;
    let mut churn_ops = 0;

    for (b, burst) in inputs.publishes.chunks(BURST).enumerate() {
        let burst_started = Instant::now();
        tracer.enter("burst", b as u32);
        let at = start_us + b as u64 * BURST_GAP_US;
        steps += tracer.span("advance", |_| d.advance_to(at));
        for (i, p) in burst.iter().enumerate() {
            let e = b * BURST + i;
            let target = &plan.publishers[p.publisher];
            let batch = Batch::new(&p.docs, e as u32);
            let ok = tracer.span("publish", |_| {
                d.publish(w.build, &target.host.name, target.collection, batch)
            });
            refused += usize::from(!ok);
            publish_at.push(at);

            if inputs
                .churn
                .get(churn_next)
                .is_some_and(|c| c.after_publish == e)
            {
                let sub = &inputs.churn[churn_next].sub;
                let host = &plan.subscribers[sub.server].name;
                let id = tracer.span("churn.subscribe", |_| {
                    d.subscribe(host, sub.client, &sub.text)
                });
                refused += usize::from(id.is_none());
                churn_ids[churn_next] = id;
                churn_window[churn_next].0 = at;
                churn_ops += 1;
                if let Some(old) = churn_next.checked_sub(CHURN_LIVE) {
                    if let Some(id) = churn_ids[old] {
                        let host = &plan.subscribers[inputs.churn[old].sub.server].name;
                        let ok = tracer.span("churn.unsubscribe", |_| d.unsubscribe(host, id));
                        refused += usize::from(!ok);
                        churn_window[old].1 = at;
                        churn_ops += 1;
                    }
                }
                churn_next += 1;
            }
        }
        if (b + 1) % DRAIN_EVERY == 0 {
            tracer.enter("drain", 0);
            drain(plan, &mut d, churn_drained..churn_next, &mut deliveries);
            tracer.exit();
            // A profile cancelled before this drain has had its last look.
            churn_drained = churn_next.saturating_sub(CHURN_LIVE);
        }
        tracer.exit();
        burst_wall_us.push(burst_started.elapsed().as_secs_f64() * 1e6);
    }
    steps += tracer.span("settle", |_| d.settle(SETTLE_MS));
    tracer.enter("drain", 0);
    drain(plan, &mut d, churn_drained..churn_next, &mut deliveries);
    tracer.exit();
    tracer.exit();
    let wall_s = region_started.elapsed().as_secs_f64();
    let cpu_s = stats::process_cpu_s() - cpu_before;
    let after = snapshot(&d);
    let mut counters = [0; COUNTERS.len()];
    for (delta, (a, b)) in counters.iter_mut().zip(after.iter().zip(&before)) {
        *delta = a - b;
    }

    // --- verification (outside the region) ----------------------------
    tracer.enter("verify", 0);
    deliveries.sort_unstable();
    let notified = COUNTERS
        .iter()
        .zip(&counters)
        .find_map(|(name, n)| (*name == "alert.notifications").then_some(*n as usize))
        .expect("a kept counter");
    let (verdict, latencies_us) = verify(plan, &deliveries, &churn_window, &publish_at, notified);
    tracer.exit();
    let peak_rss_mib = stats::peak_rss_mib();

    Rep {
        setup_s,
        wall_s,
        cpu_s,
        events,
        steps,
        counters,
        deliveries,
        verdict,
        latencies_us,
        peak_rss_mib,
        burst_wall_us,
        refused,
        churn_ops,
        subscribe_ns,
    }
}

/// Empties every watched mailbox and those of churned profiles `churned`.
fn drain(
    plan: &Plan,
    d: &mut Deployment,
    churned: std::ops::Range<usize>,
    out: &mut Vec<Delivery>,
) {
    for &(server, client) in &plan.watched {
        d.drain(&plan.subscribers[server].name, client, out);
    }
    for c in &plan.inputs.churn[churned] {
        d.drain(&plan.subscribers[c.sub.server].name, c.sub.client, out);
    }
}

/// Compares the drained notifications with the expected set.
///
/// An initial profile must see every event it matches, exactly once. A
/// churned profile must see exactly the matching events that *reached
/// its server while it was registered*: under link loss a retransmitted
/// event can arrive seconds after it was published, so the publish time
/// does not decide this, the arrival time does — and the witness profile
/// on each server (which matches every event) reports it. An event that
/// arrives in the very instant of the subscribe or cancel call is
/// don't-care.
fn verify(
    plan: &Plan,
    deliveries: &[Delivery],
    churn_window: &[(u64, u64)],
    publish_at: &[u64],
    notified: usize,
) -> (Verdict, Vec<f64>) {
    let inputs = &plan.inputs;
    let events = inputs.publishes.len();

    let mut expected = plan.static_pairs.clone();
    let mut dont_care: Vec<(u64, u32)> = Vec::new();
    if !inputs.churn.is_empty() {
        // arrival[server][event]
        let mut arrival = vec![vec![None; events]; plan.subscribers.len()];
        for d in deliveries {
            if let Some(server) = inputs.witnesses.iter().position(|&c| c == d.client) {
                if let Some(slot) = arrival[server].get_mut(d.event as usize) {
                    *slot = Some(d.at_us);
                }
            }
        }
        for ((c, matches), &(sub_at, cancel_at)) in inputs
            .churn
            .iter()
            .zip(&plan.churn_matches)
            .zip(churn_window)
        {
            for &e in matches.iter() {
                // An event that never reached the server is already a
                // false negative of the witness.
                let Some(at) = arrival[c.sub.server][e as usize] else {
                    continue;
                };
                if at == sub_at || at == cancel_at {
                    dont_care.push((c.sub.client, e));
                } else if sub_at < at && at < cancel_at {
                    expected.push((c.sub.client, e));
                }
            }
        }
        expected.sort_unstable();
        dont_care.sort_unstable();
    }

    let mut verdict = Verdict {
        expected: expected.len(),
        ..Verdict::default()
    };
    let mut latencies_us = Vec::with_capacity(expected.len());
    let bad = |v: &mut Verdict, client, event, what| {
        v.first_bad.get_or_insert((client, event, what));
    };
    let mut want = expected.iter().copied().peekable();
    let mut previous = None;
    for d in deliveries {
        let pair = (d.client, d.event);
        if previous == Some(pair) {
            verdict.duplicates += 1;
            bad(&mut verdict, d.client, d.event, "delivered twice");
            continue;
        }
        previous = Some(pair);
        while let Some(missing) = want.next_if(|&w| w < pair) {
            verdict.false_negatives += 1;
            bad(
                &mut verdict,
                missing.0,
                missing.1,
                "expected, not delivered",
            );
        }
        if want.next_if_eq(&pair).is_some() {
            latencies_us.push((d.at_us - publish_at[d.event as usize]) as f64);
            if d.rewritten {
                verdict.rewritten += 1;
            } else {
                verdict.direct += 1;
            }
        } else if dont_care.binary_search(&pair).is_err() {
            verdict.false_positives += 1;
            bad(&mut verdict, d.client, d.event, "delivered, not expected");
        }
    }
    for missing in want {
        verdict.false_negatives += 1;
        bad(
            &mut verdict,
            missing.0,
            missing.1,
            "expected, not delivered",
        );
    }
    verdict.stray = notified.abs_diff(deliveries.len());
    (verdict, latencies_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, generate};

    const LATENCY_US: u64 = 5_000;

    fn plan(workload: &str, events: usize) -> (Plan, Vec<u64>) {
        let w = by_name(workload).expect("a workload of that name");
        let plan = Plan::new(w, generate(w, 11, events, 50));
        let publish_at = (0..events)
            .map(|e| 10_000 * (1 + e / BURST) as u64)
            .collect();
        (plan, publish_at)
    }

    /// What a faultless system would put in the mailboxes of the initial
    /// profiles.
    fn perfect(plan: &Plan, publish_at: &[u64]) -> Vec<Delivery> {
        plan.static_pairs
            .iter()
            .map(|&(client, event)| Delivery {
                client,
                event,
                at_us: publish_at[event as usize] + LATENCY_US,
                rewritten: false,
            })
            .collect()
    }

    #[test]
    fn a_faultless_run_passes_and_every_fault_is_counted() {
        let (plan, publish_at) = plan("flood_sparse", 256);
        let good = perfect(&plan, &publish_at);
        assert!(good.len() > 50, "the expectation is not vacuous");
        let check = |d: &[Delivery], notified| verify(&plan, d, &[], &publish_at, notified).0;

        let v = check(&good, good.len());
        assert_eq!((v.expected, v.failures()), (good.len(), 0));

        let v = check(&good[1..], good.len() - 1);
        assert_eq!((v.false_negatives, v.failures()), (1, 1));
        assert_eq!(
            v.first_bad,
            Some((good[0].client, good[0].event, "expected, not delivered"))
        );

        let mut twice = good.clone();
        twice.insert(1, good[0]);
        let v = check(&twice, twice.len());
        assert_eq!((v.duplicates, v.failures()), (1, 1));

        // An event the profile does not match.
        let mut extra = good.clone();
        let unmatched = (0..256).find(|e| {
            !good
                .iter()
                .any(|d| d.client == good[0].client && d.event == *e)
        });
        extra.push(Delivery {
            event: unmatched.expect("a hot profile misses some event"),
            ..good[0]
        });
        extra.sort_unstable();
        let v = check(&extra, extra.len());
        assert_eq!((v.false_positives, v.failures()), (1, 1));

        // A profile nobody watches fired: only the system's counter shows it.
        let v = check(&good, good.len() + 3);
        assert_eq!((v.stray, v.failures()), (3, 3));
    }

    #[test]
    fn a_churned_profile_is_held_to_what_arrived_while_it_was_registered() {
        let (plan, publish_at) = plan("production_churn", 512);
        let base = perfect(&plan, &publish_at);
        let (j, matches) = plan
            .churn_matches
            .iter()
            .enumerate()
            .find(|(_, m)| m.len() >= 3)
            .expect("some churned profile matches three events");
        let client = plan.inputs.churn[j].sub.client;
        let arrival = |e: u32| publish_at[e as usize] + LATENCY_US;
        let (first, second, third) = (matches[0], matches[1], matches[2]);
        // Registered from the instant the first match arrives until just
        // after the second: the first is don't-care, the second due, the
        // third must not arrive.
        let mut windows = vec![(0, 0); plan.inputs.churn.len()];
        windows[j] = (arrival(first), arrival(second) + 1);
        let deliver = |e: u32| Delivery {
            client,
            event: e,
            at_us: arrival(e),
            rewritten: false,
        };
        let run = |extra: &[u32]| {
            let mut d = base.clone();
            d.extend(extra.iter().map(|&e| deliver(e)));
            d.sort_unstable();
            let notified = d.len();
            verify(&plan, &d, &windows, &publish_at, notified).0
        };
        if arrival(second) == arrival(first) {
            return; // both in one burst: no interior to test on this seed
        }
        assert_eq!(run(&[second]).failures(), 0);
        assert_eq!(
            run(&[first, second]).failures(),
            0,
            "the edge instant is don't-care"
        );
        assert_eq!(run(&[]).false_negatives, 1);
        if arrival(third) > arrival(second) + 1 {
            assert_eq!(run(&[second, third]).false_positives, 1);
        }
    }
}
