//! The four workloads: what is deployed, who subscribes to what, what is
//! published. Each stresses a different set of layers; `why` is the one
//! line `BENCHMARK.json` records and `README.md` expands.

use crate::gen::{cold_profile, Digest, Generator, Needs, Publish, Shape, Subscription, DOC_POOL};
use crate::sut::{Build, Switches};

/// Publishes per burst; a burst is injected every [`BURST_GAP_US`] of
/// simulated time whatever the system's progress.
pub const BURST: usize = 32;
pub const BURST_GAP_US: u64 = 10_000;
/// Mailboxes are drained every this many bursts.
pub const DRAIN_EVERY: usize = 32;
/// A churned profile is cancelled this many bursts after it was added.
pub const CHURN_LIFE_BURSTS: usize = 16;
/// One subscribe (and one cancel) follows every this many publishes.
pub const CHURN_EVERY: usize = 8;
/// `--seconds` value the frozen event counts were calibrated at.
pub const REFERENCE_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tree {
    Figure2,
    Exact(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub switches: Switches,
    pub tree: Tree,
    pub build: Build,
    /// Cold profiles, spread evenly over the subscriber servers.
    pub cold: usize,
    /// Mixed live profiles (creator / subject / `text ?` / wildcard).
    pub mixed: usize,
    /// The subscriber servers the mixed profiles are dealt to, in turn.
    /// A server named twice holds twice the share, which moves the median
    /// of latency off the boundary between two servers' latency clusters
    /// (where it would jump between seeds).
    pub mixed_on: &'static [usize],
    /// One hot creator-equality profile per subscriber server, by Zipf
    /// rank of the creator; empty for none.
    pub hot_ranks: &'static [usize],
    pub shape: Shape,
    /// Repetitions of one run, each on a fresh deployment: five where
    /// set-up is cheap, four where it takes seconds.
    pub reps: usize,
    /// Publishes in one repetition at `--seconds 10`, frozen after one
    /// calibration on the 2-core reference box so that the repetitions
    /// of a run measure for about ten seconds together.
    pub events_at_reference: usize,
    pub churn: bool,
    /// Per-link drop probability switched on after set-up.
    pub link_drop: f64,
}

const SMALL_DOCS: Shape = Shape {
    creators: 200,
    subjects: 100,
    terms: 2_000,
    title_words: 500,
    docs_per_event: 2,
    words_per_doc: 40,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flood_sparse",
        why: "200-node tree, 204 routed messages per event and almost nothing to match: simnet, gds and frozen-payload forwarding do the work",
        switches: Switches::V2,
        tree: Tree::Exact(200),
        build: Build::Import,
        cold: 100_000,
        mixed: 0,
        mixed_on: &[],
        // The watchers sit 3, 6, 8 and 10 hops from the publisher; these
        // ranks put the median and the 99th percentile of latency inside
        // one watcher's cluster, not on the boundary between two.
        hot_ranks: &[0, 1, 3, 2],
        shape: SMALL_DOCS,
        reps: 5,
        events_at_reference: 8_192,
        churn: false,
        link_drop: 0.0,
    },
    Workload {
        name: "paper_match",
        why: "Figure-2 tree in the paper's configuration, 50k mixed profiles on one collection, direct and aux-forwarded rebuilds: filter, residuals, XML codec, build and mailboxes do the work",
        switches: Switches::Paper,
        tree: Tree::Figure2,
        build: Build::Rebuild,
        cold: 5_000,
        mixed: 45_000,
        mixed_on: &[0, 1, 2],
        hot_ranks: &[],
        // Sized so one 4-document rebuild matches about 0.5 % of the
        // profiles (about 250 notifications per event).
        shape: Shape {
            creators: 800,
            subjects: 600,
            terms: 8_000,
            title_words: 2_000,
            docs_per_event: 4,
            words_per_doc: 40,
        },
        reps: 5,
        events_at_reference: 96,
        churn: false,
        link_drop: 0.0,
    },
    Workload {
        name: "million_cold",
        why: "40-node tree, a million cold profiles on the default filter engine, nothing matches: index size, probe rejection, set-up time and memory are the headline",
        switches: Switches::V2,
        tree: Tree::Exact(40),
        build: Build::Import,
        cold: 1_000_000,
        mixed: 0,
        mixed_on: &[],
        hot_ranks: &[0, 1, 2, 3],
        shape: SMALL_DOCS,
        reps: 4,
        events_at_reference: 24_576,
        churn: false,
        link_drop: 0.0,
    },
    Workload {
        name: "production_churn",
        why: "40-node tree with every shipped switch on, 2 % link loss, subscribe and cancel interleaved with matching: writes beside reads on filter, journal, summaries and retransmission",
        switches: Switches::Production,
        tree: Tree::Exact(40),
        build: Build::Import,
        cold: 500,
        mixed: 4_500,
        // The watchers sit 5, 3, 7 and 8 hops from the publisher.
        mixed_on: &[0, 1, 2, 2, 3],
        hot_ranks: &[],
        // Half paper_match's vocabularies for half its documents per
        // event: the same 0.5 % of profiles match.
        shape: Shape {
            creators: 400,
            subjects: 300,
            terms: 4_000,
            title_words: 1_000,
            docs_per_event: 2,
            words_per_doc: 40,
        },
        reps: 4,
        events_at_reference: 2_432,
        churn: true,
        link_drop: 0.02,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A server and the directory node it registers at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    pub name: String,
    pub gds: String,
}

/// A collection that is built during the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Publisher {
    pub host: Host,
    pub collection: &'static str,
}

impl Workload {
    /// The publishers, in the order `Publish::publisher` indexes them.
    /// On `paper_match` the second is a remote sub-collection of the
    /// first, so its rebuilds reach subscribers re-issued under the
    /// first's name.
    pub fn publishers(&self) -> Vec<Publisher> {
        let host = |name: &str, gds: String| Host {
            name: name.into(),
            gds,
        };
        match self.tree {
            Tree::Figure2 => vec![
                Publisher {
                    host: host("Hamilton", "gds-4".into()),
                    collection: "D",
                },
                Publisher {
                    host: host("London", "gds-2".into()),
                    collection: "E",
                },
            ],
            // The deepest node: every flood crosses the whole tree.
            Tree::Exact(n) => vec![Publisher {
                host: host("Hamilton", format!("gds-{n}")),
                collection: "D",
            }],
        }
    }

    /// The collection every live profile is anchored on: the first
    /// publisher's, in `host.name` notation.
    pub fn anchor(&self) -> String {
        let first = &self.publishers()[0];
        format!("{}.{}", first.host.name, first.collection)
    }

    pub fn subscribers(&self) -> Vec<Host> {
        match self.tree {
            Tree::Figure2 => [("Berlin", "gds-3"), ("Paris", "gds-5"), ("Sydney", "gds-7")]
                .iter()
                .map(|(name, gds)| Host {
                    name: (*name).into(),
                    gds: (*gds).into(),
                })
                .collect(),
            Tree::Exact(n) => (0..4)
                .map(|w| Host {
                    name: format!("watcher-{w}"),
                    gds: format!("gds-{}", 1 + w * (n - 1) / 4),
                })
                .collect(),
        }
    }

    /// Publishes per repetition for a `--seconds` value: the frozen
    /// count scaled linearly, in whole bursts.
    pub fn events_for(&self, seconds: u64) -> usize {
        let scaled = self.events_at_reference as u64 * seconds / REFERENCE_SECONDS;
        (scaled as usize / BURST).max(1) * BURST
    }
}

/// One subscribe-then-cancel of the churn stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnProfile {
    pub sub: Subscription,
    /// Publish index the subscribe follows.
    pub after_publish: usize,
}

/// Everything a repetition feeds the system, generated from the seed.
pub struct Inputs {
    pub subscriptions: Vec<Subscription>,
    /// Per subscriber server, the client whose profile matches every
    /// event; its notification times say when each event reached that
    /// server, which is what decides a churned profile's deliveries.
    pub witnesses: Vec<u64>,
    pub publishes: Vec<Publish>,
    pub churn: Vec<ChurnProfile>,
    /// Base latency of every link in microseconds: 1 ms plus up to 4 us
    /// drawn from the seed, so that no two seeds simulate the identical
    /// network and every simulated-time metric differs between them.
    pub link_base_us: u64,
    pub digest: u64,
}

/// Generates a workload's inputs. `population_div` shrinks the profile
/// populations (the smoke check runs at 1/50); the event count is given.
pub fn generate(w: &Workload, seed: u64, events: usize, population_div: usize) -> Inputs {
    let servers = w.subscribers().len();
    let anchor = w.anchor();
    let mut gen = Generator::new(seed ^ fnv(w.name), w.shape);
    let mut digest = Digest::default();
    let mut subscriptions: Vec<Subscription> = Vec::new();
    // One client per profile; the client id is the subscription's index.
    let mut push = |server: usize, text: String, needs: Needs| {
        digest.feed(&text);
        let client = subscriptions.len() as u64;
        subscriptions.push(Subscription {
            server,
            client,
            text,
            needs,
        });
        client
    };

    // Live profiles first, so they take the low profile ids whatever the
    // cold population's size.
    let mut witnesses = Vec::new();
    if w.churn {
        for server in 0..servers {
            let text = format!(r#"collection = "{anchor}""#);
            witnesses.push(push(server, text, Needs::Anchor));
        }
    }
    for (server, &rank) in w.hot_ranks.iter().enumerate() {
        let (text, word) = Generator::hot_profile(&anchor, rank);
        push(server, text, Needs::Word(word));
    }
    for i in 0..w.mixed / population_div {
        let (text, word) = gen.mixed_profile(&anchor);
        push(w.mixed_on[i % w.mixed_on.len()], text, Needs::Word(word));
    }
    for i in 0..w.cold / population_div {
        push(
            i % servers,
            cold_profile(i % servers, i / servers),
            Needs::Nothing,
        );
    }

    let publishers = w.publishers().len();
    let publishes: Vec<Publish> = (0..events)
        .map(|e| {
            let docs = gen.docs();
            docs.iter().for_each(|d| digest.feed_doc(d));
            Publish {
                publisher: e % publishers,
                docs,
            }
        })
        .collect();

    let mut churn = Vec::new();
    if w.churn {
        for j in 0..events / CHURN_EVERY {
            let rank = gen.rng().below(16.min(w.shape.creators));
            let (text, word) = Generator::hot_profile(&anchor, rank);
            digest.feed(&text);
            let client = (subscriptions.len() + j) as u64;
            churn.push(ChurnProfile {
                sub: Subscription {
                    server: j % servers,
                    client,
                    text,
                    needs: Needs::Word(word),
                },
                after_publish: (j + 1) * CHURN_EVERY - 1,
            });
        }
    }

    let link_base_us = 1_000 + gen.rng().below(5) as u64;
    digest.feed(&link_base_us.to_string());
    Inputs {
        subscriptions,
        witnesses,
        publishes,
        churn,
        link_base_us,
        digest: digest.value(),
    }
}

/// Document ids build `e` replaces, for the oracle: a rebuild drops the
/// documents of the same collection's previous build, `publishers`
/// events earlier; an import drops none.
pub fn previous_ids(
    build: Build,
    publishers: usize,
    publishes: &[Publish],
    e: usize,
) -> Vec<String> {
    match e.checked_sub(publishers) {
        Some(prev) if build == Build::Rebuild => {
            publishes[prev].docs.iter().map(|d| d.id.clone()).collect()
        }
        _ => Vec::new(),
    }
}

/// Whether an import of event `e` meets only ids the store already holds
/// (the pool has cycled), which the system announces as an update.
pub fn import_is_update(w: &Workload, e: usize) -> bool {
    e * w.shape.docs_per_event >= DOC_POOL
}

fn fnv(s: &str) -> u64 {
    let mut d = Digest::default();
    d.feed(s);
    d.value()
}
