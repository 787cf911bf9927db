//! Profile population generation.

use crate::text::SUBJECTS;
use crate::topology::GsWorld;
use gsa_profile::{parse_profile, ProfileExpr};
use gsa_types::{CollectionId, HostName};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The operator mix of a generated profile population (weights, not
/// probabilities — they are normalized).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileMix {
    /// `collection = "host.name"` — watch a whole collection.
    pub watch_collection: f64,
    /// `host = "name"` — watch everything on a host.
    pub watch_host: f64,
    /// `dc.Subject = "..."` — metadata equality.
    pub subject_equals: f64,
    /// `text ? (term)` — a content query over the excerpt.
    pub text_query: f64,
    /// `dc.Title ~ "term*"` — a wildcard over titles.
    pub title_wildcard: f64,
    /// `collection = "host.name" AND kind = "..."` — an anchored
    /// interest tightened to one event kind. These are the profiles the
    /// attribute-digest pruning layer can act on: the announced summary
    /// carries a `kind` equality digest, so a directory node can skip a
    /// subtree for events of any other kind.
    pub kind_equals: f64,
}

impl Default for ProfileMix {
    fn default() -> Self {
        ProfileMix {
            watch_collection: 0.4,
            watch_host: 0.1,
            subject_equals: 0.25,
            text_query: 0.15,
            title_wildcard: 0.1,
            kind_equals: 0.0,
        }
    }
}

impl ProfileMix {
    /// A mix of only equality predicates (the filter engine's fast path).
    pub fn equality_only() -> Self {
        ProfileMix {
            watch_collection: 0.5,
            watch_host: 0.2,
            subject_equals: 0.3,
            text_query: 0.0,
            title_wildcard: 0.0,
            kind_equals: 0.0,
        }
    }

    fn total(&self) -> f64 {
        self.watch_collection
            + self.watch_host
            + self.subject_equals
            + self.text_query
            + self.title_wildcard
            + self.kind_equals
    }
}

/// The event kinds the `kind_equals` class draws from, by weight: most
/// kind-scoped interests watch for new documents.
const KINDS: [&str; 2] = ["documents-added", "collection-rebuilt"];

/// A generated population of profiles, each tagged with the host its
/// owner registers at and a *topic* (the collection it observes, used by
/// the rendezvous baseline).
#[derive(Debug, Clone)]
pub struct ProfilePopulation {
    /// `(subscriber host, topic collection, profile expression)` triples.
    pub profiles: Vec<(HostName, CollectionId, ProfileExpr)>,
}

impl ProfilePopulation {
    /// Generates `count` profiles over the world's public collections.
    /// Subscribers are spread round-robin over all hosts; each profile is
    /// scoped to one collection (its topic).
    ///
    /// # Panics
    ///
    /// Panics when the world has no public collections or the mix sums
    /// to zero.
    pub fn generate(seed: u64, world: &GsWorld, count: usize, mix: &ProfileMix) -> Self {
        let publics = world.public_collections();
        assert!(!publics.is_empty(), "world has no public collections");
        let total = mix.total();
        assert!(total > 0.0, "profile mix must have positive weight");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut profiles = Vec::with_capacity(count);
        for i in 0..count {
            let subscriber = world.hosts[i % world.hosts.len()].clone();
            let topic = publics[rng.random_range(0..publics.len())].clone();
            let roll: f64 = rng.random::<f64>() * total;
            let text = if roll < mix.watch_collection {
                format!(r#"collection = "{topic}""#)
            } else if roll < mix.watch_collection + mix.watch_host {
                format!(r#"host = "{}""#, topic.host())
            } else if roll < mix.watch_collection + mix.watch_host + mix.subject_equals {
                let subject = SUBJECTS[rng.random_range(0..SUBJECTS.len())];
                format!(r#"collection = "{topic}" AND dc.Subject = "{subject}""#)
            } else if roll
                < mix.watch_collection + mix.watch_host + mix.subject_equals + mix.text_query
            {
                let term = format!("term{:05}", rng.random_range(0..200));
                format!(r#"collection = "{topic}" AND text ? ({term})"#)
            } else if roll
                < mix.watch_collection
                    + mix.watch_host
                    + mix.subject_equals
                    + mix.text_query
                    + mix.title_wildcard
            {
                let prefix = format!("term{:03}", rng.random_range(0..99));
                format!(r#"collection = "{topic}" AND dc.Title ~ "*{prefix}*""#)
            } else {
                // Skewed 3:1 toward documents-added — the hot subgroup
                // the rendezvous election is meant to find.
                let kind = KINDS[usize::from(rng.random_range(0..4u8) == 3)];
                format!(r#"collection = "{topic}" AND kind = "{kind}""#)
            };
            let expr = parse_profile(&text).expect("generated profile parses");
            profiles.push((subscriber, topic, expr));
        }
        ProfilePopulation { profiles }
    }

    /// Number of profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::WorldParams;

    fn world() -> GsWorld {
        GsWorld::generate(&WorldParams::small(3))
    }

    #[test]
    fn generation_is_deterministic() {
        let w = world();
        let a = ProfilePopulation::generate(5, &w, 20, &ProfileMix::default());
        let b = ProfilePopulation::generate(5, &w, 20, &ProfileMix::default());
        assert_eq!(a.profiles.len(), b.profiles.len());
        for (x, y) in a.profiles.iter().zip(b.profiles.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn profiles_are_spread_over_hosts() {
        let w = world();
        let p = ProfilePopulation::generate(1, &w, w.hosts.len() * 2, &ProfileMix::default());
        for host in &w.hosts {
            assert!(
                p.profiles.iter().filter(|(h, _, _)| h == host).count() >= 1,
                "host {host} got no profiles"
            );
        }
    }

    #[test]
    fn equality_only_mix_has_no_queries() {
        let w = world();
        let p = ProfilePopulation::generate(2, &w, 50, &ProfileMix::equality_only());
        for (_, _, expr) in &p.profiles {
            let s = expr.to_string();
            assert!(!s.contains('?'), "unexpected query in {s}");
            assert!(!s.contains('~'), "unexpected wildcard in {s}");
        }
        assert_eq!(p.len(), 50);
        assert!(!p.is_empty());
    }

    #[test]
    fn attr_clustered_mix_produces_kind_digestible_profiles() {
        let w = world();
        // Dominated by kind-tightened interests: most subscribers care
        // about one event kind of their topic.
        let attr_clustered = ProfileMix {
            watch_collection: 0.2,
            watch_host: 0.0,
            subject_equals: 0.1,
            text_query: 0.0,
            title_wildcard: 0.0,
            kind_equals: 0.7,
        };
        let p = ProfilePopulation::generate(3, &w, 60, &attr_clustered);
        let kind_scoped = p
            .profiles
            .iter()
            .filter(|(_, _, expr)| expr.to_string().contains("kind ="))
            .count();
        assert!(
            kind_scoped >= 60 / 2,
            "attr-clustered mix should be dominated by kind-scoped \
             profiles, got {kind_scoped}/60"
        );
        // Every kind-scoped profile digests to a summary with a kind
        // constraint — the pruning layer's raw material.
        for (_, _, expr) in &p.profiles {
            if !expr.to_string().contains("kind =") {
                continue;
            }
            let summary = gsa_profile::interests_of(expr);
            assert!(
                summary.attr_constraint("kind").is_some(),
                "kind-scoped profile lost its digest: {expr}"
            );
        }
    }

    #[test]
    fn topics_are_public_collections() {
        let w = world();
        let publics = w.public_collections();
        let p = ProfilePopulation::generate(7, &w, 30, &ProfileMix::default());
        for (_, topic, _) in &p.profiles {
            assert!(publics.contains(topic));
        }
    }
}
