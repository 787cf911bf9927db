//! Fragmented Greenstone worlds: hosts, islands, collections, references.
//!
//! The generator reproduces the Section 1 network properties: "most
//! servers are solitary installations with only a few references to other
//! servers"; islands of connected servers; cycles are possible. The
//! *references* between servers are not free-floating edges — they are
//! derived from remote sub-collection links, exactly as in Greenstone.

use gsa_gds::{balanced_tree, GdsTopology};
use gsa_greenstone::{CollectionConfig, SubCollectionRef};
use gsa_types::{CollectionId, HostName};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Parameters of a generated world.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldParams {
    /// RNG seed.
    pub seed: u64,
    /// Number of Greenstone servers.
    pub servers: usize,
    /// Probability a server is a solitary installation (its own island).
    pub p_solitary: f64,
    /// Maximum island size for non-solitary servers.
    pub max_island: usize,
    /// Collections per server.
    pub collections_per_server: usize,
    /// Probability a collection references a remote sub-collection on
    /// another server of the same island.
    pub p_remote_sub: f64,
    /// Probability of an *extra* remote reference (this is what creates
    /// cycles).
    pub p_extra_edge: f64,
    /// Probability a collection is private (reachable only via a local
    /// parent, which the generator adds).
    pub p_private: f64,
}

impl Default for WorldParams {
    fn default() -> Self {
        WorldParams {
            seed: 42,
            servers: 20,
            p_solitary: 0.5,
            max_island: 5,
            collections_per_server: 2,
            p_remote_sub: 0.5,
            p_extra_edge: 0.15,
            p_private: 0.1,
        }
    }
}

impl WorldParams {
    /// Small preset used in unit tests and quick examples.
    pub fn small(seed: u64) -> Self {
        WorldParams {
            seed,
            servers: 8,
            ..WorldParams::default()
        }
    }
}

/// A generated Greenstone world.
#[derive(Debug, Clone)]
pub struct GsWorld {
    /// All server host names (`gs-0`, `gs-1`, ...).
    pub hosts: Vec<HostName>,
    /// Host → its collection configurations.
    pub collections: BTreeMap<HostName, Vec<CollectionConfig>>,
    /// The islands (connected components by construction).
    pub islands: Vec<Vec<HostName>>,
    /// Directed server references derived from remote sub-collections.
    pub references: Vec<(HostName, HostName)>,
}

impl GsWorld {
    /// Generates a world from parameters. Deterministic per seed.
    ///
    /// # Panics
    ///
    /// Panics when `servers` or `collections_per_server` is zero.
    pub fn generate(params: &WorldParams) -> GsWorld {
        assert!(params.servers > 0, "servers must be positive");
        assert!(
            params.collections_per_server > 0,
            "collections_per_server must be positive"
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        let hosts: Vec<HostName> = (0..params.servers)
            .map(|i| HostName::new(format!("gs-{i}")))
            .collect();

        // Partition into islands.
        let mut islands: Vec<Vec<HostName>> = Vec::new();
        let mut i = 0;
        while i < hosts.len() {
            let size = if rng.random_bool(params.p_solitary) {
                1
            } else {
                rng.random_range(2..=params.max_island.max(2))
            };
            let end = (i + size).min(hosts.len());
            islands.push(hosts[i..end].to_vec());
            i = end;
        }

        // Collections: every server gets `collections_per_server`, each
        // with a full-text index. Some are private; private collections
        // get a local public parent so they stay reachable.
        let mut collections: BTreeMap<HostName, Vec<CollectionConfig>> = BTreeMap::new();
        for host in &hosts {
            let mut configs = Vec::new();
            for c in 0..params.collections_per_server {
                let name = format!("c{c}");
                let mut config = CollectionConfig::simple(name.clone(), format!("{host}/{name}"));
                if c > 0 && rng.random_bool(params.p_private) {
                    config = config.private();
                    // Parent it under the host's first (public) collection.
                    let parent: &mut CollectionConfig = &mut configs[0];
                    parent.subcollections.push(SubCollectionRef::new(
                        format!("local-{name}"),
                        CollectionId::new(host.clone(), name.clone()),
                    ));
                }
                configs.push(config);
            }
            collections.insert(host.clone(), configs);
        }

        // Remote sub-collection references within islands.
        let mut references: BTreeSet<(HostName, HostName)> = BTreeSet::new();
        for island in &islands {
            if island.len() < 2 {
                continue;
            }
            for (idx, host) in island.iter().enumerate() {
                // Base connectivity: link each non-first host from its
                // predecessor (a path), so islands are connected.
                let mut targets: Vec<HostName> = Vec::new();
                if idx > 0 {
                    // Base connectivity: always reference the predecessor
                    // so islands are connected by construction.
                    targets.push(island[idx - 1].clone());
                }
                // Optional extra edge anywhere in the island (cycles).
                if rng.random_bool(params.p_extra_edge) {
                    let other = &island[rng.random_range(0..island.len())];
                    if other != host {
                        targets.push(other.clone());
                    }
                }
                // Optional additional reference per p_remote_sub.
                if rng.random_bool(params.p_remote_sub) {
                    let other = &island[rng.random_range(0..island.len())];
                    if other != host {
                        targets.push(other.clone());
                    }
                }
                for target in targets {
                    // host's first collection references target's first
                    // (public) collection.
                    let sub_id = CollectionId::new(target.clone(), "c0");
                    let parent = collections
                        .get_mut(host)
                        .and_then(|cs| cs.first_mut())
                        .expect("collections exist");
                    let alias = format!("sub-{target}");
                    if parent.subcollection(&alias.clone().into()).is_none() {
                        parent
                            .subcollections
                            .push(SubCollectionRef::new(alias, sub_id));
                        references.insert((host.clone(), target.clone()));
                    }
                }
            }
        }

        GsWorld {
            hosts,
            collections,
            islands,
            references: references.into_iter().collect(),
        }
    }

    /// The *bidirectional* neighbour set of a host (references in either
    /// direction) — what the flooding baselines use as their overlay.
    pub fn neighbors(&self, host: &HostName) -> Vec<HostName> {
        let mut out: BTreeSet<HostName> = BTreeSet::new();
        for (a, b) in &self.references {
            if a == host {
                out.insert(b.clone());
            }
            if b == host {
                out.insert(a.clone());
            }
        }
        out.into_iter().collect()
    }

    /// All public collection ids.
    pub fn public_collections(&self) -> Vec<CollectionId> {
        let mut out = Vec::new();
        for (host, configs) in &self.collections {
            for c in configs {
                if c.visibility.is_public() {
                    out.push(CollectionId::new(host.clone(), c.name.clone()));
                }
            }
        }
        out
    }

    /// Builds a GDS tree with the given fanout, deep enough that every
    /// node can take registrations, and assigns each server to a GDS node
    /// round-robin. Returns the topology and the (server → GDS node)
    /// assignment.
    pub fn gds_tree(&self, fanout: usize) -> (GdsTopology, Vec<(HostName, HostName)>) {
        // Depth so that the node count is at least ~sqrt of servers;
        // every GDS node can host many registrations, so any tree works —
        // pick depth 3 for small worlds, grow until node count >=
        // servers/8 + 1.
        let mut depth = 2u8;
        let mut topo = balanced_tree(fanout, depth);
        while topo.len() < self.hosts.len() / 8 + 1 && depth < 6 {
            depth += 1;
            topo = balanced_tree(fanout, depth);
        }
        let names: Vec<HostName> = topo.names().cloned().collect();
        let assignment = self
            .hosts
            .iter()
            .enumerate()
            .map(|(i, h)| (h.clone(), names[i % names.len()].clone()))
            .collect();
        (topo, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = GsWorld::generate(&WorldParams::small(9));
        let b = GsWorld::generate(&WorldParams::small(9));
        assert_eq!(a.hosts, b.hosts);
        assert_eq!(a.references, b.references);
        assert_eq!(a.islands, b.islands);
    }

    /// The island a host belongs to.
    fn island_of<'w>(w: &'w GsWorld, host: &HostName) -> Option<&'w Vec<HostName>> {
        w.islands.iter().find(|i| i.contains(host))
    }

    #[test]
    fn islands_partition_hosts() {
        let w = GsWorld::generate(&WorldParams::default());
        let total: usize = w.islands.iter().map(Vec::len).sum();
        assert_eq!(total, w.hosts.len());
        for host in &w.hosts {
            assert!(island_of(&w, host).is_some());
        }
    }

    #[test]
    fn references_stay_within_islands() {
        let w = GsWorld::generate(&WorldParams::default());
        for (a, b) in &w.references {
            let ia = island_of(&w, a).unwrap();
            assert!(ia.contains(b), "reference {a}->{b} crosses islands");
        }
    }

    #[test]
    fn solitary_servers_exist_and_have_no_neighbors() {
        let params = WorldParams {
            servers: 40,
            ..WorldParams::default()
        };
        let w = GsWorld::generate(&params);
        let solitary = w.islands.iter().filter(|i| i.len() == 1).count();
        assert!(solitary * 5 > w.islands.len(), "fragmentation expected");
        let solo = w
            .islands
            .iter()
            .find(|i| i.len() == 1)
            .expect("a solitary server");
        assert!(w.neighbors(&solo[0]).is_empty());
    }

    #[test]
    fn non_solitary_islands_are_connected_by_references() {
        let w = GsWorld::generate(&WorldParams::default());
        for island in &w.islands {
            if island.len() < 2 {
                continue;
            }
            // Union-find-lite: BFS over bidirectional references.
            let mut reached: BTreeSet<&HostName> = BTreeSet::new();
            let mut stack = vec![&island[0]];
            while let Some(h) = stack.pop() {
                if !reached.insert(h) {
                    continue;
                }
                for n in w.neighbors(h) {
                    if let Some(hn) = island.iter().find(|x| **x == n) {
                        stack.push(hn);
                    }
                }
            }
            assert_eq!(reached.len(), island.len(), "island not connected");
        }
    }

    #[test]
    fn every_server_has_collections_with_indexes() {
        let w = GsWorld::generate(&WorldParams::small(1));
        for host in &w.hosts {
            let configs = &w.collections[host];
            assert!(!configs.is_empty());
            for c in configs {
                assert!(!c.indexes.is_empty());
            }
        }
    }

    #[test]
    fn private_collections_have_local_parents() {
        let params = WorldParams {
            servers: 30,
            collections_per_server: 3,
            p_private: 0.8,
            ..WorldParams::default()
        };
        let w = GsWorld::generate(&params);
        let mut found_private = false;
        for (host, configs) in &w.collections {
            for c in configs {
                if c.visibility.is_public() {
                    continue;
                }
                found_private = true;
                let id = CollectionId::new(host.clone(), c.name.clone());
                let has_parent = configs
                    .iter()
                    .any(|p| p.subcollections.iter().any(|s| s.target == id));
                assert!(has_parent, "private {id} lacks a local parent");
            }
        }
        assert!(found_private, "expected private collections at p=0.8");
    }

    #[test]
    fn gds_tree_assignment_covers_all_hosts() {
        let w = GsWorld::generate(&WorldParams::default());
        let (topo, assignment) = w.gds_tree(3);
        assert!(!topo.is_empty());
        assert_eq!(assignment.len(), w.hosts.len());
        let names: BTreeSet<&HostName> = topo.names().collect();
        for (_, gds) in &assignment {
            assert!(names.contains(gds));
        }
    }

    #[test]
    fn public_collections_listed() {
        let w = GsWorld::generate(&WorldParams::small(2));
        let publics = w.public_collections();
        assert!(!publics.is_empty());
        assert!(publics.len() <= w.hosts.len() * 2);
    }
}
