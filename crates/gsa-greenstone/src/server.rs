//! The Greenstone server: one per host, managing collections and speaking
//! the GS protocol.
//!
//! [`Server`] is a sans-IO state machine: [`Server::handle_message`]
//! consumes one inbound message and returns a [`ServerEffects`] describing
//! what to send next and which locally-initiated requests completed. The
//! simulation actor (in `gsa-core`) and the unit tests drive it the same
//! way.

use crate::collection::{BuildReport, Collection};
use crate::config::CollectionConfig;
use crate::protocol::{
    CollectionInfo, FetchedDoc, GsError, GsMessage, RequestId, SearchHit,
};
use gsa_store::{Query, SourceDocument};
use gsa_types::{CollectionId, CollectionName, DocumentRef, HostName, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// A message to be sent to another host.
#[derive(Debug, Clone, PartialEq)]
pub struct Outbound {
    /// Destination host.
    pub to: HostName,
    /// The message.
    pub msg: GsMessage,
}

/// The aggregated result of a fetch (complete or partial).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FetchResult {
    /// Documents gathered, deduplicated by (collection, doc id).
    pub docs: Vec<FetchedDoc>,
    /// Non-fatal errors from sub-collections.
    pub errors: Vec<GsError>,
    /// Fatal error addressing the root collection, if any.
    pub fatal: Option<GsError>,
}

/// The aggregated result of a search (complete or partial).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchResult {
    /// Matching documents, deduplicated.
    pub hits: Vec<SearchHit>,
    /// Non-fatal errors from sub-collections.
    pub errors: Vec<GsError>,
    /// Fatal error addressing the root collection, if any.
    pub fatal: Option<GsError>,
}

/// Everything a [`Server`] wants done after handling one input.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerEffects {
    /// Messages to transmit.
    pub outbound: Vec<Outbound>,
    /// Locally-initiated fetches that completed.
    pub fetches: Vec<(RequestId, FetchResult)>,
    /// Locally-initiated searches that completed.
    pub searches: Vec<(RequestId, SearchResult)>,
}

impl ServerEffects {
    /// Merges another effect set into this one, preserving order.
    pub fn extend(&mut self, other: ServerEffects) {
        self.outbound.extend(other.outbound);
        self.fetches.extend(other.fetches);
        self.searches.extend(other.searches);
    }
}

/// How long a distributed fetch or search this host started may wait on
/// sub-collections before it completes with partial results.
const REQUEST_TIMEOUT: SimDuration = SimDuration::from_secs(5);

#[derive(Debug, Clone, PartialEq)]
enum ReplyTo {
    Remote { host: HostName, request: RequestId },
    /// This host started the request, at `started`.
    Local { started: SimTime },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Fetch,
    Search,
}

#[derive(Debug)]
struct Pending {
    kind: ReqKind,
    reply: ReplyTo,
    outstanding: usize,
    docs: Vec<FetchedDoc>,
    hits: Vec<SearchHit>,
    errors: Vec<GsError>,
}

/// The per-host Greenstone server.
pub struct Server {
    host: HostName,
    collections: BTreeMap<CollectionName, Collection>,
    next_request: u64,
    pending: HashMap<RequestId, Pending>,
    sub_to_parent: HashMap<RequestId, RequestId>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("host", &self.host)
            .field("collections", &self.collections.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

struct LocalGather {
    docs: Vec<FetchedDoc>,
    hits: Vec<SearchHit>,
    remotes: Vec<CollectionId>,
    errors: Vec<GsError>,
    visited: BTreeSet<CollectionId>,
}

impl Server {
    /// Creates a server for `host` with no collections.
    pub fn new(host: impl Into<HostName>) -> Self {
        Server {
            host: host.into(),
            collections: BTreeMap::new(),
            next_request: 0,
            pending: HashMap::new(),
            sub_to_parent: HashMap::new(),
        }
    }

    /// The host this server runs on.
    pub fn host(&self) -> &HostName {
        &self.host
    }

    /// Adds a collection from its configuration.
    ///
    /// # Errors
    ///
    /// Returns the config back when a collection of that name exists.
    // The Err variant is intentionally the rejected config itself, so the
    // caller keeps ownership; this is a cold path, size is irrelevant.
    #[allow(clippy::result_large_err)]
    pub fn add_collection(&mut self, config: CollectionConfig) -> Result<(), CollectionConfig> {
        if self.collections.contains_key(&config.name) {
            return Err(config);
        }
        self.collections
            .insert(config.name.clone(), Collection::new(config));
        Ok(())
    }

    /// Removes a collection, returning it when present.
    pub fn remove_collection(&mut self, name: &CollectionName) -> Option<Collection> {
        self.collections.remove(name)
    }

    /// Borrows a collection.
    pub fn collection(&self, name: &CollectionName) -> Option<&Collection> {
        self.collections.get(name)
    }

    /// Mutably borrows a collection (restructuring, manual edits).
    pub fn collection_mut(&mut self, name: &CollectionName) -> Option<&mut Collection> {
        self.collections.get_mut(name)
    }

    /// Iterates over the server's collections in name order.
    pub fn collections(&self) -> impl Iterator<Item = &Collection> {
        self.collections.values()
    }

    /// The global id of a local collection.
    pub fn collection_id(&self, name: &CollectionName) -> CollectionId {
        CollectionId::new(self.host.clone(), name.clone())
    }

    /// Rebuilds a collection from a full document set.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when the collection does not
    /// exist on this server.
    pub fn rebuild(
        &mut self,
        name: &CollectionName,
        docs: Vec<SourceDocument>,
    ) -> Result<BuildReport, GsError> {
        self.collections
            .get_mut(name)
            .map(|c| c.rebuild(docs))
            .ok_or_else(|| GsError::UnknownCollection(name.clone()))
    }

    /// Incrementally imports documents into a collection.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when the collection does not
    /// exist on this server.
    pub fn import(
        &mut self,
        name: &CollectionName,
        docs: Vec<SourceDocument>,
    ) -> Result<BuildReport, GsError> {
        self.collections
            .get_mut(name)
            .map(|c| c.import(docs))
            .ok_or_else(|| GsError::UnknownCollection(name.clone()))
    }

    /// Describes a collection as the protocol would (private collections
    /// are not describable directly).
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] or
    /// [`GsError::PrivateCollection`].
    pub fn describe(&self, name: &CollectionName) -> Result<CollectionInfo, GsError> {
        let collection = self
            .collections
            .get(name)
            .ok_or_else(|| GsError::UnknownCollection(name.clone()))?;
        if !collection.config().visibility.is_public() {
            return Err(GsError::PrivateCollection(name.clone()));
        }
        Ok(self.info_of(collection))
    }

    fn info_of(&self, collection: &Collection) -> CollectionInfo {
        let cfg = collection.config();
        CollectionInfo {
            id: self.collection_id(&cfg.name),
            title: cfg.title.clone(),
            doc_count: collection.store().len(),
            indexes: cfg.indexes.iter().map(|i| i.name.clone()).collect(),
            classifiers: cfg.classifiers.iter().map(|c| c.name.clone()).collect(),
            subcollections: cfg.subcollections.iter().map(|s| s.target.clone()).collect(),
            is_virtual: collection.is_virtual(),
        }
    }

    fn fresh_request(&mut self) -> RequestId {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        id
    }

    /// Initiates, at `now`, a fetch of a (possibly distributed) local
    /// collection. The result arrives in `effects.fetches` — immediately
    /// when no remote sub-collections are involved.
    pub fn start_fetch(&mut self, name: &CollectionName, now: SimTime) -> (RequestId, ServerEffects) {
        let request = self.fresh_request();
        let effects = self.begin_gather(
            request,
            ReplyTo::Local { started: now },
            ReqKind::Fetch,
            name,
            BTreeSet::new(),
            // A locally-initiated fetch is the owner asking; treat like
            // direct access (private collections refuse).
            false,
            None,
        );
        (request, effects)
    }

    /// Initiates, at `now`, a distributed search over a local collection.
    pub fn start_search(
        &mut self,
        name: &CollectionName,
        index: &str,
        query: &Query,
        now: SimTime,
    ) -> (RequestId, ServerEffects) {
        let request = self.fresh_request();
        let effects = self.begin_gather(
            request,
            ReplyTo::Local { started: now },
            ReqKind::Search,
            name,
            BTreeSet::new(),
            false,
            Some((index.to_string(), query.clone())),
        );
        (request, effects)
    }

    /// Handles one inbound protocol message.
    pub fn handle_message(&mut self, from: &HostName, msg: GsMessage) -> ServerEffects {
        match msg {
            GsMessage::DescribeRequest {
                request,
                collection,
            } => {
                let result = self.describe(&collection);
                ServerEffects {
                    outbound: vec![Outbound {
                        to: from.clone(),
                        msg: GsMessage::DescribeResponse { request, result },
                    }],
                    ..Default::default()
                }
            }
            GsMessage::FetchRequest {
                request,
                collection,
                visited,
                via_parent,
            } => self.begin_gather(
                request,
                ReplyTo::Remote {
                    host: from.clone(),
                    request,
                },
                ReqKind::Fetch,
                &collection,
                visited.into_iter().collect(),
                via_parent,
                None,
            ),
            GsMessage::SearchRequest {
                request,
                collection,
                index,
                query,
                visited,
                via_parent,
            } => self.begin_gather(
                request,
                ReplyTo::Remote {
                    host: from.clone(),
                    request,
                },
                ReqKind::Search,
                &collection,
                visited.into_iter().collect(),
                via_parent,
                Some((index, query)),
            ),
            GsMessage::FetchResponse {
                request,
                docs,
                errors,
                fatal,
            } => self.absorb_sub_response(request, docs, Vec::new(), errors, fatal),
            GsMessage::SearchResponse {
                request,
                hits,
                errors,
                fatal,
            } => self.absorb_sub_response(request, Vec::new(), hits, errors, fatal),
            GsMessage::DescribeResponse { .. } => ServerEffects::default(),
        }
    }

    /// Finalizes with partial results, recording a [`GsError::Timeout`],
    /// every request this host started that has waited 5 s or more on
    /// its sub-collections by `now`, in request order. The hosting core
    /// calls it on its maintenance tick. A remote host's request waiting
    /// here keeps waiting: that host times it out.
    pub fn expire_requests(&mut self, now: SimTime) -> ServerEffects {
        let mut expired: Vec<RequestId> = self
            .pending
            .iter()
            .filter(|(_, p)| match p.reply {
                ReplyTo::Local { started } => now.since(started) >= REQUEST_TIMEOUT,
                ReplyTo::Remote { .. } => false,
            })
            .map(|(request, _)| *request)
            .collect();
        expired.sort_unstable();
        let mut effects = ServerEffects::default();
        for request in expired {
            // Orphan any outstanding sub-requests: late responses will
            // find no parent and be dropped.
            self.sub_to_parent.retain(|_, parent| *parent != request);
            let mut pending = self.pending.remove(&request).expect("listed above");
            pending.errors.push(GsError::Timeout);
            effects.extend(self.finalize(request, pending));
        }
        effects
    }

    #[allow(clippy::too_many_arguments)]
    fn begin_gather(
        &mut self,
        request: RequestId,
        reply: ReplyTo,
        kind: ReqKind,
        name: &CollectionName,
        visited: BTreeSet<CollectionId>,
        via_parent: bool,
        search: Option<(String, Query)>,
    ) -> ServerEffects {
        let gather = match self.gather_local(name, visited, via_parent, &search) {
            Ok(g) => g,
            Err(fatal) => {
                let pending = Pending {
                    kind,
                    reply,
                    outstanding: 0,
                    docs: Vec::new(),
                    hits: Vec::new(),
                    errors: Vec::new(),
                };
                return self.finalize_with_fatal(request, pending, Some(fatal));
            }
        };

        let mut pending = Pending {
            kind,
            reply,
            outstanding: 0,
            docs: gather.docs,
            hits: gather.hits,
            errors: gather.errors,
        };

        let mut outbound = Vec::new();
        let visited_list: Vec<CollectionId> = gather.visited.iter().cloned().collect();
        for target in gather.remotes {
            let sub = self.fresh_request();
            self.sub_to_parent.insert(sub, request);
            pending.outstanding += 1;
            let msg = match &search {
                None => GsMessage::FetchRequest {
                    request: sub,
                    collection: target.name().clone(),
                    visited: visited_list.clone(),
                    via_parent: true,
                },
                Some((index, query)) => GsMessage::SearchRequest {
                    request: sub,
                    collection: target.name().clone(),
                    index: index.clone(),
                    query: query.clone(),
                    visited: visited_list.clone(),
                    via_parent: true,
                },
            };
            outbound.push(Outbound {
                to: target.host().clone(),
                msg,
            });
        }

        if pending.outstanding == 0 {
            let mut effects = self.finalize(request, pending);
            effects.outbound.splice(0..0, outbound);
            effects
        } else {
            self.pending.insert(request, pending);
            ServerEffects {
                outbound,
                ..Default::default()
            }
        }
    }

    /// Walks the local sub-collection graph from `name`, gathering own
    /// documents (or search hits) and the remote targets still to query.
    fn gather_local(
        &self,
        name: &CollectionName,
        mut visited: BTreeSet<CollectionId>,
        via_parent: bool,
        search: &Option<(String, Query)>,
    ) -> Result<LocalGather, GsError> {
        let root = self
            .collections
            .get(name)
            .ok_or_else(|| GsError::UnknownCollection(name.clone()))?;
        if !via_parent && !root.config().visibility.is_public() {
            return Err(GsError::PrivateCollection(name.clone()));
        }

        let mut gather = LocalGather {
            docs: Vec::new(),
            hits: Vec::new(),
            remotes: Vec::new(),
            errors: Vec::new(),
            visited: std::mem::take(&mut visited),
        };

        // Iterative DFS over local collections.
        let mut stack = vec![name.clone()];
        while let Some(current) = stack.pop() {
            let id = self.collection_id(&current);
            if gather.visited.contains(&id) {
                continue; // cycle or already gathered elsewhere in the tree
            }
            gather.visited.insert(id.clone());
            let Some(collection) = self.collections.get(&current) else {
                gather
                    .errors
                    .push(GsError::UnknownCollection(current.clone()));
                continue;
            };
            match search {
                None => {
                    for doc in collection.store().iter() {
                        gather.docs.push(FetchedDoc {
                            collection: id.clone(),
                            doc: doc.clone(),
                        });
                    }
                }
                Some((index, query)) => match collection.store().search(index, query) {
                    Ok(ids) => {
                        for doc_id in ids {
                            gather.hits.push(SearchHit {
                                doc: DocumentRef::new(id.clone(), doc_id),
                                score: 1.0,
                            });
                        }
                    }
                    Err(_) => gather.errors.push(GsError::UnknownIndex(
                        index.clone(),
                    )),
                },
            }
            for sub in &collection.config().subcollections {
                if sub.target.host() == &self.host {
                    stack.push(sub.target.name().clone());
                } else if !gather.visited.contains(&sub.target) {
                    gather.remotes.push(sub.target.clone());
                }
            }
        }
        gather.remotes.sort();
        gather.remotes.dedup();
        Ok(gather)
    }

    fn absorb_sub_response(
        &mut self,
        sub: RequestId,
        docs: Vec<FetchedDoc>,
        hits: Vec<SearchHit>,
        errors: Vec<GsError>,
        fatal: Option<GsError>,
    ) -> ServerEffects {
        let Some(parent) = self.sub_to_parent.remove(&sub) else {
            return ServerEffects::default(); // late or unknown; drop
        };
        let Some(pending) = self.pending.get_mut(&parent) else {
            return ServerEffects::default();
        };
        pending.docs.extend(docs);
        pending.hits.extend(hits);
        pending.errors.extend(errors);
        if let Some(f) = fatal {
            // A failing sub-collection is non-fatal for the aggregate.
            pending.errors.push(f);
        }
        pending.outstanding = pending.outstanding.saturating_sub(1);
        if pending.outstanding == 0 {
            let pending = self.pending.remove(&parent).expect("present");
            self.finalize(parent, pending)
        } else {
            ServerEffects::default()
        }
    }

    fn finalize(&mut self, request: RequestId, pending: Pending) -> ServerEffects {
        self.finalize_with_fatal(request, pending, None)
    }

    fn finalize_with_fatal(
        &mut self,
        request: RequestId,
        mut pending: Pending,
        fatal: Option<GsError>,
    ) -> ServerEffects {
        // Deduplicate across branches that reached the same collection.
        let mut seen = BTreeSet::new();
        pending
            .docs
            .retain(|d| seen.insert((d.collection.clone(), d.doc.id.clone())));
        let mut seen_hits = BTreeSet::new();
        pending.hits.retain(|h| seen_hits.insert(h.doc.clone()));

        match (&pending.reply, pending.kind) {
            (ReplyTo::Remote { host, request: remote_request }, ReqKind::Fetch) => ServerEffects {
                outbound: vec![Outbound {
                    to: host.clone(),
                    msg: GsMessage::FetchResponse {
                        request: *remote_request,
                        docs: pending.docs,
                        errors: pending.errors,
                        fatal,
                    },
                }],
                ..Default::default()
            },
            (ReplyTo::Remote { host, request: remote_request }, ReqKind::Search) => ServerEffects {
                outbound: vec![Outbound {
                    to: host.clone(),
                    msg: GsMessage::SearchResponse {
                        request: *remote_request,
                        hits: pending.hits,
                        errors: pending.errors,
                        fatal,
                    },
                }],
                ..Default::default()
            },
            (ReplyTo::Local { .. }, ReqKind::Fetch) => ServerEffects {
                fetches: vec![(
                    request,
                    FetchResult {
                        docs: pending.docs,
                        errors: pending.errors,
                        fatal,
                    },
                )],
                ..Default::default()
            },
            (ReplyTo::Local { .. }, ReqKind::Search) => ServerEffects {
                searches: vec![(
                    request,
                    SearchResult {
                        hits: pending.hits,
                        errors: pending.errors,
                        fatal,
                    },
                )],
                ..Default::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SubCollectionRef;

    fn doc(id: &str, text: &str) -> SourceDocument {
        SourceDocument::new(id, text)
    }

    /// Builds the Figure 1 world: Hamilton {A, B(sub a? no)...} — we model
    /// the essential part: Hamilton.D with data set d and remote
    /// sub-collection London.E; London.F with private sub London.G.
    fn figure1() -> (Server, Server) {
        let mut hamilton = Server::new("Hamilton");
        hamilton
            .add_collection(
                CollectionConfig::simple("D", "Hamilton D").with_subcollection(
                    SubCollectionRef::new("e", CollectionId::new("London", "E")),
                ),
            )
            .unwrap();
        hamilton
            .import(&"D".into(), vec![doc("d1", "dataset d doc")])
            .unwrap();

        let mut london = Server::new("London");
        london
            .add_collection(CollectionConfig::simple("E", "London E"))
            .unwrap();
        london
            .import(&"E".into(), vec![doc("e1", "dataset e doc")])
            .unwrap();
        london
            .add_collection(
                CollectionConfig::simple("F", "London F").with_subcollection(
                    SubCollectionRef::new("g", CollectionId::new("London", "G")),
                ),
            )
            .unwrap();
        london
            .import(&"F".into(), vec![doc("f1", "dataset f doc")])
            .unwrap();
        london
            .add_collection(CollectionConfig::simple("G", "London G (private)").private())
            .unwrap();
        london
            .import(&"G".into(), vec![doc("g1", "dataset g doc")])
            .unwrap();
        (hamilton, london)
    }

    /// Routes messages between the two servers until quiescence.
    fn pump(hamilton: &mut Server, london: &mut Server, mut effects: ServerEffects) -> ServerEffects {
        let mut done = ServerEffects::default();
        let mut queue: Vec<Outbound> = effects.outbound.drain(..).collect();
        done.fetches.extend(effects.fetches);
        done.searches.extend(effects.searches);
        while let Some(out) = queue.pop() {
            let (target, source_host) = if out.to.as_str() == "Hamilton" {
                (&mut *hamilton, HostName::new("London"))
            } else {
                (&mut *london, HostName::new("Hamilton"))
            };
            // `from` is whoever is not the target in this 2-host world;
            // good enough for tests.
            let mut eff = target.handle_message(&source_host, out.msg);
            queue.append(&mut eff.outbound);
            done.fetches.extend(eff.fetches);
            done.searches.extend(eff.searches);
        }
        done
    }

    #[test]
    fn local_fetch_completes_immediately() {
        let (_, mut london) = figure1();
        let (rid, effects) = london.start_fetch(&"E".into(), SimTime::ZERO);
        assert_eq!(effects.fetches.len(), 1);
        assert_eq!(effects.fetches[0].0, rid);
        let result = &effects.fetches[0].1;
        assert_eq!(result.docs.len(), 1);
        assert_eq!(result.docs[0].doc.id.as_str(), "e1");
        assert!(result.fatal.is_none());
    }

    #[test]
    fn distributed_fetch_pulls_remote_subcollection() {
        let (mut hamilton, mut london) = figure1();
        let (rid, effects) = hamilton.start_fetch(&"D".into(), SimTime::ZERO);
        assert!(effects.fetches.is_empty());
        assert!(hamilton.pending.contains_key(&rid));
        let done = pump(&mut hamilton, &mut london, effects);
        assert_eq!(done.fetches.len(), 1);
        let result = &done.fetches[0].1;
        let mut ids: Vec<&str> = result.docs.iter().map(|d| d.doc.id.as_str()).collect();
        ids.sort();
        assert_eq!(ids, vec!["d1", "e1"]);
        // Transparency: e1 is tagged with its real source collection.
        let e1 = result.docs.iter().find(|d| d.doc.id.as_str() == "e1").unwrap();
        assert_eq!(e1.collection, CollectionId::new("London", "E"));
        assert!(!hamilton.pending.contains_key(&rid));
    }

    #[test]
    fn private_collection_refuses_direct_access() {
        let (_, mut london) = figure1();
        let (_, effects) = london.start_fetch(&"G".into(), SimTime::ZERO);
        assert_eq!(
            effects.fetches[0].1.fatal,
            Some(GsError::PrivateCollection("G".into()))
        );
    }

    #[test]
    fn private_collection_reachable_via_parent() {
        let (_, mut london) = figure1();
        let (_, effects) = london.start_fetch(&"F".into(), SimTime::ZERO);
        let result = &effects.fetches[0].1;
        let mut ids: Vec<&str> = result.docs.iter().map(|d| d.doc.id.as_str()).collect();
        ids.sort();
        assert_eq!(ids, vec!["f1", "g1"]);
    }

    #[test]
    fn unknown_collection_is_fatal() {
        let (mut hamilton, _) = figure1();
        let (_, effects) = hamilton.start_fetch(&"Z".into(), SimTime::ZERO);
        assert_eq!(
            effects.fetches[0].1.fatal,
            Some(GsError::UnknownCollection("Z".into()))
        );
    }

    #[test]
    fn remote_fetch_request_is_answered() {
        let (_, mut london) = figure1();
        let effects = london.handle_message(
            &HostName::new("Hamilton"),
            GsMessage::FetchRequest {
                request: RequestId(77),
                collection: "E".into(),
                visited: vec![CollectionId::new("Hamilton", "D")],
                via_parent: true,
            },
        );
        assert_eq!(effects.outbound.len(), 1);
        assert_eq!(effects.outbound[0].to.as_str(), "Hamilton");
        match &effects.outbound[0].msg {
            GsMessage::FetchResponse { request, docs, fatal, .. } => {
                assert_eq!(*request, RequestId(77));
                assert_eq!(docs.len(), 1);
                assert!(fatal.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cyclic_collections_terminate() {
        // X -> Y -> X across two hosts.
        let mut a = Server::new("A");
        a.add_collection(
            CollectionConfig::simple("X", "x").with_subcollection(SubCollectionRef::new(
                "y",
                CollectionId::new("B", "Y"),
            )),
        )
        .unwrap();
        a.import(&"X".into(), vec![doc("x1", "x")]).unwrap();
        let mut b = Server::new("B");
        b.add_collection(
            CollectionConfig::simple("Y", "y").with_subcollection(SubCollectionRef::new(
                "x",
                CollectionId::new("A", "X"),
            )),
        )
        .unwrap();
        b.import(&"Y".into(), vec![doc("y1", "y")]).unwrap();

        let (rid, mut effects) = a.start_fetch(&"X".into(), SimTime::ZERO);
        let mut queue: Vec<Outbound> = effects.outbound.drain(..).collect();
        let mut done = ServerEffects::default();
        let mut steps = 0;
        while let Some(out) = queue.pop() {
            steps += 1;
            assert!(steps < 100, "fetch did not terminate on a cycle");
            let (target, from) = if out.to.as_str() == "A" {
                (&mut a, HostName::new("B"))
            } else {
                (&mut b, HostName::new("A"))
            };
            let mut eff = target.handle_message(&from, out.msg);
            queue.append(&mut eff.outbound);
            done.fetches.extend(eff.fetches);
        }
        assert_eq!(done.fetches.len(), 1);
        assert_eq!(done.fetches[0].0, rid);
        let mut ids: Vec<&str> = done.fetches[0].1.docs.iter().map(|d| d.doc.id.as_str()).collect();
        ids.sort();
        assert_eq!(ids, vec!["x1", "y1"]);
    }

    #[test]
    fn distributed_search_merges_hits() {
        let (mut hamilton, mut london) = figure1();
        let (_, effects) = hamilton.start_search(&"D".into(), "text", &Query::term("dataset"), SimTime::ZERO);
        let done = pump(&mut hamilton, &mut london, effects);
        assert_eq!(done.searches.len(), 1);
        let hits = &done.searches[0].1.hits;
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn search_missing_index_records_error() {
        let (mut hamilton, mut london) = figure1();
        // Remove the text index on London.E by replacing the collection.
        london.remove_collection(&"E".into());
        london
            .add_collection(CollectionConfig {
                indexes: vec![],
                ..CollectionConfig::simple("E", "no index")
            })
            .unwrap();
        let (_, effects) = hamilton.start_search(&"D".into(), "text", &Query::term("dataset"), SimTime::ZERO);
        let done = pump(&mut hamilton, &mut london, effects);
        let result = &done.searches[0].1;
        assert_eq!(result.hits.len(), 1); // only Hamilton's own doc
        assert!(result.errors.contains(&GsError::UnknownIndex("text".into())));
    }

    #[test]
    fn expire_returns_partial_results() {
        let (mut hamilton, _) = figure1();
        let (rid, effects) = hamilton.start_fetch(&"D".into(), SimTime::ZERO);
        assert!(effects.fetches.is_empty()); // waiting on London
        let expired = hamilton.expire_requests(SimTime::from_secs(5));
        assert_eq!(expired.fetches.len(), 1);
        assert_eq!(expired.fetches[0].0, rid);
        let result = &expired.fetches[0].1;
        assert_eq!(result.docs.len(), 1); // only d1
        assert!(result.errors.contains(&GsError::Timeout));
        // Late response is dropped silently.
        let late = hamilton.handle_message(
            &HostName::new("London"),
            GsMessage::FetchResponse {
                request: RequestId(1),
                docs: vec![],
                errors: vec![],
                fatal: None,
            },
        );
        assert_eq!(late, ServerEffects::default());
        // Expiring again is a no-op.
        assert_eq!(hamilton.expire_requests(SimTime::from_secs(5)), ServerEffects::default());
    }

    #[test]
    fn a_remote_request_waiting_here_does_not_time_out() {
        let (mut hamilton, mut london) = figure1();
        let asked = hamilton.handle_message(
            &HostName::new("Paris"),
            GsMessage::FetchRequest {
                request: RequestId(77),
                collection: "D".into(),
                visited: vec![],
                via_parent: false,
            },
        );
        assert_eq!(asked.outbound.len(), 1, "one sub-request, to London");
        // Paris started the request, so only Paris times it out.
        let expired = hamilton.expire_requests(SimTime::from_secs(60));
        assert_eq!(expired, ServerEffects::default());
        // London's answer still completes it, back to Paris.
        let from = HostName::new("Hamilton");
        let answer = london.handle_message(&from, asked.outbound[0].msg.clone());
        let done = hamilton.handle_message(&HostName::new("London"), answer.outbound[0].msg.clone());
        assert_eq!(done.outbound.len(), 1);
        assert_eq!(done.outbound[0].to.as_str(), "Paris");
    }

    #[test]
    fn describe_reports_structure() {
        let (hamilton, london) = figure1();
        let info = hamilton.describe(&"D".into()).unwrap();
        assert_eq!(info.id, CollectionId::new("Hamilton", "D"));
        assert_eq!(info.doc_count, 1);
        assert_eq!(info.subcollections, vec![CollectionId::new("London", "E")]);
        assert!(!info.is_virtual);
        assert!(london.describe(&"G".into()).is_err());
    }

    #[test]
    fn describe_request_message_flow() {
        let (hamilton, mut london) = figure1();
        drop(hamilton);
        let effects = london.handle_message(
            &HostName::new("recep-II"),
            GsMessage::DescribeRequest {
                request: RequestId(5),
                collection: "E".into(),
            },
        );
        match &effects.outbound[0].msg {
            GsMessage::DescribeResponse { request, result } => {
                assert_eq!(*request, RequestId(5));
                assert_eq!(result.as_ref().unwrap().doc_count, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_collection_rejected() {
        let mut s = Server::new("H");
        s.add_collection(CollectionConfig::simple("D", "one")).unwrap();
        assert!(s.add_collection(CollectionConfig::simple("D", "two")).is_err());
    }

    #[test]
    fn virtual_collection_fetch_gathers_only_subs() {
        let mut a = Server::new("A");
        a.add_collection(
            CollectionConfig::simple("C", "virtual").with_subcollection(SubCollectionRef::new(
                "b",
                CollectionId::new("A", "B"),
            )),
        )
        .unwrap();
        a.add_collection(CollectionConfig::simple("B", "b").private())
            .unwrap();
        a.import(&"B".into(), vec![doc("b1", "b")]).unwrap();
        let (_, effects) = a.start_fetch(&"C".into(), SimTime::ZERO);
        let result = &effects.fetches[0].1;
        assert_eq!(result.docs.len(), 1);
        assert_eq!(result.docs[0].collection, CollectionId::new("A", "B"));
    }
}
