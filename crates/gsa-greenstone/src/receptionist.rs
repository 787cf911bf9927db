//! Receptionists: user-facing access points federating several hosts.
//!
//! A receptionist (Section 3, hatched circles of Figure 1) gives users a
//! single access point to collections offered by one or more hosts. Like
//! [`Server`](crate::Server), it is a sans-IO state machine: calls return
//! the requests to transmit, responses are fed back in, and completed
//! results are returned to the caller.

use crate::protocol::{CollectionInfo, FetchedDoc, GsError, GsMessage, RequestId, SearchHit};
use crate::server::Outbound;
use gsa_store::Query;
use gsa_types::{CollectionId, HostName};
use std::collections::HashMap;
use std::fmt;

/// A completed receptionist request.
#[derive(Debug, Clone, PartialEq)]
pub enum Completed {
    /// A describe finished.
    Describe(Result<CollectionInfo, GsError>),
    /// A fetch finished (possibly partial; see `errors`).
    Fetch {
        /// The gathered documents.
        docs: Vec<FetchedDoc>,
        /// Non-fatal errors.
        errors: Vec<GsError>,
        /// Fatal error, when the collection itself was not accessible.
        fatal: Option<GsError>,
    },
    /// A search finished (possibly partial; see `errors`).
    Search {
        /// The matching documents.
        hits: Vec<SearchHit>,
        /// Non-fatal errors.
        errors: Vec<GsError>,
        /// Fatal error, when the collection itself was not accessible.
        fatal: Option<GsError>,
    },
}

/// The user-facing access point.
///
/// The receptionist holds no collection data; it addresses the collection's
/// entry server and lets the server network do the distributed resolution —
/// "the underlying storage and distribution structure is transparent to the
/// user".
#[derive(Debug)]
pub struct Receptionist {
    name: HostName,
    hosts: Vec<HostName>,
    next_request: u64,
    pending: HashMap<RequestId, ()>,
}

impl Receptionist {
    /// Creates a receptionist with access to the given hosts. `name` is
    /// its own network identity (responses are addressed to it).
    pub fn new(name: impl Into<HostName>, hosts: Vec<HostName>) -> Self {
        Receptionist {
            name: name.into(),
            hosts,
            next_request: 0,
            pending: HashMap::new(),
        }
    }

    /// The receptionist's network identity.
    pub fn name(&self) -> &HostName {
        &self.name
    }

    /// The hosts this receptionist can access.
    pub fn hosts(&self) -> &[HostName] {
        &self.hosts
    }

    /// Returns `true` when the receptionist may address `host`.
    pub fn can_access(&self, host: &HostName) -> bool {
        self.hosts.contains(host)
    }

    fn fresh(&mut self) -> RequestId {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        self.pending.insert(id, ());
        id
    }

    /// Issues a describe for `collection`.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when the collection's host is
    /// not accessible through this receptionist.
    pub fn describe(&mut self, collection: &CollectionId) -> Result<(RequestId, Outbound), GsError> {
        self.request(collection, |request, collection| GsMessage::DescribeRequest {
            request,
            collection: collection.name().clone(),
        })
    }

    /// Issues a fetch of all (possibly distributed) documents of
    /// `collection`.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when the collection's host is
    /// not accessible through this receptionist.
    pub fn fetch(&mut self, collection: &CollectionId) -> Result<(RequestId, Outbound), GsError> {
        self.request(collection, |request, collection| GsMessage::FetchRequest {
            request,
            collection: collection.name().clone(),
            visited: Vec::new(),
            via_parent: false,
        })
    }

    /// Issues a distributed search over `collection`.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when the collection's host is
    /// not accessible through this receptionist.
    pub fn search(
        &mut self,
        collection: &CollectionId,
        index: &str,
        query: Query,
    ) -> Result<(RequestId, Outbound), GsError> {
        let index = index.to_string();
        self.request(collection, move |request, collection| GsMessage::SearchRequest {
            request,
            collection: collection.name().clone(),
            index,
            query,
            visited: Vec::new(),
            via_parent: false,
        })
    }

    fn request(
        &mut self,
        collection: &CollectionId,
        build: impl FnOnce(RequestId, &CollectionId) -> GsMessage,
    ) -> Result<(RequestId, Outbound), GsError> {
        if !self.can_access(collection.host()) {
            return Err(GsError::UnknownCollection(collection.name().clone()));
        }
        let request = self.fresh();
        Ok((
            request,
            Outbound {
                to: collection.host().clone(),
                msg: build(request, collection),
            },
        ))
    }

    /// Feeds a response back in; returns the completed result when the
    /// response matches a pending request.
    pub fn handle_message(&mut self, msg: GsMessage) -> Option<(RequestId, Completed)> {
        let request = msg.request_id();
        self.pending.remove(&request)?;
        match msg {
            GsMessage::DescribeResponse { result, .. } => {
                Some((request, Completed::Describe(result)))
            }
            GsMessage::FetchResponse {
                docs,
                errors,
                fatal,
                ..
            } => Some((
                request,
                Completed::Fetch {
                    docs,
                    errors,
                    fatal,
                },
            )),
            GsMessage::SearchResponse {
                hits,
                errors,
                fatal,
                ..
            } => Some((
                request,
                Completed::Search {
                    hits,
                    errors,
                    fatal,
                },
            )),
            _ => None,
        }
    }
}

impl fmt::Display for Receptionist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receptionist {} over {} hosts", self.name, self.hosts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CollectionConfig, SubCollectionRef};
    use crate::server::Server;
    use gsa_store::SourceDocument;

    fn world() -> (Receptionist, Server, Server) {
        let recep = Receptionist::new(
            "recep-I",
            vec![HostName::new("Hamilton"), HostName::new("London")],
        );
        let mut hamilton = Server::new("Hamilton");
        hamilton
            .add_collection(
                CollectionConfig::simple("D", "d").with_subcollection(SubCollectionRef::new(
                    "e",
                    CollectionId::new("London", "E"),
                )),
            )
            .unwrap();
        hamilton
            .import(&"D".into(), vec![SourceDocument::new("d1", "alpha")])
            .unwrap();
        let mut london = Server::new("London");
        london
            .add_collection(CollectionConfig::simple("E", "e"))
            .unwrap();
        london
            .import(&"E".into(), vec![SourceDocument::new("e1", "beta")])
            .unwrap();
        (recep, hamilton, london)
    }

    /// Delivers outbound messages until quiescence in the 3-party world.
    fn pump(
        recep: &mut Receptionist,
        hamilton: &mut Server,
        london: &mut Server,
        first: Outbound,
    ) -> Vec<(RequestId, Completed)> {
        let mut queue = vec![(recep.name().clone(), first)];
        let mut completed = Vec::new();
        while let Some((from, out)) = queue.pop() {
            match out.to.as_str() {
                "Hamilton" => {
                    let eff = hamilton.handle_message(&from, out.msg);
                    queue.extend(eff.outbound.into_iter().map(|o| (HostName::new("Hamilton"), o)));
                }
                "London" => {
                    let eff = london.handle_message(&from, out.msg);
                    queue.extend(eff.outbound.into_iter().map(|o| (HostName::new("London"), o)));
                }
                "recep-I" => {
                    if let Some(done) = recep.handle_message(out.msg) {
                        completed.push(done);
                    }
                }
                other => panic!("unknown destination {other}"),
            }
        }
        completed
    }

    #[test]
    fn fetch_through_receptionist_is_transparent() {
        let (mut recep, mut hamilton, mut london) = world();
        let (rid, out) = recep.fetch(&CollectionId::new("Hamilton", "D")).unwrap();
        let completed = pump(&mut recep, &mut hamilton, &mut london, out);
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].0, rid);
        match &completed[0].1 {
            Completed::Fetch { docs, fatal, .. } => {
                assert!(fatal.is_none());
                let mut ids: Vec<&str> = docs.iter().map(|d| d.doc.id.as_str()).collect();
                ids.sort();
                assert_eq!(ids, vec!["d1", "e1"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The answered request is no longer pending: a repeat of its
        // response completes nothing.
        let repeat = GsMessage::FetchResponse {
            request: rid,
            docs: Vec::new(),
            errors: Vec::new(),
            fatal: None,
        };
        assert!(recep.handle_message(repeat).is_none());
    }

    #[test]
    fn search_through_receptionist() {
        let (mut recep, mut hamilton, mut london) = world();
        let (_, out) = recep
            .search(&CollectionId::new("Hamilton", "D"), "text", Query::term("beta"))
            .unwrap();
        let completed = pump(&mut recep, &mut hamilton, &mut london, out);
        match &completed[0].1 {
            Completed::Search { hits, .. } => {
                assert_eq!(hits.len(), 1);
                assert_eq!(hits[0].doc.doc().as_str(), "e1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn describe_through_receptionist() {
        let (mut recep, mut hamilton, mut london) = world();
        let (_, out) = recep.describe(&CollectionId::new("London", "E")).unwrap();
        let completed = pump(&mut recep, &mut hamilton, &mut london, out);
        match &completed[0].1 {
            Completed::Describe(Ok(info)) => assert_eq!(info.doc_count, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inaccessible_host_is_rejected_up_front() {
        let mut recep = Receptionist::new("recep-II", vec![HostName::new("London")]);
        assert!(recep.fetch(&CollectionId::new("Hamilton", "D")).is_err());
        assert!(recep.can_access(&HostName::new("London")));
        assert!(!recep.can_access(&HostName::new("Hamilton")));
    }

    #[test]
    fn unknown_response_is_ignored() {
        let (mut recep, ..) = world();
        let resp = GsMessage::FetchResponse {
            request: RequestId(999),
            docs: vec![],
            errors: vec![],
            fatal: None,
        };
        assert!(recep.handle_message(resp).is_none());
    }
}
