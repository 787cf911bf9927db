//! The GS protocol: messages between receptionists and servers and
//! between servers (Section 3).
//!
//! Requests carry a requester-chosen [`RequestId`] echoed in responses;
//! recursive fetch/search requests additionally carry the set of
//! collections already visited, which is how the protocol terminates on
//! cyclic collection graphs (research problem 2).
//!
//! Every message has an XML encoding matching the SOAP/XML messaging of
//! the original implementation, described once ([`GsMessage::put_xml`])
//! and read back by [`GsMessage::from_xml`]; the tree
//! ([`GsMessage::to_xml`]) and the size the simulator charges
//! ([`GsMessage::wire_size`]) are that one description run into an
//! element and into a counter.

use gsa_store::{Query, SourceDocument};
use gsa_types::{CollectionId, CollectionName, DocumentRef, MetadataRecord};
use gsa_wire::codec::{collection_from_text, metadata_from_xml, put_metadata};
use gsa_wire::xml::{XmlLen, XmlPut};
use gsa_wire::{WireError, XmlElement};
use std::error::Error;
use std::fmt;

/// Correlates a response with its request. Unique per issuing node only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// A protocol-level error returned in responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GsError {
    /// No collection with that name on the addressed server.
    UnknownCollection(CollectionName),
    /// The collection exists but is private and was addressed directly.
    PrivateCollection(CollectionName),
    /// The collection does not offer the requested index.
    UnknownIndex(String),
    /// A sub-collection fetch did not complete before the deadline;
    /// results are partial (best-effort delivery, Section 6).
    Timeout,
}

impl fmt::Display for GsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GsError::UnknownCollection(name) => write!(f, "unknown collection `{name}`"),
            GsError::PrivateCollection(name) => write!(f, "collection `{name}` is private"),
            GsError::UnknownIndex(name) => write!(f, "unknown index `{name}`"),
            GsError::Timeout => write!(f, "request timed out; results are partial"),
        }
    }
}

impl Error for GsError {}

/// Description of a collection, as returned by a describe request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionInfo {
    /// The collection's global identity.
    pub id: CollectionId,
    /// Human-readable title.
    pub title: String,
    /// Number of documents in the collection's own data set.
    pub doc_count: usize,
    /// Names of the search indexes the collection offers.
    pub indexes: Vec<String>,
    /// Names of the browse classifiers the collection offers.
    pub classifiers: Vec<String>,
    /// Global ids of the collection's sub-collections.
    pub subcollections: Vec<CollectionId>,
    /// Whether the collection has no own documents, only sub-collections.
    pub is_virtual: bool,
}

/// One search result: the document and the collection it was found in.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Where the document lives (collection may differ from the one
    /// searched, for distributed collections).
    pub doc: DocumentRef,
    /// Ranking score (1.0 for Boolean matches).
    pub score: f64,
}

/// A document together with the collection whose data set it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchedDoc {
    /// The collection the document came from.
    pub collection: CollectionId,
    /// The document itself.
    pub doc: SourceDocument,
}

/// The messages of the GS protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum GsMessage {
    /// Ask for a collection's description.
    DescribeRequest {
        /// Correlation id.
        request: RequestId,
        /// Host-local collection name.
        collection: CollectionName,
    },
    /// Reply to [`GsMessage::DescribeRequest`].
    DescribeResponse {
        /// Correlation id.
        request: RequestId,
        /// The description or an error.
        result: Result<CollectionInfo, GsError>,
    },
    /// Fetch all documents of a collection, following sub-collections
    /// recursively (the Figure 1 data access).
    FetchRequest {
        /// Correlation id.
        request: RequestId,
        /// Host-local collection name on the addressed server.
        collection: CollectionName,
        /// Collections already being gathered upstream (cycle guard).
        visited: Vec<CollectionId>,
        /// `true` when this request arrives via a parent collection, which
        /// unlocks private sub-collections.
        via_parent: bool,
    },
    /// Reply to [`GsMessage::FetchRequest`]. `errors` carries non-fatal
    /// sub-collection failures alongside the (possibly partial) data.
    FetchResponse {
        /// Correlation id.
        request: RequestId,
        /// The fetched documents (possibly partial).
        docs: Vec<FetchedDoc>,
        /// Non-fatal errors encountered on sub-collections.
        errors: Vec<GsError>,
        /// A fatal error addressing the collection itself.
        fatal: Option<GsError>,
    },
    /// Search a collection (recursively over sub-collections).
    SearchRequest {
        /// Correlation id.
        request: RequestId,
        /// Host-local collection name on the addressed server.
        collection: CollectionName,
        /// Index to search.
        index: String,
        /// The query.
        query: Query,
        /// Cycle guard, as in fetch.
        visited: Vec<CollectionId>,
        /// Parent-access flag, as in fetch.
        via_parent: bool,
    },
    /// Reply to [`GsMessage::SearchRequest`].
    SearchResponse {
        /// Correlation id.
        request: RequestId,
        /// Matching documents (possibly partial).
        hits: Vec<SearchHit>,
        /// Non-fatal errors encountered on sub-collections.
        errors: Vec<GsError>,
        /// A fatal error addressing the collection itself.
        fatal: Option<GsError>,
    },
}

impl GsMessage {
    /// The correlation id.
    pub fn request_id(&self) -> RequestId {
        match self {
            GsMessage::DescribeRequest { request, .. }
            | GsMessage::DescribeResponse { request, .. }
            | GsMessage::FetchRequest { request, .. }
            | GsMessage::FetchResponse { request, .. }
            | GsMessage::SearchRequest { request, .. }
            | GsMessage::SearchResponse { request, .. } => *request,
        }
    }

    /// The name of the message's XML element.
    pub fn tag(&self) -> &'static str {
        match self {
            GsMessage::DescribeRequest { .. } => "gs:describe",
            GsMessage::DescribeResponse { .. } => "gs:describe-response",
            GsMessage::FetchRequest { .. } => "gs:fetch",
            GsMessage::FetchResponse { .. } => "gs:fetch-response",
            GsMessage::SearchRequest { .. } => "gs:search",
            GsMessage::SearchResponse { .. } => "gs:search-response",
        }
    }

    /// Puts the attributes and children of the message's element: the
    /// one description of its XML form.
    pub fn put_xml(&self, out: &mut impl XmlPut) {
        out.num_attr("request", self.request_id().0);
        match self {
            GsMessage::DescribeRequest { collection, .. } => {
                out.attr("collection", collection.as_str());
            }
            GsMessage::DescribeResponse { result, .. } => match result {
                Ok(info) => out.child("info", |el| put_info(info, el)),
                Err(e) => put_error(e, out),
            },
            GsMessage::FetchRequest {
                collection,
                visited,
                via_parent,
                ..
            } => {
                out.attr("collection", collection.as_str());
                out.attr("via-parent", &via_parent.to_string());
                put_visited(visited, out);
            }
            GsMessage::FetchResponse {
                docs,
                errors,
                fatal,
                ..
            } => {
                for d in docs {
                    out.child("fetched", |el| put_fetched_doc(d, el));
                }
                put_errors(errors, fatal, out);
            }
            GsMessage::SearchRequest {
                collection,
                index,
                query,
                visited,
                via_parent,
                ..
            } => {
                out.attr("collection", collection.as_str());
                out.attr("index", index);
                out.attr("via-parent", &via_parent.to_string());
                out.attr("query", &query.to_string());
                put_visited(visited, out);
            }
            GsMessage::SearchResponse {
                hits,
                errors,
                fatal,
                ..
            } => {
                for h in hits {
                    out.child("hit", |el| {
                        el.attr("collection", &h.doc.collection().to_string());
                        el.attr("doc", h.doc.doc().as_str());
                        el.attr("score", &format!("{:.6}", h.score));
                    });
                }
                put_errors(errors, fatal, out);
            }
        }
    }

    /// Encodes the message as an XML element.
    pub fn to_xml(&self) -> XmlElement {
        let mut el = XmlElement::new(self.tag());
        self.put_xml(&mut el);
        el
    }

    /// The serialized size in bytes, for the simulator's byte
    /// accounting, without producing the text or the tree.
    pub fn wire_size(&self) -> usize {
        let mut len = XmlLen::default();
        self.put_xml(&mut len);
        len.element(self.tag())
    }

    /// Decodes a message from the element produced by
    /// [`GsMessage::to_xml`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on unknown tags or missing/invalid parts.
    pub fn from_xml(el: &XmlElement) -> Result<GsMessage, WireError> {
        let request = || -> Result<RequestId, WireError> {
            el.attr("request")
                .and_then(|r| r.parse::<u64>().ok())
                .map(RequestId)
                .ok_or_else(|| WireError::malformed("missing request id"))
        };
        match el.name() {
            "gs:describe" => Ok(GsMessage::DescribeRequest {
                request: request()?,
                collection: attr_name(el, "collection")?,
            }),
            "gs:describe-response" => {
                let result = match el.child("info") {
                    Some(info) => Ok(info_from_xml(info)?),
                    None => Err(error_from_xml(
                        el.child("error")
                            .ok_or_else(|| WireError::malformed("missing info or error"))?,
                    )?),
                };
                Ok(GsMessage::DescribeResponse {
                    request: request()?,
                    result,
                })
            }
            "gs:fetch" => Ok(GsMessage::FetchRequest {
                request: request()?,
                collection: attr_name(el, "collection")?,
                visited: visited_from_xml(el)?,
                via_parent: attr_bool(el, "via-parent")?,
            }),
            "gs:fetch-response" => {
                let mut docs = Vec::new();
                for d in el.children_named("fetched") {
                    docs.push(fetched_doc_from_xml(d)?);
                }
                Ok(GsMessage::FetchResponse {
                    request: request()?,
                    docs,
                    errors: errors_from_xml(el)?,
                    fatal: fatal_from_xml(el)?,
                })
            }
            "gs:search" => {
                let query_text = el
                    .attr("query")
                    .ok_or_else(|| WireError::malformed("missing query"))?;
                let query = Query::parse(query_text)
                    .map_err(|e| WireError::malformed(format!("bad query: {e}")))?;
                Ok(GsMessage::SearchRequest {
                    request: request()?,
                    collection: attr_name(el, "collection")?,
                    index: el
                        .attr("index")
                        .ok_or_else(|| WireError::malformed("missing index"))?
                        .to_string(),
                    query,
                    visited: visited_from_xml(el)?,
                    via_parent: attr_bool(el, "via-parent")?,
                })
            }
            "gs:search-response" => {
                let mut hits = Vec::new();
                for h in el.children_named("hit") {
                    let collection = collection_from_text(
                        h.attr("collection")
                            .ok_or_else(|| WireError::malformed("hit without collection"))?,
                    )?;
                    let doc = h
                        .attr("doc")
                        .ok_or_else(|| WireError::malformed("hit without doc"))?;
                    let score = h
                        .attr("score")
                        .and_then(|s| s.parse::<f64>().ok())
                        .ok_or_else(|| WireError::malformed("hit without score"))?;
                    hits.push(SearchHit {
                        doc: DocumentRef::new(collection, doc),
                        score,
                    });
                }
                Ok(GsMessage::SearchResponse {
                    request: request()?,
                    hits,
                    errors: errors_from_xml(el)?,
                    fatal: fatal_from_xml(el)?,
                })
            }
            other => Err(WireError::malformed(format!("unknown GS message <{other}>"))),
        }
    }
}

impl fmt::Display for GsMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

fn attr_name(el: &XmlElement, attr: &str) -> Result<CollectionName, WireError> {
    el.attr(attr)
        .map(CollectionName::new)
        .ok_or_else(|| WireError::malformed(format!("missing {attr}")))
}

fn attr_bool(el: &XmlElement, attr: &str) -> Result<bool, WireError> {
    match el.attr(attr) {
        Some("true") => Ok(true),
        Some("false") => Ok(false),
        _ => Err(WireError::malformed(format!("missing or invalid {attr}"))),
    }
}

fn put_visited(visited: &[CollectionId], out: &mut impl XmlPut) {
    for v in visited {
        out.child("visited", |el| el.text(&v.to_string()));
    }
}

fn visited_from_xml(el: &XmlElement) -> Result<Vec<CollectionId>, WireError> {
    let mut out = Vec::new();
    for v in el.children_named("visited") {
        out.push(collection_from_text(&v.text())?);
    }
    Ok(out)
}

fn put_error(e: &GsError, out: &mut impl XmlPut) {
    let (code, detail) = match e {
        GsError::UnknownCollection(name) => ("unknown-collection", name.as_str()),
        GsError::PrivateCollection(name) => ("private-collection", name.as_str()),
        GsError::UnknownIndex(name) => ("unknown-index", name.as_str()),
        GsError::Timeout => ("timeout", ""),
    };
    out.child("error", |el| {
        el.attr("code", code);
        el.attr("detail", detail);
    });
}

/// The tail of a response: sub-collection errors, then the fatal one.
fn put_errors(errors: &[GsError], fatal: &Option<GsError>, out: &mut impl XmlPut) {
    for e in errors {
        put_error(e, out);
    }
    if let Some(e) = fatal {
        out.child("fatal", |el| put_error(e, el));
    }
}

fn error_from_xml(el: &XmlElement) -> Result<GsError, WireError> {
    let code = el
        .attr("code")
        .ok_or_else(|| WireError::malformed("error without code"))?;
    let detail = el.attr("detail").unwrap_or("");
    Ok(match code {
        "unknown-collection" => GsError::UnknownCollection(CollectionName::new(detail)),
        "private-collection" => GsError::PrivateCollection(CollectionName::new(detail)),
        "unknown-index" => GsError::UnknownIndex(detail.to_string()),
        "timeout" => GsError::Timeout,
        other => return Err(WireError::malformed(format!("unknown error code {other}"))),
    })
}

fn errors_from_xml(el: &XmlElement) -> Result<Vec<GsError>, WireError> {
    let mut out = Vec::new();
    for e in el.children_named("error") {
        out.push(error_from_xml(e)?);
    }
    Ok(out)
}

fn fatal_from_xml(el: &XmlElement) -> Result<Option<GsError>, WireError> {
    match el.child("fatal") {
        Some(f) => {
            let inner = f
                .child("error")
                .ok_or_else(|| WireError::malformed("fatal without error"))?;
            Ok(Some(error_from_xml(inner)?))
        }
        None => Ok(None),
    }
}

fn put_info(info: &CollectionInfo, out: &mut impl XmlPut) {
    out.attr("id", &info.id.to_string());
    out.attr("title", &info.title);
    out.num_attr("docs", info.doc_count as u64);
    out.attr("virtual", &info.is_virtual.to_string());
    for i in &info.indexes {
        out.child("index", |el| el.text(i));
    }
    for c in &info.classifiers {
        out.child("classifier", |el| el.text(c));
    }
    for s in &info.subcollections {
        out.child("sub", |el| el.text(&s.to_string()));
    }
}

fn info_from_xml(el: &XmlElement) -> Result<CollectionInfo, WireError> {
    let id = collection_from_text(
        el.attr("id")
            .ok_or_else(|| WireError::malformed("info without id"))?,
    )?;
    let doc_count = el
        .attr("docs")
        .and_then(|d| d.parse::<usize>().ok())
        .ok_or_else(|| WireError::malformed("info without docs"))?;
    let is_virtual = el.attr("virtual") == Some("true");
    let mut subcollections = Vec::new();
    for s in el.children_named("sub") {
        subcollections.push(collection_from_text(&s.text())?);
    }
    Ok(CollectionInfo {
        id,
        title: el.attr("title").unwrap_or("").to_string(),
        doc_count,
        indexes: el.children_named("index").map(|i| i.text()).collect(),
        classifiers: el.children_named("classifier").map(|c| c.text()).collect(),
        subcollections,
        is_virtual,
    })
}

fn put_fetched_doc(d: &FetchedDoc, out: &mut impl XmlPut) {
    out.attr("collection", &d.collection.to_string());
    out.attr("id", d.doc.id.as_str());
    put_metadata(&d.doc.metadata, out);
    if !d.doc.text.is_empty() {
        out.child("text", |el| el.text(&d.doc.text));
    }
}

fn fetched_doc_from_xml(el: &XmlElement) -> Result<FetchedDoc, WireError> {
    let collection = collection_from_text(
        el.attr("collection")
            .ok_or_else(|| WireError::malformed("fetched without collection"))?,
    )?;
    let id = el
        .attr("id")
        .ok_or_else(|| WireError::malformed("fetched without id"))?;
    let metadata = match el.child("metadata") {
        Some(md) => metadata_from_xml(md)?,
        None => MetadataRecord::new(),
    };
    let text = el.child_text("text").unwrap_or_default();
    Ok(FetchedDoc {
        collection,
        doc: SourceDocument::new(id, text).with_metadata(metadata),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::keys;

    fn round_trip(msg: GsMessage) {
        let el = msg.to_xml();
        // Through actual wire text, not just the element tree.
        let text = el.to_document_string();
        let parsed = gsa_wire::parse_document(&text).unwrap();
        let back = GsMessage::from_xml(&parsed).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn describe_round_trips() {
        round_trip(GsMessage::DescribeRequest {
            request: RequestId(1),
            collection: "D".into(),
        });
        round_trip(GsMessage::DescribeResponse {
            request: RequestId(1),
            result: Ok(CollectionInfo {
                id: CollectionId::new("Hamilton", "D"),
                title: "Demo & more".into(),
                doc_count: 3,
                indexes: vec!["text".into()],
                classifiers: vec!["creators".into()],
                subcollections: vec![CollectionId::new("London", "E")],
                is_virtual: false,
            }),
        });
        round_trip(GsMessage::DescribeResponse {
            request: RequestId(2),
            result: Err(GsError::UnknownCollection("X".into())),
        });
    }

    #[test]
    fn fetch_round_trips() {
        round_trip(GsMessage::FetchRequest {
            request: RequestId(9),
            collection: "E".into(),
            visited: vec![CollectionId::new("Hamilton", "D")],
            via_parent: true,
        });
        let md: MetadataRecord = [(keys::TITLE, "T")].into_iter().collect();
        round_trip(GsMessage::FetchResponse {
            request: RequestId(9),
            docs: vec![FetchedDoc {
                collection: CollectionId::new("London", "E"),
                doc: SourceDocument::new("HASH1", "body text").with_metadata(md),
            }],
            errors: vec![GsError::Timeout],
            fatal: None,
        });
        round_trip(GsMessage::FetchResponse {
            request: RequestId(10),
            docs: vec![],
            errors: vec![],
            fatal: Some(GsError::PrivateCollection("G".into())),
        });
    }

    #[test]
    fn search_round_trips() {
        round_trip(GsMessage::SearchRequest {
            request: RequestId(3),
            collection: "D".into(),
            index: "text".into(),
            query: Query::parse("digital AND librar*").unwrap(),
            visited: vec![],
            via_parent: false,
        });
        round_trip(GsMessage::SearchResponse {
            request: RequestId(3),
            hits: vec![SearchHit {
                doc: DocumentRef::new(CollectionId::new("London", "E"), "HASH2"),
                score: 0.5,
            }],
            errors: vec![GsError::UnknownIndex("text".into())],
            fatal: None,
        });
    }

    #[test]
    fn unknown_tag_errors() {
        assert!(GsMessage::from_xml(&XmlElement::new("gs:bogus")).is_err());
    }

    #[test]
    fn missing_request_id_errors() {
        assert!(GsMessage::from_xml(&XmlElement::new("gs:describe").with_attr("collection", "D")).is_err());
    }

    #[test]
    fn request_id_accessor() {
        let msg = GsMessage::DescribeRequest {
            request: RequestId(7),
            collection: "D".into(),
        };
        assert_eq!(msg.request_id(), RequestId(7));
    }

    #[test]
    fn wire_size_is_positive() {
        let msg = GsMessage::DescribeRequest {
            request: RequestId(7),
            collection: "D".into(),
        };
        assert_eq!(msg.wire_size(), msg.to_xml().wire_size());
        assert!(msg.wire_size() > 10);
    }

    #[test]
    fn display_is_tag_name() {
        let msg = GsMessage::DescribeRequest {
            request: RequestId(7),
            collection: "D".into(),
        };
        assert_eq!(msg.to_string(), "gs:describe");
    }
}
