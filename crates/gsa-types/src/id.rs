//! Identifiers for hosts, collections, documents, clients and messages.
//!
//! The Greenstone world is addressed by *names*: a host is a named machine
//! running one Greenstone server, a collection is named relative to its host
//! (`Hamilton.D`), and a document is named relative to its collection. The
//! alerting layer adds opaque numeric identifiers for messages, profiles and
//! clients.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The name of a Greenstone host (one server per host, Section 4.1).
///
/// Host names are case-sensitive and compared byte-wise.
///
/// Internally the name is a shared `Arc<str>`: host names travel in
/// every routed message, dedup key and effect target, so cloning one
/// must be a reference-count bump, not a heap allocation. Equality,
/// ordering and hashing all delegate to the string content.
///
/// # Examples
///
/// ```
/// use gsa_types::HostName;
/// let h = HostName::new("Hamilton");
/// assert_eq!(h.as_str(), "Hamilton");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostName(Arc<str>);

impl HostName {
    /// Creates a host name from anything string-like.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        HostName(name.into())
    }

    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for HostName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for HostName {
    fn from(s: &str) -> Self {
        HostName::new(s)
    }
}

impl From<String> for HostName {
    fn from(s: String) -> Self {
        HostName::new(s)
    }
}

impl AsRef<str> for HostName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// The host-local name of a collection (the `D` of `Hamilton.D`).
///
/// Shared like [`HostName`]: collection names ride in every event
/// origin, so clones are reference-count bumps.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CollectionName(Arc<str>);

impl CollectionName {
    /// Creates a collection name from anything string-like.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        CollectionName(name.into())
    }

    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CollectionName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for CollectionName {
    fn from(s: &str) -> Self {
        CollectionName::new(s)
    }
}

impl From<String> for CollectionName {
    fn from(s: String) -> Self {
        CollectionName::new(s)
    }
}

impl AsRef<str> for CollectionName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A globally unique collection identifier: host name plus host-local name.
///
/// Displayed as `host.name`, the notation used throughout the paper
/// (`Hamilton.D`, `London.E`).
///
/// # Examples
///
/// ```
/// use gsa_types::CollectionId;
/// let id = CollectionId::parse("London.E").unwrap();
/// assert_eq!(id.host().as_str(), "London");
/// assert_eq!(id.name().as_str(), "E");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CollectionId {
    host: HostName,
    name: CollectionName,
}

impl CollectionId {
    /// Creates a collection identifier from a host and a local name.
    pub fn new(host: impl Into<HostName>, name: impl Into<CollectionName>) -> Self {
        CollectionId {
            host: host.into(),
            name: name.into(),
        }
    }

    /// Parses the `host.name` notation.
    ///
    /// The split happens at the *first* dot so collection names may contain
    /// further dots. Returns `None` when the input has no dot, or an empty
    /// host or name part.
    pub fn parse(s: &str) -> Option<Self> {
        let (host, name) = s.split_once('.')?;
        if host.is_empty() || name.is_empty() {
            return None;
        }
        Some(CollectionId::new(host, name))
    }

    /// The host this collection's entry point resides on.
    pub fn host(&self) -> &HostName {
        &self.host
    }

    /// The host-local collection name.
    pub fn name(&self) -> &CollectionName {
        &self.name
    }
}

impl fmt::Display for CollectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.host, self.name)
    }
}

/// The collection-local identifier of a document (a Greenstone OID).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DocId(String);

impl DocId {
    /// Creates a document identifier from anything string-like.
    pub fn new(id: impl Into<String>) -> Self {
        DocId(id.into())
    }

    /// Returns the identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for DocId {
    fn from(s: &str) -> Self {
        DocId::new(s)
    }
}

impl From<String> for DocId {
    fn from(s: String) -> Self {
        DocId::new(s)
    }
}

impl AsRef<str> for DocId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A fully qualified document reference: collection plus document id.
///
/// Displayed as `host.collection/doc`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DocumentRef {
    collection: CollectionId,
    doc: DocId,
}

impl DocumentRef {
    /// Creates a document reference.
    pub fn new(collection: CollectionId, doc: impl Into<DocId>) -> Self {
        DocumentRef {
            collection,
            doc: doc.into(),
        }
    }

    /// The collection the document belongs to.
    pub fn collection(&self) -> &CollectionId {
        &self.collection
    }

    /// The collection-local document id.
    pub fn doc(&self) -> &DocId {
        &self.doc
    }
}

impl fmt::Display for DocumentRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.collection, self.doc)
    }
}

macro_rules! opaque_u64_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw numeric identifier.
            pub const fn from_raw(raw: u64) -> Self {
                $name(raw)
            }

            /// Returns the raw numeric identifier.
            pub const fn as_u64(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }
    };
}

opaque_u64_id!(
    /// Identifies a client (an end user of the alerting service) relative to
    /// the Greenstone server they registered with.
    ClientId,
    "client-"
);
opaque_u64_id!(
    /// Identifies a protocol message; used for best-effort duplicate
    /// suppression in the GDS broadcast (Section 6).
    MessageId,
    "msg-"
);
opaque_u64_id!(
    /// Identifies a profile (a continuous query) within one server's
    /// subscription manager.
    ProfileId,
    "profile-"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_id_display_matches_paper_notation() {
        let id = CollectionId::new("Hamilton", "D");
        assert_eq!(id.to_string(), "Hamilton.D");
    }

    #[test]
    fn collection_id_parse_round_trips() {
        let id = CollectionId::new("London", "E");
        assert_eq!(CollectionId::parse(&id.to_string()), Some(id));
    }

    #[test]
    fn collection_id_parse_splits_at_first_dot() {
        let id = CollectionId::parse("London.E.sub").unwrap();
        assert_eq!(id.host().as_str(), "London");
        assert_eq!(id.name().as_str(), "E.sub");
    }

    #[test]
    fn collection_id_parse_rejects_malformed() {
        assert_eq!(CollectionId::parse("nodot"), None);
        assert_eq!(CollectionId::parse(".leading"), None);
        assert_eq!(CollectionId::parse("trailing."), None);
        assert_eq!(CollectionId::parse(""), None);
    }

    #[test]
    fn document_ref_display() {
        let r = DocumentRef::new(CollectionId::new("Hamilton", "D"), "HASH01");
        assert_eq!(r.to_string(), "Hamilton.D/HASH01");
    }

    #[test]
    fn typed_ids_display_with_prefix() {
        assert_eq!(ClientId::from_raw(3).to_string(), "client-3");
        assert_eq!(MessageId::from_raw(4).to_string(), "msg-4");
        assert_eq!(ProfileId::from_raw(5).to_string(), "profile-5");
    }

    #[test]
    fn host_name_conversions() {
        let a: HostName = "x".into();
        let b: HostName = String::from("x").into();
        assert_eq!(a, b);
        assert_eq!(a.as_ref(), "x");
    }
}
