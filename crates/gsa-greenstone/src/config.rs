//! Collection configuration files.
//!
//! Every Greenstone collection has a configuration determining its
//! retrieval functionality (indexes, classifiers) and its structure
//! (sub-collections, visibility). The alerting service reads but never
//! changes these.

use gsa_store::{ClassifierSpec, IndexSpec};
use gsa_types::{CollectionId, CollectionName};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a collection is reachable as an independent collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Visibility {
    /// Listed and directly accessible (like `London.E` in Figure 1).
    #[default]
    Public,
    /// Only accessible as a sub-collection of a parent (like `London.G`,
    /// private to `London.F`).
    Private,
}

impl Visibility {
    /// Returns `true` for [`Visibility::Public`].
    pub fn is_public(self) -> bool {
        matches!(self, Visibility::Public)
    }
}

/// A reference from a super-collection to one of its sub-collections.
///
/// The paper stresses that the super-collection may know the
/// sub-collection under its *own alias*: "London could identify it by a
/// different name" (Section 4.2). `alias` is that local name; `target` is
/// the sub-collection's identity on its owning host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubCollectionRef {
    /// The name the parent collection uses for this sub-collection.
    pub alias: CollectionName,
    /// The sub-collection's global identity (it may live on another host).
    pub target: CollectionId,
}

impl SubCollectionRef {
    /// Creates a reference.
    pub fn new(alias: impl Into<CollectionName>, target: CollectionId) -> Self {
        SubCollectionRef {
            alias: alias.into(),
            target,
        }
    }
}

impl fmt::Display for SubCollectionRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.alias, self.target)
    }
}

/// A collection's configuration file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectionConfig {
    /// Host-local name of the collection.
    pub name: CollectionName,
    /// Human-readable title.
    pub title: String,
    /// Search indexes offered by this collection.
    pub indexes: Vec<IndexSpec>,
    /// Browse classifiers offered by this collection.
    pub classifiers: Vec<ClassifierSpec>,
    /// Links to sub-collections (local or remote).
    pub subcollections: Vec<SubCollectionRef>,
    /// Whether the collection is independently accessible.
    pub visibility: Visibility,
}

impl CollectionConfig {
    /// Creates a public collection with a full-text index named `text` and
    /// no classifiers or sub-collections — the typical small installation.
    pub fn simple(name: impl Into<CollectionName>, title: impl Into<String>) -> Self {
        CollectionConfig {
            name: name.into(),
            title: title.into(),
            indexes: vec![IndexSpec::full_text("text")],
            classifiers: Vec::new(),
            subcollections: Vec::new(),
            visibility: Visibility::Public,
        }
    }

    /// Builder-style: adds a sub-collection reference.
    pub fn with_subcollection(mut self, sub: SubCollectionRef) -> Self {
        self.subcollections.push(sub);
        self
    }

    /// Builder-style: marks the collection private.
    pub fn private(mut self) -> Self {
        self.visibility = Visibility::Private;
        self
    }

    /// Looks up a sub-collection reference by its parent-local alias.
    pub fn subcollection(&self, alias: &CollectionName) -> Option<&SubCollectionRef> {
        self.subcollections.iter().find(|s| &s.alias == alias)
    }

    /// Removes the sub-collection reference with the given alias,
    /// returning it when present. This models collection restructuring,
    /// after which "references to other servers can be lost" (research
    /// problem 1).
    pub fn remove_subcollection(&mut self, alias: &CollectionName) -> Option<SubCollectionRef> {
        let idx = self.subcollections.iter().position(|s| &s.alias == alias)?;
        Some(self.subcollections.remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_config_has_text_index() {
        let cfg = CollectionConfig::simple("D", "Demo");
        assert_eq!(cfg.indexes.len(), 1);
        assert!(cfg.visibility.is_public());
        assert!(cfg.subcollections.is_empty());
    }

    #[test]
    fn subcollection_lookup_by_alias() {
        let cfg = CollectionConfig::simple("D", "Demo").with_subcollection(SubCollectionRef::new(
            "euro-docs",
            CollectionId::new("London", "E"),
        ));
        let sub = cfg.subcollection(&"euro-docs".into()).unwrap();
        assert_eq!(sub.target, CollectionId::new("London", "E"));
        assert!(cfg.subcollection(&"nope".into()).is_none());
    }

    #[test]
    fn remove_subcollection_models_restructuring() {
        let mut cfg = CollectionConfig::simple("D", "Demo").with_subcollection(
            SubCollectionRef::new("e", CollectionId::new("London", "E")),
        );
        let removed = cfg.remove_subcollection(&"e".into()).unwrap();
        assert_eq!(removed.target, CollectionId::new("London", "E"));
        assert!(cfg.subcollections.is_empty());
        assert!(cfg.remove_subcollection(&"e".into()).is_none());
    }

    #[test]
    fn private_builder() {
        let cfg = CollectionConfig::simple("G", "Private one").private();
        assert_eq!(cfg.visibility, Visibility::Private);
        assert!(!cfg.visibility.is_public());
    }

    #[test]
    fn subcollection_ref_display() {
        let s = SubCollectionRef::new("e", CollectionId::new("London", "E"));
        assert_eq!(s.to_string(), "e -> London.E");
    }
}
