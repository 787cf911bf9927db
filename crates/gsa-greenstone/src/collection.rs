//! Collections and the build process.

use crate::config::CollectionConfig;
use gsa_store::{DocumentStore, SourceDocument};
use gsa_types::{DocId, DocSummary};
use std::collections::BTreeSet;
use std::fmt;

/// How many characters of document text are carried in event excerpts.
pub const EXCERPT_CHARS: usize = 200;

/// The outcome of one build (import + index + classify) run.
///
/// The alerting layer turns this into an [`Event`](gsa_types::Event); the
/// build-overhead experiment (E1) measures the cost of doing so.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BuildReport {
    /// Documents that did not exist before this build.
    pub added: Vec<DocId>,
    /// Documents that existed and were re-imported (possibly changed).
    pub updated: Vec<DocId>,
    /// Documents that existed before and were dropped by this build.
    pub removed: Vec<DocId>,
    /// The collection's build sequence number after this build.
    pub build_seq: u64,
}

impl BuildReport {
    /// Returns `true` when the build changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.updated.is_empty() && self.removed.is_empty()
    }
}

impl fmt::Display for BuildReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "build #{}: +{} ~{} -{}",
            self.build_seq,
            self.added.len(),
            self.updated.len(),
            self.removed.len()
        )
    }
}

/// A collection: configuration plus its data set.
///
/// A *virtual* collection has an empty data set but sub-collections
/// (`Hamilton.C` in Figure 1).
#[derive(Debug, Clone)]
pub struct Collection {
    config: CollectionConfig,
    store: DocumentStore,
    build_seq: u64,
}

impl Collection {
    /// Creates an unbuilt collection from its configuration.
    pub fn new(config: CollectionConfig) -> Self {
        let store = DocumentStore::new(config.indexes.clone(), config.classifiers.clone());
        Collection {
            config,
            store,
            build_seq: 0,
        }
    }

    /// The collection's configuration.
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// Mutable configuration access (restructuring sub-collections).
    pub fn config_mut(&mut self) -> &mut CollectionConfig {
        &mut self.config
    }

    /// The underlying document store (searching, browsing).
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// Number of completed builds.
    pub fn build_seq(&self) -> u64 {
        self.build_seq
    }

    /// Returns `true` when the collection has no own documents but does
    /// have sub-collections.
    pub fn is_virtual(&self) -> bool {
        self.store.is_empty() && !self.config.subcollections.is_empty()
    }

    /// Rebuilds the collection from a full new document set: documents
    /// present before but absent now are removed, new ones added, the rest
    /// re-imported as updated.
    pub fn rebuild(&mut self, docs: Vec<SourceDocument>) -> BuildReport {
        let before: BTreeSet<DocId> = self.store.iter().map(|d| d.id.clone()).collect();
        let now: BTreeSet<DocId> = docs.iter().map(|d| d.id.clone()).collect();

        let mut report = BuildReport::default();
        for gone in before.difference(&now) {
            self.store.remove_document(gone);
            report.removed.push(gone.clone());
        }
        for doc in docs {
            if before.contains(&doc.id) {
                report.updated.push(doc.id.clone());
            } else {
                report.added.push(doc.id.clone());
            }
            self.store.add_document(doc);
        }
        self.build_seq += 1;
        report.build_seq = self.build_seq;
        report
    }

    /// Imports additional documents without removing existing ones
    /// (an incremental build).
    pub fn import(&mut self, docs: Vec<SourceDocument>) -> BuildReport {
        let mut report = BuildReport::default();
        for doc in docs {
            if self.store.document(&doc.id).is_some() {
                report.updated.push(doc.id.clone());
            } else {
                report.added.push(doc.id.clone());
            }
            self.store.add_document(doc);
        }
        self.build_seq += 1;
        report.build_seq = self.build_seq;
        report
    }

    /// Event payload summaries for the given documents.
    pub fn summaries(&self, ids: &[DocId]) -> Vec<DocSummary> {
        self.store.summaries(ids, EXCERPT_CHARS)
    }
}

impl fmt::Display for Collection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "collection {} ({} docs, {} subcollections, build #{})",
            self.config.name,
            self.store.len(),
            self.config.subcollections.len(),
            self.build_seq
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SubCollectionRef;
    use gsa_types::CollectionId;

    fn doc(id: &str, text: &str) -> SourceDocument {
        SourceDocument::new(id, text)
    }

    #[test]
    fn first_rebuild_adds_everything() {
        let mut c = Collection::new(CollectionConfig::simple("D", "demo"));
        let report = c.rebuild(vec![doc("a", "x"), doc("b", "y")]);
        assert_eq!(report.added.len(), 2);
        assert!(report.updated.is_empty());
        assert!(report.removed.is_empty());
        assert_eq!(report.build_seq, 1);
        assert_eq!(c.store().len(), 2);
    }

    #[test]
    fn rebuild_diffs_against_previous() {
        let mut c = Collection::new(CollectionConfig::simple("D", "demo"));
        c.rebuild(vec![doc("a", "x"), doc("b", "y")]);
        let report = c.rebuild(vec![doc("b", "y2"), doc("c", "z")]);
        assert_eq!(report.added, vec![DocId::new("c")]);
        assert_eq!(report.updated, vec![DocId::new("b")]);
        assert_eq!(report.removed, vec![DocId::new("a")]);
        assert_eq!(c.build_seq(), 2);
    }

    #[test]
    fn import_is_incremental() {
        let mut c = Collection::new(CollectionConfig::simple("D", "demo"));
        c.import(vec![doc("a", "x")]);
        let report = c.import(vec![doc("a", "x2"), doc("b", "y")]);
        assert_eq!(report.updated, vec![DocId::new("a")]);
        assert_eq!(report.added, vec![DocId::new("b")]);
        assert_eq!(c.store().len(), 2);
    }

    #[test]
    fn virtual_collection_detection() {
        let cfg = CollectionConfig::simple("C", "virtual").with_subcollection(
            SubCollectionRef::new("a", CollectionId::new("Hamilton", "A")),
        );
        let c = Collection::new(cfg);
        assert!(c.is_virtual());

        let mut with_docs = Collection::new(
            CollectionConfig::simple("D", "real").with_subcollection(SubCollectionRef::new(
                "e",
                CollectionId::new("London", "E"),
            )),
        );
        with_docs.import(vec![doc("a", "x")]);
        assert!(!with_docs.is_virtual());
    }

    #[test]
    fn summaries_include_metadata_and_excerpt() {
        let mut c = Collection::new(CollectionConfig::simple("D", "demo"));
        c.import(vec![doc("a", "hello world")]);
        let sums = c.summaries(&[DocId::new("a")]);
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].excerpt, "hello world");
    }

    #[test]
    fn display_mentions_counts() {
        let mut c = Collection::new(CollectionConfig::simple("D", "demo"));
        c.import(vec![doc("a", "x")]);
        let s = c.to_string();
        assert!(s.contains("1 docs"));
        assert!(s.contains("build #1"));
    }

    #[test]
    fn empty_build_report() {
        let mut c = Collection::new(CollectionConfig::simple("D", "demo"));
        let r = c.rebuild(vec![]);
        assert!(r.is_empty());
        assert_eq!(r.to_string(), "build #1: +0 ~0 -0");
    }
}
