//! [`DocumentStore`]: the per-collection storage and retrieval facade.

use crate::classifier::{Classifier, ClassifierSpec};
use crate::index::InvertedIndex;
use crate::query::Query;
use gsa_types::{DocId, DocSummary, MetadataRecord};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};
use std::error::Error;
use std::fmt;

/// Where an index draws its terms from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndexSource {
    /// The document's full text.
    FullText,
    /// The values of one metadata key.
    Metadata(String),
}

/// The configuration of one search index within a collection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexSpec {
    /// The index's name, unique within its collection (e.g. `text`,
    /// `title`).
    pub name: String,
    /// Where terms come from.
    pub source: IndexSource,
}

impl IndexSpec {
    /// A full-text index named `name`.
    pub fn full_text(name: impl Into<String>) -> Self {
        IndexSpec {
            name: name.into(),
            source: IndexSource::FullText,
        }
    }

    /// A metadata index named `name` over `key`.
    pub fn metadata(name: impl Into<String>, key: impl Into<String>) -> Self {
        IndexSpec {
            name: name.into(),
            source: IndexSource::Metadata(key.into()),
        }
    }
}

/// A source document: id, metadata and full text.
///
/// Non-textual content (audio, images — research problem 6) is modelled as
/// documents whose `text` is empty and whose metadata carries everything
/// filterable, which is exactly how such collections behave in Greenstone.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceDocument {
    /// The collection-local document id.
    pub id: DocId,
    /// The document's metadata record.
    pub metadata: MetadataRecord,
    /// The document's extracted text ("" for non-text media).
    pub text: String,
}

impl SourceDocument {
    /// Creates a text document with empty metadata.
    pub fn new(id: impl Into<DocId>, text: impl Into<String>) -> Self {
        SourceDocument {
            id: id.into(),
            metadata: MetadataRecord::new(),
            text: text.into(),
        }
    }

    /// Builder-style: attaches metadata.
    pub fn with_metadata(mut self, metadata: MetadataRecord) -> Self {
        self.metadata = metadata;
        self
    }

    /// The first `max_chars` characters of the text, on a char boundary.
    pub fn excerpt(&self, max_chars: usize) -> String {
        let end = self.text.char_indices().nth(max_chars).map_or(self.text.len(), |(at, _)| at);
        self.text[..end].to_string()
    }

    /// Builds the event payload summary for this document.
    pub fn summary(&self, excerpt_chars: usize) -> DocSummary {
        DocSummary::new(self.id.clone())
            .with_metadata(self.metadata.clone())
            .with_excerpt(self.excerpt(excerpt_chars))
    }
}

/// An error from [`DocumentStore`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named index does not exist in this collection's configuration.
    UnknownIndex(String),
    /// The named classifier does not exist in this collection's
    /// configuration.
    UnknownClassifier(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownIndex(name) => write!(f, "unknown index `{name}`"),
            StoreError::UnknownClassifier(name) => write!(f, "unknown classifier `{name}`"),
        }
    }
}

impl Error for StoreError {}

/// Per-collection document storage plus the retrieval structures its
/// configuration asks for.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct DocumentStore {
    docs: BTreeMap<DocId, SourceDocument>,
    indexes: Vec<(IndexSpec, InvertedIndex)>,
    classifiers: Vec<Classifier>,
}

impl DocumentStore {
    /// Creates a store with the given index and classifier configuration.
    pub fn new(indexes: Vec<IndexSpec>, classifiers: Vec<ClassifierSpec>) -> Self {
        DocumentStore {
            docs: BTreeMap::new(),
            indexes: indexes
                .into_iter()
                .map(|spec| (spec, InvertedIndex::new()))
                .collect(),
            classifiers: classifiers.into_iter().map(Classifier::new).collect(),
        }
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Returns `true` when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Adds (or replaces) a document, updating all indexes and classifiers.
    pub fn add_document(&mut self, doc: SourceDocument) {
        let (doc, replaced) = match self.docs.entry(doc.id.clone()) {
            Entry::Occupied(mut entry) => {
                entry.insert(doc);
                (entry.into_mut(), true)
            }
            Entry::Vacant(entry) => (entry.insert(doc), false),
        };
        for (spec, index) in &mut self.indexes {
            match &spec.source {
                IndexSource::FullText => index.add(doc.id.clone(), &doc.text),
                IndexSource::Metadata(key) => {
                    let values = doc.metadata.all(key).iter().map(String::as_str);
                    index.add_segments(doc.id.clone(), values);
                }
            }
        }
        for classifier in &mut self.classifiers {
            // An index replaces a re-added id itself; a classifier does not.
            if replaced {
                classifier.remove(&doc.id);
            }
            classifier.add(&doc.id, &doc.metadata);
        }
    }

    /// Removes a document from storage, indexes and classifiers. Returns
    /// the removed document, if it was present.
    pub fn remove_document(&mut self, id: &DocId) -> Option<SourceDocument> {
        let doc = self.docs.remove(id)?;
        for (_, index) in &mut self.indexes {
            index.remove(id);
        }
        for classifier in &mut self.classifiers {
            classifier.remove(id);
        }
        Some(doc)
    }

    /// Fetches a document by id.
    pub fn document(&self, id: &DocId) -> Option<&SourceDocument> {
        self.docs.get(id)
    }

    /// Iterates over all documents in id order.
    pub fn iter(&self) -> impl Iterator<Item = &SourceDocument> {
        self.docs.values()
    }

    /// Executes a Boolean query against the named index.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownIndex`] when `index` is not configured.
    pub fn search(&self, index: &str, query: &Query) -> Result<Vec<DocId>, StoreError> {
        let (_, idx) = self
            .indexes
            .iter()
            .find(|(s, _)| s.name == index)
            .ok_or_else(|| StoreError::UnknownIndex(index.to_string()))?;
        Ok(idx.execute(query))
    }

    /// Ranked (tf-idf) retrieval against the named index.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownIndex`] when `index` is not configured.
    pub fn ranked(&self, index: &str, terms: &[&str]) -> Result<Vec<(DocId, f64)>, StoreError> {
        let (_, idx) = self
            .indexes
            .iter()
            .find(|(s, _)| s.name == index)
            .ok_or_else(|| StoreError::UnknownIndex(index.to_string()))?;
        Ok(idx.ranked(terms))
    }

    /// Looks up a classifier (browse structure) by name.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownClassifier`] when `name` is not
    /// configured.
    pub fn browse(&self, name: &str) -> Result<&Classifier, StoreError> {
        self.classifiers
            .iter()
            .find(|c| c.spec().name == name)
            .ok_or_else(|| StoreError::UnknownClassifier(name.to_string()))
    }

    /// Builds event payload summaries for the given documents (documents
    /// not in the store are skipped).
    pub fn summaries(&self, ids: &[DocId], excerpt_chars: usize) -> Vec<DocSummary> {
        ids.iter()
            .filter_map(|id| self.docs.get(id))
            .map(|d| d.summary(excerpt_chars))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::keys;

    fn store() -> DocumentStore {
        let mut s = DocumentStore::new(
            vec![
                IndexSpec::full_text("text"),
                IndexSpec::metadata("title", keys::TITLE),
            ],
            vec![ClassifierSpec::by_value("creators", keys::CREATOR)],
        );
        let md: MetadataRecord = [(keys::TITLE, "Digital Alerting"), (keys::CREATOR, "Hinze")]
            .into_iter()
            .collect();
        s.add_document(SourceDocument::new("d1", "alerting for digital libraries").with_metadata(md));
        let md: MetadataRecord = [(keys::TITLE, "Greenstone"), (keys::CREATOR, "Witten")]
            .into_iter()
            .collect();
        s.add_document(SourceDocument::new("d2", "a public library based on full text retrieval").with_metadata(md));
        s
    }

    #[test]
    fn full_text_search() {
        let s = store();
        let hits = s.search("text", &Query::parse("library OR libraries").unwrap()).unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn metadata_index_search() {
        let s = store();
        let hits = s.search("title", &Query::term("greenstone")).unwrap();
        assert_eq!(hits, vec![DocId::new("d2")]);
        // Metadata terms are not in the full-text index.
        let hits = s.search("text", &Query::term("greenstone")).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn unknown_index_errors() {
        let s = store();
        let err = s.search("nope", &Query::term("x")).unwrap_err();
        assert_eq!(err, StoreError::UnknownIndex("nope".into()));
        assert!(err.to_string().contains("nope"));
        assert!(s.ranked("nope", &["x"]).is_err());
    }

    #[test]
    fn browse_by_creator() {
        let s = store();
        let c = s.browse("creators").unwrap();
        assert_eq!(c.bucket("Hinze"), &[DocId::new("d1")]);
        assert!(s.browse("missing").is_err());
    }

    #[test]
    fn replace_updates_everything() {
        let mut s = store();
        let md: MetadataRecord = [(keys::CREATOR, "Buchanan")].into_iter().collect();
        s.add_document(SourceDocument::new("d1", "new words only").with_metadata(md));
        assert_eq!(s.len(), 2);
        assert!(s.search("text", &Query::term("alerting")).unwrap().is_empty());
        let c = s.browse("creators").unwrap();
        assert!(c.bucket("Hinze").is_empty());
        assert_eq!(c.bucket("Buchanan"), &[DocId::new("d1")]);
    }

    #[test]
    fn remove_document_cleans_up() {
        let mut s = store();
        let removed = s.remove_document(&"d1".into()).unwrap();
        assert_eq!(removed.id, DocId::new("d1"));
        assert!(s.remove_document(&"d1".into()).is_none());
        assert_eq!(s.len(), 1);
        assert!(s.search("text", &Query::term("alerting")).unwrap().is_empty());
    }

    #[test]
    fn summaries_and_excerpts() {
        let s = store();
        let sums = s.summaries(&[DocId::new("d1"), DocId::new("ghost")], 8);
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].excerpt, "alerting");
        assert_eq!(sums[0].metadata.first(keys::CREATOR), Some("Hinze"));
    }

    #[test]
    fn ranked_search_through_store() {
        let s = store();
        let ranked = s.ranked("text", &["library"]).unwrap();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].0, DocId::new("d2"));
    }

    #[test]
    fn excerpt_respects_char_boundaries() {
        let d = SourceDocument::new("x", "héllo wörld");
        assert_eq!(d.excerpt(5), "héllo");
    }
}
