//! Browse classifiers: the "browsing" half of Greenstone retrieval.
//!
//! A classifier groups documents into buckets by a metadata key — e.g. all
//! documents by `dc.Creator`, or by the first letter of their title. The
//! alerting service's "watch this" observation and browse-derived profiles
//! are anchored on these structures (Section 5).

use gsa_types::{DocId, MetadataRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// How bucket labels are derived from metadata values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BucketRule {
    /// One bucket per exact metadata value.
    ByValue,
    /// One bucket per uppercase first letter (`#` for non-alphabetic).
    ByFirstLetter,
}

impl BucketRule {
    fn bucket_for(self, value: &str) -> String {
        match self {
            BucketRule::ByValue => value.to_string(),
            BucketRule::ByFirstLetter => {
                let first = value.chars().next();
                match first {
                    Some(c) if c.is_alphabetic() => c.to_uppercase().to_string(),
                    _ => "#".to_string(),
                }
            }
        }
    }
}

/// The configuration of a classifier within a collection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassifierSpec {
    /// The classifier's name, unique within its collection.
    pub name: String,
    /// The metadata key to classify on.
    pub key: String,
    /// How values map to buckets.
    pub rule: BucketRule,
}

impl ClassifierSpec {
    /// A by-value classifier over `key`, named `name`.
    pub fn by_value(name: impl Into<String>, key: impl Into<String>) -> Self {
        ClassifierSpec {
            name: name.into(),
            key: key.into(),
            rule: BucketRule::ByValue,
        }
    }
}

/// A built browse structure.
#[derive(Debug, Clone, Default)]
pub struct Classifier {
    spec: Option<ClassifierSpec>,
    buckets: BTreeMap<String, Vec<DocId>>,
}

impl Classifier {
    /// Builds an empty classifier for `spec`.
    pub fn new(spec: ClassifierSpec) -> Self {
        Classifier {
            spec: Some(spec),
            buckets: BTreeMap::new(),
        }
    }

    /// The spec this classifier was built from.
    ///
    /// # Panics
    ///
    /// Panics on a default-constructed classifier, which is only used as an
    /// internal placeholder.
    pub fn spec(&self) -> &ClassifierSpec {
        self.spec.as_ref().expect("classifier built from a spec")
    }

    /// Classifies one document, adding it to the appropriate buckets. A
    /// document appears once per distinct matching value.
    pub fn add(&mut self, id: &DocId, metadata: &MetadataRecord) {
        let rule = self.spec().rule;
        for value in metadata.all(&self.spec().key) {
            let bucket = rule.bucket_for(value);
            let docs = self.buckets.entry(bucket).or_default();
            if !docs.contains(id) {
                docs.push(id.clone());
            }
        }
    }

    /// Removes a document from every bucket, pruning empty buckets.
    pub fn remove(&mut self, id: &DocId) {
        self.buckets.retain(|_, docs| {
            docs.retain(|d| d != id);
            !docs.is_empty()
        });
    }

    /// The documents in a bucket (empty when the bucket does not exist).
    pub fn bucket(&self, label: &str) -> &[DocId] {
        self.buckets.get(label).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Returns `true` when no documents were classified.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

impl fmt::Display for Classifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.spec {
            Some(spec) => write!(f, "classifier {} on {} ({} buckets)", spec.name, spec.key, self.len()),
            None => write!(f, "empty classifier"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::keys;

    fn md(creator: &str) -> MetadataRecord {
        [(keys::CREATOR, creator)].into_iter().collect()
    }

    #[test]
    fn by_value_buckets() {
        let mut c = Classifier::new(ClassifierSpec::by_value("creators", keys::CREATOR));
        c.add(&"d1".into(), &md("Hinze"));
        c.add(&"d2".into(), &md("Buchanan"));
        c.add(&"d3".into(), &md("Hinze"));
        assert_eq!(c.bucket("Hinze"), &[DocId::new("d1"), DocId::new("d3")]);
        assert_eq!(c.buckets.keys().collect::<Vec<_>>(), ["Buchanan", "Hinze"]);
    }

    #[test]
    fn by_first_letter_buckets() {
        let mut c = Classifier::new(ClassifierSpec {
            name: "titles".into(),
            key: keys::TITLE.into(),
            rule: BucketRule::ByFirstLetter,
        });
        let add = |c: &mut Classifier, id: &str, title: &str| {
            let md: MetadataRecord = [(keys::TITLE, title)].into_iter().collect();
            c.add(&id.into(), &md);
        };
        add(&mut c, "d1", "alerting");
        add(&mut c, "d2", "Archives");
        add(&mut c, "d3", "2005 report");
        assert_eq!(c.bucket("A").len(), 2);
        assert_eq!(c.bucket("#").len(), 1);
    }

    #[test]
    fn multivalued_metadata_lands_in_multiple_buckets() {
        let mut c = Classifier::new(ClassifierSpec::by_value("subjects", keys::SUBJECT));
        let md: MetadataRecord = [(keys::SUBJECT, "dl"), (keys::SUBJECT, "pubsub")]
            .into_iter()
            .collect();
        c.add(&"d1".into(), &md);
        assert_eq!(c.bucket("dl"), &[DocId::new("d1")]);
        assert_eq!(c.bucket("pubsub"), &[DocId::new("d1")]);
    }

    #[test]
    fn duplicate_values_do_not_duplicate_docs() {
        let mut c = Classifier::new(ClassifierSpec::by_value("subjects", keys::SUBJECT));
        let md: MetadataRecord = [(keys::SUBJECT, "dl"), (keys::SUBJECT, "dl")]
            .into_iter()
            .collect();
        c.add(&"d1".into(), &md);
        assert_eq!(c.bucket("dl").len(), 1);
    }

    #[test]
    fn remove_prunes_empty_buckets() {
        let mut c = Classifier::new(ClassifierSpec::by_value("creators", keys::CREATOR));
        c.add(&"d1".into(), &md("Hinze"));
        c.remove(&"d1".into());
        assert!(c.is_empty());
        assert!(c.bucket("Hinze").is_empty());
    }

    #[test]
    fn docs_without_the_key_are_unclassified() {
        let mut c = Classifier::new(ClassifierSpec::by_value("creators", keys::CREATOR));
        c.add(&"d1".into(), &MetadataRecord::new());
        assert!(c.is_empty());
    }
}
