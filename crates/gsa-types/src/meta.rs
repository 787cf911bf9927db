//! The metadata model shared by collections, documents and events.
//!
//! Greenstone collections are heterogeneous (research problem 6 in the
//! paper): each installation chooses its own metadata sets, content types
//! and classification schemas. We therefore model metadata as an open
//! multimap from string keys to string values rather than a fixed schema,
//! with the common Dublin-Core-style keys provided as constants in [`keys`].

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;

/// A metadata key such as `dc.Title`.
///
/// Keys are case-sensitive. The well-known keys used by the bundled
/// workloads live in [`keys`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MetaKey(String);

impl MetaKey {
    /// Creates a metadata key from anything string-like.
    pub fn new(key: impl Into<String>) -> Self {
        MetaKey(key.into())
    }

    /// Returns the key as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MetaKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for MetaKey {
    fn from(s: &str) -> Self {
        MetaKey::new(s)
    }
}

impl From<String> for MetaKey {
    fn from(s: String) -> Self {
        MetaKey::new(s)
    }
}

impl AsRef<str> for MetaKey {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Lets a record be looked up by `&str` without building a key. Sound
/// because the derived `Eq`/`Ord`/`Hash` of the newtype are exactly the
/// inner string's.
impl Borrow<str> for MetaKey {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// A metadata value.
///
/// Values are stored as text, mirroring Greenstone's string-typed metadata.
pub type MetaValue = String;

/// Well-known metadata keys used by the bundled workloads and examples.
pub mod keys {
    /// Document title (`dc.Title`).
    pub const TITLE: &str = "dc.Title";
    /// Document creator/author (`dc.Creator`).
    pub const CREATOR: &str = "dc.Creator";
    /// Document subject keywords (`dc.Subject`).
    pub const SUBJECT: &str = "dc.Subject";
    /// Publication date (`dc.Date`), ISO-8601 `YYYY-MM-DD`.
    pub const DATE: &str = "dc.Date";
    /// Language code (`dc.Language`).
    pub const LANGUAGE: &str = "dc.Language";

    /// The fifteen elements of the Dublin Core Metadata Element Set 1.1,
    /// in the standard's order. The order is part of the v2 wire: key
    /// `DUBLIN_CORE[i]` travels as the one-byte code `i + 1`.
    #[rustfmt::skip]
    pub const DUBLIN_CORE: [&str; 15] = [
        TITLE, CREATOR, SUBJECT, "dc.Description", "dc.Publisher", "dc.Contributor", DATE,
        "dc.Type", "dc.Format", "dc.Identifier", "dc.Source", LANGUAGE, "dc.Relation",
        "dc.Coverage", "dc.Rights",
    ];
}

/// An ordered multimap of metadata: each key maps to one or more values.
///
/// # Examples
///
/// ```
/// use gsa_types::{keys, MetadataRecord};
///
/// let mut md = MetadataRecord::new();
/// md.add(keys::TITLE, "Digital Libraries");
/// md.add(keys::SUBJECT, "alerting");
/// md.add(keys::SUBJECT, "publish/subscribe");
/// assert_eq!(md.first(keys::TITLE), Some("Digital Libraries"));
/// assert_eq!(md.all(keys::SUBJECT).len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetadataRecord {
    entries: BTreeMap<MetaKey, Vec<MetaValue>>,
}

impl MetadataRecord {
    /// Creates an empty record.
    pub fn new() -> Self {
        MetadataRecord::default()
    }

    /// Adds a value under `key`, preserving existing values.
    pub fn add(&mut self, key: impl Into<MetaKey>, value: impl Into<MetaValue>) {
        self.entries
            .entry(key.into())
            .or_default()
            .push(value.into());
    }

    /// Replaces all values under `key` with the single `value`.
    pub fn set(&mut self, key: impl Into<MetaKey>, value: impl Into<MetaValue>) {
        self.entries.insert(key.into(), vec![value.into()]);
    }

    /// Removes every value under `key`, returning them if any were present.
    pub fn remove(&mut self, key: &str) -> Option<Vec<MetaValue>> {
        self.entries.remove(key)
    }

    /// Returns the first value under `key`, if any.
    pub fn first(&self, key: &str) -> Option<&str> {
        self.entries
            .get(key)
            .and_then(|vs| vs.first())
            .map(String::as_str)
    }

    /// Returns all values under `key` (empty slice when absent).
    #[inline]
    pub fn all(&self, key: &str) -> &[MetaValue] {
        self.entries
            .get(key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Returns `true` when any value under `key` equals `value`.
    pub fn contains(&self, key: &str, value: &str) -> bool {
        self.all(key).iter().any(|v| v == value)
    }

    /// Returns `true` when no metadata is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The number of keys present.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The number of `(key, value)` pairs counting multi-values — the
    /// length of [`MetadataRecord::iter_flat`].
    #[inline]
    pub fn total_values(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Iterates over `(key, values)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetaKey, &[MetaValue])> {
        self.entries.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Iterates over every `(key, value)` pair, flattening multi-values.
    /// The iterator is `Clone` so borrowed-view ingest paths can walk
    /// the pairs once per index without collecting them.
    #[inline]
    pub fn iter_flat(&self) -> impl Iterator<Item = (&MetaKey, &str)> + Clone {
        self.entries
            .iter()
            .flat_map(|(k, vs)| vs.iter().map(move |v| (k, v.as_str())))
    }

    /// Merges `other` into `self`, appending values under shared keys.
    pub fn merge(&mut self, other: &MetadataRecord) {
        for (k, vs) in other.entries.iter() {
            self.entries
                .entry(k.clone())
                .or_default()
                .extend(vs.iter().cloned());
        }
    }
}

impl<K: Into<MetaKey>, V: Into<MetaValue>> FromIterator<(K, V)> for MetadataRecord {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut md = MetadataRecord::new();
        for (k, v) in iter {
            md.add(k, v);
        }
        md
    }
}

impl<K: Into<MetaKey>, V: Into<MetaValue>> Extend<(K, V)> for MetadataRecord {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.add(k, v);
        }
    }
}

impl fmt::Display for MetadataRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.iter_flat() {
            if !first {
                write!(f, "; ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_first() {
        let mut md = MetadataRecord::new();
        md.add(keys::TITLE, "A");
        md.add(keys::TITLE, "B");
        assert_eq!(md.first(keys::TITLE), Some("A"));
        assert_eq!(md.all(keys::TITLE), &["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn set_replaces() {
        let mut md = MetadataRecord::new();
        md.add(keys::TITLE, "A");
        md.set(keys::TITLE, "B");
        assert_eq!(md.all(keys::TITLE), &["B".to_string()]);
    }

    #[test]
    fn contains_checks_any_value() {
        let md: MetadataRecord = [(keys::SUBJECT, "x"), (keys::SUBJECT, "y")]
            .into_iter()
            .collect();
        assert!(md.contains(keys::SUBJECT, "y"));
        assert!(!md.contains(keys::SUBJECT, "z"));
        assert!(!md.contains(keys::TITLE, "y"));
    }

    #[test]
    fn missing_key_is_empty_slice() {
        let md = MetadataRecord::new();
        assert!(md.all(keys::DATE).is_empty());
        assert_eq!(md.first(keys::DATE), None);
        assert!(md.is_empty());
        assert_eq!(md.len(), 0);
    }

    #[test]
    fn merge_appends_under_shared_keys() {
        let mut a: MetadataRecord = [(keys::SUBJECT, "x")].into_iter().collect();
        let b: MetadataRecord = [(keys::SUBJECT, "y"), (keys::TITLE, "t")]
            .into_iter()
            .collect();
        a.merge(&b);
        assert_eq!(a.all(keys::SUBJECT).len(), 2);
        assert_eq!(a.first(keys::TITLE), Some("t"));
    }

    #[test]
    fn display_is_never_empty() {
        let md = MetadataRecord::new();
        assert_eq!(md.to_string(), "(empty)");
        let md: MetadataRecord = [(keys::TITLE, "t")].into_iter().collect();
        assert_eq!(md.to_string(), "dc.Title=t");
    }

    #[test]
    fn remove_returns_values() {
        let mut md: MetadataRecord = [(keys::TITLE, "t")].into_iter().collect();
        assert_eq!(md.remove(keys::TITLE), Some(vec!["t".to_string()]));
        assert_eq!(md.remove(keys::TITLE), None);
    }
}
