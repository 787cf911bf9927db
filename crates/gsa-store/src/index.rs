//! An inverted index with Boolean and ranked retrieval.

use crate::query::Query;
use crate::tokenize::tokenize;
use gsa_types::DocId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One posting: internal document ordinal and term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Posting {
    doc: u32,
    tf: u32,
}

/// An inverted index over the text fed to [`InvertedIndex::add`].
///
/// The term dictionary is a `BTreeMap` so prefix queries run as range
/// scans. Documents are identified by [`DocId`]; re-adding an id replaces
/// the previous version (an updated document after a rebuild).
///
/// # Examples
///
/// ```
/// use gsa_store::{InvertedIndex, Query};
///
/// let mut idx = InvertedIndex::new();
/// idx.add("d1".into(), "greenstone digital library software");
/// idx.add("d2".into(), "alerting service for libraries");
/// let hits = idx.execute(&Query::parse("librar* AND alerting").unwrap());
/// assert_eq!(hits, vec!["d2".into()]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    terms: BTreeMap<String, Vec<Posting>>,
    docs: Vec<DocId>,
    doc_len: Vec<u32>,
    by_id: HashMap<DocId, u32>,
    /// Ordinals of removed/replaced documents, excluded from results.
    tombstones: BTreeSet<u32>,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        InvertedIndex::default()
    }

    /// The number of live documents.
    pub fn len(&self) -> usize {
        self.docs.len() - self.tombstones.len()
    }

    /// Returns `true` when the index holds no live documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of distinct terms ever indexed.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Indexes `text` under `id`, replacing any previous document with the
    /// same id.
    pub fn add(&mut self, id: DocId, text: &str) {
        self.add_segments(id, std::iter::once(text));
    }

    /// Indexes a sequence of text segments under `id`, replacing any
    /// previous document with the same id. Equivalent to [`add`](Self::add)
    /// on the segments joined with a separator: segment boundaries are
    /// token boundaries either way, so callers holding borrowed slices
    /// (multi-valued metadata) can feed them without first concatenating
    /// into an owned string.
    pub fn add_segments<'a>(&mut self, id: DocId, segments: impl IntoIterator<Item = &'a str>) {
        self.remove(&id);
        let ord = self.docs.len() as u32;
        let mut counts: HashMap<String, u32> = HashMap::new();
        let mut len = 0u32;
        for segment in segments {
            for t in tokenize(segment) {
                len += 1;
                *counts.entry(t).or_default() += 1;
            }
        }
        self.docs.push(id.clone());
        self.doc_len.push(len);
        self.by_id.insert(id, ord);
        for (term, tf) in counts {
            self.terms.entry(term).or_default().push(Posting { doc: ord, tf });
        }
    }

    /// Removes the document with `id`. Returns `true` when it was present.
    pub fn remove(&mut self, id: &DocId) -> bool {
        match self.by_id.remove(id) {
            Some(ord) => {
                self.tombstones.insert(ord);
                true
            }
            None => false,
        }
    }

    /// Returns `true` when a live document with `id` exists.
    pub fn contains(&self, id: &DocId) -> bool {
        self.by_id.contains_key(id)
    }

    /// Executes a Boolean query, returning matching ids in indexing order.
    pub fn execute(&self, query: &Query) -> Vec<DocId> {
        let matches = self.eval(query);
        matches
            .into_iter()
            .filter(|ord| !self.tombstones.contains(ord))
            .map(|ord| self.docs[ord as usize].clone())
            .collect()
    }

    fn all_live(&self) -> BTreeSet<u32> {
        (0..self.docs.len() as u32)
            .filter(|o| !self.tombstones.contains(o))
            .collect()
    }

    fn eval(&self, query: &Query) -> BTreeSet<u32> {
        match query {
            Query::Term(t) => self
                .terms
                .get(t)
                .map(|ps| ps.iter().map(|p| p.doc).collect())
                .unwrap_or_default(),
            Query::Prefix(p) => {
                let mut out = BTreeSet::new();
                for (term, ps) in self.terms.range(p.clone()..) {
                    if !term.starts_with(p.as_str()) {
                        break;
                    }
                    out.extend(ps.iter().map(|p| p.doc));
                }
                out
            }
            Query::And(qs) => {
                let mut iter = qs.iter();
                let mut acc = match iter.next() {
                    Some(q) => self.eval(q),
                    None => return self.all_live(),
                };
                for q in iter {
                    let rhs = self.eval(q);
                    acc = acc.intersection(&rhs).copied().collect();
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            Query::Or(qs) => {
                let mut acc = BTreeSet::new();
                for q in qs {
                    acc.extend(self.eval(q));
                }
                acc
            }
            Query::Not(q) => {
                let inner = self.eval(q);
                self.all_live().difference(&inner).copied().collect()
            }
        }
    }

    /// Ranked retrieval: scores documents containing any query term by
    /// tf-idf and returns `(id, score)` pairs sorted by descending score
    /// (ties broken by indexing order).
    pub fn ranked(&self, terms: &[&str]) -> Vec<(DocId, f64)> {
        let n = self.len() as f64;
        if n == 0.0 {
            return Vec::new();
        }
        let mut scores: HashMap<u32, f64> = HashMap::new();
        for term in terms {
            let Some(postings) = self.terms.get(*term) else {
                continue;
            };
            let df = postings
                .iter()
                .filter(|p| !self.tombstones.contains(&p.doc))
                .count() as f64;
            if df == 0.0 {
                continue;
            }
            let idf = (n / df).ln() + 1.0;
            for p in postings {
                if self.tombstones.contains(&p.doc) {
                    continue;
                }
                let len = self.doc_len[p.doc as usize].max(1) as f64;
                *scores.entry(p.doc).or_default() += (p.tf as f64 / len) * idf;
            }
        }
        let mut out: Vec<(u32, f64)> = scores.into_iter().collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
        out.into_iter()
            .map(|(ord, s)| (self.docs[ord as usize].clone(), s))
            .collect()
    }

    /// Iterates over the live document ids in indexing order.
    pub fn iter(&self) -> impl Iterator<Item = &DocId> {
        self.docs
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.tombstones.contains(&(*i as u32)))
            .map(|(_, d)| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add("d1".into(), "the quick brown fox jumps");
        idx.add("d2".into(), "the lazy dog sleeps");
        idx.add("d3".into(), "quick dogs and quick cats");
        idx
    }

    #[test]
    fn term_query() {
        let idx = sample();
        assert_eq!(idx.execute(&Query::term("quick")), vec![DocId::new("d1"), DocId::new("d3")]);
        assert!(idx.execute(&Query::term("missing")).is_empty());
    }

    #[test]
    fn and_or_not() {
        let idx = sample();
        let q = Query::parse("quick AND dogs").unwrap();
        assert_eq!(idx.execute(&q), vec![DocId::new("d3")]);
        let q = Query::parse("fox OR dog").unwrap();
        assert_eq!(idx.execute(&q), vec![DocId::new("d1"), DocId::new("d2")]);
        let q = Query::parse("NOT quick").unwrap();
        assert_eq!(idx.execute(&q), vec![DocId::new("d2")]);
    }

    #[test]
    fn prefix_query_range_scan() {
        let idx = sample();
        let q = Query::parse("dog*").unwrap();
        assert_eq!(idx.execute(&q), vec![DocId::new("d2"), DocId::new("d3")]);
    }

    #[test]
    fn replace_document() {
        let mut idx = sample();
        idx.add("d1".into(), "entirely new content");
        assert_eq!(idx.len(), 3);
        assert!(idx.execute(&Query::term("fox")).is_empty());
        assert_eq!(idx.execute(&Query::term("entirely")), vec![DocId::new("d1")]);
    }

    #[test]
    fn remove_document() {
        let mut idx = sample();
        assert!(idx.remove(&"d2".into()));
        assert!(!idx.remove(&"d2".into()));
        assert_eq!(idx.len(), 2);
        assert!(!idx.contains(&"d2".into()));
        assert!(idx.execute(&Query::term("lazy")).is_empty());
        // NOT queries must not resurrect tombstones.
        let q = Query::parse("NOT missing").unwrap();
        assert_eq!(idx.execute(&q).len(), 2);
    }

    #[test]
    fn ranked_prefers_higher_tf_and_rarer_terms() {
        let idx = sample();
        let ranked = idx.ranked(&["quick"]);
        assert_eq!(ranked.len(), 2);
        // d3 has tf=2 of "quick" in 5 tokens; d1 has tf=1 in 5 tokens.
        assert_eq!(ranked[0].0, DocId::new("d3"));
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn ranked_empty_index() {
        let idx = InvertedIndex::new();
        assert!(idx.ranked(&["x"]).is_empty());
    }

    #[test]
    fn empty_and_matches_everything() {
        let idx = sample();
        assert_eq!(idx.execute(&Query::And(vec![])).len(), 3);
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut idx = sample();
        idx.remove(&"d1".into());
        let ids: Vec<_> = idx.iter().cloned().collect();
        assert_eq!(ids, vec![DocId::new("d2"), DocId::new("d3")]);
    }

    #[test]
    fn term_count_counts_distinct_terms() {
        let mut idx = InvertedIndex::new();
        idx.add("a".into(), "x x y");
        assert_eq!(idx.term_count(), 2);
    }

    #[test]
    fn add_segments_equals_add_on_joined_text() {
        let values = ["Digital Libraries", "alerting-service", "2005"];
        let mut joined = InvertedIndex::new();
        joined.add("d".into(), &values.join(" "));
        let mut segmented = InvertedIndex::new();
        segmented.add_segments("d".into(), values);
        for term in ["digital", "libraries", "alerting", "service", "2005"] {
            assert_eq!(
                joined.execute(&Query::term(term)),
                segmented.execute(&Query::term(term)),
                "term {term}"
            );
        }
        assert_eq!(joined.ranked(&["digital"]), segmented.ranked(&["digital"]));
        assert_eq!(joined.term_count(), segmented.term_count());
    }

    #[test]
    fn add_segments_replaces_previous_document() {
        let mut idx = InvertedIndex::new();
        idx.add("d".into(), "old words");
        idx.add_segments("d".into(), ["new"]);
        assert!(idx.execute(&Query::term("old")).is_empty());
        assert_eq!(idx.execute(&Query::term("new")), vec![DocId::new("d")]);
        assert_eq!(idx.len(), 1);
    }
}
