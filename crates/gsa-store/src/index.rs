//! An inverted index with Boolean and ranked retrieval.

use crate::query::Query;
use crate::tokenize::for_each_token;
use gsa_types::DocId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// One posting: internal document ordinal and term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Posting {
    doc: u32,
    tf: u32,
}

/// What the index keeps per document ordinal.
#[derive(Debug, Clone)]
struct DocEntry {
    /// `None` once the document was removed or replaced: the ordinal and
    /// its postings are dead until the next compaction drops them.
    id: Option<DocId>,
    /// Tokens in the document.
    len: u32,
    /// Distinct terms in the document: the postings its ordinal owns.
    terms: u32,
}

/// An inverted index over the text fed to [`InvertedIndex::add`].
///
/// Documents are identified by [`DocId`]; re-adding an id replaces the
/// previous version (an updated document after a rebuild) and moves the
/// document to the end of the indexing order.
///
/// Terms are interned to dense `u32` ids the first time a document
/// mentions them — the dictionary is probed with the `&str` the tokenizer
/// hands out, so a known term costs one hash lookup and no `String` — and
/// posting lists live in a `Vec` indexed by term id. A document's term
/// frequencies come from sorting its id list in a reused scratch vector.
///
/// The index is **bounded by its live documents**. Replacing or removing a
/// document only marks its ordinal dead; once the dead ordinals, or the
/// postings they own, outnumber the live ones, the index compacts:
/// dead postings are dropped, ordinals renumbered densely in indexing
/// order, and terms no live document mentions leave the dictionary. Each
/// compaction walks at most twice what it keeps, so the cost is amortised
/// O(1) per posting ever added, and no query walks more than twice the
/// postings the live documents need.
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
    /// The term dictionary, probed once per token. Only ever probed by
    /// key: its iteration order reaches no result.
    term_ids: HashMap<Arc<str>, u32>,
    /// The same dictionary in term order, so prefix queries run as range
    /// scans.
    sorted_terms: BTreeMap<Arc<str>, u32>,
    /// Ids of terms a compaction dropped, handed out again first.
    free_term_ids: Vec<u32>,
    /// Posting lists by term id, each ascending by ordinal.
    postings: Vec<Vec<Posting>>,
    /// Stored postings, dead ones included.
    stored_postings: usize,
    /// Postings owned by live documents.
    live_postings: usize,
    /// Documents by ordinal, in indexing order.
    docs: Vec<DocEntry>,
    /// The ordinal of each live document.
    by_id: HashMap<DocId, u32>,
    /// Tokenizer scratch, reused across documents.
    token_buf: String,
    /// The term ids of the document being added; the ordinal renumbering
    /// during a compaction.
    scratch: Vec<u32>,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        InvertedIndex::default()
    }

    /// The number of live documents.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Returns `true` when the index holds no live documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    ///
    /// # Panics
    ///
    /// Panics when the index would exceed `u32::MAX` ordinals or terms.
    pub fn add_segments<'a>(&mut self, id: DocId, segments: impl IntoIterator<Item = &'a str>) {
        let mut term_ids = std::mem::take(&mut self.scratch);
        let mut token_buf = std::mem::take(&mut self.token_buf);
        term_ids.clear();
        for segment in segments {
            for_each_token(segment, &mut token_buf, |term| term_ids.push(self.intern(term)));
        }
        let len = u32::try_from(term_ids.len()).expect("document token count overflow");
        term_ids.sort_unstable();

        let ord = u32::try_from(self.docs.len()).expect("document ordinal overflow");
        let mut terms = 0;
        for run in term_ids.chunk_by(|a, b| a == b) {
            self.postings[run[0] as usize].push(Posting { doc: ord, tf: run.len() as u32 });
            terms += 1;
        }
        self.stored_postings += terms as usize;
        self.live_postings += terms as usize;
        // A replaced document hands its id over to the new ordinal.
        let id = match self.by_id.get_mut(&id) {
            Some(slot) => {
                let old = std::mem::replace(slot, ord);
                self.kill(old)
            }
            None => {
                self.by_id.insert(id.clone(), ord);
                id
            }
        };
        self.docs.push(DocEntry { id: Some(id), len, terms });
        self.scratch = term_ids;
        self.token_buf = token_buf;
        self.compact_if_mostly_dead();
    }

    /// The id of `term`, entering it into the dictionary when new.
    fn intern(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.term_ids.get(term) {
            return id;
        }
        let id = self.free_term_ids.pop().unwrap_or_else(|| {
            self.postings.push(Vec::new());
            u32::try_from(self.postings.len() - 1).expect("term id overflow")
        });
        let term: Arc<str> = Arc::from(term);
        self.term_ids.insert(Arc::clone(&term), id);
        self.sorted_terms.insert(term, id);
        id
    }

    /// Marks the live ordinal `ord` dead, returning its document's id.
    fn kill(&mut self, ord: u32) -> DocId {
        let entry = &mut self.docs[ord as usize];
        self.live_postings -= entry.terms as usize;
        entry.id.take().expect("a live ordinal")
    }

    /// Removes the document with `id`. Returns `true` when it was present.
    pub fn remove(&mut self, id: &DocId) -> bool {
        match self.by_id.remove(id) {
            Some(ord) => {
                self.kill(ord);
                self.compact_if_mostly_dead();
                true
            }
            None => false,
        }
    }

    /// Keeps the index within twice what its live documents need: once
    /// dead ordinals outnumber live ones, or dead postings live ones, drops
    /// every dead ordinal and posting and every term left without
    /// postings, renumbering the live ordinals densely in their order.
    fn compact_if_mostly_dead(&mut self) {
        if self.docs.len() <= 2 * self.by_id.len() && self.stored_postings <= 2 * self.live_postings {
            return;
        }
        // A live ordinal's new number: the live ordinals before it.
        let remap = &mut self.scratch;
        remap.clear();
        let mut live = 0;
        for entry in &self.docs {
            remap.push(live);
            live += u32::from(entry.id.is_some());
        }
        // Lists of terms outside the dictionary are already empty.
        self.sorted_terms.retain(|term, &mut id| {
            let list = &mut self.postings[id as usize];
            list.retain_mut(|p| {
                let live = self.docs[p.doc as usize].id.is_some();
                p.doc = remap[p.doc as usize];
                live
            });
            let mentioned = !list.is_empty();
            if !mentioned {
                *list = Vec::new();
                self.term_ids.remove(term);
                self.free_term_ids.push(id);
            }
            mentioned
        });
        self.stored_postings = self.live_postings;
        self.docs.retain(|entry| entry.id.is_some());
        for (ord, entry) in self.docs.iter().enumerate() {
            let id = entry.id.as_ref().expect("retained above");
            *self.by_id.get_mut(id).expect("every live document is in by_id") = ord as u32;
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
            .filter_map(|ord| self.docs[ord as usize].id.clone())
            .collect()
    }

    fn is_live(&self, ord: u32) -> bool {
        self.docs[ord as usize].id.is_some()
    }

    fn all_live(&self) -> BTreeSet<u32> {
        (0..self.docs.len() as u32).filter(|&o| self.is_live(o)).collect()
    }

    /// The posting list of `term`, dead postings included.
    fn postings_of(&self, term: &str) -> &[Posting] {
        self.term_ids.get(term).map_or(&[], |&id| &self.postings[id as usize])
    }

    /// The ordinals matching `query`; dead ones may be among them.
    fn eval(&self, query: &Query) -> BTreeSet<u32> {
        match query {
            Query::Term(t) => self.postings_of(t).iter().map(|p| p.doc).collect(),
            Query::Prefix(p) => {
                let mut out = BTreeSet::new();
                let from = (Bound::Included(p.as_str()), Bound::Unbounded);
                for (term, &id) in self.sorted_terms.range::<str, _>(from) {
                    if !term.starts_with(p.as_str()) {
                        break;
                    }
                    out.extend(self.postings[id as usize].iter().map(|p| p.doc));
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
        // Probed and drained into a total order: hash order ends here.
        let mut scores: HashMap<u32, f64> = HashMap::new();
        for term in terms {
            let postings = self.postings_of(term);
            let df = postings.iter().filter(|p| self.is_live(p.doc)).count() as f64;
            if df == 0.0 {
                continue;
            }
            let idf = (n / df).ln() + 1.0;
            for p in postings.iter().filter(|p| self.is_live(p.doc)) {
                let len = self.docs[p.doc as usize].len.max(1) as f64;
                *scores.entry(p.doc).or_default() += (p.tf as f64 / len) * idf;
            }
        }
        let mut out: Vec<(u32, f64)> = scores.into_iter().collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
        out.into_iter()
            .map(|(ord, s)| (self.docs[ord as usize].id.clone().expect("only live ordinals score"), s))
            .collect()
    }

    /// Iterates over the live document ids in indexing order.
    pub fn iter(&self) -> impl Iterator<Item = &DocId> {
        self.docs.iter().filter_map(|entry| entry.id.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;
    use proptest::prelude::*;

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
        assert_eq!(idx.term_ids.len(), 2);
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
        assert_eq!(joined.term_ids.len(), segmented.term_ids.len());
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

    #[test]
    fn term_count_follows_the_live_documents() {
        let mut idx = InvertedIndex::new();
        idx.add("a".into(), "x y");
        idx.add("b".into(), "y z");
        idx.remove(&"a".into());
        idx.remove(&"b".into());
        assert_eq!(idx.term_ids.len(), 0);
        // A dropped term comes back under a reused id.
        idx.add("c".into(), "z z x");
        assert_eq!(idx.term_ids.len(), 2);
        assert_eq!(idx.postings.len(), 3);
        assert_eq!(idx.execute(&Query::term("z")), vec![DocId::new("c")]);
    }

    /// Stored postings, ordinals and dead ordinals, counted from the
    /// structures themselves.
    fn footprint(idx: &InvertedIndex) -> (usize, usize, usize) {
        let postings = idx.postings.iter().map(Vec::len).sum();
        let dead = idx.docs.iter().filter(|entry| entry.id.is_none()).count();
        assert_eq!(postings, idx.stored_postings);
        assert_eq!(idx.docs.len() - dead, idx.by_id.len());
        (postings, idx.docs.len(), dead)
    }

    /// The satellite bug: the index grew with every rebuild, not with the
    /// collection. 512 ids replaced (or removed and re-added) round after
    /// round — the benchmark's steady state — must leave no more than
    /// twice what the live documents need, and a term query must not walk
    /// more postings in round 200 than in round 1.
    fn assert_bounded_under_churn(remove_first: bool) {
        const IDS: usize = 512;
        const ROUNDS: usize = 200;
        // 40 words a document: `common` in every one, the rest drawn
        // from a vocabulary the rounds keep shifting through.
        let text = |id: usize, round: usize| {
            let words = (0..39).map(|k| format!("w{}", (id * 7 + round * 13 + k * k) % 600));
            std::iter::once("common".to_string()).chain(words).collect::<Vec<_>>().join(" ")
        };
        let mut idx = InvertedIndex::new();
        let mut needed = vec![0usize; IDS];
        let common = Query::term("common");
        for round in 0..ROUNDS {
            for (id, needed) in needed.iter_mut().enumerate() {
                let doc = DocId::new(format!("d{id:03}"));
                let text = text(id, round);
                if remove_first {
                    assert_eq!(idx.remove(&doc), round > 0);
                }
                idx.add(doc, &text);
                *needed = tokenize(&text).into_iter().collect::<BTreeSet<_>>().len();
                // Cheap after every operation, recounted below.
                let live = idx.len();
                assert!(idx.docs.len() <= 2 * live && idx.stored_postings <= 2 * idx.live_postings);
            }
            let (postings, ordinals, dead) = footprint(&idx);
            let needed: usize = needed.iter().sum();
            assert_eq!(idx.live_postings, needed);
            assert!(postings <= 2 * needed, "round {round}: {postings} postings for {needed}");
            assert!(ordinals <= 2 * IDS && dead <= IDS, "round {round}: {ordinals} ordinals, {dead} dead");
            // What `execute` walks for a term is its posting list.
            let touched = idx.postings_of("common").len();
            assert!(touched <= 2 * IDS, "round {round}: a term query walks {touched} postings");
            assert_eq!(idx.execute(&common).len(), IDS);
            assert!(idx.term_ids.len() <= 600 + 1);
        }
        // Indexing order is replacement order, compactions or not.
        let expected: Vec<DocId> = (0..IDS).map(|id| DocId::new(format!("d{id:03}"))).collect();
        assert_eq!(idx.execute(&common), expected);
    }

    #[test]
    fn replacing_documents_keeps_the_index_bounded_by_its_live_documents() {
        assert_bounded_under_churn(false);
    }

    #[test]
    fn removing_and_re_adding_keeps_the_index_bounded_by_its_live_documents() {
        assert_bounded_under_churn(true);
    }

    /// What the index is held to: the documents in indexing order, each
    /// with its tokens, scanned for every question.
    #[derive(Default)]
    struct Model(Vec<(DocId, Vec<String>)>);

    impl Model {
        fn remove(&mut self, id: &DocId) {
            self.0.retain(|(d, _)| d != id);
        }

        fn add(&mut self, id: DocId, segments: &[String]) {
            self.remove(&id);
            self.0.push((id, segments.iter().flat_map(|s| tokenize(s)).collect()));
        }

        fn matches(tokens: &[String], query: &Query) -> bool {
            match query {
                Query::Term(t) => tokens.contains(t),
                Query::Prefix(p) => tokens.iter().any(|t| t.starts_with(p.as_str())),
                Query::And(qs) => qs.iter().all(|q| Model::matches(tokens, q)),
                Query::Or(qs) => qs.iter().any(|q| Model::matches(tokens, q)),
                Query::Not(q) => !Model::matches(tokens, q),
            }
        }

        fn execute(&self, query: &Query) -> Vec<DocId> {
            let hits = self.0.iter().filter(|(_, tokens)| Model::matches(tokens, query));
            hits.map(|(id, _)| id.clone()).collect()
        }

        fn ranked(&self, terms: &[&str]) -> Vec<(DocId, f64)> {
            let tf = |tokens: &[String], term: &str| tokens.iter().filter(|t| *t == term).count();
            let mut scores = vec![0.0; self.0.len()];
            for term in terms {
                let df = self.0.iter().filter(|(_, tokens)| tf(tokens, term) > 0).count();
                for (score, (_, tokens)) in scores.iter_mut().zip(&self.0) {
                    if tf(tokens, term) > 0 {
                        let idf = (self.0.len() as f64 / df as f64).ln() + 1.0;
                        *score += tf(tokens, term) as f64 / tokens.len() as f64 * idf;
                    }
                }
            }
            let mut out: Vec<(usize, f64)> = scores.into_iter().enumerate().filter(|(_, s)| *s > 0.0).collect();
            out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            out.into_iter().map(|(at, s)| (self.0[at].0.clone(), s)).collect()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Add(u8, String),
        AddSegments(u8, Vec<String>),
        Remove(u8),
    }

    /// Texts over two letters, so terms repeat, share prefixes and differ
    /// in case, with `İ` for a lowercasing that changes length.
    fn op() -> impl Strategy<Value = Op> {
        let text = "[abAB ,İ]{0,12}";
        prop_oneof![
            (0u8..5, text).prop_map(|(id, text)| Op::Add(id, text)),
            (0u8..5, text).prop_map(|(id, text)| Op::Add(id, text)),
            (0u8..5, prop::collection::vec(text, 0..4)).prop_map(|(id, segs)| Op::AddSegments(id, segs)),
            (0u8..5).prop_map(Op::Remove),
        ]
    }

    fn query() -> impl Strategy<Value = Query> {
        let leaf = prop_oneof!["[ab]{1,3}".prop_map(Query::Term), "[ab]{1,2}".prop_map(Query::Prefix)];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..3).prop_map(Query::And),
                prop::collection::vec(inner.clone(), 0..3).prop_map(Query::Or),
                inner.prop_map(|q| Query::Not(Box::new(q))),
            ]
        })
    }

    proptest! {
        #[test]
        fn index_equals_a_scan_of_its_documents(
            ops in prop::collection::vec(op(), 16..48),
            queries in prop::collection::vec(query(), 4..5),
            ranked in prop::collection::vec("[ab]{1,3}", 0..4),
        ) {
            let ranked: Vec<&str> = ranked.iter().map(String::as_str).collect();
            let (mut idx, mut model) = (InvertedIndex::new(), Model::default());
            let mut compactions = 0;
            for op in &ops {
                let ordinals = idx.docs.len();
                let doc = |id: &u8| DocId::new(format!("d{id}"));
                match op {
                    Op::Add(id, text) => {
                        idx.add(doc(id), text);
                        model.add(doc(id), std::slice::from_ref(text));
                    }
                    Op::AddSegments(id, segments) => {
                        idx.add_segments(doc(id), segments.iter().map(String::as_str));
                        model.add(doc(id), segments);
                    }
                    Op::Remove(id) => {
                        prop_assert_eq!(idx.remove(&doc(id)), model.0.iter().any(|(d, _)| *d == doc(id)));
                        model.remove(&doc(id));
                    }
                }
                let added = usize::from(!matches!(op, Op::Remove(_)));
                compactions += usize::from(idx.docs.len() < ordinals + added);

                prop_assert_eq!(idx.len(), model.0.len());
                prop_assert_eq!(idx.iter().collect::<Vec<_>>(), model.0.iter().map(|(id, _)| id).collect::<Vec<_>>());
                for id in 0..5 {
                    prop_assert_eq!(idx.contains(&doc(&id)), model.0.iter().any(|(d, _)| *d == doc(&id)));
                }
                for query in &queries {
                    prop_assert!(idx.execute(query) == model.execute(query), "{query} after {op:?}");
                }
                let (got, want) = (idx.ranked(&ranked), model.ranked(&ranked));
                prop_assert_eq!(got.len(), want.len());
                for ((got_id, got_score), (want_id, want_score)) in got.iter().zip(&want) {
                    prop_assert!(got_id == want_id && (got_score - want_score).abs() <= 1e-12, "{got:?} vs {want:?}");
                }
                footprint(&idx);
            }
            prop_assert!(compactions > 0, "no compaction in {} operations", ops.len());
        }
    }
}
