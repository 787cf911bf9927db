//! Zipfian text and document synthesis.

use gsa_store::SourceDocument;
use gsa_types::{keys, MetadataRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Subject pool used for `dc.Subject` metadata.
pub(crate) const SUBJECTS: &[&str] = &[
    "digital-libraries",
    "alerting",
    "publish-subscribe",
    "information-retrieval",
    "metadata",
    "distributed-systems",
    "archives",
    "music",
    "images",
    "history",
];

/// Author pool used for `dc.Creator` metadata.
pub(crate) const AUTHORS: &[&str] = &[
    "Hinze", "Buchanan", "Witten", "Bainbridge", "Schweer", "Bittner", "Carzaniga", "Faensen",
    "Koubarakis", "Yan",
];

/// Generates documents with Zipf-distributed vocabulary — frequent terms
/// are shared across many documents, rare terms discriminate, which is
/// the regime content filters face.
///
/// # Examples
///
/// ```
/// use gsa_workload::DocumentGenerator;
/// let mut g = DocumentGenerator::new(7);
/// let a = g.document("d1");
/// let mut g2 = DocumentGenerator::new(7);
/// let b = g2.document("d1");
/// assert_eq!(a, b); // seeded determinism
/// ```
#[derive(Debug)]
pub struct DocumentGenerator {
    rng: StdRng,
    vocab: Vec<String>,
    cdf: Vec<f64>,
    doc_len: usize,
}

impl DocumentGenerator {
    /// A generator with the default shape: 2000-word vocabulary, Zipf
    /// exponent 1.1, 80-word documents.
    pub fn new(seed: u64) -> Self {
        DocumentGenerator::with_shape(seed, 2000, 1.1, 80)
    }

    /// Full control over vocabulary size, Zipf exponent and document
    /// length.
    ///
    /// # Panics
    ///
    /// Panics when `vocab_size` or `doc_len` is zero.
    pub fn with_shape(seed: u64, vocab_size: usize, exponent: f64, doc_len: usize) -> Self {
        assert!(vocab_size > 0, "vocab_size must be positive");
        assert!(doc_len > 0, "doc_len must be positive");
        let vocab: Vec<String> = (0..vocab_size).map(|i| format!("term{i:05}")).collect();
        let mut cdf = Vec::with_capacity(vocab_size);
        let mut total = 0.0;
        for rank in 1..=vocab_size {
            total += 1.0 / (rank as f64).powf(exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        DocumentGenerator {
            rng: StdRng::seed_from_u64(seed),
            vocab,
            cdf,
            doc_len,
        }
    }

    fn sample_word(&mut self) -> &str {
        let u: f64 = self.rng.random();
        let idx = self
            .cdf
            .partition_point(|c| *c < u)
            .min(self.vocab.len() - 1);
        &self.vocab[idx]
    }

    /// Produces one paragraph of Zipfian text.
    pub fn text(&mut self) -> String {
        let mut words = Vec::with_capacity(self.doc_len);
        for _ in 0..self.doc_len {
            let w = self.sample_word().to_string();
            words.push(w);
        }
        words.join(" ")
    }

    /// Produces a full document: text plus title/creator/subject/date
    /// metadata drawn from the pools.
    pub fn document(&mut self, id: &str) -> SourceDocument {
        let text = self.text();
        let title: String = text
            .split(' ')
            .take(4)
            .collect::<Vec<_>>()
            .join(" ");
        let mut md = MetadataRecord::new();
        md.set(keys::TITLE, title);
        md.set(keys::CREATOR, AUTHORS[self.rng.random_range(0..AUTHORS.len())]);
        let n_subjects = self.rng.random_range(1..=2);
        for _ in 0..n_subjects {
            md.add(
                keys::SUBJECT,
                SUBJECTS[self.rng.random_range(0..SUBJECTS.len())],
            );
        }
        md.set(
            keys::DATE,
            format!("200{}-0{}-1{}", self.rng.random_range(0..6), self.rng.random_range(1..10), self.rng.random_range(0..10)),
        );
        SourceDocument::new(id, text).with_metadata(md)
    }

    /// Produces `n` documents with ids `prefix-0..n`.
    pub fn documents(&mut self, prefix: &str, n: usize) -> Vec<SourceDocument> {
        (0..n)
            .map(|i| self.document(&format!("{prefix}-{i}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = DocumentGenerator::new(3);
        let mut b = DocumentGenerator::new(3);
        assert_eq!(a.text(), b.text());
        assert_eq!(a.document("x"), b.document("x"));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DocumentGenerator::new(3);
        let mut b = DocumentGenerator::new(4);
        assert_ne!(a.text(), b.text());
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let mut g = DocumentGenerator::with_shape(5, 100, 1.2, 1000);
        let text = g.text();
        let first = g.vocab[0].clone();
        let last = g.vocab[g.vocab.len() - 1].clone();
        let count = |t: &str| text.split(' ').filter(|w| *w == t).count();
        assert!(count(&first) > count(&last));
        assert!(count(&first) >= 10, "rank-1 term should be common");
    }

    #[test]
    fn documents_carry_metadata() {
        let mut g = DocumentGenerator::new(1);
        let d = g.document("doc-1");
        assert!(d.metadata.first(keys::TITLE).is_some());
        assert!(d.metadata.first(keys::CREATOR).is_some());
        assert!(!d.metadata.all(keys::SUBJECT).is_empty());
        assert!(d.metadata.first(keys::DATE).unwrap().starts_with("200"));
        assert_eq!(d.id.as_str(), "doc-1");
    }

    #[test]
    fn documents_batch_ids() {
        let mut g = DocumentGenerator::new(1);
        let docs = g.documents("b", 3);
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[2].id.as_str(), "b-2");
    }

    #[test]
    #[should_panic(expected = "vocab_size")]
    fn zero_vocab_panics() {
        let _ = DocumentGenerator::with_shape(1, 0, 1.0, 10);
    }
}
