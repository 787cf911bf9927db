//! Text tokenization.
//!
//! The tokenizer is intentionally simple and language-agnostic — lowercase
//! alphanumeric runs — matching the level of text processing the paper's
//! filter layer assumes. There is one implementation, [`for_each_token`]:
//! it hands each token to a visitor as a `&str` and allocates nothing per
//! token. Index build ([`crate::InvertedIndex`]), query normalization
//! ([`normalize_term`]) and single-document matching ([`TokenSet`], which
//! the filter engine fills from an event's excerpt on the subscriber side)
//! all go through it, so they agree on token boundaries by construction.

/// Visits the lowercase alphanumeric tokens of `text` in order.
///
/// Tokens are maximal runs of alphanumeric characters; everything else is
/// a separator. Numbers are kept as tokens. A run that is already
/// lowercase ASCII is handed to `visit` as a slice of `text`; any other
/// run is lowercased into `buf` first — ASCII bytes in place,
/// `char::to_lowercase` (which may expand one character into several) for
/// the rest. `buf` is scratch space: pass the same one again and the
/// tokenizer never allocates once it has grown to the longest such token.
pub fn for_each_token(text: &str, buf: &mut String, mut visit: impl FnMut(&str)) {
    let runs = text.split(|c: char| !c.is_alphanumeric());
    for run in runs.filter(|run| !run.is_empty()) {
        if run.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()) {
            visit(run);
            continue;
        }
        buf.clear();
        if run.is_ascii() {
            buf.push_str(run);
            buf.make_ascii_lowercase();
        } else {
            run.chars().for_each(|c| buf.extend(c.to_lowercase()));
        }
        visit(buf);
    }
}

/// Splits `text` into lowercase alphanumeric tokens, each an owned
/// `String`: [`for_each_token`] for callers that want to keep them.
///
/// # Examples
///
/// ```
/// use gsa_store::tokenize;
/// assert_eq!(tokenize("Greenstone 3: Alerting!"), vec!["greenstone", "3", "alerting"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, &mut String::new(), |t| tokens.push(t.to_string()));
    tokens
}

/// Normalizes a single query term the same way document text is tokenized;
/// returns `None` when the term contains no token characters.
pub(crate) fn normalize_term(term: &str) -> Option<String> {
    let mut first = None;
    for_each_token(term, &mut String::new(), |t| {
        first.get_or_insert_with(|| t.to_string());
    });
    first
}

/// The distinct tokens of one text, for evaluating a
/// [`Query`](crate::Query) against a single document.
///
/// Tokens are stored back to back in one buffer and addressed by spans
/// sorted in token order, so membership and prefix tests are binary
/// searches and [`fill`](TokenSet::fill)ing a set that has grown to its
/// working size allocates nothing — the filter engine keeps one per
/// matching thread and refills it for every document.
#[derive(Debug, Clone, Default)]
pub struct TokenSet {
    /// Every token of the text, lowercased, in text order.
    buf: String,
    /// `(start, end)` of each distinct token in `buf`, sorted by token.
    spans: Vec<(u32, u32)>,
    /// Lowercasing scratch of the tokenizer.
    scratch: String,
}

impl TokenSet {
    /// The distinct tokens of `text`.
    pub fn of(text: &str) -> Self {
        let mut set = TokenSet::default();
        set.fill(text);
        set
    }

    /// Replaces the contents with the distinct tokens of `text`.
    ///
    /// # Panics
    ///
    /// Panics when the tokens of `text` exceed 4 GiB.
    pub fn fill(&mut self, text: &str) {
        let TokenSet { buf, spans, scratch } = self;
        buf.clear();
        spans.clear();
        for_each_token(text, scratch, |token| {
            let start = buf.len();
            buf.push_str(token);
            let end = u32::try_from(buf.len()).expect("token buffer overflow");
            spans.push((start as u32, end));
        });
        let token = |&(start, end): &(u32, u32)| &buf[start as usize..end as usize];
        spans.sort_unstable_by(|a, b| token(a).cmp(token(b)));
        spans.dedup_by(|a, b| token(&*a) == token(&*b));
    }

    /// The distinct tokens in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.spans.iter().map(|&span| self.token(span))
    }

    /// Whether `term` is one of the tokens.
    pub fn contains(&self, term: &str) -> bool {
        self.spans
            .binary_search_by(|&span| self.token(span).cmp(term))
            .is_ok()
    }

    /// Whether some token starts with `prefix`.
    pub fn any_with_prefix(&self, prefix: &str) -> bool {
        // The first token not below the prefix is the smallest that can
        // start with it.
        let at = self.spans.partition_point(|&span| self.token(span) < prefix);
        self.spans
            .get(at)
            .is_some_and(|&span| self.token(span).starts_with(prefix))
    }

    fn token(&self, (start, end): (u32, u32)) -> &str {
        &self.buf[start as usize..end as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The tokenizer this crate shipped before [`for_each_token`]: one
    /// `String` per token, every character through `char::to_lowercase`.
    /// Kept as the oracle the one-pass tokenizer is held to.
    fn reference_tokenize(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        for c in text.chars() {
            if c.is_alphanumeric() {
                for lc in c.to_lowercase() {
                    current.push(lc);
                }
            } else if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            tokens.push(current);
        }
        tokens
    }

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(tokenize("a,b  c-d"), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("HeLLo WORLD"), vec!["hello", "world"]);
    }

    #[test]
    fn keeps_numbers() {
        assert_eq!(tokenize("ICDCS 2005"), vec!["icdcs", "2005"]);
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ...").is_empty());
    }

    #[test]
    fn unicode_is_supported() {
        assert_eq!(tokenize("Universität Dortmund"), vec!["universität", "dortmund"]);
    }

    #[test]
    fn normalize_term_takes_first_token() {
        assert_eq!(normalize_term("  FoX!"), Some("fox".to_string()));
        assert_eq!(normalize_term("..."), None);
    }

    #[test]
    fn lowercasing_that_changes_length_or_script() {
        // `İ` lowercases to two chars, the Kelvin sign to ASCII `k`, `ß`
        // to itself; a combining mark is a separator unless alphabetic.
        for text in ["İstanbul İ", "290 K", "Straße STRASSE", "e\u{301}a x\u{345}y", "Σίσυφος ΑΣ"] {
            assert_eq!(tokenize(text), reference_tokenize(text), "{text:?}");
        }
        assert_eq!(tokenize("İ"), vec!["i\u{307}"]);
        assert_eq!(tokenize("\u{212a}"), vec!["k"]);
    }

    #[test]
    fn token_set_is_sorted_and_distinct() {
        let set = TokenSet::of("the Quick fox, the quick FOX");
        assert_eq!(set.iter().collect::<Vec<_>>(), ["fox", "quick", "the"]);
        assert!(set.contains("quick") && !set.contains("qui"));
        assert!(set.any_with_prefix("qui") && !set.any_with_prefix("quid"));
        assert!(!TokenSet::of("").any_with_prefix("a"));
    }

    /// Text over an alphabet that exercises every branch: both ASCII
    /// cases, digits, separators, expanding and script-changing
    /// lowercasings, final sigma, alphabetic and non-alphabetic combining
    /// marks, a non-ASCII digit and a non-ASCII separator.
    fn texts() -> impl Strategy<Value = String> {
        "[a-cA-C0-2 ,.\\-İßKΣσςÄäéЖж٣\u{212a}\u{301}\u{345}\u{2014}\u{1F600}]{0,24}"
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn one_pass_tokenizer_equals_reference(text in texts()) {
            prop_assert_eq!(tokenize(&text), reference_tokenize(&text));
            prop_assert_eq!(normalize_term(&text), reference_tokenize(&text).into_iter().next());
        }

        #[test]
        fn token_set_equals_btree_set(text in texts(), probes in prop::collection::vec(texts(), 0..6)) {
            let model: BTreeSet<String> = reference_tokenize(&text).into_iter().collect();
            let set = TokenSet::of(&text);
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().collect::<Vec<_>>());
            // Probe with tokens of the text, their proper prefixes and
            // tokens of unrelated texts.
            let prefixes = model.iter().flat_map(|t| t.char_indices().map(|(i, _)| t[..i].to_string()));
            let foreign = probes.iter().flat_map(|p| reference_tokenize(p));
            for probe in model.iter().cloned().chain(prefixes).chain(foreign) {
                prop_assert!(set.contains(&probe) == model.contains(&probe), "contains {probe:?}");
                let by_range = model.range(probe.clone()..).next().is_some_and(|t| t.starts_with(&probe));
                prop_assert!(set.any_with_prefix(&probe) == by_range, "prefix {probe:?}");
            }
        }
    }
}
