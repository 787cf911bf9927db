//! The query language shared by searching and filtering.
//!
//! A [`Query`] is a Boolean combination of term and prefix predicates. The
//! same AST is evaluated two ways:
//!
//! * against an inverted index ([`crate::InvertedIndex::execute`]) when a
//!   user searches a collection, and
//! * against a single document ([`Query::matches_tokens`]) when the filter
//!   engine checks an incoming event's documents against a profile's
//!   filter-query predicate — "profiles as continuous queries" (Section 5).
//!
//! A small text syntax is provided by [`Query::parse`]:
//!
//! ```text
//! query  := or
//! or     := and ( OR and )*
//! and    := unary ( [AND] unary )*      -- juxtaposition means AND
//! unary  := NOT unary | '(' query ')' | term
//! term   := word | word'*'              -- trailing * is a prefix match
//! ```

use crate::tokenize::{normalize_term, TokenSet};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A Boolean retrieval query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Query {
    /// Matches documents containing the (normalized) term.
    Term(String),
    /// Matches documents containing any term with this prefix.
    Prefix(String),
    /// Matches documents matching every sub-query.
    And(Vec<Query>),
    /// Matches documents matching at least one sub-query.
    Or(Vec<Query>),
    /// Matches documents *not* matching the sub-query.
    Not(Box<Query>),
}

impl Query {
    /// Convenience constructor normalizing the term.
    ///
    /// # Panics
    ///
    /// Panics when `term` has no token characters; use [`Query::parse`] for
    /// untrusted input.
    pub fn term(term: &str) -> Query {
        Query::Term(normalize_term(term).expect("term must contain token characters"))
    }

    /// Convenience constructor for a prefix query.
    ///
    /// # Panics
    ///
    /// Panics when `prefix` has no token characters.
    pub fn prefix(prefix: &str) -> Query {
        Query::Prefix(normalize_term(prefix).expect("prefix must contain token characters"))
    }

    /// Parses the textual query syntax.
    ///
    /// # Errors
    ///
    /// Returns [`ParseQueryError`] on empty input, unbalanced parentheses
    /// or dangling operators.
    pub fn parse(input: &str) -> Result<Query, ParseQueryError> {
        let tokens = lex(input);
        let mut parser = QueryParser { tokens, pos: 0 };
        let q = parser.parse_or()?;
        if parser.pos != parser.tokens.len() {
            return Err(ParseQueryError::new("unexpected trailing input"));
        }
        Ok(q)
    }

    /// Evaluates this query against one document given its token set:
    /// terms and prefixes are binary searches in it.
    pub fn matches_tokens(&self, tokens: &TokenSet) -> bool {
        match self {
            Query::Term(t) => tokens.contains(t),
            Query::Prefix(p) => tokens.any_with_prefix(p),
            Query::And(qs) => qs.iter().all(|q| q.matches_tokens(tokens)),
            Query::Or(qs) => qs.iter().any(|q| q.matches_tokens(tokens)),
            Query::Not(q) => !q.matches_tokens(tokens),
        }
    }

    /// Evaluates this query against raw text (tokenizing it first).
    pub fn matches_text(&self, text: &str) -> bool {
        self.matches_tokens(&TokenSet::of(text))
    }

    /// Visits the query's *required* terms: the query itself when it is
    /// a [`Query::Term`], and every `Term` reached through [`Query::And`]
    /// nodes only. A token set the query matches contains each of them,
    /// so a filter index may key the query on any one and still verify
    /// the whole query on the candidates. Prefixes, and anything under an
    /// `Or` or a `Not`, are not required.
    pub fn each_required_term<'a>(&'a self, visit: &mut impl FnMut(&'a str)) {
        match self {
            Query::Term(t) => visit(t),
            Query::And(qs) => {
                for q in qs {
                    q.each_required_term(visit);
                }
            }
            Query::Prefix(_) | Query::Or(_) | Query::Not(_) => {}
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Term(t) => write!(f, "{t}"),
            Query::Prefix(p) => write!(f, "{p}*"),
            Query::And(qs) => {
                write!(f, "(")?;
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{q}")?;
                }
                write!(f, ")")
            }
            Query::Or(qs) => {
                write!(f, "(")?;
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{q}")?;
                }
                write!(f, ")")
            }
            Query::Not(q) => write!(f, "NOT {q}"),
        }
    }
}

/// Error parsing the textual query syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQueryError {
    message: String,
}

impl ParseQueryError {
    fn new(message: impl Into<String>) -> Self {
        ParseQueryError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid query: {}", self.message)
    }
}

impl Error for ParseQueryError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Word(String, bool), // token, is_prefix
    And,
    Or,
    Not,
    Open,
    Close,
}

fn lex(input: &str) -> Vec<Tok> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c == '(' {
            tokens.push(Tok::Open);
            chars.next();
        } else if c == ')' {
            tokens.push(Tok::Close);
            chars.next();
        } else if c.is_alphanumeric() {
            let mut word = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_alphanumeric() {
                    for lc in c.to_lowercase() {
                        word.push(lc);
                    }
                    chars.next();
                } else {
                    break;
                }
            }
            let is_prefix = chars.peek() == Some(&'*');
            if is_prefix {
                chars.next();
            }
            match (word.as_str(), is_prefix) {
                ("and", false) => tokens.push(Tok::And),
                ("or", false) => tokens.push(Tok::Or),
                ("not", false) => tokens.push(Tok::Not),
                _ => tokens.push(Tok::Word(word, is_prefix)),
            }
        } else {
            chars.next();
        }
    }
    tokens
}

struct QueryParser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl QueryParser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn parse_or(&mut self) -> Result<Query, ParseQueryError> {
        let mut parts = vec![self.parse_and()?];
        while self.peek() == Some(&Tok::Or) {
            self.pos += 1;
            parts.push(self.parse_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            Query::Or(parts)
        })
    }

    fn parse_and(&mut self) -> Result<Query, ParseQueryError> {
        let mut parts = vec![self.parse_unary()?];
        loop {
            match self.peek() {
                Some(Tok::And) => {
                    self.pos += 1;
                    parts.push(self.parse_unary()?);
                }
                Some(Tok::Word(..)) | Some(Tok::Not) | Some(Tok::Open) => {
                    parts.push(self.parse_unary()?);
                }
                _ => break,
            }
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            Query::And(parts)
        })
    }

    fn parse_unary(&mut self) -> Result<Query, ParseQueryError> {
        match self.peek().cloned() {
            Some(Tok::Not) => {
                self.pos += 1;
                Ok(Query::Not(Box::new(self.parse_unary()?)))
            }
            Some(Tok::Open) => {
                self.pos += 1;
                let q = self.parse_or()?;
                if self.peek() != Some(&Tok::Close) {
                    return Err(ParseQueryError::new("missing closing parenthesis"));
                }
                self.pos += 1;
                Ok(q)
            }
            Some(Tok::Word(w, is_prefix)) => {
                self.pos += 1;
                Ok(if is_prefix {
                    Query::Prefix(w)
                } else {
                    Query::Term(w)
                })
            }
            Some(tok) => Err(ParseQueryError::new(format!("unexpected token {tok:?}"))),
            None => Err(ParseQueryError::new("empty query")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_single_term() {
        assert_eq!(Query::parse("Fox").unwrap(), Query::Term("fox".into()));
    }

    #[test]
    fn parse_implicit_and() {
        assert_eq!(
            Query::parse("quick fox").unwrap(),
            Query::And(vec![Query::Term("quick".into()), Query::Term("fox".into())])
        );
    }

    #[test]
    fn parse_or_and_precedence() {
        // AND binds tighter than OR.
        let q = Query::parse("a b OR c").unwrap();
        assert_eq!(
            q,
            Query::Or(vec![
                Query::And(vec![Query::Term("a".into()), Query::Term("b".into())]),
                Query::Term("c".into()),
            ])
        );
    }

    #[test]
    fn parse_not_and_parens() {
        let q = Query::parse("NOT (a OR b) c").unwrap();
        assert_eq!(
            q,
            Query::And(vec![
                Query::Not(Box::new(Query::Or(vec![
                    Query::Term("a".into()),
                    Query::Term("b".into()),
                ]))),
                Query::Term("c".into()),
            ])
        );
    }

    #[test]
    fn parse_prefix() {
        assert_eq!(Query::parse("digi*").unwrap(), Query::Prefix("digi".into()));
    }

    #[test]
    fn parse_errors() {
        assert!(Query::parse("").is_err());
        assert!(Query::parse("(a").is_err());
        assert!(Query::parse("a )").is_err());
        assert!(Query::parse("AND").is_err());
        assert!(Query::parse("NOT").is_err());
    }

    #[test]
    fn matches_text_boolean_semantics() {
        let q = Query::parse("quick AND fox").unwrap();
        assert!(q.matches_text("the quick brown fox"));
        assert!(!q.matches_text("the quick brown cat"));

        let q = Query::parse("quick OR cat").unwrap();
        assert!(q.matches_text("a cat"));

        let q = Query::parse("NOT cat").unwrap();
        assert!(q.matches_text("a dog"));
        assert!(!q.matches_text("a cat"));
    }

    #[test]
    fn prefix_matches() {
        let q = Query::parse("libr*").unwrap();
        assert!(q.matches_text("digital libraries"));
        assert!(q.matches_text("a library"));
        assert!(!q.matches_text("librarian-free zone".replace("librarian", "bookish").as_str()));
    }

    #[test]
    fn prefix_range_scan_does_not_overshoot() {
        // "libz" sorts after every "libr..." token; ensure no false match.
        let q = Query::Prefix("libr".into());
        assert!(!q.matches_tokens(&TokenSet::of("libz")));
    }

    #[test]
    fn display_round_trips_through_parse() {
        for text in ["a AND b", "a OR (b AND NOT c)", "pre* x", "NOT (a OR b)"] {
            let q = Query::parse(text).unwrap();
            let q2 = Query::parse(&q.to_string()).unwrap();
            assert_eq!(q, q2, "query text {text}");
        }
    }

    #[test]
    fn required_terms_are_the_and_reachable_terms_only() {
        let required = |text: &str| {
            let q = Query::parse(text).unwrap();
            let mut out = Vec::new();
            q.each_required_term(&mut |t| out.push(t.to_string()));
            out
        };
        assert_eq!(required("fox"), ["fox"]);
        assert_eq!(required("a AND (b AND c) AND d*"), ["a", "b", "c"]);
        assert_eq!(required("a AND (b OR c) AND NOT d"), ["a"]);
        assert!(required("a OR b").is_empty());
        assert!(required("pre*").is_empty());
        assert!(required("NOT a").is_empty());
        // Whatever the query matches contains every required term.
        let q = Query::parse("quick AND (fox OR cat) AND NOT dog").unwrap();
        assert!(q.matches_text("a quick cat") && !q.matches_text("a cat"));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(Query::parse("a and b").unwrap(), Query::parse("a AND b").unwrap());
        assert_eq!(Query::parse("not a").unwrap(), Query::parse("NOT a").unwrap());
    }
}
