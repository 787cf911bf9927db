//! The textual profile syntax.
//!
//! ```text
//! expr  := or
//! or    := and ( OR and )*
//! and   := unary ( AND unary )*
//! unary := NOT unary | '(' expr ')' | pred
//! pred  := attr op value
//! attr  := identifier (dots allowed: dc.Title); reserved: host,
//!          collection, kind, doc, text
//! op/value :=
//!   '=' "string"            exact equality
//!   '~' "pattern"           wildcard ('*' matches any substring)
//!   in ["a", "b", ...]      ID list
//!   ? (query text)          retrieval query, see gsa-store's syntax
//! ```

use crate::attr::{AttrValue, Predicate, ProfileAttr, Wildcard};
use crate::expr::ProfileExpr;
use gsa_store::Query;
use std::error::Error;
use std::fmt;

/// Error parsing the textual profile syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProfileError {
    message: String,
}

impl ParseProfileError {
    fn new(message: impl Into<String>) -> Self {
        ParseProfileError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid profile: {}", self.message)
    }
}

impl Error for ParseProfileError {}

/// A token of the profile syntax. Every one borrows the input: a quoted
/// string, an ID list and a query value are held as written and turned
/// into owned values only when the parser builds the predicate. Its
/// `Debug` is how the "unexpected token" error names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Str(Escaped<'a>),
    /// The text between the parentheses after `?`.
    RawQuery(&'a str),
    List(IdList<'a>),
    Eq,
    Tilde,
    Question,
    In,
    And,
    Or,
    Not,
    Open,
    Close,
}

/// The text between a string's quotes, escapes still in. Shows as the
/// value it stands for.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Escaped<'a>(&'a str);

impl fmt::Debug for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&unescape(self.0), f)
    }
}

/// An ID list from `[` to `]`, which the lexer has checked. Shows as the
/// values of its items.
#[derive(Clone, Copy, PartialEq, Eq)]
struct IdList<'a>(&'a str);

impl fmt::Debug for IdList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let items: Vec<String> = list_items(self.0).map(unescape).collect();
        fmt::Debug::fmt(&items, f)
    }
}

/// The text a quoted string stands for: a backslash takes the next
/// character literally. Allocates the one `String`.
fn unescape(raw: &str) -> String {
    if !raw.contains('\\') {
        return raw.to_owned();
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        out.push(if c == '\\' {
            chars.next().unwrap_or(c)
        } else {
            c
        });
    }
    out
}

/// The end (one past the closing quote) of the string whose opening
/// quote is at `open`. Bytewise: an escape skips one byte after the
/// backslash, and the rest of a multi-byte character is never a quote
/// or a backslash.
fn string_end(bytes: &[u8], open: usize) -> Result<usize, ParseProfileError> {
    let mut at = open + 1;
    while at < bytes.len() {
        match bytes[at] {
            b'"' => return Ok(at + 1),
            b'\\' if at + 1 < bytes.len() => at += 2,
            _ => at += 1,
        }
    }
    Err(ParseProfileError::new("unterminated string"))
}

/// The next item of an ID list from `*at` (just past the `[` or the
/// previous item): the text between its quotes, or `None` at the closing
/// `]`. Moves `*at` past what it read.
fn list_item<'a>(list: &'a str, at: &mut usize) -> Result<Option<&'a str>, ParseProfileError> {
    let skipped = list[*at..]
        .find(|c: char| !(c.is_whitespace() || c == ','))
        .ok_or_else(|| ParseProfileError::new("unterminated id list"))?;
    *at += skipped;
    match list.as_bytes()[*at] {
        b']' => {
            *at += 1;
            Ok(None)
        }
        b'"' => {
            let end = string_end(list.as_bytes(), *at)?;
            let item = &list[*at + 1..end - 1];
            *at = end;
            Ok(Some(item))
        }
        _ => Err(ParseProfileError::new("id list items must be quoted")),
    }
}

/// The items of an [`IdList`], escapes still in.
fn list_items(list: &str) -> impl Iterator<Item = &str> {
    let mut at = 1;
    std::iter::from_fn(move || list_item(list, &mut at).expect("the lexer checked the list"))
}

/// The keyword `word` spells, in any case, or else an identifier.
fn word_token(word: &str) -> Tok<'_> {
    let keywords = [
        ("AND", Tok::And),
        ("OR", Tok::Or),
        ("NOT", Tok::Not),
        ("IN", Tok::In),
    ];
    let keyword = keywords
        .into_iter()
        .find(|(k, _)| word.eq_ignore_ascii_case(k));
    keyword.map_or(Tok::Ident(word), |(_, token)| token)
}

/// Cuts the input into tokens on demand.
struct Lexer<'a> {
    input: &'a str,
    at: usize,
    /// The last token was `?`: a `(` opens a raw query value.
    after_question: bool,
}

impl<'a> Lexer<'a> {
    /// The next token, `None` at the end. After an error the lexer is at
    /// the end.
    fn next_token(&mut self) -> Result<Option<Tok<'a>>, ParseProfileError> {
        let token = self.lex();
        if token.is_err() {
            self.at = self.input.len();
        }
        self.after_question = matches!(token, Ok(Some(Tok::Question)));
        token
    }

    fn lex(&mut self) -> Result<Option<Tok<'a>>, ParseProfileError> {
        let input = self.input;
        let bytes = input.as_bytes();
        while bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.at += 1;
        }
        let start = self.at;
        let Some(&first) = bytes.get(start) else {
            return Ok(None);
        };
        let (token, end) = match first {
            b'(' if self.after_question => {
                let mut depth = 0usize;
                let close = bytes[start..].iter().position(|&b| {
                    match b {
                        b'(' => depth += 1,
                        b')' => depth -= 1,
                        _ => {}
                    }
                    depth == 0
                });
                let close = start
                    + close.ok_or_else(|| ParseProfileError::new("unterminated query value"))?;
                (Tok::RawQuery(&input[start + 1..close]), close + 1)
            }
            b'(' => (Tok::Open, start + 1),
            b')' => (Tok::Close, start + 1),
            b'=' => (Tok::Eq, start + 1),
            b'~' => (Tok::Tilde, start + 1),
            b'?' => (Tok::Question, start + 1),
            b'"' => {
                let end = string_end(bytes, start)?;
                (Tok::Str(Escaped(&input[start + 1..end - 1])), end)
            }
            b'[' => {
                let mut end = start + 1;
                while list_item(input, &mut end)?.is_some() {}
                (Tok::List(IdList(&input[start..end])), end)
            }
            _ => {
                let c = input[start..].chars().next().expect("not at the end");
                if !(c.is_alphanumeric() || c == '_') {
                    return Err(ParseProfileError::new(format!(
                        "unexpected character `{c}`"
                    )));
                }
                let end = input[start..]
                    .find(|c: char| !(c.is_alphanumeric() || matches!(c, '_' | '.' | '-')))
                    .map_or(input.len(), |len| start + len);
                (word_token(&input[start..end]), end)
            }
        };
        self.at = end;
        Ok(Some(token))
    }

    /// Lexes the rest of the input and returns its first error, if any.
    fn first_error(&mut self) -> Option<ParseProfileError> {
        loop {
            match self.next_token() {
                Ok(Some(_)) => {}
                Ok(None) => return None,
                Err(e) => return Some(e),
            }
        }
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    peeked: Option<Tok<'a>>,
}

impl<'a> Parser<'a> {
    fn peek(&mut self) -> Result<Option<Tok<'a>>, ParseProfileError> {
        if self.peeked.is_none() {
            self.peeked = self.lexer.next_token()?;
        }
        Ok(self.peeked)
    }

    fn next(&mut self) -> Result<Option<Tok<'a>>, ParseProfileError> {
        let token = self.peek()?;
        self.peeked = None;
        Ok(token)
    }

    /// `part ( sep part )*`: one part alone, or `join` of all of them.
    fn parse_list(
        &mut self,
        sep: Tok<'a>,
        part: fn(&mut Self) -> Result<ProfileExpr, ParseProfileError>,
        join: fn(Vec<ProfileExpr>) -> ProfileExpr,
    ) -> Result<ProfileExpr, ParseProfileError> {
        let first = part(self)?;
        if self.peek()? != Some(sep) {
            return Ok(first);
        }
        // Two parts are the most common: room for them is one allocation.
        let mut parts = Vec::with_capacity(2);
        parts.push(first);
        while self.peek()? == Some(sep) {
            self.peeked = None;
            parts.push(part(self)?);
        }
        Ok(join(parts))
    }

    fn parse_or(&mut self) -> Result<ProfileExpr, ParseProfileError> {
        self.parse_list(Tok::Or, Self::parse_and, ProfileExpr::Or)
    }

    fn parse_and(&mut self) -> Result<ProfileExpr, ParseProfileError> {
        self.parse_list(Tok::And, Self::parse_unary, ProfileExpr::And)
    }

    fn parse_unary(&mut self) -> Result<ProfileExpr, ParseProfileError> {
        match self.next()? {
            Some(Tok::Not) => Ok(ProfileExpr::Not(Box::new(self.parse_unary()?))),
            Some(Tok::Open) => {
                let e = self.parse_or()?;
                if self.next()? != Some(Tok::Close) {
                    return Err(ParseProfileError::new("missing closing parenthesis"));
                }
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                let attr = ProfileAttr::parse(name);
                let value = self.parse_value(&attr)?;
                Ok(ProfileExpr::Pred(Predicate::new(attr, value)))
            }
            Some(tok) => Err(ParseProfileError::new(format!("unexpected token {tok:?}"))),
            None => Err(ParseProfileError::new("empty profile")),
        }
    }

    /// The operator and value after an attribute.
    fn parse_value(&mut self, attr: &ProfileAttr) -> Result<AttrValue, ParseProfileError> {
        let (op, value) = (self.next()?, self.next()?);
        match (op, value) {
            (Some(Tok::Eq), Some(Tok::Str(Escaped(s)))) => Ok(AttrValue::Equals(unescape(s))),
            (Some(Tok::Eq), _) => Err(ParseProfileError::new("`=` needs a quoted string")),
            (Some(Tok::Tilde), Some(Tok::Str(Escaped(s)))) => {
                Ok(AttrValue::Like(Wildcard::new(unescape(s))))
            }
            (Some(Tok::Tilde), _) => Err(ParseProfileError::new("`~` needs a quoted pattern")),
            (Some(Tok::In), Some(Tok::List(IdList(list)))) => {
                Ok(AttrValue::OneOf(list_items(list).map(unescape).collect()))
            }
            (Some(Tok::In), _) => Err(ParseProfileError::new("`in` needs a [\"...\"] list")),
            (Some(Tok::Question), Some(Tok::RawQuery(raw))) => Query::parse(raw)
                .map(AttrValue::Matches)
                .map_err(|e| ParseProfileError::new(format!("bad query value: {e}"))),
            (Some(Tok::Question), _) => Err(ParseProfileError::new("`?` needs a (query) value")),
            _ => Err(ParseProfileError::new(format!(
                "attribute `{attr}` needs an operator (=, ~, in, ?)"
            ))),
        }
    }
}

/// Parses the textual profile syntax into a [`ProfileExpr`].
///
/// Tokens are lexed as the parser asks for them, but an error reports
/// what a whole-input lexer would: a lexing error anywhere in the input
/// comes before any parse error.
///
/// # Errors
///
/// Returns [`ParseProfileError`] on malformed input.
///
/// # Examples
///
/// ```
/// use gsa_profile::parse_profile;
/// let expr = parse_profile(
///     r#"host = "London" AND (dc.Subject in ["dl", "pubsub"] OR text ? (alert*))"#,
/// )?;
/// assert_eq!(expr.predicate_count(), 3);
/// # Ok::<(), gsa_profile::ParseProfileError>(())
/// ```
pub fn parse_profile(input: &str) -> Result<ProfileExpr, ParseProfileError> {
    let lexer = Lexer {
        input,
        at: 0,
        after_question: false,
    };
    let mut parser = Parser {
        lexer,
        peeked: None,
    };
    let parsed = parser.parse_or().and_then(|expr| match parser.peek()? {
        None => Ok(expr),
        Some(_) => Err(ParseProfileError::new("unexpected trailing input")),
    });
    parsed.map_err(|err| parser.lexer.first_error().unwrap_or(err))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_equality() {
        let e = parse_profile(r#"host = "London""#).unwrap();
        assert_eq!(
            e,
            ProfileExpr::Pred(Predicate::equals(ProfileAttr::Host, "London"))
        );
    }

    #[test]
    fn parse_metadata_attr_with_dots() {
        let e = parse_profile(r#"dc.Title = "Greenstone""#).unwrap();
        match e {
            ProfileExpr::Pred(p) => assert_eq!(p.attr, ProfileAttr::Meta("dc.Title".into())),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_wildcard() {
        let e = parse_profile(r#"text ~ "digi*""#).unwrap();
        match e {
            ProfileExpr::Pred(Predicate {
                value: AttrValue::Like(w),
                ..
            }) => assert_eq!(w.as_str(), "digi*"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_id_list() {
        let e = parse_profile(r#"doc in ["HASH1", "HASH2"]"#).unwrap();
        match e {
            ProfileExpr::Pred(Predicate {
                value: AttrValue::OneOf(set),
                ..
            }) => assert_eq!(set.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_query_value() {
        let e = parse_profile("text ? (digital AND (librar* OR archive))").unwrap();
        match e {
            ProfileExpr::Pred(Predicate {
                value: AttrValue::Matches(_),
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_boolean_structure() {
        let e = parse_profile(r#"host = "a" AND NOT (kind = "b" OR kind = "c")"#).unwrap();
        assert_eq!(e.predicate_count(), 3);
        match e {
            ProfileExpr::And(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], ProfileExpr::Not(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_and_binds_tighter() {
        let e = parse_profile(r#"host = "a" AND host = "b" OR host = "c""#).unwrap();
        assert!(matches!(e, ProfileExpr::Or(_)));
    }

    #[test]
    fn escaped_quotes_in_strings() {
        let e = parse_profile(r#"dc.Title = "say \"hi\"""#).unwrap();
        match e {
            ProfileExpr::Pred(Predicate {
                value: AttrValue::Equals(s),
                ..
            }) => assert_eq!(s, "say \"hi\""),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse_profile("").is_err());
        assert!(parse_profile("host =").is_err());
        assert!(parse_profile("host").is_err());
        assert!(parse_profile(r#"host = "a" extra"#).is_err());
        assert!(parse_profile(r#"(host = "a""#).is_err());
        assert!(parse_profile(r#"doc in ["a""#).is_err());
        assert!(parse_profile(r#"doc in [a]"#).is_err());
        assert!(parse_profile(r#"text ? (a"#).is_err());
        assert!(parse_profile(r#"text ? (AND)"#).is_err());
        assert!(parse_profile(r#"host = "unterminated"#).is_err());
        assert!(parse_profile("host @ \"x\"").is_err());
    }

    #[test]
    fn display_of_parsed_profile_reparses_equivalently() {
        let texts = [
            r#"host = "London" AND text ~ "dig*""#,
            r#"(doc in ["a", "b"] OR kind = "collection-rebuilt")"#,
            r#"NOT dc.Subject = "spam" AND text ? (alert* OR notify)"#,
        ];
        for t in texts {
            let e1 = parse_profile(t).unwrap();
            let e2 = parse_profile(&e1.to_string()).unwrap();
            assert_eq!(e1, e2, "profile {t}");
        }
    }

    /// A table pins the error messages byte for byte, on the parser and its reference.
    #[test]
    fn malformed_profiles_keep_their_messages() {
        let table = [
            ("", "empty profile"),
            ("  \n", "empty profile"),
            ("host =", "`=` needs a quoted string"),
            ("host", "attribute `host` needs an operator (=, ~, in, ?)"),
            (
                "dc.Title dc.Title",
                "attribute `dc.Title` needs an operator (=, ~, in, ?)",
            ),
            (r#"host = "a" extra"#, "unexpected trailing input"),
            (r#"host = "a" )"#, "unexpected trailing input"),
            (r#"(host = "a""#, "missing closing parenthesis"),
            (r#"(host = "a" host"#, "missing closing parenthesis"),
            (r#"doc in ["a""#, "unterminated id list"),
            (r#"doc in ["a", "b\"]"#, "unterminated string"),
            ("doc in [a]", "id list items must be quoted"),
            ("text ? (a", "unterminated query value"),
            ("text ? ((a)", "unterminated query value"),
            (
                "text ? (AND)",
                "bad query value: invalid query: unexpected token And",
            ),
            ("text ? ()", "bad query value: invalid query: empty query"),
            (r#"host = "unterminated"#, "unterminated string"),
            (r#"host = "a\"#, "unterminated string"),
            (r#"host @ "x""#, "unexpected character `@`"),
            ("host\u{a0}= \"x\"", "unexpected character `\u{a0}`"),
            ("dc.Title ~ x", "`~` needs a quoted pattern"),
            (r#"doc in "a""#, "`in` needs a [\"...\"] list"),
            (r#"text ? "a""#, "`?` needs a (query) value"),
            ("text ?", "`?` needs a (query) value"),
            (r#"= "a""#, "unexpected token Eq"),
            ("? (a)", "unexpected token Question"),
            (r#"host = "a" AND"#, "empty profile"),
            (r#"host = "a" OR )"#, "unexpected token Close"),
            ("NOT", "empty profile"),
            (r#""a\"b" = "x""#, r#"unexpected token Str("a\"b")"#),
            (
                r#"["x\\y", "z"]"#,
                r#"unexpected token List(["x\\y", "z"])"#,
            ),
            (r#"AND host = "a""#, "unexpected token And"),
            ("in", "unexpected token In"),
            // A lexing error anywhere comes before any parse error.
            (r#"host = "a" ) @"#, "unexpected character `@`"),
            (r#"= "unterminated"#, "unterminated string"),
            (r#"text ? (AND) "x"#, "unterminated string"),
            (r#"host = AND doc in [x]"#, "id list items must be quoted"),
        ];
        for (text, message) in table {
            let message = format!("invalid profile: {message}");
            let err = parse_profile(text).unwrap_err();
            assert_eq!(err.to_string(), message, "{text:?}");
            let err = reference::parse_profile(text).unwrap_err();
            assert_eq!(err.to_string(), message, "reference on {text:?}");
        }
    }

    /// `Display` escapes the `"` and `\` that the lexer unescapes.
    #[test]
    fn display_escapes_what_the_lexer_unescapes() {
        let texts = [
            (r#"host = "a\\b""#, "a\\b"),
            (r#"host = "a\"b""#, "a\"b"),
            (r#"host = "\\\"""#, "\\\""),
        ];
        for (text, value) in texts {
            let e = parse_profile(text).unwrap();
            assert_eq!(
                e,
                Predicate::equals(ProfileAttr::Host, value).into(),
                "{text}"
            );
            assert_eq!(e.to_string(), text);
        }
        for text in [
            r#"doc in ["x\"y", "z"]"#,
            r#"dc.Title ~ "*\"q*""#,
            r#"dc.Title ~ "\\*""#,
        ] {
            let e = parse_profile(text).unwrap();
            assert_eq!(e.to_string(), text);
            assert_eq!(parse_profile(&e.to_string()).unwrap(), e);
        }
    }

    /// Strings with what a quoted value has to escape, and some that
    /// need no escape but a lexer could trip on.
    fn arb_string() -> impl Strategy<Value = String> {
        prop_oneof![
            prop::sample::select(
                &["", "a\\b", "a\"b", "\\", "\"", "\\\"", "x y", "*", "é", "ǅ", "\t\n"][..]
            )
            .prop_map(str::to_string),
            "[a-zA-Z0-9 \"\\\\*é\t]{0,8}",
        ]
    }

    /// Keys the syntax reads back as the same metadata attribute: not a
    /// reserved name, not a keyword.
    fn arb_meta_key() -> impl Strategy<Value = String> {
        "[a-zA-Z_][a-zA-Z0-9_.-]{0,6}".prop_map(|key| {
            let keyword = ["and", "or", "not", "in"]
                .iter()
                .any(|k| key.eq_ignore_ascii_case(k));
            match ProfileAttr::parse(&key) {
                ProfileAttr::Meta(_) if !keyword => key,
                _ => format!("m_{key}"),
            }
        })
    }

    /// Queries as the query parser builds them: lowercase words that are
    /// not keywords, every `AND`/`OR` of two parts or more.
    fn arb_query() -> impl Strategy<Value = Query> {
        let word = prop_oneof![
            "[a-z0-9]{1,6}".prop_map(|w| match w.as_str() {
                "and" | "or" | "not" => format!("{w}x"),
                _ => w,
            }),
            prop::sample::select(&["ß", "σ", "é1"][..]).prop_map(str::to_string),
        ];
        let leaf = prop_oneof![
            word.clone().prop_map(Query::Term),
            word.prop_map(Query::Prefix)
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 2..4).prop_map(Query::And),
                prop::collection::vec(inner.clone(), 2..4).prop_map(Query::Or),
                inner.prop_map(|q| Query::Not(Box::new(q))),
            ]
        })
    }

    fn arb_predicate() -> impl Strategy<Value = Predicate> {
        let attr = prop_oneof![
            Just(ProfileAttr::Host),
            Just(ProfileAttr::Collection),
            Just(ProfileAttr::Kind),
            Just(ProfileAttr::DocId),
            Just(ProfileAttr::Text),
            arb_meta_key().prop_map(ProfileAttr::Meta),
        ];
        let value = prop_oneof![
            arb_string().prop_map(AttrValue::Equals),
            prop::collection::btree_set(arb_string(), 0..4).prop_map(AttrValue::OneOf),
            arb_string().prop_map(|p| AttrValue::Like(Wildcard::new(p))),
            arb_query().prop_map(AttrValue::Matches),
        ];
        (attr, value).prop_map(|(attr, value)| Predicate::new(attr, value))
    }

    /// Expressions as the parser builds them: every `AND`/`OR` of two
    /// parts or more.
    pub(crate) fn arb_expr() -> impl Strategy<Value = ProfileExpr> {
        arb_predicate()
            .prop_map(ProfileExpr::Pred)
            .prop_recursive(3, 16, 3, |inner| {
                prop_oneof![
                    prop::collection::vec(inner.clone(), 2..4).prop_map(ProfileExpr::And),
                    prop::collection::vec(inner.clone(), 2..4).prop_map(ProfileExpr::Or),
                    inner.prop_map(|e| ProfileExpr::Not(Box::new(e))),
                ]
            })
    }

    const FRAGMENTS: &[&str] = &[
        "host",
        "dc.Title",
        "text",
        "doc",
        "Kind",
        " ",
        "=",
        "~",
        "?",
        "in",
        "IN",
        "AND",
        "or",
        "NOT",
        "(",
        ")",
        "[",
        "]",
        ",",
        "\"",
        "\\",
        "\"a\"",
        "\"x\\\"y\"",
        "é",
        "Σ",
        "\u{a0}",
        "@",
        "*",
        "_",
        "-",
        ".",
        "\n",
        "? (a b)",
        "[\"a\", \"b\"]",
        "(fox*",
        "\"\\",
    ];

    /// Profile-like texts: printed expressions whole, cut short or with a
    /// fragment of the syntax put in; fragments in any order; and
    /// arbitrary strings over the syntax's characters and some others.
    fn arb_profile_text() -> impl Strategy<Value = String> {
        let printed = arb_expr().prop_map(|e| e.to_string());
        let edited = (arb_expr(), 0..64usize, 0..FRAGMENTS.len(), 0..2usize).prop_map(
            |(e, at, fragment, cut)| {
                let text = e.to_string();
                let bounds: Vec<usize> = (0..=text.len())
                    .filter(|&i| text.is_char_boundary(i))
                    .collect();
                let at = bounds[at % bounds.len()];
                if cut == 0 {
                    text[..at].to_string()
                } else {
                    format!("{}{}{}", &text[..at], FRAGMENTS[fragment], &text[at..])
                }
            },
        );
        prop_oneof![
            printed,
            edited,
            prop::collection::vec(prop::sample::select(FRAGMENTS), 0..12)
                .prop_map(|parts| parts.concat()),
            "[a-zA-Z0-9 _.,\\-=~?()\\[\\]\"\\\\*é\u{a0}\t@]{0,32}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// What an expression prints parses back to it.
        #[test]
        fn display_reparses_to_the_same_expression(e in arb_expr()) {
            let text = e.to_string();
            let parsed = parse_profile(&text);
            prop_assert!(parsed.as_ref() == Ok(&e), "{text:?} parsed as {parsed:?}");
        }

        /// The borrowing parser gives the reference's expression, or its
        /// error message, on any text.
        #[test]
        fn parse_agrees_with_the_reference(text in arb_profile_text()) {
            let (got, want) = (parse_profile(&text), reference::parse_profile(&text));
            prop_assert!(got == want, "{text:?}: {got:?} != {want:?}");
        }
    }
}

/// The first profile parser, which lexed the whole input into owned
/// tokens before parsing: the reference [`parse_profile`] must agree with.
#[cfg(test)]
mod reference {
    use super::ParseProfileError;
    use crate::attr::{AttrValue, Predicate, ProfileAttr, Wildcard};
    use crate::expr::ProfileExpr;
    use gsa_store::Query;
    use std::collections::BTreeSet;

    pub(super) fn parse_profile(input: &str) -> Result<ProfileExpr, ParseProfileError> {
        let tokens = lex(input)?;
        let mut parser = Parser { tokens, pos: 0 };
        let expr = parser.parse_or()?;
        if parser.pos != parser.tokens.len() {
            return Err(ParseProfileError::new("unexpected trailing input"));
        }
        Ok(expr)
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Tok {
        Ident(String),
        Str(String),
        RawQuery(String),
        List(Vec<String>),
        Eq,
        Tilde,
        Question,
        In,
        And,
        Or,
        Not,
        Open,
        Close,
    }

    fn lex(input: &str) -> Result<Vec<Tok>, ParseProfileError> {
        let mut tokens = Vec::new();
        let chars: Vec<char> = input.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match c {
                ' ' | '\t' | '\r' | '\n' => i += 1,
                '(' => {
                    // After '?', parentheses delimit a raw retrieval query.
                    if tokens.last() == Some(&Tok::Question) {
                        let mut depth = 1;
                        let start = i + 1;
                        let mut j = start;
                        while j < chars.len() && depth > 0 {
                            match chars[j] {
                                '(' => depth += 1,
                                ')' => depth -= 1,
                                _ => {}
                            }
                            j += 1;
                        }
                        if depth != 0 {
                            return Err(ParseProfileError::new("unterminated query value"));
                        }
                        let raw: String = chars[start..j - 1].iter().collect();
                        tokens.push(Tok::RawQuery(raw));
                        i = j;
                    } else {
                        tokens.push(Tok::Open);
                        i += 1;
                    }
                }
                ')' => {
                    tokens.push(Tok::Close);
                    i += 1;
                }
                '=' => {
                    tokens.push(Tok::Eq);
                    i += 1;
                }
                '~' => {
                    tokens.push(Tok::Tilde);
                    i += 1;
                }
                '?' => {
                    tokens.push(Tok::Question);
                    i += 1;
                }
                '"' => {
                    let (s, next) = lex_string(&chars, i)?;
                    tokens.push(Tok::Str(s));
                    i = next;
                }
                '[' => {
                    let mut items = Vec::new();
                    i += 1;
                    loop {
                        while i < chars.len() && (chars[i].is_whitespace() || chars[i] == ',') {
                            i += 1;
                        }
                        if i >= chars.len() {
                            return Err(ParseProfileError::new("unterminated id list"));
                        }
                        if chars[i] == ']' {
                            i += 1;
                            break;
                        }
                        if chars[i] != '"' {
                            return Err(ParseProfileError::new("id list items must be quoted"));
                        }
                        let (s, next) = lex_string(&chars, i)?;
                        items.push(s);
                        i = next;
                    }
                    tokens.push(Tok::List(items));
                }
                c if c.is_alphanumeric() || c == '_' => {
                    let start = i;
                    while i < chars.len()
                        && (chars[i].is_alphanumeric() || matches!(chars[i], '_' | '.' | '-'))
                    {
                        i += 1;
                    }
                    let word: String = chars[start..i].iter().collect();
                    match word.to_ascii_uppercase().as_str() {
                        "AND" => tokens.push(Tok::And),
                        "OR" => tokens.push(Tok::Or),
                        "NOT" => tokens.push(Tok::Not),
                        "IN" => tokens.push(Tok::In),
                        _ => tokens.push(Tok::Ident(word)),
                    }
                }
                other => {
                    return Err(ParseProfileError::new(format!(
                        "unexpected character `{other}`"
                    )));
                }
            }
        }
        Ok(tokens)
    }

    fn lex_string(chars: &[char], open: usize) -> Result<(String, usize), ParseProfileError> {
        debug_assert_eq!(chars[open], '"');
        let mut out = String::new();
        let mut i = open + 1;
        while i < chars.len() {
            match chars[i] {
                '"' => return Ok((out, i + 1)),
                '\\' if i + 1 < chars.len() => {
                    out.push(chars[i + 1]);
                    i += 2;
                }
                c => {
                    out.push(c);
                    i += 1;
                }
            }
        }
        Err(ParseProfileError::new("unterminated string"))
    }

    struct Parser {
        tokens: Vec<Tok>,
        pos: usize,
    }

    impl Parser {
        fn peek(&self) -> Option<&Tok> {
            self.tokens.get(self.pos)
        }

        fn parse_or(&mut self) -> Result<ProfileExpr, ParseProfileError> {
            let mut parts = vec![self.parse_and()?];
            while self.peek() == Some(&Tok::Or) {
                self.pos += 1;
                parts.push(self.parse_and()?);
            }
            Ok(if parts.len() == 1 {
                parts.pop().expect("non-empty")
            } else {
                ProfileExpr::Or(parts)
            })
        }

        fn parse_and(&mut self) -> Result<ProfileExpr, ParseProfileError> {
            let mut parts = vec![self.parse_unary()?];
            while self.peek() == Some(&Tok::And) {
                self.pos += 1;
                parts.push(self.parse_unary()?);
            }
            Ok(if parts.len() == 1 {
                parts.pop().expect("non-empty")
            } else {
                ProfileExpr::And(parts)
            })
        }

        fn parse_unary(&mut self) -> Result<ProfileExpr, ParseProfileError> {
            match self.peek().cloned() {
                Some(Tok::Not) => {
                    self.pos += 1;
                    Ok(ProfileExpr::Not(Box::new(self.parse_unary()?)))
                }
                Some(Tok::Open) => {
                    self.pos += 1;
                    let e = self.parse_or()?;
                    if self.peek() != Some(&Tok::Close) {
                        return Err(ParseProfileError::new("missing closing parenthesis"));
                    }
                    self.pos += 1;
                    Ok(e)
                }
                Some(Tok::Ident(attr)) => {
                    self.pos += 1;
                    let attr = ProfileAttr::parse(&attr);
                    let value = match self.peek().cloned() {
                        Some(Tok::Eq) => {
                            self.pos += 1;
                            match self.peek().cloned() {
                                Some(Tok::Str(s)) => {
                                    self.pos += 1;
                                    AttrValue::Equals(s)
                                }
                                _ => {
                                    return Err(ParseProfileError::new("`=` needs a quoted string"))
                                }
                            }
                        }
                        Some(Tok::Tilde) => {
                            self.pos += 1;
                            match self.peek().cloned() {
                                Some(Tok::Str(s)) => {
                                    self.pos += 1;
                                    AttrValue::Like(Wildcard::new(s))
                                }
                                _ => {
                                    return Err(ParseProfileError::new(
                                        "`~` needs a quoted pattern",
                                    ))
                                }
                            }
                        }
                        Some(Tok::In) => {
                            self.pos += 1;
                            match self.peek().cloned() {
                                Some(Tok::List(items)) => {
                                    self.pos += 1;
                                    AttrValue::OneOf(items.into_iter().collect::<BTreeSet<_>>())
                                }
                                _ => {
                                    return Err(ParseProfileError::new(
                                        "`in` needs a [\"...\"] list",
                                    ))
                                }
                            }
                        }
                        Some(Tok::Question) => {
                            self.pos += 1;
                            match self.peek().cloned() {
                                Some(Tok::RawQuery(raw)) => {
                                    self.pos += 1;
                                    let q = Query::parse(&raw).map_err(|e| {
                                        ParseProfileError::new(format!("bad query value: {e}"))
                                    })?;
                                    AttrValue::Matches(q)
                                }
                                _ => {
                                    return Err(ParseProfileError::new(
                                        "`?` needs a (query) value",
                                    ));
                                }
                            }
                        }
                        _ => {
                            return Err(ParseProfileError::new(format!(
                                "attribute `{attr}` needs an operator (=, ~, in, ?)"
                            )));
                        }
                    };
                    Ok(ProfileExpr::Pred(Predicate::new(attr, value)))
                }
                Some(tok) => Err(ParseProfileError::new(format!("unexpected token {tok:?}"))),
                None => Err(ParseProfileError::new("empty profile")),
            }
        }
    }
}
