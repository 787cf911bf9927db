//! Document storage and retrieval.
//!
//! Greenstone collections are built around the retrieval functionality the
//! collection designer configured — full-text search indexes and metadata
//! browse classifiers (paper Section 5: "typically searching and browsing
//! on various attributes and formats"). The alerting service deliberately
//! reuses that functionality for profiles ("alerting as a fluent extension
//! of searching and browsing"), so this crate provides the shared
//! machinery:
//!
//! * `tokenize` — the one tokenizer, [`for_each_token`]: a visitor
//!   that allocates nothing per token, behind index build, query
//!   normalization and [`TokenSet`], the distinct tokens of one text,
//! * `query` — a Boolean/prefix query language evaluated both against
//!   indexes and against single documents (a [`TokenSet`]; that is how
//!   the filter engine matches an event's excerpts on the subscriber
//!   side),
//! * `index` — an inverted index with Boolean and ranked (tf-idf)
//!   retrieval: terms interned to dense ids in the index's own
//!   dictionary, posting lists by id, and a size bounded by the live
//!   documents — replaced and removed ones are compacted away,
//! * `classifier` — metadata browse structures,
//! * `store` — [`DocumentStore`], composing all of the above per the
//!   collection's index/classifier specs.
//!
//! # Examples
//!
//! ```
//! use gsa_store::{DocumentStore, IndexSpec, Query, SourceDocument};
//! use gsa_types::keys;
//!
//! let mut store = DocumentStore::new(vec![IndexSpec::full_text("text")], vec![]);
//! store.add_document(SourceDocument::new("d1", "the quick brown fox"));
//! store.add_document(SourceDocument::new("d2", "lazy dogs sleep"));
//! let hits = store.search("text", &Query::term("fox"))?;
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].as_str(), "d1");
//! # Ok::<(), gsa_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod classifier;
mod index;
mod query;
mod store;
mod tokenize;

pub use classifier::{BucketRule, Classifier, ClassifierSpec};
pub use index::InvertedIndex;
pub use query::{ParseQueryError, Query};
pub use store::{DocumentStore, IndexSpec, IndexSource, SourceDocument, StoreError};
pub use tokenize::{for_each_token, tokenize, TokenSet};
