//! Wire format for gsalert protocol messages.
//!
//! The paper's implementation exchanges "XML messaging over SOAP"
//! (Section 6). This crate supplies the messages' encodings from scratch;
//! the SOAP envelope around a message is not modelled, so the bytes a
//! simulated send is charged are the message's own:
//!
//! * [`xml`] — a small XML document model ([`XmlElement`]) with a writer and
//!   a recursive-descent parser (elements, attributes, text, comments,
//!   entity escaping, self-closing tags),
//! * [`codec`] — conversions between the shared `gsa-types` data model and
//!   XML elements,
//! * `message` — [`WireMessage`], what a protocol message states once
//!   for both wires and what is derived from it (tree, frame, both
//!   sizes),
//! * [`reliable`] — an opt-in reliable-delivery envelope
//!   ([`Reliable`]) plus a deterministic retransmission queue that
//!   retries until acknowledged, with exponential backoff and jitter
//!   ([`RetransmitQueue`]),
//! * [`binary`] — wire format v2, chosen per deployment: a length-prefixed,
//!   varint-framed binary codec with native encoders for events,
//!   metadata records and document summaries, and a generic XML-tree
//!   fallback for everything else,
//! * [`payload`] — the [`Payload`] carrier (source event, XML tree,
//!   frozen bytes) that makes encode-once flood forwarding, O(1) sizing
//!   and lazy decode possible,
//! * [`probe`] — zero-materialisation attribute probes ([`EventProbe`])
//!   that scan a frozen event's filterable attributes in place, so a
//!   delivery-time pre-filter can reject a non-matching event without
//!   decoding it,
//! * [`summary`] — conservative subtree interest summaries
//!   ([`InterestSummary`]) used by the GDS flood-pruning layer, with
//!   both XML and binary codecs, and the reference counts
//!   ([`InterestCounts`]) a server keeps its own summary in.
//!
//! # Examples
//!
//! ```
//! use gsa_wire::{XmlElement, parse_document};
//!
//! let doc = XmlElement::new("profile")
//!     .with_attr("id", "42")
//!     .with_child(XmlElement::new("host").with_text("London"));
//! let text = doc.to_xml_string();
//! let back = parse_document(&text)?;
//! assert_eq!(back, doc);
//! # Ok::<(), gsa_wire::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod binary;
pub mod codec;
mod message;
pub mod payload;
pub mod probe;
pub mod reliable;
pub mod summary;
pub mod xml;

pub use binary::{FrozenBytes, WireFormat};
pub use message::{Field, WireMessage};
pub use payload::Payload;
pub use probe::{DocProbe, EventProbe, MetaProbe};
pub use summary::{InterestCounts, InterestSummary, ATTR_KEY_KIND, ATTR_META_PREFIX};
pub use reliable::{Reliable, RetransmitQueue, RetryPolicy};
pub use xml::{parse_document, WireError, XmlElement, XmlNode};
