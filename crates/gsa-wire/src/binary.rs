//! Binary wire format v2: a length-prefixed, varint-framed codec.
//!
//! Version 1 of the wire protocol is the XML text encoding
//! ([`crate::xml`]) of the paper's "XML messaging over SOAP", without
//! the SOAP envelope. Version 2 keeps the exact same information content
//! but encodes it compactly:
//!
//! * integers are LEB128 varints,
//! * strings are a varint byte length followed by UTF-8 bytes,
//! * a frame is one magic byte ([`FRAME_MAGIC`]), a varint body length,
//!   and the body — so a receiver can peek the header and skip or slice
//!   the body without parsing it (lazy decode),
//! * well-known bodies (events, metadata records, document summaries)
//!   have native field-for-field codecs; anything else falls back to a
//!   generic encoding of the XML element tree, so every v1 body is
//!   representable in v2,
//! * an event spells only what its receiver cannot know: a metadata key
//!   is a varint code, 1–15 for the Dublin Core elements in the fixed
//!   order of [`keys::DUBLIN_CORE`] and 0 for a key spelled out after it;
//!   the root id and the origin's host are a flag byte, 0 when they are
//!   the event id and the id's host, else 1 and the value spelled out.
//!   Decoders refuse any other code or flag.
//!
//! The format is chosen once per deployment (`gsa-core`'s
//! `SystemConfig::wire`): every edge of a v2 deployment speaks it from
//! its first frame, and no edge negotiates. The two formats never meet
//! in one tree.
//!
//! Every encoder here writes into a [`ByteSink`], which is a `Vec<u8>`
//! or a [`ByteCount`]: the size of an encoding is the encoder run into
//! the counter ([`counted`]), so a size cannot disagree with the bytes.
//! What is already encoded — a frozen payload, a frozen summary — is
//! handed to the sink as one slice, which the counter takes as a length.
//! Every decoder reads from a [`BinReader`], which refuses recursion
//! deeper than [`MAX_DEPTH`] and, through [`decode_frame`], bytes left
//! unread inside a frame; the payload decoders refuse bytes left after
//! the payload's one encoding the same way.
//!
//! # Examples
//!
//! ```
//! use gsa_types::{CollectionId, EventId, EventKind, SimTime, Event};
//! use gsa_wire::binary::{event_to_binary, event_from_binary, BinReader};
//!
//! let event = Event::new(
//!     EventId::new("Hamilton", 1),
//!     CollectionId::new("Hamilton", "D"),
//!     EventKind::CollectionRebuilt,
//!     SimTime::from_millis(5),
//! );
//! let mut buf = Vec::new();
//! event_to_binary(&event, &mut buf);
//! let back = event_from_binary(&mut BinReader::new(&buf))?;
//! assert_eq!(back, event);
//! # Ok::<(), gsa_wire::WireError>(())
//! ```

use crate::codec::{event_from_xml, event_to_xml};
use crate::xml::{WireError, XmlElement, XmlNode};
use gsa_types::{keys, CollectionId, DocSummary, Event, EventId, EventKind, MetadataRecord, SimTime};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// First byte of every v2 binary frame.
pub const FRAME_MAGIC: u8 = 0xB2;

/// Which encoding a deployment's messages travel in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Version 1: the paper's XML text encoding (always understood).
    #[default]
    Xml,
    /// Version 2: the compact binary framing.
    Binary,
}

impl fmt::Display for WireFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WireFormat::Xml => "xml",
            WireFormat::Binary => "binary",
        })
    }
}

/// An immutable, reference-counted byte buffer: the "encode once,
/// forward everywhere" carrier. Cloning bumps a refcount; the bytes are
/// shared by every edge a flooded payload is forwarded on.
#[derive(Clone, PartialEq, Eq)]
pub struct FrozenBytes(Arc<[u8]>);

impl FrozenBytes {
    /// Freezes a buffer.
    pub fn new(bytes: Vec<u8>) -> Self {
        FrozenBytes(bytes.into())
    }

    /// The frozen bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Deref for FrozenBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for FrozenBytes {
    fn from(bytes: Vec<u8>) -> Self {
        FrozenBytes::new(bytes)
    }
}

impl fmt::Debug for FrozenBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FrozenBytes({} bytes)", self.len())
    }
}

// --- the byte sink and its primitives ---------------------------------

/// Where an encoder writes: a buffer, or a [`ByteCount`] of what a
/// buffer would have received.
pub trait ByteSink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, byte: u8) {
        self.put(&[byte]);
    }
}

// `#[inline]`: these are plain functions of this crate, and the encoders
// that call them once per varint byte are instantiated in their callers'.
impl ByteSink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn put_u8(&mut self, byte: u8) {
        self.push(byte);
    }
}

/// The sink that keeps only the number of bytes written to it.
#[derive(Debug, Clone, Copy)]
pub struct ByteCount(pub usize);

impl ByteSink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// The number of bytes `write` emits: the encoder run into a counter.
pub fn counted(write: impl FnOnce(&mut ByteCount)) -> usize {
    let mut count = ByteCount(0);
    write(&mut count);
    count.0
}

/// Appends `v` as a LEB128 varint.
pub fn write_varint(out: &mut impl ByteSink, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(byte);
            return;
        }
        out.put_u8(byte | 0x80);
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn write_str(out: &mut impl ByteSink, s: &str) {
    write_varint(out, s.len() as u64);
    out.put(s.as_bytes());
}

/// The deepest nesting a decoder follows: elements inside elements in
/// [`xml_from_binary`] and in the XML text parser, messages inside
/// messages in a batch. An event is five elements deep.
pub const MAX_DEPTH: usize = 64;

/// A cursor over binary frame bytes.
///
/// Cloning is cheap (a slice and an offset) and lets a caller bookmark a
/// position — the attribute probe ([`crate::probe`]) clones the cursor to
/// re-walk a document's metadata pairs without re-parsing the preamble.
#[derive(Debug, Clone)]
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> BinReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BinReader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Runs `read` one nesting level down; every recursive decoder
    /// recurses through here.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] beyond [`MAX_DEPTH`] levels, else what `read`
    /// returns.
    pub fn nested<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if self.depth == MAX_DEPTH {
            return Err(WireError::malformed(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = read(self);
        self.depth -= 1;
        value
    }

    /// Reads one v2 frame — magic byte, varint length, body — and runs
    /// `read` over exactly the body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on a missing magic byte, a length that
    /// disagrees with the buffer, whatever `read` returns, or bytes of
    /// the body that `read` left unread.
    pub fn read_frame<T>(
        &mut self,
        read: impl FnOnce(&mut BinReader<'a>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let magic = self.read_u8()?;
        if magic != FRAME_MAGIC {
            return Err(WireError::malformed(format!(
                "expected frame magic {FRAME_MAGIC:#x}, found {magic:#x}"
            )));
        }
        let len = self.read_varint()? as usize;
        let mut body = BinReader {
            buf: self.read_slice(len)?,
            pos: 0,
            depth: self.depth,
        };
        let value = read(&mut body)?;
        body.at_end()?;
        Ok(value)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Refuses bytes left unread: a frame body, or a frozen payload, is
    /// exactly one encoding.
    fn at_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::malformed("trailing bytes inside the frame"));
        }
        Ok(())
    }

    fn truncated(&self) -> WireError {
        WireError::malformed(format!("binary frame truncated at byte {}", self.pos))
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the buffer is exhausted.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.truncated())?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or a varint longer than 64 bits.
    pub fn read_varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift >= 64 {
                return Err(WireError::malformed("varint overflows 64 bits"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when fewer than `n` bytes remain.
    pub fn read_slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.truncated());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a length-prefixed UTF-8 string as a borrowed slice of the
    /// underlying buffer — the zero-copy primitive the attribute probe
    /// ([`crate::probe`]) is built on.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or invalid UTF-8.
    pub fn read_str(&mut self) -> Result<&'a str, WireError> {
        let len = self.read_varint()? as usize;
        let bytes = self.read_slice(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::malformed("string is not valid UTF-8"))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or invalid UTF-8.
    pub fn read_string(&mut self) -> Result<String, WireError> {
        self.read_str().map(str::to_owned)
    }

    /// Reads a metadata key written by [`write_key`], borrowed from the
    /// Dublin Core table or the buffer; a code above 15 is an error.
    pub fn read_key(&mut self) -> Result<&'a str, WireError> {
        match self.read_varint()? {
            0 => self.read_str(),
            code => (keys::DUBLIN_CORE.iter().zip(1..))
                .find_map(|(key, c)| (c == code).then_some(*key))
                .ok_or_else(|| WireError::malformed(format!("unknown metadata key code {code}"))),
        }
    }

    /// Reads the flag [`write_ref`] writes: `None` after a 0 (the
    /// receiver knows the field), what `read` reads after a 1, and an
    /// error after any other byte.
    pub fn read_ref<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        match self.read_u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            flag => Err(WireError::malformed(format!("unknown reference flag {flag}"))),
        }
    }

    /// Advances past a length-prefixed string without validating UTF-8.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation.
    pub fn skip_string(&mut self) -> Result<(), WireError> {
        let len = self.read_varint()? as usize;
        self.read_slice(len)?;
        Ok(())
    }
}

// --- CRC-32 -----------------------------------------------------------

/// The CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of a byte
/// slice — the integrity check framing durable journal records
/// (`gsa-state`). Table-free bitwise form: the journal is written and
/// replayed off the hot path, so 8 shifts per byte is the right trade
/// against 1 KiB of table in every binary.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// --- generic XML-tree codec -------------------------------------------

const NODE_ELEMENT: u8 = 0;
const NODE_TEXT: u8 = 1;

/// Encodes an arbitrary XML element tree (the v2 fallback for bodies
/// without a native codec).
pub fn xml_to_binary(el: &XmlElement, out: &mut impl ByteSink) {
    write_str(out, el.name());
    write_varint(out, el.attrs().count() as u64);
    for (k, v) in el.attrs() {
        write_str(out, k);
        write_str(out, v);
    }
    write_varint(out, el.nodes().len() as u64);
    for node in el.nodes() {
        match node {
            XmlNode::Element(child) => {
                out.put_u8(NODE_ELEMENT);
                xml_to_binary(child, out);
            }
            XmlNode::Text(text) => {
                out.put_u8(NODE_TEXT);
                write_str(out, text);
            }
        }
    }
}

/// Decodes an element tree written by [`xml_to_binary`].
///
/// # Errors
///
/// Returns [`WireError`] on truncation, malformed structure or elements
/// nested deeper than [`MAX_DEPTH`].
pub fn xml_from_binary(r: &mut BinReader<'_>) -> Result<XmlElement, WireError> {
    r.nested(|r| {
        let name = r.read_string()?;
        let mut el = XmlElement::new(name);
        let attrs = r.read_varint()? as usize;
        for _ in 0..attrs {
            let k = r.read_string()?;
            let v = r.read_string()?;
            el.set_attr(k, v);
        }
        let children = r.read_varint()? as usize;
        // A node is at least its tag byte, so this cannot out-reserve the input.
        el.reserve_children(children.min(r.remaining()));
        for _ in 0..children {
            match r.read_u8()? {
                NODE_ELEMENT => el.push_child(xml_from_binary(r)?),
                NODE_TEXT => el.push_text(r.read_string()?),
                other => {
                    return Err(WireError::malformed(format!("unknown node tag {other}")));
                }
            }
        }
        Ok(el)
    })
}

// --- native codecs: metadata, document summaries, events --------------

/// Writes a metadata key as its code: `i + 1` for
/// `keys::DUBLIN_CORE[i]`, else 0 and the key spelled out.
fn write_key(out: &mut impl ByteSink, key: &str) {
    let code = keys::DUBLIN_CORE.iter().position(|dc| *dc == key).map_or(0, |i| i + 1);
    write_varint(out, code as u64);
    if code == 0 {
        write_str(out, key);
    }
}

/// Writes the flag of a field the receiver may already know from the
/// event id: 0 when `known`, else 1 and what `spell` writes.
fn write_ref<S: ByteSink>(out: &mut S, known: bool, spell: impl FnOnce(&mut S)) {
    out.put_u8(u8::from(!known));
    if !known {
        spell(out);
    }
}

/// Encodes a metadata record as a flat list of key/value pairs
/// (multi-valued keys contribute one pair per value, in record order).
pub fn metadata_to_binary(md: &MetadataRecord, out: &mut impl ByteSink) {
    write_varint(out, md.total_values() as u64);
    for (k, v) in md.iter_flat() {
        write_key(out, k.as_str());
        write_str(out, v);
    }
}

/// Decodes a metadata record written by [`metadata_to_binary`].
///
/// # Errors
///
/// Returns [`WireError`] on truncation, invalid UTF-8 or an unknown key
/// code.
pub fn metadata_from_binary(r: &mut BinReader<'_>) -> Result<MetadataRecord, WireError> {
    let pairs = r.read_varint()? as usize;
    let mut md = MetadataRecord::new();
    for _ in 0..pairs {
        let k = r.read_key()?;
        let v = r.read_string()?;
        md.add(k, v);
    }
    Ok(md)
}

/// Encodes a document summary: id, metadata, excerpt.
pub fn doc_summary_to_binary(doc: &DocSummary, out: &mut impl ByteSink) {
    write_str(out, doc.doc.as_str());
    metadata_to_binary(&doc.metadata, out);
    write_str(out, &doc.excerpt);
}

/// Decodes a document summary written by [`doc_summary_to_binary`].
///
/// # Errors
///
/// Returns [`WireError`] on truncation or invalid UTF-8.
pub fn doc_summary_from_binary(r: &mut BinReader<'_>) -> Result<DocSummary, WireError> {
    let id = r.read_string()?;
    let metadata = metadata_from_binary(r)?;
    let excerpt = r.read_string()?;
    let mut doc = DocSummary::new(id).with_metadata(metadata);
    if !excerpt.is_empty() {
        doc = doc.with_excerpt(excerpt);
    }
    Ok(doc)
}

/// Encodes an alerting event, field for field with [`event_to_xml`],
/// except that the root id and the origin's host are written only where
/// they differ from the event id.
pub fn event_to_binary(event: &Event, out: &mut impl ByteSink) {
    write_str(out, event.id.host().as_str());
    write_varint(out, event.id.seq());
    write_ref(out, event.root == event.id, |out| {
        write_str(out, event.root.host().as_str());
        write_varint(out, event.root.seq());
    });
    write_ref(out, event.origin.host() == event.id.host(), |out| {
        write_str(out, event.origin.host().as_str());
    });
    write_str(out, event.origin.name().as_str());
    let kind = EventKind::ALL
        .iter()
        .position(|k| *k == event.kind)
        .expect("EventKind::ALL is exhaustive") as u64;
    write_varint(out, kind);
    write_varint(out, event.issued_at.as_micros());
    write_varint(out, event.provenance.len() as u64);
    for p in &event.provenance {
        write_str(out, p.host().as_str());
        write_str(out, p.name().as_str());
    }
    write_varint(out, event.docs.len() as u64);
    for doc in &event.docs {
        doc_summary_to_binary(doc, out);
    }
}

/// The encoded size of [`event_to_binary`].
pub fn event_binary_size(event: &Event) -> usize {
    counted(|n| event_to_binary(event, n))
}

/// Decodes an event written by [`event_to_binary`].
///
/// # Errors
///
/// Returns [`WireError`] on truncation, invalid UTF-8, an unknown
/// reference flag, key code or event kind.
pub fn event_from_binary(r: &mut BinReader<'_>) -> Result<Event, WireError> {
    let id = EventId::new(r.read_str()?, r.read_varint()?);
    let root = r
        .read_ref(|r| Ok(EventId::new(r.read_str()?, r.read_varint()?)))?
        .unwrap_or_else(|| id.clone());
    let origin_host = r.read_ref(|r| r.read_str().map(Into::into))?;
    let origin = CollectionId::new(origin_host.unwrap_or_else(|| id.host().clone()), r.read_str()?);
    let kind_idx = r.read_varint()? as usize;
    let kind = *EventKind::ALL
        .get(kind_idx)
        .ok_or_else(|| WireError::malformed(format!("unknown event kind {kind_idx}")))?;
    let issued_at = SimTime::from_micros(r.read_varint()?);
    let provenance_len = r.read_varint()? as usize;
    let mut provenance = Vec::with_capacity(provenance_len.min(64));
    for _ in 0..provenance_len {
        provenance.push(CollectionId::new(r.read_str()?, r.read_str()?));
    }
    let docs_len = r.read_varint()? as usize;
    let mut docs = Vec::with_capacity(docs_len.min(64));
    for _ in 0..docs_len {
        docs.push(doc_summary_from_binary(r)?);
    }
    Ok(Event {
        id,
        root,
        origin,
        kind,
        docs,
        issued_at,
        provenance,
    })
}

// --- payload bytes (tagged: native event or generic XML) --------------

pub(crate) const PAYLOAD_XML: u8 = 0;
pub(crate) const PAYLOAD_EVENT: u8 = 1;

/// Encodes a message payload element: a tag byte, then either the
/// native event codec (when the element is a well-formed event — the
/// flood fast path) or the generic XML-tree codec.
pub fn payload_bytes_from_xml(el: &XmlElement) -> Vec<u8> {
    match event_from_xml(el) {
        // Only canonical event elements take the native path, so
        // freezing and thawing is the identity on the element tree.
        Ok(event) if event_to_xml(&event) == *el => payload_bytes_from_event(&event),
        _ => {
            let mut buf = Vec::with_capacity(1 + counted(|n| xml_to_binary(el, n)));
            buf.push(PAYLOAD_XML);
            xml_to_binary(el, &mut buf);
            buf
        }
    }
}

/// Encodes an event as payload bytes directly: the tag byte and the
/// native codec, with no XML tree in between. For an event whose
/// `<event>` element decodes back to it (every event a server issues)
/// these are the bytes [`payload_bytes_from_xml`] produces from
/// `event_to_xml(event)`.
pub fn payload_bytes_from_event(event: &Event) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + event_binary_size(event));
    buf.push(PAYLOAD_EVENT);
    event_to_binary(event, &mut buf);
    buf
}

/// Reconstructs the payload element from [`payload_bytes_from_xml`]
/// bytes (the slow path, used when a frozen payload is written as
/// XML text).
///
/// # Errors
///
/// Returns [`WireError`] on malformed bytes, bytes after the encoding
/// included.
pub fn payload_xml_from_bytes(bytes: &[u8]) -> Result<XmlElement, WireError> {
    let mut r = BinReader::new(bytes);
    let el = match r.read_u8()? {
        PAYLOAD_EVENT => event_to_xml(&event_from_binary(&mut r)?),
        PAYLOAD_XML => xml_from_binary(&mut r)?,
        other => return Err(WireError::malformed(format!("unknown payload tag {other}"))),
    };
    r.at_end()?;
    Ok(el)
}

/// Decodes an event straight out of frozen payload bytes — the lazy
/// decode at delivery/filter time, skipping the XML tree entirely on
/// the fast path.
///
/// # Errors
///
/// Returns [`WireError`] when the bytes are malformed (bytes after the
/// encoding included) or the payload is not an event.
pub fn payload_event_from_bytes(bytes: &[u8]) -> Result<Event, WireError> {
    let mut r = BinReader::new(bytes);
    let event = match r.read_u8()? {
        PAYLOAD_EVENT => event_from_binary(&mut r)?,
        PAYLOAD_XML => event_from_xml(&xml_from_binary(&mut r)?)?,
        other => return Err(WireError::malformed(format!("unknown payload tag {other}"))),
    };
    r.at_end()?;
    Ok(event)
}

// --- framing ----------------------------------------------------------

/// Writes one v2 frame: magic byte + varint length + body. `body_len` is
/// what `body` will write ([`counted`] over the same encoder).
pub fn write_frame<S: ByteSink>(out: &mut S, body_len: usize, body: impl FnOnce(&mut S)) {
    out.put_u8(FRAME_MAGIC);
    write_varint(out, body_len as u64);
    body(out);
}

/// The framed size of a body of `body_len` bytes.
pub fn framed_len(body_len: usize) -> usize {
    counted(|n| write_frame(n, body_len, |_| {})) + body_len
}

/// Opens a v2 frame and runs `read` over its body; the one way a frame
/// is decoded.
///
/// # Errors
///
/// As [`BinReader::read_frame`]: bad framing, a failing `read`, or bytes
/// left unread inside the frame.
pub fn decode_frame<T>(
    bytes: &[u8],
    read: impl FnOnce(&mut BinReader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    BinReader::new(bytes).read_frame(read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::keys;

    #[test]
    fn varint_round_trips_at_boundaries() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), counted(|n| write_varint(n, v)), "length of {v}");
            let mut r = BinReader::new(&buf);
            assert_eq!(r.read_varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn varint_overflow_is_rejected() {
        let buf = [0xffu8; 11];
        assert!(BinReader::new(&buf).read_varint().is_err());
    }

    #[test]
    fn strings_round_trip() {
        for s in ["", "a", "héllo <&> \"quotes\"", &"x".repeat(300)] {
            let mut buf = Vec::new();
            write_str(&mut buf, s);
            assert_eq!(buf.len(), counted(|n| write_str(n, s)));
            assert_eq!(BinReader::new(&buf).read_string().unwrap(), s);
        }
    }

    #[test]
    fn truncated_reads_error() {
        let mut buf = Vec::new();
        write_str(&mut buf, "hello");
        buf.truncate(3);
        assert!(BinReader::new(&buf).read_string().is_err());
        assert!(BinReader::new(&[]).read_u8().is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values (RFC 3720 appendix / zlib).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut bytes = b"journal record body".to_vec();
        let clean = crc32(&bytes);
        for i in 0..bytes.len() {
            bytes[i] ^= 0x40;
            assert_ne!(crc32(&bytes), clean, "flip at byte {i} must change the CRC");
            bytes[i] ^= 0x40;
        }
        assert_eq!(crc32(&bytes), clean);
    }

    #[test]
    fn xml_tree_round_trips_and_sizes_agree() {
        let el = XmlElement::new("gds:publish")
            .with_attr("id", "7")
            .with_child(
                XmlElement::new("event")
                    .with_attr("kind", "documents-added")
                    .with_text("mixed <content> & entities"),
            )
            .with_child(XmlElement::new("empty"));
        let mut buf = Vec::new();
        xml_to_binary(&el, &mut buf);
        assert_eq!(buf.len(), counted(|n| xml_to_binary(&el, n)));
        let back = xml_from_binary(&mut BinReader::new(&buf)).unwrap();
        assert_eq!(back, el);
    }

    fn sample_event() -> Event {
        let md: MetadataRecord = [(keys::TITLE, "Digital Libraries"), (keys::CREATOR, "Hinze")]
            .into_iter()
            .collect();
        let mut event = Event::new(
            EventId::new("Hamilton", 42),
            CollectionId::new("Hamilton", "D"),
            EventKind::DocumentsAdded,
            SimTime::from_millis(1234),
        );
        event.docs = vec![
            DocSummary::new("doc-1").with_metadata(md).with_excerpt("…an excerpt…"),
            DocSummary::new("doc-2"),
        ];
        event.provenance = vec![CollectionId::new("London", "E")];
        event
    }

    #[test]
    fn event_round_trips_and_sizes_agree() {
        let event = sample_event();
        let mut buf = Vec::new();
        event_to_binary(&event, &mut buf);
        assert_eq!(buf.len(), event_binary_size(&event));
        let back = event_from_binary(&mut BinReader::new(&buf)).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn dublin_core_keys_travel_as_one_byte_codes_and_others_spelled_out() {
        for (i, key) in keys::DUBLIN_CORE.into_iter().enumerate() {
            assert_eq!(keys::DUBLIN_CORE.iter().filter(|k| **k == key).count(), 1, "{key}");
            let md: MetadataRecord = [(key, "v")].into_iter().collect();
            let mut buf = Vec::new();
            metadata_to_binary(&md, &mut buf);
            assert_eq!(buf, [1, i as u8 + 1, 1, b'v'], "{key}");
            assert_eq!(metadata_from_binary(&mut BinReader::new(&buf)).unwrap(), md);
        }
        let md: MetadataRecord = [("dc.title", "v")].into_iter().collect();
        let mut buf = Vec::new();
        metadata_to_binary(&md, &mut buf);
        assert_eq!(buf, b"\x01\x00\x08dc.title\x01v");
        assert_eq!(metadata_from_binary(&mut BinReader::new(&buf)).unwrap(), md);
    }

    #[test]
    fn event_binary_is_smaller_than_xml() {
        let event = sample_event();
        let xml = event_to_xml(&event).to_xml_string();
        assert!(
            event_binary_size(&event) * 2 < xml.len(),
            "binary {} vs xml {}",
            event_binary_size(&event),
            xml.len()
        );
    }

    #[test]
    fn payload_bytes_take_the_native_path_for_events() {
        let event = sample_event();
        let el = event_to_xml(&event);
        let bytes = payload_bytes_from_xml(&el);
        assert_eq!(bytes[0], PAYLOAD_EVENT);
        assert_eq!(payload_event_from_bytes(&bytes).unwrap(), event);
        assert_eq!(payload_xml_from_bytes(&bytes).unwrap(), el);
    }

    #[test]
    fn payload_bytes_fall_back_to_generic_xml() {
        let el = XmlElement::new("custom").with_attr("x", "1");
        let bytes = payload_bytes_from_xml(&el);
        assert_eq!(bytes[0], PAYLOAD_XML);
        assert_eq!(payload_xml_from_bytes(&bytes).unwrap(), el);
        assert!(payload_event_from_bytes(&bytes).is_err());
    }

    #[test]
    fn frames_peek_without_decoding() {
        let body = vec![1u8, 2, 3, 4];
        let mut framed = Vec::new();
        write_frame(&mut framed, body.len(), |out| out.put(&body));
        assert_eq!(framed.len(), framed_len(body.len()));
        assert_eq!(framed_len(200), 1 + 2 + 200, "a two-byte length");
        let peek = |frame: &[u8]| decode_frame(frame, |r| r.read_slice(r.remaining()).map(<[u8]>::to_vec));
        assert_eq!(peek(&framed).unwrap(), body);
        assert!(peek(&[0x00, 0x01]).is_err(), "bad magic");
        assert!(peek(&[FRAME_MAGIC, 0x09, 0x01]).is_err(), "short body");
    }

    #[test]
    fn frozen_bytes_share_storage() {
        let a = FrozenBytes::new(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(&*b, &[1, 2, 3]);
        assert_eq!(format!("{a:?}"), "FrozenBytes(3 bytes)");
    }

    #[test]
    fn wire_format_displays() {
        assert_eq!(WireFormat::Xml.to_string(), "xml");
        assert_eq!(WireFormat::Binary.to_string(), "binary");
        assert_eq!(WireFormat::default(), WireFormat::Xml);
    }
}
