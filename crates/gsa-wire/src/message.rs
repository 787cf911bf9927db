//! What a protocol message owes the two wires.
//!
//! A message type states five things — its tag, how it puts itself into
//! an XML element and takes itself out of one, how it puts itself into a
//! v2 frame body and takes itself out of one — and [`WireMessage`]
//! derives the rest: the tree and the text size are the one XML
//! description run into an [`XmlElement`] and an [`XmlLen`], the frame
//! and its size are the one v2 description run into a `Vec<u8>` and a
//! [`ByteCount`](crate::binary::ByteCount). A size therefore cannot
//! disagree with an encoding, and a message nested in another (a batch
//! item, the payload of a [`Reliable`](crate::Reliable) envelope) is
//! written and sized by the same call. A message made of fields states
//! those five through the [`Field`] kind of each.

use crate::binary::{counted, decode_frame, framed_len, write_frame, BinReader, ByteSink};
use crate::xml::{WireError, XmlElement, XmlLen, XmlPut};

/// One kind of message field: how a value of it is put into and taken
/// out of each wire. `put_xml` adds to the message's element and
/// `take_xml` reads from it; `put_bin` and `take_bin` write and read the
/// field's bytes at its position in the frame body. The kind is a value
/// so that it can carry what the type does not say, such as the name of
/// the XML attribute.
pub trait Field {
    /// The type of the field.
    type Value;
    /// Adds `v` to the message's element.
    fn put_xml(&self, v: &Self::Value, out: &mut impl XmlPut);
    /// Reads the field from the message's element.
    fn take_xml(&self, el: &XmlElement) -> Result<Self::Value, WireError>;
    /// Writes `v` at the field's position in the frame body.
    fn put_bin(&self, v: &Self::Value, out: &mut impl ByteSink);
    /// Reads the field at its position in the frame body.
    fn take_bin(&self, r: &mut BinReader<'_>) -> Result<Self::Value, WireError>;
}

/// A message with a v1 XML element form and a v2 frame form.
pub trait WireMessage: Sized {
    /// The name of the message's XML element.
    fn tag(&self) -> &'static str;

    /// Puts the attributes and children of the message's element.
    fn put_xml(&self, out: &mut impl XmlPut);

    /// Decodes a message from the element [`to_xml`](Self::to_xml)
    /// produces.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on an unknown tag or a missing or invalid
    /// part.
    fn from_xml(el: &XmlElement) -> Result<Self, WireError>;

    /// Writes the body of the message's v2 frame.
    fn put_bin(&self, out: &mut impl ByteSink);

    /// Reads a message from a v2 frame body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on an unknown opcode or a truncated or
    /// malformed field.
    fn take_bin(r: &mut BinReader<'_>) -> Result<Self, WireError>;

    /// Encodes the message as an XML element.
    fn to_xml(&self) -> XmlElement {
        let mut el = XmlElement::new(self.tag());
        self.put_xml(&mut el);
        el
    }

    /// The serialized size in bytes of the v1 XML text, without
    /// producing it or the tree.
    fn wire_size(&self) -> usize {
        let mut len = XmlLen::default();
        self.put_xml(&mut len);
        len.element(self.tag())
    }

    /// Writes the message as a v2 frame: magic, body length, body.
    fn put_frame(&self, out: &mut impl ByteSink) {
        write_frame(out, counted(|n| self.put_bin(n)), |out| self.put_bin(out));
    }

    /// Encodes the message as a v2 binary frame.
    fn to_binary(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        self.put_frame(&mut frame);
        frame
    }

    /// The exact size in bytes of the v2 frame, without materialising it.
    fn binary_wire_size(&self) -> usize {
        framed_len(counted(|n| self.put_bin(n)))
    }

    /// Decodes a message from a v2 binary frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on bad framing, a body
    /// [`take_bin`](Self::take_bin) refuses, or bytes it leaves unread
    /// inside the frame.
    fn from_binary(bytes: &[u8]) -> Result<Self, WireError> {
        decode_frame(bytes, Self::take_bin)
    }
}
