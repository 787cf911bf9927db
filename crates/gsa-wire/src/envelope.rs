//! SOAP-style envelopes.
//!
//! Every message exchanged between servers — over the GDS protocol or the
//! GS protocol — travels inside an envelope carrying routing headers (the
//! sending host, a message id for duplicate suppression, a hop count) and a
//! single body element with the actual payload.

use crate::binary::{
    counted, decode_frame, framed_len, write_frame, write_str, write_varint, xml_from_binary,
    xml_to_binary, ByteSink, WireFormat,
};
use crate::xml::{parse_document, WireError, XmlElement};
use gsa_types::{HostName, MessageId};
use std::fmt;

const ENVELOPE_TAG: &str = "soap:Envelope";
const HEADER_TAG: &str = "soap:Header";
const BODY_TAG: &str = "soap:Body";

/// A routed protocol message: headers plus one payload element.
///
/// # Examples
///
/// ```
/// use gsa_wire::{Envelope, XmlElement};
/// use gsa_types::{HostName, MessageId};
///
/// let env = Envelope::new(
///     MessageId::from_raw(7),
///     HostName::new("Hamilton"),
///     XmlElement::new("event"),
/// );
/// let bytes = env.encode();
/// let back = Envelope::decode(&bytes)?;
/// assert_eq!(back.message_id(), env.message_id());
/// assert_eq!(back.body().name(), "event");
/// # Ok::<(), gsa_wire::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    message_id: MessageId,
    sender: HostName,
    hops: u32,
    body: XmlElement,
}

impl Envelope {
    /// Creates an envelope with a zero hop count.
    pub fn new(message_id: MessageId, sender: HostName, body: XmlElement) -> Self {
        Envelope {
            message_id,
            sender,
            hops: 0,
            body,
        }
    }

    /// The message id, unique per sending host's id generator.
    pub fn message_id(&self) -> MessageId {
        self.message_id
    }

    /// The host that sent (or last forwarded) this envelope.
    pub fn sender(&self) -> &HostName {
        &self.sender
    }

    /// How many times the envelope has been forwarded.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// The payload element.
    pub fn body(&self) -> &XmlElement {
        &self.body
    }

    /// Consumes the envelope, returning the payload element.
    pub fn into_body(self) -> XmlElement {
        self.body
    }

    /// Returns a copy to forward: hop count incremented, sender replaced.
    pub fn forwarded_by(&self, sender: HostName) -> Envelope {
        Envelope {
            message_id: self.message_id,
            sender,
            hops: self.hops + 1,
            body: self.body.clone(),
        }
    }

    /// Serializes the envelope to its on-the-wire XML string.
    pub fn encode(&self) -> String {
        let header = XmlElement::new(HEADER_TAG)
            .with_child(
                XmlElement::new("gsa:MessageId").with_text(self.message_id.as_u64().to_string()),
            )
            .with_child(XmlElement::new("gsa:Sender").with_text(self.sender.as_str()))
            .with_child(XmlElement::new("gsa:Hops").with_text(self.hops.to_string()));
        XmlElement::new(ENVELOPE_TAG)
            .with_child(header)
            .with_child(XmlElement::new(BODY_TAG).with_child(self.body.clone()))
            .to_document_string()
    }

    /// Parses an envelope from its on-the-wire XML string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the input is not well-formed XML or is
    /// missing any of the required envelope parts.
    pub fn decode(input: &str) -> Result<Envelope, WireError> {
        let root = parse_document(input)?;
        if root.name() != ENVELOPE_TAG {
            return Err(WireError::malformed(format!(
                "expected {ENVELOPE_TAG}, found {}",
                root.name()
            )));
        }
        let header = root
            .child(HEADER_TAG)
            .ok_or_else(|| WireError::malformed("missing envelope header"))?;
        let message_id = header
            .child_text("gsa:MessageId")
            .and_then(|t| t.parse::<u64>().ok())
            .map(MessageId::from_raw)
            .ok_or_else(|| WireError::malformed("missing or invalid MessageId header"))?;
        let sender = header
            .child_text("gsa:Sender")
            .filter(|s| !s.is_empty())
            .map(HostName::new)
            .ok_or_else(|| WireError::malformed("missing Sender header"))?;
        let hops = header
            .child_text("gsa:Hops")
            .and_then(|t| t.parse::<u32>().ok())
            .ok_or_else(|| WireError::malformed("missing or invalid Hops header"))?;
        let body_wrapper = root
            .child(BODY_TAG)
            .ok_or_else(|| WireError::malformed("missing envelope body"))?;
        let body = body_wrapper
            .elements()
            .next()
            .cloned()
            .ok_or_else(|| WireError::malformed("empty envelope body"))?;
        Ok(Envelope {
            message_id,
            sender,
            hops,
            body,
        })
    }

    /// Serializes the envelope as a wire-format-v2 binary frame:
    /// headers as varints/length-prefixed strings, the body as the
    /// generic binary XML-tree codec.
    pub fn encode_binary(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        write_frame(&mut frame, counted(|n| self.put_bin(n)), |out| self.put_bin(out));
        frame
    }

    fn put_bin(&self, out: &mut impl ByteSink) {
        write_varint(out, self.message_id.as_u64());
        write_str(out, self.sender.as_str());
        write_varint(out, u64::from(self.hops));
        xml_to_binary(&self.body, out);
    }

    /// Parses an envelope from a v2 binary frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the frame header or any field is
    /// malformed, or bytes follow the body inside the frame.
    pub fn decode_binary(bytes: &[u8]) -> Result<Envelope, WireError> {
        decode_frame(bytes, |r| {
            let message_id = MessageId::from_raw(r.read_varint()?);
            let sender = r.read_string()?;
            if sender.is_empty() {
                return Err(WireError::malformed("missing Sender header"));
            }
            let hops = u32::try_from(r.read_varint()?)
                .map_err(|_| WireError::malformed("Hops header overflows u32"))?;
            Ok(Envelope {
                message_id,
                sender: HostName::new(sender),
                hops,
                body: xml_from_binary(r)?,
            })
        })
    }

    /// The serialized size in bytes of the v1 text encoding, for
    /// bandwidth accounting.
    pub fn wire_size(&self) -> usize {
        self.wire_size_in(WireFormat::Xml)
    }

    /// The serialized size in bytes in the given wire format. The
    /// binary size is computed without materialising the frame.
    pub fn wire_size_in(&self, format: WireFormat) -> usize {
        match format {
            WireFormat::Xml => self.encode().len(),
            WireFormat::Binary => framed_len(counted(|n| self.put_bin(n))),
        }
    }
}

impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "envelope {} from {} ({} hops): <{}>",
            self.message_id,
            self.sender,
            self.hops,
            self.body.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope::new(
            MessageId::from_raw(42),
            HostName::new("Hamilton"),
            XmlElement::new("event").with_attr("kind", "collection-rebuilt"),
        )
    }

    #[test]
    fn encode_decode_round_trips() {
        let env = sample();
        let back = Envelope::decode(&env.encode()).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn forwarding_increments_hops_and_replaces_sender() {
        let env = sample();
        let fwd = env.forwarded_by(HostName::new("London"));
        assert_eq!(fwd.hops(), 1);
        assert_eq!(fwd.sender().as_str(), "London");
        assert_eq!(fwd.message_id(), env.message_id());
        assert_eq!(fwd.body(), env.body());
        let back = Envelope::decode(&fwd.encode()).unwrap();
        assert_eq!(back.hops(), 1);
    }

    #[test]
    fn decode_rejects_wrong_root() {
        assert!(Envelope::decode("<notanenvelope/>").is_err());
    }

    #[test]
    fn decode_rejects_missing_parts() {
        let no_header = "<soap:Envelope><soap:Body><x/></soap:Body></soap:Envelope>";
        assert!(Envelope::decode(no_header).is_err());
        let no_body = "<soap:Envelope><soap:Header>\
             <gsa:MessageId>1</gsa:MessageId><gsa:Sender>h</gsa:Sender><gsa:Hops>0</gsa:Hops>\
             </soap:Header></soap:Envelope>";
        assert!(Envelope::decode(no_body).is_err());
        let empty_body = "<soap:Envelope><soap:Header>\
             <gsa:MessageId>1</gsa:MessageId><gsa:Sender>h</gsa:Sender><gsa:Hops>0</gsa:Hops>\
             </soap:Header><soap:Body></soap:Body></soap:Envelope>";
        assert!(Envelope::decode(empty_body).is_err());
    }

    #[test]
    fn decode_rejects_bad_numeric_headers() {
        let bad = "<soap:Envelope><soap:Header>\
             <gsa:MessageId>xyz</gsa:MessageId><gsa:Sender>h</gsa:Sender><gsa:Hops>0</gsa:Hops>\
             </soap:Header><soap:Body><x/></soap:Body></soap:Envelope>";
        assert!(Envelope::decode(bad).is_err());
    }

    #[test]
    fn display_summarizes() {
        let s = sample().to_string();
        assert!(s.contains("msg-42"));
        assert!(s.contains("Hamilton"));
        assert!(s.contains("<event>"));
    }

    #[test]
    fn into_body_returns_payload() {
        assert_eq!(sample().into_body().name(), "event");
    }

    #[test]
    fn binary_round_trips_and_matches_text_decode() {
        let env = sample().forwarded_by(HostName::new("London"));
        let frame = env.encode_binary();
        let back = Envelope::decode_binary(&frame).unwrap();
        assert_eq!(back, env);
        assert_eq!(back, Envelope::decode(&env.encode()).unwrap());
        assert_eq!(back.hops(), 1, "hop count survives the binary wire");
    }

    #[test]
    fn wire_size_is_format_aware_and_exact() {
        let env = sample();
        assert_eq!(env.wire_size(), env.encode().len());
        assert_eq!(env.wire_size_in(WireFormat::Xml), env.encode().len());
        assert_eq!(
            env.wire_size_in(WireFormat::Binary),
            env.encode_binary().len()
        );
        assert!(
            env.wire_size_in(WireFormat::Binary) < env.wire_size_in(WireFormat::Xml),
            "binary framing is smaller than SOAP text"
        );
    }

    #[test]
    fn binary_decode_rejects_corruption() {
        let env = sample();
        let mut frame = env.encode_binary();
        frame[0] = 0x00;
        assert!(Envelope::decode_binary(&frame).is_err(), "bad magic");
        let frame = env.encode_binary();
        assert!(
            Envelope::decode_binary(&frame[..frame.len() - 1]).is_err(),
            "truncated frame"
        );
    }
}
