//! GDS protocol messages and their XML encoding.

use gsa_types::{HostName, MessageId};
use gsa_wire::binary::{
    frame, framed_len, str_len, unframe, varint_len, write_str, write_varint, BinReader,
};
use gsa_wire::xml::{
    attr_wire_size, element_wire_size, number_attr_wire_size, text_wire_size,
};
use gsa_wire::{FrozenBytes, InterestSummary, Payload, WireError, XmlElement};
use gsa_types::Event;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Correlates a naming-service resolution with its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResolveToken(pub u64);

impl fmt::Display for ResolveToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resolve-{}", self.0)
    }
}

/// The messages of the GDS protocol.
///
/// Duplicate suppression keys on `(origin, id)`: message ids are only
/// unique per publishing Greenstone server.
#[derive(Debug, Clone, PartialEq)]
pub enum GdsMessage {
    /// A Greenstone server registers with its GDS node.
    Register {
        /// The registering Greenstone server.
        gs_host: HostName,
    },
    /// A Greenstone server deregisters.
    Unregister {
        /// The deregistering Greenstone server.
        gs_host: HostName,
    },
    /// Registration propagated up the tree so ancestors learn their
    /// subtree membership.
    RegisterUp {
        /// The Greenstone server now reachable through `via`.
        gs_host: HostName,
        /// The child GDS node through which it is reachable.
        via: HostName,
    },
    /// Deregistration propagated up the tree.
    UnregisterUp {
        /// The Greenstone server no longer reachable.
        gs_host: HostName,
    },
    /// A Greenstone server asks its GDS node to broadcast a payload to
    /// every registered server.
    Publish {
        /// Publisher-chosen id, unique per publisher.
        id: MessageId,
        /// The payload (an encoded alerting event).
        payload: Payload,
    },
    /// A Greenstone server asks its GDS node to deliver a payload to a
    /// specific set of servers (multicast; a single target is
    /// point-to-point).
    PublishTargeted {
        /// Publisher-chosen id.
        id: MessageId,
        /// The Greenstone servers to reach.
        targets: Vec<HostName>,
        /// The payload.
        payload: Payload,
    },
    /// Tree flooding between GDS nodes.
    Broadcast {
        /// Publisher-chosen id.
        id: MessageId,
        /// The publishing Greenstone server.
        origin: HostName,
        /// The payload.
        payload: Payload,
    },
    /// Targeted routing between GDS nodes.
    Route {
        /// Publisher-chosen id.
        id: MessageId,
        /// The publishing Greenstone server.
        origin: HostName,
        /// Targets still to reach.
        targets: Vec<HostName>,
        /// The payload.
        payload: Payload,
    },
    /// Final delivery from a GDS node to a Greenstone server.
    Deliver {
        /// Publisher-chosen id (dedup key together with `origin`).
        id: MessageId,
        /// The publishing Greenstone server.
        origin: HostName,
        /// The payload.
        payload: Payload,
    },
    /// Naming-service query: which GDS node serves `name`?
    Resolve {
        /// Correlation token.
        token: ResolveToken,
        /// The Greenstone server name to resolve.
        name: HostName,
        /// Who asked (the answer is sent back here).
        reply_to: HostName,
    },
    /// Naming-service answer.
    ResolveResponse {
        /// Correlation token.
        token: ResolveToken,
        /// The name that was queried.
        name: HostName,
        /// The GDS node responsible, or `None` when unknown network-wide.
        result: Option<HostName>,
    },
    /// Child→parent liveness probe (tree maintenance, §3).
    Heartbeat,
    /// Parent's reply to a [`GdsMessage::Heartbeat`].
    HeartbeatAck,
    /// A GDS node whose parent was declared dead asks its recorded
    /// grandparent to adopt it as a child (tree self-healing).
    Adopt {
        /// The re-parenting GDS node.
        child: HostName,
    },
    /// A re-parented GDS node tells its old parent to forget the edge
    /// (delivered after the heal; retried until then).
    Detach {
        /// The departed GDS node.
        child: HostName,
    },
    /// Wire-format negotiation: "I can speak binary wire format v2."
    /// Sent to tree neighbours on startup; a v1 peer ignores it (an
    /// unknown message is dropped), so the edge silently stays on XML
    /// text.
    Hello {
        /// Highest wire format version the sender speaks.
        version: u8,
    },
    /// Reply to a [`GdsMessage::Hello`]: the edge may upgrade.
    HelloAck {
        /// Version the responder agrees to speak.
        version: u8,
    },
    /// Several messages coalesced into one frame by the per-edge
    /// batcher. A batch travels (and is acked) as a unit.
    Batch(Vec<GdsMessage>),
    /// A child (GDS node or Greenstone server) announces the interest
    /// summary of its subtree to its parent. Versions are per-sender and
    /// monotonic: the receiver keeps only the newest summary per edge,
    /// so updates may be lost or reordered without corrupting state —
    /// a missing summary just means the edge stays unpruned.
    SummaryUpdate {
        /// Whose subtree the summary describes (the direct child edge).
        from: HostName,
        /// Monotonic per-sender version; stale updates are ignored.
        version: u64,
        /// The conservative interest digest of the sender's subtree.
        summary: InterestSummary,
    },
    /// A parent grants its child rendezvous authority for a set of
    /// `(attribute, value)` subgroups: the parent has proved, from its
    /// aggregated edge summaries, that no live interest in those
    /// subgroups exists outside the child's subtree. An event inside
    /// the subtree that provably belongs to a granted subgroup need not
    /// climb past the child — it is confined and floods down from the
    /// rendezvous point instead of from the root. The grant set is a
    /// full replacement at a per-sender monotonic version (stale or
    /// replayed grants are ignored, like summary updates), and is
    /// re-sent on heartbeat receipt as an idempotent heal.
    RendezvousGrant {
        /// The granting parent.
        from: HostName,
        /// Monotonic per-sender version; stale grants are ignored.
        version: u64,
        /// `attribute key → granted values`; empty revokes everything.
        grants: BTreeMap<String, BTreeSet<String>>,
    },
}

impl GdsMessage {
    /// Convenience: a `Publish` of an alerting event. The event is
    /// copied into a [`Payload::from_event`]; a caller that already holds
    /// it behind an `Arc` shares it through
    /// [`GdsClient::publish_event`](crate::GdsClient::publish_event).
    pub fn publish_event(id: MessageId, event: &Event) -> Self {
        GdsMessage::Publish {
            id,
            payload: Payload::from_event(Arc::new(event.clone())),
        }
    }

    /// Decodes an alerting event out of a `Deliver` payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when this is not a `Deliver` or the payload is
    /// not a valid event element.
    pub fn deliver_event(&self) -> Result<Event, WireError> {
        match self {
            GdsMessage::Deliver { payload, .. } => payload.decode_event(),
            _ => Err(WireError::malformed("not a Deliver message")),
        }
    }

    /// Encodes the message as an XML element.
    pub fn to_xml(&self) -> XmlElement {
        match self {
            GdsMessage::Register { gs_host } => {
                XmlElement::new("gds:register").with_attr("host", gs_host.as_str())
            }
            GdsMessage::Unregister { gs_host } => {
                XmlElement::new("gds:unregister").with_attr("host", gs_host.as_str())
            }
            GdsMessage::RegisterUp { gs_host, via } => XmlElement::new("gds:register-up")
                .with_attr("host", gs_host.as_str())
                .with_attr("via", via.as_str()),
            GdsMessage::UnregisterUp { gs_host } => {
                XmlElement::new("gds:unregister-up").with_attr("host", gs_host.as_str())
            }
            GdsMessage::Publish { id, payload } => XmlElement::new("gds:publish")
                .with_attr("id", id.as_u64().to_string())
                .with_child(payload.to_xml_element()),
            GdsMessage::PublishTargeted {
                id,
                targets,
                payload,
            } => {
                let mut el = XmlElement::new("gds:publish-targeted")
                    .with_attr("id", id.as_u64().to_string());
                for t in targets {
                    el.push_child(XmlElement::new("target").with_text(t.as_str()));
                }
                el.push_child(payload.to_xml_element());
                el
            }
            GdsMessage::Broadcast {
                id,
                origin,
                payload,
            } => XmlElement::new("gds:broadcast")
                .with_attr("id", id.as_u64().to_string())
                .with_attr("origin", origin.as_str())
                .with_child(payload.to_xml_element()),
            GdsMessage::Route {
                id,
                origin,
                targets,
                payload,
            } => {
                let mut el = XmlElement::new("gds:route")
                    .with_attr("id", id.as_u64().to_string())
                    .with_attr("origin", origin.as_str());
                for t in targets {
                    el.push_child(XmlElement::new("target").with_text(t.as_str()));
                }
                el.push_child(payload.to_xml_element());
                el
            }
            GdsMessage::Deliver {
                id,
                origin,
                payload,
            } => XmlElement::new("gds:deliver")
                .with_attr("id", id.as_u64().to_string())
                .with_attr("origin", origin.as_str())
                .with_child(payload.to_xml_element()),
            GdsMessage::Resolve {
                token,
                name,
                reply_to,
            } => XmlElement::new("gds:resolve")
                .with_attr("token", token.0.to_string())
                .with_attr("name", name.as_str())
                .with_attr("reply-to", reply_to.as_str()),
            GdsMessage::ResolveResponse {
                token,
                name,
                result,
            } => {
                let mut el = XmlElement::new("gds:resolve-response")
                    .with_attr("token", token.0.to_string())
                    .with_attr("name", name.as_str());
                if let Some(r) = result {
                    el.set_attr("result", r.as_str());
                }
                el
            }
            GdsMessage::Heartbeat => XmlElement::new("gds:heartbeat"),
            GdsMessage::HeartbeatAck => XmlElement::new("gds:heartbeat-ack"),
            GdsMessage::Adopt { child } => {
                XmlElement::new("gds:adopt").with_attr("child", child.as_str())
            }
            GdsMessage::Detach { child } => {
                XmlElement::new("gds:detach").with_attr("child", child.as_str())
            }
            GdsMessage::Hello { version } => {
                XmlElement::new("gds:hello").with_attr("version", version.to_string())
            }
            GdsMessage::HelloAck { version } => {
                XmlElement::new("gds:hello-ack").with_attr("version", version.to_string())
            }
            GdsMessage::Batch(items) => {
                let mut el = XmlElement::new("gds:batch");
                el.reserve_children(items.len());
                for item in items {
                    el.push_child(item.to_xml());
                }
                el
            }
            GdsMessage::SummaryUpdate {
                from,
                version,
                summary,
            } => summary
                .to_xml("gds:summary")
                .with_attr("from", from.as_str())
                .with_attr("version", version.to_string()),
            GdsMessage::RendezvousGrant {
                from,
                version,
                grants,
            } => {
                let mut el = XmlElement::new("gds:rendezvous-grant")
                    .with_attr("from", from.as_str())
                    .with_attr("version", version.to_string());
                el.reserve_children(grants.len());
                for (key, values) in grants {
                    let mut grant = XmlElement::new("grant").with_attr("key", key.as_str());
                    grant.reserve_children(values.len());
                    for v in values {
                        grant.push_child(XmlElement::new("value").with_text(v.as_str()));
                    }
                    el.push_child(grant);
                }
                el
            }
        }
    }

    /// Decodes a message from the element produced by
    /// [`GdsMessage::to_xml`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on unknown tags or missing/invalid parts.
    pub fn from_xml(el: &XmlElement) -> Result<GdsMessage, WireError> {
        let host = |attr: &str| -> Result<HostName, WireError> {
            el.attr(attr)
                .filter(|s| !s.is_empty())
                .map(HostName::new)
                .ok_or_else(|| WireError::malformed(format!("missing {attr}")))
        };
        let id = || -> Result<MessageId, WireError> {
            el.attr("id")
                .and_then(|i| i.parse::<u64>().ok())
                .map(MessageId::from_raw)
                .ok_or_else(|| WireError::malformed("missing id"))
        };
        let token = || -> Result<ResolveToken, WireError> {
            el.attr("token")
                .and_then(|t| t.parse::<u64>().ok())
                .map(ResolveToken)
                .ok_or_else(|| WireError::malformed("missing token"))
        };
        let payload = || -> Result<Payload, WireError> {
            el.elements()
                .find(|e| e.name() != "target")
                .cloned()
                .map(Payload::from)
                .ok_or_else(|| WireError::malformed("missing payload"))
        };
        let version = || -> Result<u8, WireError> {
            el.attr("version")
                .and_then(|v| v.parse::<u8>().ok())
                .ok_or_else(|| WireError::malformed("missing version"))
        };
        let targets = || -> Vec<HostName> {
            el.children_named("target")
                .map(|t| HostName::new(t.text()))
                .collect()
        };
        match el.name() {
            "gds:register" => Ok(GdsMessage::Register { gs_host: host("host")? }),
            "gds:unregister" => Ok(GdsMessage::Unregister { gs_host: host("host")? }),
            "gds:register-up" => Ok(GdsMessage::RegisterUp {
                gs_host: host("host")?,
                via: host("via")?,
            }),
            "gds:unregister-up" => Ok(GdsMessage::UnregisterUp { gs_host: host("host")? }),
            "gds:publish" => Ok(GdsMessage::Publish {
                id: id()?,
                payload: payload()?,
            }),
            "gds:publish-targeted" => Ok(GdsMessage::PublishTargeted {
                id: id()?,
                targets: targets(),
                payload: payload()?,
            }),
            "gds:broadcast" => Ok(GdsMessage::Broadcast {
                id: id()?,
                origin: host("origin")?,
                payload: payload()?,
            }),
            "gds:route" => Ok(GdsMessage::Route {
                id: id()?,
                origin: host("origin")?,
                targets: targets(),
                payload: payload()?,
            }),
            "gds:deliver" => Ok(GdsMessage::Deliver {
                id: id()?,
                origin: host("origin")?,
                payload: payload()?,
            }),
            "gds:resolve" => Ok(GdsMessage::Resolve {
                token: token()?,
                name: host("name")?,
                reply_to: host("reply-to")?,
            }),
            "gds:resolve-response" => Ok(GdsMessage::ResolveResponse {
                token: token()?,
                name: host("name")?,
                result: el.attr("result").map(HostName::new),
            }),
            "gds:heartbeat" => Ok(GdsMessage::Heartbeat),
            "gds:heartbeat-ack" => Ok(GdsMessage::HeartbeatAck),
            "gds:adopt" => Ok(GdsMessage::Adopt { child: host("child")? }),
            "gds:detach" => Ok(GdsMessage::Detach { child: host("child")? }),
            "gds:hello" => Ok(GdsMessage::Hello { version: version()? }),
            "gds:hello-ack" => Ok(GdsMessage::HelloAck { version: version()? }),
            "gds:batch" => Ok(GdsMessage::Batch(
                el.elements().map(GdsMessage::from_xml).collect::<Result<_, _>>()?,
            )),
            "gds:summary" => Ok(GdsMessage::SummaryUpdate {
                from: host("from")?,
                version: el
                    .attr("version")
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| WireError::malformed("missing summary version"))?,
                summary: InterestSummary::from_xml(el)?,
            }),
            "gds:rendezvous-grant" => {
                let mut grants = BTreeMap::new();
                for grant in el.children_named("grant") {
                    let key = grant
                        .attr("key")
                        .ok_or_else(|| WireError::malformed("grant without key"))?;
                    let values: BTreeSet<String> = grant
                        .children_named("value")
                        .map(|v| v.text().to_owned())
                        .collect();
                    grants.insert(key.to_owned(), values);
                }
                Ok(GdsMessage::RendezvousGrant {
                    from: host("from")?,
                    version: el
                        .attr("version")
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| WireError::malformed("missing grant version"))?,
                    grants,
                })
            }
            other => Err(WireError::malformed(format!("unknown GDS message <{other}>"))),
        }
    }

    /// The serialized size in bytes of the v1 XML text encoding,
    /// without producing it. The writer is compact, so a message that
    /// carries a payload sizes as its envelope (tag, id, origin,
    /// targets) plus [`Payload::xml_size`], which every clone of the
    /// payload shares: O(1) in the payload on every hop after the first.
    /// Control messages are small and size through their element.
    pub fn wire_size(&self) -> usize {
        let carrier = |tag: &str,
                       id: &MessageId,
                       origin: Option<&HostName>,
                       targets: &[HostName],
                       payload: &Payload| {
            let attrs = number_attr_wire_size("id", id.as_u64())
                + origin.map_or(0, |o| attr_wire_size("origin", o.as_str()));
            let targets: usize = targets
                .iter()
                .map(|t| element_wire_size("target", 0, text_wire_size(t.as_str())))
                .sum();
            element_wire_size(tag, attrs, targets + payload.xml_size())
        };
        match self {
            GdsMessage::Publish { id, payload } => carrier("gds:publish", id, None, &[], payload),
            GdsMessage::PublishTargeted {
                id,
                targets,
                payload,
            } => carrier("gds:publish-targeted", id, None, targets, payload),
            GdsMessage::Broadcast {
                id,
                origin,
                payload,
            } => carrier("gds:broadcast", id, Some(origin), &[], payload),
            GdsMessage::Route {
                id,
                origin,
                targets,
                payload,
            } => carrier("gds:route", id, Some(origin), targets, payload),
            GdsMessage::Deliver {
                id,
                origin,
                payload,
            } => carrier("gds:deliver", id, Some(origin), &[], payload),
            GdsMessage::Batch(items) if !items.is_empty() => element_wire_size(
                "gds:batch",
                0,
                items.iter().map(GdsMessage::wire_size).sum(),
            ),
            _ => self.to_xml().wire_size(),
        }
    }

    /// Encodes the message as a wire-format-v2 binary frame.
    pub fn to_binary(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(self.binary_body_len());
        self.write_body(&mut body);
        frame(body)
    }

    /// Decodes a message from a v2 binary frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on bad framing, unknown opcodes or
    /// malformed fields. Payloads are *not* deserialised here — they
    /// arrive as frozen bytes and decode lazily at delivery time.
    pub fn from_binary(bytes: &[u8]) -> Result<GdsMessage, WireError> {
        let body = unframe(bytes)?;
        let mut r = BinReader::new(body);
        let msg = Self::read_body(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::malformed("trailing bytes after GDS message"));
        }
        Ok(msg)
    }

    /// The exact serialized size in bytes of the v2 binary frame,
    /// computed without materialising it. O(1) in the payload when the
    /// payload is frozen — the flood hot path measures without
    /// re-encoding.
    pub fn binary_wire_size(&self) -> usize {
        framed_len(self.binary_body_len())
    }

    fn write_body(&self, buf: &mut Vec<u8>) {
        match self {
            GdsMessage::Register { gs_host } => {
                buf.push(opcode::REGISTER);
                write_str(buf, gs_host.as_str());
            }
            GdsMessage::Unregister { gs_host } => {
                buf.push(opcode::UNREGISTER);
                write_str(buf, gs_host.as_str());
            }
            GdsMessage::RegisterUp { gs_host, via } => {
                buf.push(opcode::REGISTER_UP);
                write_str(buf, gs_host.as_str());
                write_str(buf, via.as_str());
            }
            GdsMessage::UnregisterUp { gs_host } => {
                buf.push(opcode::UNREGISTER_UP);
                write_str(buf, gs_host.as_str());
            }
            GdsMessage::Publish { id, payload } => {
                buf.push(opcode::PUBLISH);
                write_varint(buf, id.as_u64());
                payload.write_binary(buf);
            }
            GdsMessage::PublishTargeted {
                id,
                targets,
                payload,
            } => {
                buf.push(opcode::PUBLISH_TARGETED);
                write_varint(buf, id.as_u64());
                write_hosts(buf, targets);
                payload.write_binary(buf);
            }
            GdsMessage::Broadcast {
                id,
                origin,
                payload,
            } => {
                buf.push(opcode::BROADCAST);
                write_varint(buf, id.as_u64());
                write_str(buf, origin.as_str());
                payload.write_binary(buf);
            }
            GdsMessage::Route {
                id,
                origin,
                targets,
                payload,
            } => {
                buf.push(opcode::ROUTE);
                write_varint(buf, id.as_u64());
                write_str(buf, origin.as_str());
                write_hosts(buf, targets);
                payload.write_binary(buf);
            }
            GdsMessage::Deliver {
                id,
                origin,
                payload,
            } => {
                buf.push(opcode::DELIVER);
                write_varint(buf, id.as_u64());
                write_str(buf, origin.as_str());
                payload.write_binary(buf);
            }
            GdsMessage::Resolve {
                token,
                name,
                reply_to,
            } => {
                buf.push(opcode::RESOLVE);
                write_varint(buf, token.0);
                write_str(buf, name.as_str());
                write_str(buf, reply_to.as_str());
            }
            GdsMessage::ResolveResponse {
                token,
                name,
                result,
            } => {
                buf.push(opcode::RESOLVE_RESPONSE);
                write_varint(buf, token.0);
                write_str(buf, name.as_str());
                match result {
                    Some(r) => {
                        buf.push(1);
                        write_str(buf, r.as_str());
                    }
                    None => buf.push(0),
                }
            }
            GdsMessage::Heartbeat => buf.push(opcode::HEARTBEAT),
            GdsMessage::HeartbeatAck => buf.push(opcode::HEARTBEAT_ACK),
            GdsMessage::Adopt { child } => {
                buf.push(opcode::ADOPT);
                write_str(buf, child.as_str());
            }
            GdsMessage::Detach { child } => {
                buf.push(opcode::DETACH);
                write_str(buf, child.as_str());
            }
            GdsMessage::Hello { version } => {
                buf.push(opcode::HELLO);
                buf.push(*version);
            }
            GdsMessage::HelloAck { version } => {
                buf.push(opcode::HELLO_ACK);
                buf.push(*version);
            }
            GdsMessage::Batch(items) => {
                buf.push(opcode::BATCH);
                write_varint(buf, items.len() as u64);
                for item in items {
                    item.write_body(buf);
                }
            }
            GdsMessage::SummaryUpdate {
                from,
                version,
                summary,
            } => {
                buf.push(opcode::SUMMARY_UPDATE);
                write_str(buf, from.as_str());
                write_varint(buf, *version);
                summary.write_binary(buf);
            }
            GdsMessage::RendezvousGrant {
                from,
                version,
                grants,
            } => {
                buf.push(opcode::RENDEZVOUS_GRANT);
                write_str(buf, from.as_str());
                write_varint(buf, *version);
                write_varint(buf, grants.len() as u64);
                for (key, values) in grants {
                    write_str(buf, key);
                    write_varint(buf, values.len() as u64);
                    for v in values {
                        write_str(buf, v);
                    }
                }
            }
        }
    }

    fn binary_body_len(&self) -> usize {
        1 + match self {
            GdsMessage::Register { gs_host }
            | GdsMessage::Unregister { gs_host }
            | GdsMessage::UnregisterUp { gs_host } => str_len(gs_host.as_str()),
            GdsMessage::RegisterUp { gs_host, via } => {
                str_len(gs_host.as_str()) + str_len(via.as_str())
            }
            GdsMessage::Publish { id, payload } => {
                varint_len(id.as_u64()) + payload.binary_size()
            }
            GdsMessage::PublishTargeted {
                id,
                targets,
                payload,
            } => varint_len(id.as_u64()) + hosts_len(targets) + payload.binary_size(),
            GdsMessage::Broadcast {
                id,
                origin,
                payload,
            } => varint_len(id.as_u64()) + str_len(origin.as_str()) + payload.binary_size(),
            GdsMessage::Route {
                id,
                origin,
                targets,
                payload,
            } => {
                varint_len(id.as_u64())
                    + str_len(origin.as_str())
                    + hosts_len(targets)
                    + payload.binary_size()
            }
            GdsMessage::Deliver {
                id,
                origin,
                payload,
            } => varint_len(id.as_u64()) + str_len(origin.as_str()) + payload.binary_size(),
            GdsMessage::Resolve {
                token,
                name,
                reply_to,
            } => varint_len(token.0) + str_len(name.as_str()) + str_len(reply_to.as_str()),
            GdsMessage::ResolveResponse {
                token,
                name,
                result,
            } => {
                varint_len(token.0)
                    + str_len(name.as_str())
                    + 1
                    + result.as_ref().map_or(0, |r| str_len(r.as_str()))
            }
            GdsMessage::Heartbeat | GdsMessage::HeartbeatAck => 0,
            GdsMessage::Adopt { child } | GdsMessage::Detach { child } => {
                str_len(child.as_str())
            }
            GdsMessage::Hello { .. } | GdsMessage::HelloAck { .. } => 1,
            GdsMessage::Batch(items) => {
                varint_len(items.len() as u64)
                    + items.iter().map(GdsMessage::binary_body_len).sum::<usize>()
            }
            GdsMessage::SummaryUpdate {
                from,
                version,
                summary,
            } => str_len(from.as_str()) + varint_len(*version) + summary.binary_size(),
            GdsMessage::RendezvousGrant {
                from,
                version,
                grants,
            } => {
                str_len(from.as_str())
                    + varint_len(*version)
                    + varint_len(grants.len() as u64)
                    + grants
                        .iter()
                        .map(|(key, values)| {
                            str_len(key)
                                + varint_len(values.len() as u64)
                                + values.iter().map(|v| str_len(v)).sum::<usize>()
                        })
                        .sum::<usize>()
            }
        }
    }

    fn read_body(r: &mut BinReader<'_>) -> Result<GdsMessage, WireError> {
        let read_host = |r: &mut BinReader<'_>| -> Result<HostName, WireError> {
            let s = r.read_string()?;
            if s.is_empty() {
                return Err(WireError::malformed("empty host name"));
            }
            Ok(HostName::new(s))
        };
        let read_payload = |r: &mut BinReader<'_>| -> Result<Payload, WireError> {
            let len = r.read_varint()? as usize;
            let bytes = r.read_slice(len)?;
            Ok(Payload::from_frozen(FrozenBytes::new(bytes.to_vec())))
        };
        let read_hosts = |r: &mut BinReader<'_>| -> Result<Vec<HostName>, WireError> {
            let n = r.read_varint()? as usize;
            let mut hosts = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                hosts.push(HostName::new(r.read_string()?));
            }
            Ok(hosts)
        };
        match r.read_u8()? {
            opcode::REGISTER => Ok(GdsMessage::Register { gs_host: read_host(r)? }),
            opcode::UNREGISTER => Ok(GdsMessage::Unregister { gs_host: read_host(r)? }),
            opcode::REGISTER_UP => Ok(GdsMessage::RegisterUp {
                gs_host: read_host(r)?,
                via: read_host(r)?,
            }),
            opcode::UNREGISTER_UP => Ok(GdsMessage::UnregisterUp { gs_host: read_host(r)? }),
            opcode::PUBLISH => Ok(GdsMessage::Publish {
                id: MessageId::from_raw(r.read_varint()?),
                payload: read_payload(r)?,
            }),
            opcode::PUBLISH_TARGETED => Ok(GdsMessage::PublishTargeted {
                id: MessageId::from_raw(r.read_varint()?),
                targets: read_hosts(r)?,
                payload: read_payload(r)?,
            }),
            opcode::BROADCAST => Ok(GdsMessage::Broadcast {
                id: MessageId::from_raw(r.read_varint()?),
                origin: read_host(r)?,
                payload: read_payload(r)?,
            }),
            opcode::ROUTE => Ok(GdsMessage::Route {
                id: MessageId::from_raw(r.read_varint()?),
                origin: read_host(r)?,
                targets: read_hosts(r)?,
                payload: read_payload(r)?,
            }),
            opcode::DELIVER => Ok(GdsMessage::Deliver {
                id: MessageId::from_raw(r.read_varint()?),
                origin: read_host(r)?,
                payload: read_payload(r)?,
            }),
            opcode::RESOLVE => Ok(GdsMessage::Resolve {
                token: ResolveToken(r.read_varint()?),
                name: read_host(r)?,
                reply_to: read_host(r)?,
            }),
            opcode::RESOLVE_RESPONSE => Ok(GdsMessage::ResolveResponse {
                token: ResolveToken(r.read_varint()?),
                name: read_host(r)?,
                result: match r.read_u8()? {
                    0 => None,
                    1 => Some(HostName::new(r.read_string()?)),
                    other => {
                        return Err(WireError::malformed(format!(
                            "bad resolve-result marker {other}"
                        )));
                    }
                },
            }),
            opcode::HEARTBEAT => Ok(GdsMessage::Heartbeat),
            opcode::HEARTBEAT_ACK => Ok(GdsMessage::HeartbeatAck),
            opcode::ADOPT => Ok(GdsMessage::Adopt { child: read_host(r)? }),
            opcode::DETACH => Ok(GdsMessage::Detach { child: read_host(r)? }),
            opcode::HELLO => Ok(GdsMessage::Hello { version: r.read_u8()? }),
            opcode::HELLO_ACK => Ok(GdsMessage::HelloAck { version: r.read_u8()? }),
            opcode::BATCH => {
                let n = r.read_varint()? as usize;
                let mut items = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    items.push(Self::read_body(r)?);
                }
                Ok(GdsMessage::Batch(items))
            }
            opcode::SUMMARY_UPDATE => Ok(GdsMessage::SummaryUpdate {
                from: read_host(r)?,
                version: r.read_varint()?,
                summary: InterestSummary::read_binary(r)?,
            }),
            opcode::RENDEZVOUS_GRANT => {
                let from = read_host(r)?;
                let version = r.read_varint()?;
                let keys = r.read_varint()? as usize;
                let mut grants = BTreeMap::new();
                for _ in 0..keys {
                    let key = r.read_string()?;
                    let count = r.read_varint()? as usize;
                    let mut values = BTreeSet::new();
                    for _ in 0..count {
                        values.insert(r.read_string()?);
                    }
                    grants.insert(key, values);
                }
                Ok(GdsMessage::RendezvousGrant {
                    from,
                    version,
                    grants,
                })
            }
            other => Err(WireError::malformed(format!("unknown GDS opcode {other}"))),
        }
    }
}

/// Binary opcodes for [`GdsMessage::to_binary`]. One byte, stable
/// across versions — new messages append, never renumber.
mod opcode {
    pub const REGISTER: u8 = 0;
    pub const UNREGISTER: u8 = 1;
    pub const REGISTER_UP: u8 = 2;
    pub const UNREGISTER_UP: u8 = 3;
    pub const PUBLISH: u8 = 4;
    pub const PUBLISH_TARGETED: u8 = 5;
    pub const BROADCAST: u8 = 6;
    pub const ROUTE: u8 = 7;
    pub const DELIVER: u8 = 8;
    pub const RESOLVE: u8 = 9;
    pub const RESOLVE_RESPONSE: u8 = 10;
    pub const HEARTBEAT: u8 = 11;
    pub const HEARTBEAT_ACK: u8 = 12;
    pub const ADOPT: u8 = 13;
    pub const DETACH: u8 = 14;
    pub const HELLO: u8 = 15;
    pub const HELLO_ACK: u8 = 16;
    pub const BATCH: u8 = 17;
    pub const SUMMARY_UPDATE: u8 = 18;
    pub const RENDEZVOUS_GRANT: u8 = 19;
}

fn write_hosts(buf: &mut Vec<u8>, hosts: &[HostName]) {
    write_varint(buf, hosts.len() as u64);
    for h in hosts {
        write_str(buf, h.as_str());
    }
}

fn hosts_len(hosts: &[HostName]) -> usize {
    varint_len(hosts.len() as u64) + hosts.iter().map(|h| str_len(h.as_str())).sum::<usize>()
}

impl fmt::Display for GdsMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.to_xml().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::{CollectionId, EventId, EventKind, SimTime};
    use gsa_wire::codec::event_to_xml;

    fn round_trip(msg: GdsMessage) {
        let text = msg.to_xml().to_document_string();
        let parsed = gsa_wire::parse_document(&text).unwrap();
        assert_eq!(GdsMessage::from_xml(&parsed).unwrap(), msg);
    }

    #[test]
    fn registration_messages_round_trip() {
        round_trip(GdsMessage::Register { gs_host: "Hamilton".into() });
        round_trip(GdsMessage::Unregister { gs_host: "Hamilton".into() });
        round_trip(GdsMessage::RegisterUp {
            gs_host: "Hamilton".into(),
            via: "gds-4".into(),
        });
        round_trip(GdsMessage::UnregisterUp { gs_host: "Hamilton".into() });
    }

    #[test]
    fn publish_and_deliver_round_trip() {
        let payload = gsa_wire::Payload::from(
            XmlElement::new("event").with_attr("kind", "collection-rebuilt"),
        );
        round_trip(GdsMessage::Publish {
            id: MessageId::from_raw(1),
            payload: payload.clone(),
        });
        round_trip(GdsMessage::Broadcast {
            id: MessageId::from_raw(1),
            origin: "Hamilton".into(),
            payload: payload.clone(),
        });
        round_trip(GdsMessage::Deliver {
            id: MessageId::from_raw(1),
            origin: "Hamilton".into(),
            payload,
        });
    }

    #[test]
    fn targeted_messages_round_trip() {
        let payload = gsa_wire::Payload::from(XmlElement::new("x"));
        round_trip(GdsMessage::PublishTargeted {
            id: MessageId::from_raw(2),
            targets: vec!["London".into(), "Paris".into()],
            payload: payload.clone(),
        });
        round_trip(GdsMessage::Route {
            id: MessageId::from_raw(2),
            origin: "Hamilton".into(),
            targets: vec!["London".into()],
            payload,
        });
    }

    #[test]
    fn resolve_round_trips() {
        round_trip(GdsMessage::Resolve {
            token: ResolveToken(9),
            name: "London".into(),
            reply_to: "Hamilton".into(),
        });
        round_trip(GdsMessage::ResolveResponse {
            token: ResolveToken(9),
            name: "London".into(),
            result: Some("gds-2".into()),
        });
        round_trip(GdsMessage::ResolveResponse {
            token: ResolveToken(9),
            name: "Nowhere".into(),
            result: None,
        });
    }

    #[test]
    fn event_payload_round_trips_through_deliver() {
        let event = Event::new(
            EventId::new("Hamilton", 1),
            CollectionId::new("Hamilton", "D"),
            EventKind::CollectionRebuilt,
            SimTime::from_millis(1),
        );
        let publish = GdsMessage::publish_event(MessageId::from_raw(3), &event);
        let GdsMessage::Publish { payload, .. } = publish else {
            panic!("expected publish");
        };
        let deliver = GdsMessage::Deliver {
            id: MessageId::from_raw(3),
            origin: "Hamilton".into(),
            payload,
        };
        assert_eq!(deliver.deliver_event().unwrap(), event);
    }

    #[test]
    fn deliver_event_on_wrong_variant_errors() {
        assert!(GdsMessage::Register { gs_host: "x".into() }.deliver_event().is_err());
    }

    #[test]
    fn maintenance_messages_round_trip() {
        round_trip(GdsMessage::Heartbeat);
        round_trip(GdsMessage::HeartbeatAck);
        round_trip(GdsMessage::Adopt { child: "gds-5".into() });
        round_trip(GdsMessage::Detach { child: "gds-5".into() });
    }

    #[test]
    fn unknown_tag_errors() {
        assert!(GdsMessage::from_xml(&XmlElement::new("gds:nope")).is_err());
    }

    #[test]
    fn negotiation_messages_round_trip() {
        round_trip(GdsMessage::Hello { version: 2 });
        round_trip(GdsMessage::HelloAck { version: 2 });
    }

    fn sample_summary() -> InterestSummary {
        let mut summary = InterestSummary::empty();
        summary.add_host("Hamilton");
        summary.add_collection("London.E");
        summary
    }

    fn attr_summary() -> InterestSummary {
        let mut summary = sample_summary();
        summary.constrain_attr("kind", ["documents-added".to_owned()]);
        summary.constrain_attr("meta:Language", ["en".to_owned(), "mi".to_owned()]);
        summary
    }

    #[test]
    fn summary_updates_round_trip_in_both_formats() {
        for summary in [
            InterestSummary::empty(),
            InterestSummary::wildcard(),
            sample_summary(),
            attr_summary(),
        ] {
            let msg = GdsMessage::SummaryUpdate {
                from: "gds-4".into(),
                version: 7,
                summary,
            };
            round_trip(msg.clone());
            binary_round_trip(msg);
        }
    }

    fn sample_grants() -> BTreeMap<String, BTreeSet<String>> {
        let mut grants = BTreeMap::new();
        grants.insert(
            "kind".to_owned(),
            ["documents-added".to_owned()].into_iter().collect(),
        );
        grants.insert(
            "meta:Language".to_owned(),
            ["en".to_owned(), "mi".to_owned()].into_iter().collect(),
        );
        grants
    }

    #[test]
    fn rendezvous_grants_round_trip_in_both_formats() {
        for grants in [BTreeMap::new(), sample_grants()] {
            let msg = GdsMessage::RendezvousGrant {
                from: "gds-2".into(),
                version: 4,
                grants,
            };
            round_trip(msg.clone());
            binary_round_trip(msg);
        }
    }

    #[test]
    fn batch_round_trips_in_both_formats() {
        let batch = GdsMessage::Batch(vec![
            GdsMessage::Broadcast {
                id: MessageId::from_raw(1),
                origin: "Hamilton".into(),
                payload: XmlElement::new("event").with_attr("kind", "documents-added").into(),
            },
            GdsMessage::Heartbeat,
            GdsMessage::Deliver {
                id: MessageId::from_raw(2),
                origin: "Hamilton".into(),
                payload: XmlElement::new("x").into(),
            },
        ]);
        round_trip(batch.clone());
        let back = GdsMessage::from_binary(&batch.to_binary()).unwrap();
        assert_eq!(back, batch);
    }

    fn binary_round_trip(msg: GdsMessage) {
        let frame = msg.to_binary();
        assert_eq!(frame.len(), msg.binary_wire_size(), "size fn is exact");
        assert_eq!(GdsMessage::from_binary(&frame).unwrap(), msg);
    }

    #[test]
    fn every_variant_round_trips_in_binary() {
        let payload: Payload = XmlElement::new("event").with_attr("kind", "documents-added").into();
        for msg in [
            GdsMessage::Register { gs_host: "Hamilton".into() },
            GdsMessage::Unregister { gs_host: "Hamilton".into() },
            GdsMessage::RegisterUp {
                gs_host: "Hamilton".into(),
                via: "gds-4".into(),
            },
            GdsMessage::UnregisterUp { gs_host: "Hamilton".into() },
            GdsMessage::Publish {
                id: MessageId::from_raw(1),
                payload: payload.clone(),
            },
            GdsMessage::PublishTargeted {
                id: MessageId::from_raw(2),
                targets: vec!["London".into(), "Paris".into()],
                payload: payload.clone(),
            },
            GdsMessage::Broadcast {
                id: MessageId::from_raw(3),
                origin: "Hamilton".into(),
                payload: payload.clone(),
            },
            GdsMessage::Route {
                id: MessageId::from_raw(4),
                origin: "Hamilton".into(),
                targets: vec!["London".into()],
                payload: payload.clone(),
            },
            GdsMessage::Deliver {
                id: MessageId::from_raw(5),
                origin: "Hamilton".into(),
                payload,
            },
            GdsMessage::Resolve {
                token: ResolveToken(9),
                name: "London".into(),
                reply_to: "Hamilton".into(),
            },
            GdsMessage::ResolveResponse {
                token: ResolveToken(9),
                name: "London".into(),
                result: Some("gds-2".into()),
            },
            GdsMessage::ResolveResponse {
                token: ResolveToken(9),
                name: "Nowhere".into(),
                result: None,
            },
            GdsMessage::Heartbeat,
            GdsMessage::HeartbeatAck,
            GdsMessage::Adopt { child: "gds-5".into() },
            GdsMessage::Detach { child: "gds-5".into() },
            GdsMessage::Hello { version: 2 },
            GdsMessage::HelloAck { version: 2 },
            GdsMessage::SummaryUpdate {
                from: "gds-4".into(),
                version: 3,
                summary: attr_summary(),
            },
            GdsMessage::RendezvousGrant {
                from: "gds-2".into(),
                version: 4,
                grants: sample_grants(),
            },
        ] {
            binary_round_trip(msg);
        }
    }

    #[test]
    fn binary_wire_size_is_o1_for_frozen_payloads() {
        let event = Event::new(
            EventId::new("Hamilton", 1),
            CollectionId::new("Hamilton", "D"),
            EventKind::CollectionRebuilt,
            SimTime::from_millis(1),
        );
        let mut payload: Payload = event_to_xml(&event).into();
        payload.freeze();
        let msg = GdsMessage::Broadcast {
            id: MessageId::from_raw(1),
            origin: "Hamilton".into(),
            payload,
        };
        assert_eq!(msg.to_binary().len(), msg.binary_wire_size());
        assert!(
            msg.binary_wire_size() < msg.wire_size(),
            "binary frame beats XML text: {} vs {}",
            msg.binary_wire_size(),
            msg.wire_size()
        );
    }

    #[test]
    fn binary_decode_rejects_garbage() {
        assert!(GdsMessage::from_binary(&[]).is_err());
        assert!(GdsMessage::from_binary(&[0x00, 0x01, 0xff]).is_err());
        // Grow the declared body by one stray byte: [magic, len=1, op]
        // becomes [magic, len=2, op, 0x00] and must be rejected.
        let mut frame = GdsMessage::Heartbeat.to_binary();
        assert_eq!(frame.len(), 3);
        frame[1] += 1;
        frame.push(0x00);
        assert!(GdsMessage::from_binary(&frame).is_err());
    }

    #[test]
    fn publish_without_payload_errors() {
        let el = XmlElement::new("gds:publish").with_attr("id", "1");
        assert!(GdsMessage::from_xml(&el).is_err());
    }
}
