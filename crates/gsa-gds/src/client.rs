//! The client library a Greenstone server embeds to use the GDS.

use crate::message::{GdsMessage, ResolveToken};
use crate::node::GdsOutbound;
use crate::seen::SeenIds;
use gsa_types::{HostName, MessageId};
use gsa_wire::{InterestSummary, Payload};
use std::fmt;

/// A Greenstone server's handle on the directory service.
///
/// The client remembers which `(origin, id)` pairs it has already accepted
/// so redundant deliveries — possible after tree reconfigurations — are
/// suppressed, and allocates locally-unique message ids for publishing.
pub struct GdsClient {
    host: HostName,
    gds_server: HostName,
    next_id: u64,
    next_token: u64,
    seen: SeenIds,
}

impl fmt::Debug for GdsClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GdsClient")
            .field("host", &self.host)
            .field("gds_server", &self.gds_server)
            .field("seen", &self.seen.len())
            .finish()
    }
}

impl GdsClient {
    /// Creates a client for the Greenstone server `host`, registered at
    /// the GDS node `gds_server`.
    pub fn new(host: impl Into<HostName>, gds_server: impl Into<HostName>) -> Self {
        GdsClient {
            host: host.into(),
            gds_server: gds_server.into(),
            next_id: 0,
            next_token: 0,
            seen: SeenIds::default(),
        }
    }

    /// This server's host name.
    pub fn host(&self) -> &HostName {
        &self.host
    }

    /// The GDS node this server registers with.
    pub fn gds_server(&self) -> &HostName {
        &self.gds_server
    }

    /// The registration message to send on startup.
    pub fn register(&self) -> GdsOutbound {
        GdsOutbound {
            to: self.gds_server.clone(),
            msg: GdsMessage::Register {
                gs_host: self.host.clone(),
            },
        }
    }

    /// The deregistration message to send on shutdown.
    pub fn unregister(&self) -> GdsOutbound {
        GdsOutbound {
            to: self.gds_server.clone(),
            msg: GdsMessage::Unregister {
                gs_host: self.host.clone(),
            },
        }
    }

    fn fresh_id(&mut self) -> MessageId {
        let id = MessageId::from_raw(self.next_id);
        self.next_id += 1;
        // Never re-deliver our own broadcast back to ourselves.
        self.seen.insert(&self.host, id.as_u64());
        id
    }

    /// Builds a broadcast of a payload: an alerting event (the Section
    /// 4.2 federated path) as [`Payload::from_event`], which shares the
    /// caller's event and encodes from it directly, or any XML body.
    pub fn publish(&mut self, payload: impl Into<Payload>) -> (MessageId, GdsOutbound) {
        let id = self.fresh_id();
        (
            id,
            GdsOutbound {
                to: self.gds_server.clone(),
                msg: GdsMessage::Publish {
                    id,
                    payload: payload.into(),
                },
            },
        )
    }

    /// Builds an interest-summary announcement for this server's GDS
    /// node (the flood-pruning layer). The caller numbers its
    /// announcements upwards, so the node keeps only the newest,
    /// whatever order updates arrive in.
    pub fn summary_update(&self, version: u64, summary: InterestSummary) -> GdsOutbound {
        GdsOutbound {
            to: self.gds_server.clone(),
            msg: GdsMessage::SummaryUpdate {
                from: self.host.clone(),
                version,
                summary: Box::new(summary),
            },
        }
    }

    /// Builds a naming-service query.
    pub fn resolve(&mut self, name: impl Into<HostName>) -> (ResolveToken, GdsOutbound) {
        let token = ResolveToken(self.next_token);
        self.next_token += 1;
        (
            token,
            GdsOutbound {
                to: self.gds_server.clone(),
                msg: GdsMessage::Resolve {
                    token,
                    name: name.into(),
                    reply_to: self.host.clone(),
                },
            },
        )
    }

    /// Accepts an inbound `Deliver`, returning its origin and payload the
    /// first time this `(origin, id)` is seen; duplicates and other
    /// message kinds return `None`.
    pub fn accept(&mut self, msg: &GdsMessage) -> Option<(HostName, Payload)> {
        match msg {
            GdsMessage::Deliver {
                id,
                origin,
                payload,
            } => {
                if self.seen.insert(origin, id.as_u64()) {
                    Some((origin.clone(), payload.clone()))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Number of distinct messages remembered for duplicate suppression.
    pub fn seen_count(&self) -> usize {
        self.seen.len()
    }

    /// Id runs the duplicate-suppression memory holds: one per origin
    /// while deliveries arrive in order, one more per id still missing.
    pub fn seen_runs(&self) -> usize {
        self.seen.runs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_types::{CollectionId, Event, EventId, EventKind, SimTime};
    use gsa_wire::XmlElement;
    use std::sync::Arc;

    fn client() -> GdsClient {
        GdsClient::new("Hamilton", "gds-4")
    }

    #[test]
    fn register_targets_own_gds_node() {
        let c = client();
        let out = c.register();
        assert_eq!(out.to, HostName::new("gds-4"));
        assert_eq!(
            out.msg,
            GdsMessage::Register {
                gs_host: "Hamilton".into()
            }
        );
        assert_eq!(
            c.unregister().msg,
            GdsMessage::Unregister {
                gs_host: "Hamilton".into()
            }
        );
    }

    #[test]
    fn publish_allocates_distinct_ids() {
        let mut c = client();
        let (id1, _) = c.publish(XmlElement::new("a"));
        let (id2, _) = c.publish(XmlElement::new("b"));
        assert_ne!(id1, id2);
    }

    #[test]
    fn accept_deduplicates() {
        let mut c = client();
        let deliver = GdsMessage::Deliver {
            id: MessageId::from_raw(5),
            origin: "London".into(),
            payload: XmlElement::new("event").into(),
        };
        assert!(c.accept(&deliver).is_some());
        assert!(c.accept(&deliver).is_none());
        assert_eq!(c.seen_count(), 1);
    }

    #[test]
    fn accept_ignores_own_broadcast_echo() {
        let mut c = client();
        let (id, _) = c.publish(XmlElement::new("event"));
        let echo = GdsMessage::Deliver {
            id,
            origin: "Hamilton".into(),
            payload: XmlElement::new("event").into(),
        };
        assert!(c.accept(&echo).is_none());
    }

    #[test]
    fn accept_ignores_non_deliver() {
        let mut c = client();
        assert!(c
            .accept(&GdsMessage::Register {
                gs_host: "x".into()
            })
            .is_none());
    }

    #[test]
    fn publish_event_encodes_event() {
        let mut c = client();
        let event = Arc::new(Event::new(
            EventId::new("Hamilton", 1),
            CollectionId::new("Hamilton", "D"),
            EventKind::CollectionRebuilt,
            SimTime::ZERO,
        ));
        let (id, out) = c.publish(Payload::from_event(event));
        match out.msg {
            GdsMessage::Publish { id: mid, payload } => {
                assert_eq!(mid, id);
                assert_eq!(payload.to_xml_element().name(), "event");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resolve_tokens_are_distinct() {
        let mut c = client();
        let (t1, out) = c.resolve("London");
        let (t2, _) = c.resolve("Paris");
        assert_ne!(t1, t2);
        match out.msg {
            GdsMessage::Resolve { reply_to, name, .. } => {
                assert_eq!(reply_to, HostName::new("Hamilton"));
                assert_eq!(name, HostName::new("London"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn summary_updates_carry_monotonic_versions() {
        // The core numbers its announcements; the client carries the
        // number it is given.
        let c = client();
        let mut summary = InterestSummary::empty();
        summary.add_host("London");
        let first = c.summary_update(1, summary.clone());
        let second = c.summary_update(2, summary.clone());
        assert_eq!(first.to, HostName::new("gds-4"));
        let version_of = |out: &GdsOutbound| match &out.msg {
            GdsMessage::SummaryUpdate { from, version, summary: s } => {
                assert_eq!(from, &HostName::new("Hamilton"));
                assert_eq!(**s, summary);
                *version
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!((version_of(&first), version_of(&second)), (1, 2));
    }

    #[test]
    fn crash_reset_and_resume_keep_versions_monotonic() {
        use crate::interest::Interest;
        use gsa_types::Counts;
        let c = client();
        let mut node = Interest::new(crate::InterestMode::Prune);
        let mut counts = Counts::default();
        let mut offer = |out: GdsOutbound| match out.msg {
            GdsMessage::SummaryUpdate { from, version, summary } => {
                node.on_summary(from, version, *summary, &mut counts)
            }
            other => panic!("unexpected {other:?}"),
        };
        let mut summary = InterestSummary::empty();
        summary.add_host("London");
        assert!(offer(c.summary_update(1, summary.clone())));
        assert!(offer(c.summary_update(2, summary.clone())));

        // A crash hands the client over whole, and it holds no version
        // of its own: the restarted server announces from its new
        // incarnation's base, above every version the old one sent, and
        // the node takes that announcement.
        summary.add_host("Paris");
        assert!(offer(c.summary_update(3, summary.clone())));

        // Delayed or reordered announcements never move the node back.
        assert!(!offer(c.summary_update(2, InterestSummary::empty())));
        assert!(!offer(c.summary_update(3, InterestSummary::empty())));
    }

    #[test]
    fn crash_reset_keeps_the_duplicate_suppression_set() {
        let mut c = client();
        let deliver = GdsMessage::Deliver {
            id: MessageId::from_raw(5),
            origin: "London".into(),
            payload: XmlElement::new("event").into(),
        };
        assert!(c.accept(&deliver).is_some());
        let (before, _) = c.publish(XmlElement::new("a"));
        // A crash hands the client over whole, with nothing to reset: a
        // reliability-layer redelivery after the restart is still a dup.
        assert!(c.accept(&deliver).is_none());
        // And the first publish after the restart gets a new id.
        let (after, _) = c.publish(XmlElement::new("a"));
        assert_ne!(before, after);
    }
}
