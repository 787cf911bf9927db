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
    next_summary_version: u64,
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
            next_summary_version: 0,
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
    /// node (the flood-pruning layer). Versions are monotonic so the
    /// node keeps only the newest, whatever order updates arrive in.
    pub fn summary_update(&mut self, summary: InterestSummary) -> GdsOutbound {
        self.next_summary_version += 1;
        GdsOutbound {
            to: self.gds_server.clone(),
            msg: GdsMessage::SummaryUpdate {
                from: self.host.clone(),
                version: self.next_summary_version,
                summary,
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

    /// The version the last [`summary_update`](Self::summary_update)
    /// announced at (0 before the first announcement). Persisted by the
    /// durable state layer so a recovered server resumes the sequence.
    pub fn summary_version(&self) -> u64 {
        self.next_summary_version
    }

    /// Resume the announcement sequence at (at least) `version`: the
    /// next [`summary_update`](Self::summary_update) will announce
    /// `version + 1` or later. Takes the max so resuming can never move
    /// the sequence backwards — announcing below a version the GDS tree
    /// has already seen would be silently ignored as stale, and the
    /// re-announcement after crash recovery must not be.
    pub fn resume_summary_version(&mut self, version: u64) {
        self.next_summary_version = self.next_summary_version.max(version);
    }

    /// Model a server crash as the GDS layers see it: the announcement
    /// sequence restarts at 0 (to be resumed from durable state, or
    /// not). The duplicate-suppression set deliberately survives — it
    /// models the client-side inbox, and the reliability layer may
    /// redeliver in-flight messages after the restart; forgetting the
    /// set would turn those redeliveries into duplicate notifications.
    pub fn crash_reset(&mut self) {
        self.next_summary_version = 0;
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
        let mut c = client();
        let mut summary = InterestSummary::empty();
        summary.add_host("London");
        let first = c.summary_update(summary.clone());
        let second = c.summary_update(summary.clone());
        assert_eq!(first.to, HostName::new("gds-4"));
        let version_of = |out: &GdsOutbound| match &out.msg {
            GdsMessage::SummaryUpdate { from, version, summary: s } => {
                assert_eq!(from, &HostName::new("Hamilton"));
                assert_eq!(s, &summary);
                *version
            }
            other => panic!("unexpected {other:?}"),
        };
        assert!(version_of(&second) > version_of(&first));
    }

    #[test]
    fn crash_reset_and_resume_keep_versions_monotonic() {
        let mut c = client();
        let mut summary = InterestSummary::empty();
        summary.add_host("London");
        c.summary_update(summary.clone());
        c.summary_update(summary.clone());
        assert_eq!(c.summary_version(), 2);

        // Crash without durability: the sequence restarts at 0 and the
        // next announcement (version 1) would be dropped as stale —
        // conservative over-delivery, never a false negative.
        c.crash_reset();
        assert_eq!(c.summary_version(), 0);

        // Crash with durability: resume from the persisted version.
        c.resume_summary_version(2);
        let out = c.summary_update(summary.clone());
        match out.msg {
            GdsMessage::SummaryUpdate { version, .. } => assert_eq!(version, 3),
            other => panic!("unexpected {other:?}"),
        }

        // Resuming backwards is a no-op.
        c.resume_summary_version(1);
        assert_eq!(c.summary_version(), 3);
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
        c.crash_reset();
        // A reliability-layer redelivery after restart is still a dup.
        assert!(c.accept(&deliver).is_none());
    }
}
