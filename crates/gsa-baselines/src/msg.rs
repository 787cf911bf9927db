//! Shared message and record types for the baseline schemes.

use gsa_profile::ProfileExpr;
use gsa_simnet::{Ctx, NodeId};
use gsa_types::{ClientId, Event, EventId, HostName, SimTime};
use gsa_wire::codec::event_to_xml;
use std::collections::HashSet;
use std::fmt;

/// A globally unique profile identity: owning host plus host-local
/// number. (The hybrid service never needs this — its profiles never
/// leave their server — but replicating schemes do.)
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalProfileId {
    /// The host the profile was registered at.
    pub owner: HostName,
    /// Host-local profile number.
    pub seq: u64,
}

impl fmt::Display for GlobalProfileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.owner, self.seq)
    }
}

/// A notification delivered to a client by one of the baseline schemes.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Where the client lives.
    pub host: HostName,
    /// The notified client.
    pub client: ClientId,
    /// The profile the notification is for.
    pub profile: GlobalProfileId,
    /// The event.
    pub event_id: EventId,
    /// Delivery time.
    pub at: SimTime,
    /// `true` when the owning server no longer has the profile — the
    /// notification reached a *cancelled* subscription (an orphan-profile
    /// false positive).
    pub spurious: bool,
}

impl Delivery {
    /// A notification for `profile` reaching its owner `host`. It is
    /// spurious when `active`, the owner's live profiles, no longer holds
    /// it.
    pub(crate) fn at_owner(
        host: &HostName,
        active: &HashSet<GlobalProfileId>,
        client: ClientId,
        profile: GlobalProfileId,
        event: &Event,
        at: SimTime,
    ) -> Delivery {
        let spurious = !active.contains(&profile);
        Delivery {
            host: host.clone(),
            client,
            profile,
            event_id: event.id.clone(),
            at,
            spurious,
        }
    }
}

/// The network messages of the baseline schemes.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineMsg {
    /// A flooded event (GS-graph flooding). `flood_id` deduplicates,
    /// `ttl` bounds propagation on cyclic graphs when deduplication is
    /// disabled.
    FloodEvent {
        /// (origin host, origin-local sequence) — the dedup key.
        flood_id: (HostName, u64),
        /// Remaining hops.
        ttl: u32,
        /// The event.
        event: Event,
    },
    /// A flooded profile registration (profile flooding).
    FloodProfileAdd {
        /// Dedup key.
        flood_id: (HostName, u64),
        /// Remaining hops.
        ttl: u32,
        /// The profile's global identity.
        profile: GlobalProfileId,
        /// The owning client (on the owner host).
        client: ClientId,
        /// The profile expression.
        expr: ProfileExpr,
    },
    /// A flooded profile cancellation (profile flooding).
    FloodProfileRemove {
        /// Dedup key.
        flood_id: (HostName, u64),
        /// Remaining hops.
        ttl: u32,
        /// The profile to remove.
        profile: GlobalProfileId,
    },
    /// Register a profile at a rendezvous node.
    RvProfileAdd {
        /// The topic the profile subscribes to.
        topic: String,
        /// The profile's global identity.
        profile: GlobalProfileId,
        /// The owning client.
        client: ClientId,
        /// The profile expression.
        expr: ProfileExpr,
    },
    /// Cancel a profile at a rendezvous node.
    RvProfileRemove {
        /// The topic the profile subscribed to.
        topic: String,
        /// The profile to remove.
        profile: GlobalProfileId,
    },
    /// An event routed to its topic's rendezvous node.
    RvEvent {
        /// The topic (derived from the event origin).
        topic: String,
        /// The event.
        event: Event,
    },
    /// A point-to-point notification from the filtering server to the
    /// profile's owner host.
    Notify {
        /// The matched profile.
        profile: GlobalProfileId,
        /// The owning client.
        client: ClientId,
        /// The matched event.
        event: Event,
    },
}

impl BaselineMsg {
    /// Approximate serialized size in bytes, using the same XML encoding
    /// as the hybrid service for events and profiles so byte accounting
    /// is comparable.
    pub fn wire_size(&self) -> usize {
        const HEADER: usize = 64; // envelope-ish overhead
        match self {
            BaselineMsg::FloodEvent { event, .. }
            | BaselineMsg::RvEvent { event, .. }
            | BaselineMsg::Notify { event, .. } => HEADER + event_to_xml(event).wire_size(),
            BaselineMsg::FloodProfileAdd { expr, .. } | BaselineMsg::RvProfileAdd { expr, .. } => {
                HEADER + gsa_profile::xml::expr_to_xml(expr).wire_size()
            }
            BaselineMsg::FloodProfileRemove { .. } | BaselineMsg::RvProfileRemove { .. } => HEADER,
        }
    }
}

/// Floods `msg` one hop on: to every neighbour but `except`, with one hop
/// less to go. Returns `false`, sending nothing, when the message is not a
/// flood or its hops are spent.
pub(crate) fn flood_on(
    ctx: &mut Ctx<'_, BaselineMsg>,
    neighbors: &[HostName],
    msg: &BaselineMsg,
    except: Option<NodeId>,
) -> bool {
    let mut fwd = msg.clone();
    let (BaselineMsg::FloodEvent { ttl, .. }
    | BaselineMsg::FloodProfileAdd { ttl, .. }
    | BaselineMsg::FloodProfileRemove { ttl, .. }) = &mut fwd
    else {
        return false;
    };
    if *ttl == 0 {
        return false;
    }
    *ttl -= 1;
    for n in neighbors {
        match ctx.resolve(n.as_str()) {
            Some(node) if Some(node) != except => ctx.send(node, fwd.clone()),
            _ => {}
        }
    }
    true
}

/// A deterministic FNV-1a hash used for rendezvous selection (the std
/// hasher is not guaranteed stable across runs).
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_profile::parse_profile;
    use gsa_types::{CollectionId, EventKind};

    #[test]
    fn wire_sizes_are_positive() {
        let event = Event::new(
            EventId::new("h", 1),
            CollectionId::new("h", "c"),
            EventKind::CollectionRebuilt,
            SimTime::ZERO,
        );
        let expr = parse_profile(r#"host = "h""#).unwrap();
        let gpid = GlobalProfileId {
            owner: "h".into(),
            seq: 0,
        };
        let msgs = [
            BaselineMsg::FloodEvent {
                flood_id: ("h".into(), 0),
                ttl: 8,
                event: event.clone(),
            },
            BaselineMsg::FloodProfileAdd {
                flood_id: ("h".into(), 1),
                ttl: 8,
                profile: gpid.clone(),
                client: ClientId::from_raw(0),
                expr: expr.clone(),
            },
            BaselineMsg::FloodProfileRemove {
                flood_id: ("h".into(), 2),
                ttl: 8,
                profile: gpid.clone(),
            },
            BaselineMsg::RvProfileAdd {
                topic: "t".into(),
                profile: gpid.clone(),
                client: ClientId::from_raw(0),
                expr,
            },
            BaselineMsg::RvProfileRemove {
                topic: "t".into(),
                profile: gpid.clone(),
            },
            BaselineMsg::RvEvent {
                topic: "t".into(),
                event: event.clone(),
            },
            BaselineMsg::Notify {
                profile: gpid,
                client: ClientId::from_raw(0),
                event,
            },
        ];
        for m in msgs {
            assert!(m.wire_size() >= 64);
        }
    }

    #[test]
    fn fnv_is_deterministic_and_spreads() {
        assert_eq!(fnv1a("abc"), fnv1a("abc"));
        assert_ne!(fnv1a("abc"), fnv1a("abd"));
    }

    #[test]
    fn global_profile_id_display() {
        let g = GlobalProfileId {
            owner: "London".into(),
            seq: 3,
        };
        assert_eq!(g.to_string(), "London/3");
    }
}
