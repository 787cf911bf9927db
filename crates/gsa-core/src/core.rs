//! [`AlertingCore`]: one Greenstone host's alerting state machine.
//!
//! The core is one dispatcher over three machines, each owning its state
//! and deciding what of it a crash keeps: profiles and their
//! announcement (the [`SubscriptionManager`], `subs.rs`), distributed
//! collections (the auxiliary store and log, `aux.rs`) and delivery (the
//! probe and the alert-policy engine, `delivery.rs`). The core itself
//! holds the host's Greenstone [`Server`], its [`GdsClient`], the state
//! store and the event sequence, takes the driver calls and the
//! messages, and runs the build-and-announce pipeline. It is sans-IO:
//! everything it wants transmitted comes back in a [`CoreEffects`], and
//! retries and timeouts run on the maintenance tick
//! ([`AlertingCore::on_tick`]).

use crate::aux::{AuxLog, AuxStore, Auxiliary};
use crate::delivery::Delivery;
use crate::message::{AuxPayload, SysMessage};
use crate::subs::{Notification, SubscriptionManager};
use gsa_alerts::{AlertEngine, AlertKey, AlertPolicyConfig, AlertState};
use gsa_gds::{GdsClient, ResolveToken};
use gsa_greenstone::server::{FetchResult, SearchResult};
use gsa_greenstone::{
    BuildReport, CollectionConfig, GsError, RequestId, Server, ServerEffects, SubCollectionRef,
};
use gsa_profile::{DnfError, ProfileExpr};
use gsa_state::{MemoryStateStore, RecoveredState, StateStore};
use gsa_store::{Query, SourceDocument};
use gsa_types::{
    ClientId, CollectionId, CollectionName, Counts, Event, EventId, EventKind, HostName, ProfileId,
    SimTime,
};
use gsa_wire::reliable::Reliable;
use gsa_wire::Payload;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Everything an [`AlertingCore`] wants done after one input, and a
/// count of what it has already done: notifications are moved into the
/// client mailboxes during the step, not handed out here.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoreEffects {
    /// Messages to transmit, by destination host.
    pub outbound: Vec<(HostName, SysMessage)>,
    /// How many notifications this step moved into local clients'
    /// mailboxes, their one home ([`AlertingCore::take_notifications`]).
    pub notified: usize,
    /// Completed locally-initiated fetches.
    pub fetches: Vec<(RequestId, FetchResult)>,
    /// Completed locally-initiated searches.
    pub searches: Vec<(RequestId, SearchResult)>,
    /// Naming-service answers that arrived.
    pub resolved: Vec<(ResolveToken, Option<HostName>)>,
    /// How many events this host published to the GDS during this step.
    pub published: usize,
}

impl CoreEffects {
    /// Merges another effect set into this one, preserving order.
    pub fn extend(&mut self, other: CoreEffects) {
        self.outbound.extend(other.outbound);
        self.notified += other.notified;
        self.fetches.extend(other.fetches);
        self.searches.extend(other.searches);
        self.resolved.extend(other.resolved);
        self.published += other.published;
    }

    pub(crate) fn send(&mut self, to: HostName, msg: impl Into<SysMessage>) {
        self.outbound.push((to, msg.into()));
    }
}

/// A [`Server`]'s effects as the core's: its messages to send and the
/// requests this host started that completed.
fn from_server(eff: ServerEffects) -> CoreEffects {
    let outbound = eff.outbound.into_iter().map(|o| (o.to, o.msg.into())).collect();
    let (fetches, searches) = (eff.fetches, eff.searches);
    CoreEffects { outbound, fetches, searches, ..CoreEffects::default() }
}

/// The per-host alerting service state machine.
pub struct AlertingCore {
    host: HostName,
    server: Server,
    gds: GdsClient,
    /// The profile machine: profiles, mailboxes and the announcement.
    subs: SubscriptionManager,
    /// The auxiliary machine: what was planted here and what is owed.
    aux: Auxiliary,
    /// The delivery machine: the probe and the alert-policy engine.
    delivery: Delivery,
    /// The durable state backend. The default [`MemoryStateStore`]
    /// makes every record call a no-op, so the paper-figure scenarios
    /// pay nothing for the seam's existence.
    store: Box<dyn StateStore>,
    event_seq: u64,
}

impl fmt::Debug for AlertingCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlertingCore")
            .field("host", &self.host)
            .field("profiles", &self.subs.len())
            .field("aux", &self.aux.store.len())
            .field("pending_ops", &self.aux.log.len())
            .finish()
    }
}

impl AlertingCore {
    /// Creates the core for `host`, registered at the GDS node
    /// `gds_server`.
    pub fn new(host: impl Into<HostName>, gds_server: impl Into<HostName>) -> Self {
        let host = host.into();
        AlertingCore {
            server: Server::new(host.clone()),
            gds: GdsClient::new(host.clone(), gds_server),
            subs: SubscriptionManager::new(),
            aux: Auxiliary::new(host.clone()),
            delivery: Delivery::new(),
            store: Box::new(MemoryStateStore::default()),
            event_seq: 0,
            host,
        }
    }

    /// Enables interest-summary announcements for GDS flood pruning.
    /// Off by default: a non-announcing server is treated as wildcard
    /// by its GDS node and always receives the full flood.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.subs.pruning = enabled;
    }

    /// Enables or disables the delivery-time attribute probe (on by
    /// default). The probe never changes which notifications are
    /// produced — disabling it exists so benches can measure the
    /// decode-always baseline.
    pub fn set_probe(&mut self, enabled: bool) {
        self.delivery.probe = enabled;
    }

    /// Installs (or removes, with `None`) the stateful alert-lifecycle
    /// engine. Off by default: without an engine every matched event is
    /// one notification, exactly the paper's behaviour. With one,
    /// matched notifications are fingerprinted into alert instances and
    /// run through the configured dedup / throttle / digest policies;
    /// lifecycle transitions are journaled through the state store so a
    /// durable host recovers acknowledgements across crashes.
    pub fn set_alert_policies(&mut self, config: Option<AlertPolicyConfig>) {
        self.delivery.alerts = config.map(AlertEngine::new);
    }

    /// The alert instance the policy engine would file this
    /// notification under: its profile and fingerprint (`None` while
    /// policies are off).
    pub fn alert_key(&self, n: &Notification) -> Option<AlertKey> {
        self.delivery.alert_key(n)
    }

    /// The lifecycle state of an alert instance (`None` for unknown
    /// instances or while policies are off).
    pub fn alert_state(&self, key: AlertKey) -> Option<AlertState> {
        self.delivery.alerts.as_ref().and_then(|e| e.state(key))
    }

    /// Acknowledges a firing alert instance, journaling the transition.
    /// Returns `true` when the state changed.
    pub fn ack_alert(&mut self, key: AlertKey, now: SimTime) -> bool {
        self.delivery.change(&mut *self.store, |e| e.ack(key, now))
    }

    /// Resolves an active alert instance, journaling the transition.
    /// Returns `true` when the state changed; the next match re-fires.
    pub fn resolve_alert(&mut self, key: AlertKey, now: SimTime) -> bool {
        self.delivery.change(&mut *self.store, |e| e.resolve(key, now))
    }

    /// Replaces the durable state backend (the default in-memory store
    /// persists nothing). Subscribes, unsubscribes and alert transitions
    /// are recorded through it from now on, and a crash replays it — so
    /// install the store before the first subscription.
    pub fn set_state_store(&mut self, store: Box<dyn StateStore>) {
        self.store = store;
    }

    /// The server that restarts after this one crashes at `now`
    /// (DESIGN.md §4, "What a crash leaves"). It keeps the collections
    /// and the requests in flight (the [`Server`]), the GDS client whole
    /// (its id allocators and duplicate-suppression set), the state store
    /// and the event sequence. The store is replayed, and each machine's
    /// `crashed` decides what of it is kept, given what it recovered; the
    /// profile machine starts a new incarnation, numbered from `now`.
    pub(crate) fn crashed(self, now: SimTime) -> AlertingCore {
        let AlertingCore { host, server, gds, subs, aux, delivery, mut store, event_seq } = self;
        let RecoveredState { profiles, alerts } = store.recover();
        AlertingCore {
            subs: subs.crashed(now, profiles),
            aux: aux.crashed(),
            delivery: delivery.crashed(alerts),
            host,
            server,
            gds,
            store,
            event_seq,
        }
    }

    /// Everything counted at this host since the driver last drained
    /// this: the delivery path's counts with the state backend's and the
    /// alert engine's merged in (the actor layer surfaces them as
    /// simulation metrics after each message).
    pub fn counts_mut(&mut self) -> &mut Counts {
        self.delivery.counts_mut(self.store.counts_mut())
    }

    /// This host's name.
    pub fn host(&self) -> &HostName {
        &self.host
    }

    /// This host's directory-service client (read-only; its
    /// duplicate-suppression memory is what tests inspect).
    pub fn gds_client(&self) -> &GdsClient {
        &self.gds
    }

    /// The underlying Greenstone server (read-only).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// The local subscription manager.
    pub fn subscriptions(&self) -> &SubscriptionManager {
        &self.subs
    }

    /// The auxiliary profiles planted at this host.
    pub fn aux_store(&self) -> &AuxStore {
        &self.aux.store
    }

    /// The not-yet-acknowledged operations this host has sent.
    pub fn pending_ops(&self) -> &AuxLog {
        &self.aux.log
    }

    /// Startup effects: register with the GDS and plant auxiliary profiles
    /// for every remote sub-collection already configured.
    pub fn startup(&mut self, now: SimTime) -> CoreEffects {
        let mut effects = CoreEffects::default();
        let reg = self.gds.register();
        effects.send(reg.to, reg.msg);
        for c in self.server.collections() {
            self.aux.plant_all(c.config(), now, &mut effects);
        }
        effects.extend(self.summary_refresh());
        effects
    }

    /// Announces this server's interest summary to its GDS node when
    /// pruning is on and the digest changed since the last announcement
    /// (subscribe, unsubscribe, startup). Empty effects otherwise.
    pub fn summary_refresh(&mut self) -> CoreEffects {
        let mut effects = CoreEffects::default();
        if let Some((version, summary)) = self.subs.announcement() {
            let out = self.gds.summary_update(version, summary);
            effects.send(out.to, out.msg);
        }
        effects
    }

    /// Adds a collection; auxiliary profiles for its remote
    /// sub-collections are planted immediately.
    ///
    /// # Errors
    ///
    /// Returns the config back when a collection of that name exists.
    // The Err variant is intentionally the rejected config itself, so the
    // caller keeps ownership; this is a cold path, size is irrelevant.
    #[allow(clippy::result_large_err)]
    pub fn add_collection(
        &mut self,
        config: CollectionConfig,
        now: SimTime,
    ) -> Result<CoreEffects, CollectionConfig> {
        let name = config.name.clone();
        self.server.add_collection(config)?;
        let mut effects = CoreEffects::default();
        let config = self.server.collection(&name).expect("just added").config();
        self.aux.plant_all(config, now, &mut effects);
        Ok(effects)
    }

    /// Adds a sub-collection reference to an existing collection,
    /// planting the auxiliary profile when the target is remote.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when `parent` does not exist
    /// on this server.
    pub fn add_subcollection(
        &mut self,
        parent: &CollectionName,
        sub: SubCollectionRef,
        now: SimTime,
    ) -> Result<CoreEffects, GsError> {
        let collection = self
            .server
            .collection_mut(parent)
            .ok_or_else(|| GsError::UnknownCollection(parent.clone()))?;
        collection.config_mut().subcollections.push(sub.clone());
        let mut effects = CoreEffects::default();
        self.aux.op(true, parent, &sub.target, now, &mut effects);
        Ok(effects)
    }

    /// Removes a sub-collection reference ("a collection is
    /// restructured"), sending the auxiliary-profile deletion when the
    /// target was remote. The deletion is queued and retried until
    /// acknowledged, per Section 7.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when `parent` or the alias
    /// does not exist.
    pub fn remove_subcollection(
        &mut self,
        parent: &CollectionName,
        alias: &CollectionName,
        now: SimTime,
    ) -> Result<CoreEffects, GsError> {
        let collection = self
            .server
            .collection_mut(parent)
            .ok_or_else(|| GsError::UnknownCollection(parent.clone()))?;
        let removed = collection
            .config_mut()
            .remove_subcollection(alias)
            .ok_or_else(|| GsError::UnknownCollection(alias.clone()))?;
        let mut effects = CoreEffects::default();
        self.aux.op(false, parent, &removed.target, now, &mut effects);
        Ok(effects)
    }

    /// Registers a client profile (stored locally, filtered locally).
    ///
    /// # Errors
    ///
    /// Returns [`DnfError`] when the expression is too large to index.
    pub fn subscribe(
        &mut self,
        client: ClientId,
        expr: ProfileExpr,
    ) -> Result<ProfileId, DnfError> {
        let stored = self.subs.subscribe(client, expr)?;
        // With the default in-memory store this is a no-op; the journal
        // backend makes the subscription durable before the caller sees
        // the ack.
        self.store.record_subscribe(stored.id(), client, stored.expr());
        Ok(stored.id())
    }

    /// Cancels a profile — local and immediate. Its alert instances end
    /// with it.
    pub fn unsubscribe(&mut self, profile: ProfileId) -> bool {
        let existed = self.subs.unsubscribe(profile);
        if existed {
            self.store.record_unsubscribe(profile);
            self.delivery.forget(profile);
        }
        existed
    }

    /// Drains a client's notification mailbox.
    pub fn take_notifications(&mut self, client: ClientId) -> Vec<Notification> {
        self.subs.take_notifications(client)
    }

    fn fresh_event_id(&mut self) -> EventId {
        let id = EventId::new(self.host.clone(), self.event_seq);
        self.event_seq += 1;
        id
    }

    /// Rebuilds a collection from a full document set and announces the
    /// outcome (Section 4.2: "When a collection is rebuilt, event
    /// messages are created by the collection's server").
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when the collection does not
    /// exist on this server.
    pub fn rebuild(
        &mut self,
        name: &CollectionName,
        docs: Vec<SourceDocument>,
        now: SimTime,
    ) -> Result<(BuildReport, CoreEffects), GsError> {
        let report = self.server.rebuild(name, docs)?;
        let effects = self.announce(name, &report, EventKind::CollectionRebuilt, now);
        Ok((report, effects))
    }

    /// Incrementally imports documents and announces them.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when the collection does not
    /// exist on this server.
    pub fn import(
        &mut self,
        name: &CollectionName,
        docs: Vec<SourceDocument>,
        now: SimTime,
    ) -> Result<(BuildReport, CoreEffects), GsError> {
        let report = self.server.import(name, docs)?;
        let kind = if report.added.is_empty() && !report.updated.is_empty() {
            EventKind::DocumentsUpdated
        } else {
            EventKind::DocumentsAdded
        };
        let effects = self.announce(name, &report, kind, now);
        Ok((report, effects))
    }

    /// Deletes a collection entirely, announcing a
    /// [`EventKind::CollectionDeleted`] event.
    ///
    /// # Errors
    ///
    /// Returns [`GsError::UnknownCollection`] when the collection does not
    /// exist on this server.
    pub fn delete_collection(
        &mut self,
        name: &CollectionName,
        now: SimTime,
    ) -> Result<CoreEffects, GsError> {
        let collection = self
            .server
            .remove_collection(name)
            .ok_or_else(|| GsError::UnknownCollection(name.clone()))?;
        drop(collection);
        let event = Event::new(
            self.fresh_event_id(),
            CollectionId::new(self.host.clone(), name.clone()),
            EventKind::CollectionDeleted,
            now,
        );
        let mut effects = CoreEffects::default();
        self.process_local_event(event, now, &mut effects, &mut HashSet::new(), true);
        Ok(effects)
    }

    fn announce(
        &mut self,
        name: &CollectionName,
        report: &BuildReport,
        kind: EventKind,
        now: SimTime,
    ) -> CoreEffects {
        let mut effects = CoreEffects::default();
        if report.is_empty() {
            return effects;
        }
        let collection = self.server.collection(name).expect("just built");
        let mut announced: Vec<gsa_types::DocId> = Vec::new();
        announced.extend(report.added.iter().cloned());
        announced.extend(report.updated.iter().cloned());
        let mut docs = collection.summaries(&announced);
        // Removed documents are announced by id only (their content is
        // gone).
        for id in &report.removed {
            docs.push(gsa_types::DocSummary::new(id.clone()));
        }
        let is_public = collection.config().visibility.is_public();
        let event = Event::new(
            self.fresh_event_id(),
            CollectionId::new(self.host.clone(), name.clone()),
            kind,
            now,
        )
        .with_docs(docs);
        self.process_local_event(event, now, &mut effects, &mut HashSet::new(), is_public);
        effects
    }

    /// The full local event pipeline of Section 4.2:
    ///
    /// 1. filter against local client profiles (our own clients hear about
    ///    our own collections without a network round-trip),
    /// 2. broadcast over the GDS (public collections only — a private
    ///    collection is not visible in its own right),
    /// 3. forward to every super-collection host whose auxiliary profile
    ///    observes this collection,
    /// 4. re-issue under every *local* parent collection (virtual/private
    ///    chains on the same host), recursively, cycle-guarded.
    fn process_local_event(
        &mut self,
        event: Event,
        now: SimTime,
        effects: &mut CoreEffects,
        visited: &mut HashSet<CollectionName>,
        broadcast: bool,
    ) {
        let name = event.origin.name().clone();
        if !visited.insert(name.clone()) {
            return;
        }
        let event = Arc::new(event);
        // The event as it travels, made once: every carrier below takes
        // a clone (two reference counts) and whatever one of them
        // materialises — the XML view, its length — the others find.
        let travelling = Payload::from_event(Arc::clone(&event));

        // 1. Local filtering.
        self.delivery.notify(&mut self.subs, &mut *self.store, &event, now, effects);

        // 2. GDS broadcast.
        if broadcast {
            let (_, out) = self.gds.publish(travelling.clone());
            effects.send(out.to, out.msg);
            effects.published += 1;
        }

        // 3. Auxiliary-profile forwarding over the GS network.
        self.aux.forward(&name, &travelling, now, effects);

        // 4. Local parent chains.
        let parents: Vec<(CollectionName, bool)> = self
            .server
            .collections()
            .filter(|c| {
                c.config()
                    .subcollections
                    .iter()
                    .any(|s| s.target == event.origin)
            })
            .map(|c| (c.config().name.clone(), c.config().visibility.is_public()))
            .collect();
        for (parent, parent_public) in parents {
            if visited.contains(&parent) {
                continue;
            }
            // Cycle guard across hosts: never re-issue under a collection
            // the event already passed through.
            let parent_id = CollectionId::new(self.host.clone(), parent.clone());
            if event.provenance.contains(&parent_id) {
                continue;
            }
            let rewritten = event.rewritten(self.fresh_event_id(), parent_id, now);
            self.process_local_event(rewritten, now, effects, visited, parent_public);
        }
    }

    /// Initiates a distributed fetch, which times out on the maintenance
    /// tick.
    pub fn start_fetch(&mut self, name: &CollectionName, now: SimTime) -> (RequestId, CoreEffects) {
        let (rid, eff) = self.server.start_fetch(name, now);
        (rid, from_server(eff))
    }

    /// Initiates a distributed search, which times out on the
    /// maintenance tick.
    pub fn start_search(
        &mut self,
        name: &CollectionName,
        index: &str,
        query: &Query,
        now: SimTime,
    ) -> (RequestId, CoreEffects) {
        let (rid, eff) = self.server.start_search(name, index, query, now);
        (rid, from_server(eff))
    }

    /// Issues a naming-service resolution through the GDS.
    pub fn resolve(&mut self, name: impl Into<HostName>) -> (ResolveToken, CoreEffects) {
        let (token, out) = self.gds.resolve(name);
        let mut effects = CoreEffects::default();
        effects.send(out.to, out.msg);
        (token, effects)
    }

    /// Handles one inbound network message.
    pub fn handle_message(
        &mut self,
        from: &HostName,
        msg: SysMessage,
        now: SimTime,
    ) -> CoreEffects {
        match msg {
            // The actor layer acks and unwraps reliable envelopes before
            // handing the payload down; a stray envelope reaching the
            // core is still processed (processing is idempotent), and
            // bare acks carry nothing for the core.
            SysMessage::Gds(m) | SysMessage::RelGds(Reliable::Data { payload: m, .. }) => {
                let mut effects = CoreEffects::default();
                let (gds, subs, store) = (&mut self.gds, &mut self.subs, &mut *self.store);
                self.delivery.receive(&m, gds, subs, store, now, &mut effects);
                effects
            }
            SysMessage::RelGds(Reliable::Ack { .. }) => CoreEffects::default(),
            SysMessage::Aux(payload) => self.handle_aux(from, payload, now),
            SysMessage::Gs(m) => from_server(self.server.handle_message(from, m)),
        }
    }

    /// An auxiliary frame: the auxiliary machine's business, except that
    /// a forwarded event it hands back is decoded here, as a delivery is,
    /// and, when the machine admits it, re-issued under the local
    /// super-collection.
    fn handle_aux(
        &mut self,
        from: &HostName,
        frame: Reliable<AuxPayload>,
        now: SimTime,
    ) -> CoreEffects {
        let mut effects = CoreEffects::default();
        let Some((super_name, event)) = self.aux.receive(from, frame, now, &mut effects) else {
            return effects;
        };
        let Some(event) = self.delivery.decode(&event) else {
            return effects;
        };
        let Some(is_public) = self.aux.admit(&self.server, &super_name, &event) else {
            return effects;
        };
        let new_id = self.fresh_event_id();
        let rewritten =
            event.rewritten(new_id, CollectionId::new(self.host.clone(), super_name), now);
        self.process_local_event(rewritten, now, &mut effects, &mut HashSet::new(), is_public);
        effects
    }

    /// Periodic maintenance: retransmit unacknowledged operations, expire
    /// timed-out distributed requests with partial results, and run the
    /// alert engine's expiry and digest flush.
    pub fn on_tick(&mut self, now: SimTime) -> CoreEffects {
        let mut effects = CoreEffects::default();
        self.aux.poll(now, &mut effects);
        effects.extend(from_server(self.server.expire_requests(now)));
        self.delivery.on_tick(&mut self.subs, &mut *self.store, now, &mut effects);
        effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subs::DocPositions;
    use gsa_alerts::{fingerprint, LabelKey};
    use gsa_gds::{GdsMessage, SeenIds};
    use gsa_profile::parse_profile;
    use gsa_types::{CounterId, SimDuration};
    use gsa_wire::{InterestSummary, Payload};
    use proptest::prelude::*;

    fn doc(id: &str, text: &str) -> SourceDocument {
        SourceDocument::new(id, text)
    }

    /// The events `eff` publishes to the GDS, as they travel.
    fn published(eff: &CoreEffects) -> Vec<Event> {
        let publishes = eff.outbound.iter().filter_map(|(_, m)| match m {
            SysMessage::Gds(GdsMessage::Publish { payload, .. }) => Some(payload),
            _ => None,
        });
        publishes.map(|p| p.decode_event().unwrap()).collect()
    }

    /// Hamilton.D ⊃ London.E, as in Figure 3.
    fn hamilton_london() -> (AlertingCore, AlertingCore, CoreEffects) {
        let mut hamilton = AlertingCore::new("Hamilton", "gds-4");
        let mut london = AlertingCore::new("London", "gds-2");
        london
            .add_collection(CollectionConfig::simple("E", "e"), SimTime::ZERO)
            .unwrap();
        let eff = hamilton
            .add_collection(
                CollectionConfig::simple("D", "d").with_subcollection(SubCollectionRef::new(
                    "e",
                    CollectionId::new("London", "E"),
                )),
                SimTime::ZERO,
            )
            .unwrap();
        (hamilton, london, eff)
    }

    /// Routes GS-protocol messages between the two cores until quiet; GDS
    /// messages are collected and returned (there is no directory here).
    fn pump(
        hamilton: &mut AlertingCore,
        london: &mut AlertingCore,
        initial: CoreEffects,
        now: SimTime,
    ) -> (CoreEffects, Vec<(HostName, SysMessage)>) {
        pump_from(hamilton, london, initial, "Hamilton", now)
    }

    fn pump_from(
        hamilton: &mut AlertingCore,
        london: &mut AlertingCore,
        initial: CoreEffects,
        initial_from: &str,
        now: SimTime,
    ) -> (CoreEffects, Vec<(HostName, SysMessage)>) {
        let mut gds_traffic = Vec::new();
        let mut collected = CoreEffects::default();
        let mut queue: Vec<(HostName, HostName, SysMessage)> = Vec::new();
        let absorb = |eff: CoreEffects,
                          from: &HostName,
                          queue: &mut Vec<(HostName, HostName, SysMessage)>,
                          gds_traffic: &mut Vec<(HostName, SysMessage)>,
                          collected: &mut CoreEffects| {
            for (to, msg) in eff.outbound {
                match &msg {
                    SysMessage::Gds(_) | SysMessage::RelGds(_) => gds_traffic.push((to, msg)),
                    SysMessage::Gs(_) | SysMessage::Aux(_) => queue.push((from.clone(), to, msg)),
                }
            }
            collected.notified += eff.notified;
            collected.published += eff.published;
            collected.fetches.extend(eff.fetches);
            collected.searches.extend(eff.searches);
        };
        let initial_from = HostName::new(initial_from);
        absorb(
            initial,
            &initial_from,
            &mut queue,
            &mut gds_traffic,
            &mut collected,
        );
        let mut steps = 0;
        while let Some((from, to, msg)) = queue.pop() {
            steps += 1;
            assert!(steps < 1000, "pump did not terminate");
            let target = if to.as_str() == "Hamilton" {
                &mut *hamilton
            } else {
                &mut *london
            };
            let eff = target.handle_message(&from, msg, now);
            absorb(eff, &to, &mut queue, &mut gds_traffic, &mut collected);
        }
        (collected, gds_traffic)
    }

    #[test]
    fn startup_registers_and_plants() {
        let (mut hamilton, _, _) = hamilton_london();
        let eff = hamilton.startup(SimTime::ZERO);
        // Registration to GDS + (re)plant of the aux profile.
        let gds_regs = eff
            .outbound
            .iter()
            .filter(|(_, m)| matches!(m, SysMessage::Gds(GdsMessage::Register { .. })))
            .count();
        assert_eq!(gds_regs, 1);
        let plants = eff
            .outbound
            .iter()
            .filter(|(to, m)| to.as_str() == "London" && matches!(m, SysMessage::Aux(_)))
            .count();
        // The plant from add_collection is still pending, so startup does
        // not queue a duplicate — the retry machinery owns delivery.
        assert_eq!(plants, 0);
        assert_eq!(hamilton.pending_ops().len(), 1);
    }

    #[test]
    fn aux_profile_is_planted_and_acked() {
        let (mut hamilton, mut london, eff) = hamilton_london();
        assert_eq!(hamilton.pending_ops().len(), 1);
        pump(&mut hamilton, &mut london, eff, SimTime::ZERO);
        assert_eq!(london.aux_store().len(), 1);
        assert_eq!(hamilton.pending_ops().len(), 0, "plant must be acked");
    }

    #[test]
    fn figure3_event_flow_rewrites_origin() {
        let (mut hamilton, mut london, eff) = hamilton_london();
        pump(&mut hamilton, &mut london, eff, SimTime::ZERO);

        // A Hamilton client watches Hamilton.D; a London client watches
        // London.E.
        let c_h = ClientId::from_raw(1);
        hamilton
            .subscribe(c_h, parse_profile(r#"collection = "Hamilton.D""#).unwrap())
            .unwrap();
        let c_l = ClientId::from_raw(2);
        london
            .subscribe(c_l, parse_profile(r#"collection = "London.E""#).unwrap())
            .unwrap();

        // London.E is rebuilt.
        let now = SimTime::from_millis(10);
        let (_, eff) = london
            .rebuild(&"E".into(), vec![doc("e1", "euro docs")], now)
            .unwrap();
        let (collected, gds) = pump_from(&mut hamilton, &mut london, eff, "London", now);

        // London's own client was notified locally about London.E.
        assert_eq!(collected.notified, 2);
        let local = london.take_notifications(c_l);
        assert_eq!(local.len(), 1);
        assert_eq!(local[0].event.origin, CollectionId::new("London", "E"));

        // Hamilton rewrote the event: its client sees Hamilton.D as the
        // origin, with London.E in the provenance.
        let rewritten = hamilton.take_notifications(c_h);
        assert_eq!(rewritten.len(), 1);
        assert_eq!(rewritten[0].event.origin, CollectionId::new("Hamilton", "D"));
        assert_eq!(
            rewritten[0].event.provenance,
            vec![CollectionId::new("London", "E")]
        );

        // Both events (original and rewritten) were handed to the GDS.
        let publishes = gds
            .iter()
            .filter(|(_, m)| matches!(m, SysMessage::Gds(GdsMessage::Publish { .. })))
            .count();
        assert_eq!(publishes, 2);

        // The forwarded event was acknowledged: nothing pending.
        assert!(london.pending_ops().is_empty());
    }

    #[test]
    fn forward_event_is_idempotent_under_retry() {
        let (mut hamilton, mut london, eff) = hamilton_london();
        pump(&mut hamilton, &mut london, eff, SimTime::ZERO);
        let c_h = ClientId::from_raw(1);
        hamilton
            .subscribe(c_h, parse_profile(r#"collection = "Hamilton.D""#).unwrap())
            .unwrap();

        let now = SimTime::from_millis(10);
        let (_, eff) = london
            .rebuild(&"E".into(), vec![doc("e1", "euro docs")], now)
            .unwrap();
        // Capture the forwarded event before delivering it.
        let forward: Vec<(HostName, SysMessage)> = eff
            .outbound
            .iter()
            .filter(|(to, m)| to.as_str() == "Hamilton" && matches!(m, SysMessage::Aux(_)))
            .cloned()
            .collect();
        assert_eq!(forward.len(), 1);
        pump_from(&mut hamilton, &mut london, eff, "London", now);
        assert_eq!(hamilton.take_notifications(c_h).len(), 1);

        // Deliver the same ForwardEvent again (a retry after a lost ack).
        let (to, msg) = forward[0].clone();
        let eff = hamilton.handle_message(&HostName::new("London"), msg, now);
        drop(to);
        // Only the ack comes back; no duplicate notification or publish.
        assert_eq!(eff.notified, 0);
        assert_eq!(eff.published, 0);
        assert_eq!(eff.outbound.len(), 1);
    }

    #[test]
    fn rewrite_memory_is_runs_not_one_entry_per_forward() {
        const FORWARDS: u64 = 50_000;
        let (mut hamilton, mut london, eff) = hamilton_london();
        pump(&mut hamilton, &mut london, eff, SimTime::ZERO);
        let london_e = CollectionId::new("London", "E");
        // Two origins of what London.E forwards: its own builds, and
        // Paris.X builds it re-issued under itself.
        let forward = |i: u64| {
            let seq = i / 2;
            let event = if i.is_multiple_of(2) {
                let id = EventId::new("London", seq);
                Event::new(id, london_e.clone(), EventKind::DocumentsAdded, SimTime::ZERO)
            } else {
                let paris_x = CollectionId::new("Paris", "X");
                Event::new(EventId::new("Paris", seq), paris_x, EventKind::DocumentsAdded, SimTime::ZERO)
                    .rewritten(EventId::new("London", FORWARDS + seq), london_e.clone(), SimTime::ZERO)
            };
            SysMessage::Aux(Reliable::Data {
                seq: i,
                payload: AuxPayload::ForwardEvent {
                    super_name: "D".into(),
                    event: Payload::from_event(Arc::new(event)),
                },
            })
        };
        let from = HostName::new("London");
        let mut reissued = 0;
        let mut most_runs = 0;
        // Out of order within a window of 8 (per origin: evens, then
        // odds), the whole window retried once it is through.
        for window in 0..FORWARDS / 16 {
            let order = [0, 2, 4, 6, 1, 3, 5, 7].map(|k| window * 8 + k);
            let arrivals = order.iter().flat_map(|seq| [2 * seq, 2 * seq + 1]);
            for i in arrivals.clone() {
                let eff = hamilton.handle_message(&from, forward(i), SimTime::ZERO);
                reissued += eff.published;
                let runs: usize = hamilton.aux.rewritten.values().map(SeenIds::runs).sum();
                most_runs = most_runs.max(runs);
            }
            for i in arrivals {
                let eff = hamilton.handle_message(&from, forward(i), SimTime::ZERO);
                assert!(eff.published == 0 && eff.outbound.len() == 1, "only the ack");
            }
        }
        assert_eq!(reissued as u64, FORWARDS);
        assert!(most_runs <= 16, "{most_runs} runs held");
        let runs: usize = hamilton.aux.rewritten.values().map(SeenIds::runs).sum();
        assert_eq!((hamilton.aux.rewritten.len(), runs), (1, 2), "one run per origin");
    }

    #[test]
    fn remove_subcollection_deletes_aux_profile() {
        let (mut hamilton, mut london, eff) = hamilton_london();
        pump(&mut hamilton, &mut london, eff, SimTime::ZERO);
        assert_eq!(london.aux_store().len(), 1);
        let eff = hamilton
            .remove_subcollection(&"D".into(), &"e".into(), SimTime::from_millis(5))
            .unwrap();
        pump(&mut hamilton, &mut london, eff, SimTime::from_millis(5));
        assert!(london.aux_store().is_empty());
        assert!(hamilton.pending_ops().is_empty());
    }

    #[test]
    fn unacked_plant_is_cancelled_by_delete() {
        let (mut hamilton, _, _) = hamilton_london();
        // Plant was never delivered (1 pending). Removing the
        // sub-collection must cancel it and queue only the delete.
        assert_eq!(hamilton.pending_ops().len(), 1);
        hamilton
            .remove_subcollection(&"D".into(), &"e".into(), SimTime::from_millis(1))
            .unwrap();
        assert_eq!(hamilton.pending_ops().len(), 1);
        let (_, op) = hamilton.pending_ops().iter().next().unwrap();
        assert!(matches!(op, AuxPayload::Delete { .. }));
    }

    #[test]
    fn retry_until_acked() {
        let (mut hamilton, mut london, eff) = hamilton_london();
        // Drop the initial plant (simulating a partition).
        drop(eff);
        assert_eq!(hamilton.pending_ops().len(), 1);

        // Before the retry interval: nothing.
        let eff = hamilton.on_tick(SimTime::from_millis(100));
        assert!(eff.outbound.is_empty());
        // After: retransmission.
        let eff = hamilton.on_tick(SimTime::from_secs(3));
        assert_eq!(eff.outbound.len(), 1);
        // Deliver it now ("the partition healed").
        pump(&mut hamilton, &mut london, eff, SimTime::from_secs(3));
        assert_eq!(london.aux_store().len(), 1);
        assert!(hamilton.pending_ops().is_empty());
        // No further retries.
        let eff = hamilton.on_tick(SimTime::from_secs(10));
        assert!(eff.outbound.is_empty());
    }

    #[test]
    fn local_parent_chain_rewrites_on_same_host() {
        // F (public) ⊃ G (private), both on London; G rebuilds.
        let mut london = AlertingCore::new("London", "gds-2");
        london
            .add_collection(
                CollectionConfig::simple("F", "f").with_subcollection(SubCollectionRef::new(
                    "g",
                    CollectionId::new("London", "G"),
                )),
                SimTime::ZERO,
            )
            .unwrap();
        london
            .add_collection(CollectionConfig::simple("G", "g").private(), SimTime::ZERO)
            .unwrap();
        let client = ClientId::from_raw(1);
        london
            .subscribe(client, parse_profile(r#"collection = "London.F""#).unwrap())
            .unwrap();

        let (_, eff) = london
            .rebuild(&"G".into(), vec![doc("g1", "hidden")], SimTime::from_millis(1))
            .unwrap();
        // The private G itself must not be broadcast; the rewritten F
        // event must.
        assert_eq!(eff.published, 1);
        assert_eq!(
            published(&eff)[0].origin,
            CollectionId::new("London", "F")
        );
        // The local client subscribed to F was notified.
        let inbox = london.take_notifications(client);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].event.origin, CollectionId::new("London", "F"));
        assert_eq!(
            inbox[0].event.provenance,
            vec![CollectionId::new("London", "G")]
        );
    }

    #[test]
    fn virtual_collection_chains_to_remote_super() {
        // Paris.Z ⊃ London.F (virtual) ⊃ London.G (private). G rebuilds;
        // Paris must end up broadcasting a Paris.Z event.
        let mut paris = AlertingCore::new("Paris", "gds-9");
        let mut london = AlertingCore::new("London", "gds-2");
        london
            .add_collection(
                CollectionConfig::simple("F", "virtual").with_subcollection(
                    SubCollectionRef::new("g", CollectionId::new("London", "G")),
                ),
                SimTime::ZERO,
            )
            .unwrap();
        london
            .add_collection(CollectionConfig::simple("G", "g").private(), SimTime::ZERO)
            .unwrap();
        let eff = paris
            .add_collection(
                CollectionConfig::simple("Z", "z").with_subcollection(SubCollectionRef::new(
                    "f",
                    CollectionId::new("London", "F"),
                )),
                SimTime::ZERO,
            )
            .unwrap();
        // Hand-deliver the plant to London.
        let mut plant_delivered = false;
        for (to, msg) in eff.outbound {
            if to.as_str() == "London" {
                let e = london.handle_message(&HostName::new("Paris"), msg, SimTime::ZERO);
                // Ack back to Paris.
                for (_, m) in e.outbound {
                    paris.handle_message(&HostName::new("London"), m, SimTime::ZERO);
                }
                plant_delivered = true;
            }
        }
        assert!(plant_delivered);

        let (_, eff) = london
            .rebuild(&"G".into(), vec![doc("g1", "x")], SimTime::from_millis(2))
            .unwrap();
        // London publishes F (public) but not G (private); it also
        // forwards to Paris because the aux profile observes F.
        assert_eq!(eff.published, 1);
        let forwards: Vec<_> = eff
            .outbound
            .iter()
            .filter(|(to, m)| to.as_str() == "Paris" && matches!(m, SysMessage::Aux(_)))
            .collect();
        assert_eq!(forwards.len(), 1);
        let (_, msg) = forwards[0].clone();
        let eff = paris.handle_message(&HostName::new("London"), msg, SimTime::from_millis(3));
        assert_eq!(eff.published, 1);
        assert_eq!(published(&eff)[0].origin, CollectionId::new("Paris", "Z"));
        assert_eq!(
            published(&eff)[0].provenance,
            vec![
                CollectionId::new("London", "G"),
                CollectionId::new("London", "F"),
            ]
        );
    }

    #[test]
    fn empty_build_announces_nothing() {
        let mut core = AlertingCore::new("A", "gds-1");
        core.add_collection(CollectionConfig::simple("C", "c"), SimTime::ZERO)
            .unwrap();
        let (report, eff) = core.rebuild(&"C".into(), vec![], SimTime::ZERO).unwrap();
        assert!(report.is_empty());
        assert_eq!(eff.published, 0);
        assert!(eff.outbound.is_empty());
    }

    #[test]
    fn import_kinds() {
        let mut core = AlertingCore::new("A", "gds-1");
        core.add_collection(CollectionConfig::simple("C", "c"), SimTime::ZERO)
            .unwrap();
        let (_, eff) = core
            .import(&"C".into(), vec![doc("x", "1")], SimTime::ZERO)
            .unwrap();
        assert_eq!(published(&eff)[0].kind, EventKind::DocumentsAdded);
        let (_, eff) = core
            .import(&"C".into(), vec![doc("x", "2")], SimTime::ZERO)
            .unwrap();
        assert_eq!(published(&eff)[0].kind, EventKind::DocumentsUpdated);
    }

    #[test]
    fn delete_collection_announces() {
        let mut core = AlertingCore::new("A", "gds-1");
        core.add_collection(CollectionConfig::simple("C", "c"), SimTime::ZERO)
            .unwrap();
        let client = ClientId::from_raw(1);
        core.subscribe(client, parse_profile(r#"collection = "A.C""#).unwrap())
            .unwrap();
        let eff = core.delete_collection(&"C".into(), SimTime::ZERO).unwrap();
        assert_eq!(published(&eff)[0].kind, EventKind::CollectionDeleted);
        assert_eq!(core.take_notifications(client).len(), 1);
        assert!(core.delete_collection(&"C".into(), SimTime::ZERO).is_err());
    }

    #[test]
    fn gds_delivered_event_is_filtered_locally() {
        let mut core = AlertingCore::new("A", "gds-1");
        let client = ClientId::from_raw(1);
        core.subscribe(client, parse_profile(r#"host = "B""#).unwrap())
            .unwrap();
        let event = Event::new(
            EventId::new("B", 1),
            CollectionId::new("B", "C"),
            EventKind::CollectionRebuilt,
            SimTime::ZERO,
        );
        let deliver = GdsMessage::Deliver {
            id: gsa_types::MessageId::from_raw(1),
            origin: "B".into(),
            payload: gsa_wire::codec::event_to_xml(&event).into(),
        };
        let eff = core.handle_message(
            &HostName::new("gds-1"),
            SysMessage::Gds(deliver.clone()),
            SimTime::ZERO,
        );
        assert_eq!(eff.notified, 1);
        // Duplicate delivery is suppressed by the client-side dedup.
        let eff = core.handle_message(&HostName::new("gds-1"), SysMessage::Gds(deliver), SimTime::ZERO);
        assert_eq!(eff.notified, 0);
        let inbox = core.take_notifications(client);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].event.id, EventId::new("B", 1));
    }

    #[test]
    fn fetch_timeout_expires_with_partial_results() {
        let (mut hamilton, _, _) = hamilton_london();
        hamilton
            .import(&"D".into(), vec![doc("d1", "x")], SimTime::ZERO)
            .unwrap();
        let (rid, eff) = hamilton.start_fetch(&"D".into(), SimTime::ZERO);
        assert!(eff.fetches.is_empty());
        drop(eff); // messages to London lost
        // Before the timeout nothing happens.
        let eff = hamilton.on_tick(SimTime::from_secs(1));
        assert!(eff.fetches.is_empty());
        // After the timeout the request completes partially.
        let eff = hamilton.on_tick(SimTime::from_secs(6));
        assert_eq!(eff.fetches.len(), 1);
        assert_eq!(eff.fetches[0].0, rid);
        assert_eq!(eff.fetches[0].1.docs.len(), 1);
        assert!(eff.fetches[0].1.errors.contains(&GsError::Timeout));
    }

    #[test]
    fn requests_timing_out_in_one_tick_expire_in_request_order() {
        // Every core is a fresh map: an order taken from a hasher would
        // differ between some two of them.
        for _ in 0..32 {
            let (mut hamilton, _, _) = hamilton_london();
            let started: Vec<RequestId> = (0..2)
                .map(|_| hamilton.start_fetch(&"D".into(), SimTime::ZERO).0)
                .collect();
            let eff = hamilton.on_tick(SimTime::from_secs(6));
            let expired: Vec<RequestId> = eff.fetches.iter().map(|(rid, _)| *rid).collect();
            assert_eq!(expired, started);
        }
    }

    #[test]
    fn resolve_effects() {
        let mut core = AlertingCore::new("A", "gds-1");
        let (token, eff) = core.resolve("B");
        assert_eq!(eff.outbound.len(), 1);
        let resp = GdsMessage::ResolveResponse {
            token,
            name: "B".into(),
            result: Some("gds-2".into()),
        };
        let eff = core.handle_message(&HostName::new("gds-1"), SysMessage::Gds(resp), SimTime::ZERO);
        assert_eq!(eff.resolved, vec![(token, Some(HostName::new("gds-2")))]);
    }

    #[test]
    fn undecodable_forward_is_acked_dropped_and_counted() {
        let mut core = AlertingCore::new("A", "gds-1");
        let poison = AuxPayload::ForwardEvent {
            super_name: "D".into(),
            event: Payload::from(gsa_wire::XmlElement::new("garbage")),
        };
        let from = HostName::new("B");
        let frame = SysMessage::Aux(Reliable::Data {
            seq: 7,
            payload: poison,
        });
        let eff = core.handle_message(&from, frame, SimTime::ZERO);
        // Acknowledged — the sender stops retrying — and nothing else.
        let mut only_the_ack = CoreEffects::default();
        only_the_ack.send(from, SysMessage::Aux(Reliable::Ack { seq: 7, more: 0 }));
        assert_eq!(eff, only_the_ack);
        assert_eq!(core.counts_mut().get(CounterId::CORE_DECODE_ERROR), 1);
    }

    /// A Deliver carrying docs from `London.E`, as a frozen binary payload.
    fn binary_deliver(seq: u64, docs: Vec<gsa_types::DocSummary>) -> GdsMessage {
        let event = Event::new(
            EventId::new("London", seq),
            CollectionId::new("London", "E"),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(docs);
        let bytes =
            gsa_wire::binary::payload_bytes_from_xml(&gsa_wire::codec::event_to_xml(&event));
        GdsMessage::Deliver {
            id: gsa_types::MessageId::from_raw(seq),
            origin: "London".into(),
            payload: Payload::from_frozen(bytes.into()),
        }
    }

    #[test]
    fn undecodable_delivery_counts_a_decode_error() {
        let mut core = AlertingCore::new("A", "gds-1");
        let deliver = GdsMessage::Deliver {
            id: gsa_types::MessageId::from_raw(1),
            origin: "B".into(),
            payload: gsa_wire::XmlElement::new("not-an-event").into(),
        };
        let eff = core.handle_message(&HostName::new("gds-1"), SysMessage::Gds(deliver), SimTime::ZERO);
        assert_eq!(eff.notified, 0);
        assert_eq!(core.counts_mut().get(CounterId::CORE_DECODE_ERROR), 1);
        // Draining empties; the next read starts from zero.
        let drained: Vec<_> = core.counts_mut().drain().collect();
        assert_eq!(drained, vec![(CounterId::CORE_DECODE_ERROR, 1)]);
        assert!(core.counts_mut().is_empty());
    }

    #[test]
    fn probe_skips_decode_for_non_matching_binary_deliveries() {
        let mut core = AlertingCore::new("A", "gds-1");
        let client = ClientId::from_raw(1);
        core.subscribe(client, parse_profile(r#"host = "Paris""#).unwrap())
            .unwrap();
        let eff = core.handle_message(
            &HostName::new("gds-1"),
            SysMessage::Gds(binary_deliver(1, vec![])),
            SimTime::ZERO,
        );
        assert_eq!(eff.notified, 0);
        let counters = core.counts_mut();
        assert_eq!(counters.get(CounterId::CORE_PROBE_SKIP), 1);
        assert_eq!(counters.get(CounterId::CORE_PROBE_PASS), 0);
        assert_eq!(counters.get(CounterId::CORE_DECODE_ERROR), 0);
    }

    #[test]
    fn probe_on_and_off_deliver_the_same_notifications() {
        let mk = |probe: bool| {
            let mut core = AlertingCore::new("A", "gds-1");
            core.set_probe(probe);
            let client = ClientId::from_raw(1);
            core.subscribe(client, parse_profile(r#"host = "London""#).unwrap())
                .unwrap();
            let eff = core.handle_message(
                &HostName::new("gds-1"),
                SysMessage::Gds(binary_deliver(1, vec![])),
                SimTime::ZERO,
            );
            assert_eq!(eff.notified, 1);
            core.take_notifications(client)
        };
        let with_probe = mk(true);
        let without_probe = mk(false);
        assert_eq!(with_probe.len(), 1);
        assert_eq!(with_probe, without_probe);
    }

    #[test]
    fn probe_counters_stay_zero_when_disabled() {
        let mut core = AlertingCore::new("A", "gds-1");
        core.set_probe(false);
        let eff = core.handle_message(
            &HostName::new("gds-1"),
            SysMessage::Gds(binary_deliver(1, vec![])),
            SimTime::ZERO,
        );
        assert_eq!(eff.notified, 0);
        let counters = core.counts_mut();
        assert_eq!(counters.get(CounterId::CORE_PROBE_SKIP), 0);
        assert_eq!(counters.get(CounterId::CORE_PROBE_PASS), 0);
    }

    #[test]
    fn alert_dedup_suppresses_duplicates_and_refires_after_resolve() {
        let mut core = AlertingCore::new("A", "gds-1");
        core.set_alert_policies(Some(AlertPolicyConfig::dedup_only()));
        let client = ClientId::from_raw(1);
        core.subscribe(client, parse_profile(r#"host = "London""#).unwrap())
            .unwrap();
        let eff = core.handle_message(
            &HostName::new("gds-1"),
            SysMessage::Gds(binary_deliver(1, vec![])),
            SimTime::ZERO,
        );
        assert_eq!(eff.notified, 1);
        let delivered = &core.subscriptions().peek_notifications(client)[0];
        let fp = core.alert_key(delivered).unwrap();
        assert_eq!(core.alert_state(fp), Some(AlertState::Firing));
        // Same collection + kind: the duplicate is suppressed — neither
        // counted in the effects nor queued in the client mailbox.
        let eff = core.handle_message(
            &HostName::new("gds-1"),
            SysMessage::Gds(binary_deliver(2, vec![])),
            SimTime::from_secs(1),
        );
        assert_eq!(eff.notified, 0);
        assert_eq!(core.take_notifications(client).len(), 1);
        let counters = core.counts_mut();
        assert_eq!(counters.get(CounterId::ALERTS_FIRING), 1);
        assert_eq!(counters.get(CounterId::ALERTS_SUPPRESSED), 1);
        // Resolving reopens the cycle: the next match notifies again.
        assert!(core.resolve_alert(fp, SimTime::from_secs(2)));
        let eff = core.handle_message(
            &HostName::new("gds-1"),
            SysMessage::Gds(binary_deliver(3, vec![])),
            SimTime::from_secs(3),
        );
        assert_eq!(eff.notified, 1);
        assert_eq!(core.take_notifications(client).len(), 1);
        assert_eq!(core.alert_state(fp), Some(AlertState::Firing));
    }

    #[test]
    fn digest_flush_rides_the_maintenance_tick() {
        use gsa_alerts::DigestConfig;
        let mut core = AlertingCore::new("A", "gds-1");
        core.set_alert_policies(Some(AlertPolicyConfig {
            digest: Some(DigestConfig {
                interval: SimDuration::from_secs(60),
            }),
            ..AlertPolicyConfig::default()
        }));
        let client = ClientId::from_raw(1);
        core.subscribe(client, parse_profile(r#"host = "London""#).unwrap())
            .unwrap();
        let eff = core.handle_message(
            &HostName::new("gds-1"),
            SysMessage::Gds(binary_deliver(1, vec![])),
            SimTime::ZERO,
        );
        assert_eq!(eff.notified, 0, "digested, not delivered");
        assert!(core.take_notifications(client).is_empty());
        assert_eq!(core.on_tick(SimTime::from_secs(59)).notified, 0);
        let eff = core.on_tick(SimTime::from_secs(60));
        assert_eq!(eff.notified, 1);
        assert_eq!(core.take_notifications(client).len(), 1);
        assert_eq!(core.counts_mut().get(CounterId::ALERTS_DIGESTED), 1);
    }

    /// Digest buffers are volatile by design (DESIGN.md §4, "What a crash
    /// leaves"): the delivery machine's engine is rebuilt empty, so a
    /// notification digested before a crash is never flushed, on a
    /// volatile and on a durable server alike.
    #[test]
    fn a_crash_drops_a_buffered_digest() {
        use gsa_alerts::DigestConfig;
        use gsa_state::{JournalConfig, JournalStateStore, MemMedium};
        for durable in [false, true] {
            let mut core = AlertingCore::new("A", "gds-1");
            core.set_alert_policies(Some(AlertPolicyConfig {
                digest: Some(DigestConfig {
                    interval: SimDuration::from_secs(60),
                }),
                ..AlertPolicyConfig::default()
            }));
            if durable {
                let store = JournalStateStore::new(MemMedium::new(), JournalConfig::default());
                core.set_state_store(Box::new(store));
            }
            let client = ClientId::from_raw(1);
            core.subscribe(client, parse_profile(r#"host = "London""#).unwrap())
                .unwrap();
            let eff = core.handle_message(
                &HostName::new("gds-1"),
                SysMessage::Gds(binary_deliver(1, vec![])),
                SimTime::ZERO,
            );
            assert_eq!(eff.notified, 0, "digested, not delivered");
            let mut core = core.crashed(SimTime::ZERO);
            assert_eq!(core.subscriptions().len(), usize::from(durable));
            let eff = core.on_tick(SimTime::from_secs(60));
            assert_eq!(eff.notified, 0, "durable: {durable}");
            assert!(core.take_notifications(client).is_empty());
        }
    }

    #[test]
    fn observe_only_policies_change_no_deliveries() {
        let mk = |policies: Option<AlertPolicyConfig>| {
            let mut core = AlertingCore::new("A", "gds-1");
            core.set_alert_policies(policies);
            let client = ClientId::from_raw(1);
            core.subscribe(client, parse_profile(r#"host = "London""#).unwrap())
                .unwrap();
            let mut notified = 0;
            for seq in 1..=3 {
                let eff = core.handle_message(
                    &HostName::new("gds-1"),
                    SysMessage::Gds(binary_deliver(seq, vec![])),
                    SimTime::from_secs(seq),
                );
                notified += eff.notified;
            }
            let inbox = core.take_notifications(client);
            assert_eq!(notified, inbox.len());
            inbox
        };
        let baseline = mk(None);
        let observed = mk(Some(AlertPolicyConfig::observe_only()));
        assert_eq!(baseline.len(), 3);
        assert_eq!(baseline, observed);
    }

    #[test]
    fn acked_lifecycle_survives_crash_recovery() {
        use gsa_state::{JournalConfig, JournalStateStore, MemMedium};
        let medium = MemMedium::new();
        let mut core = AlertingCore::new("A", "gds-1");
        core.set_alert_policies(Some(AlertPolicyConfig::dedup_only()));
        core.set_state_store(Box::new(JournalStateStore::new(
            medium.clone(),
            JournalConfig::default(),
        )));
        core.startup(SimTime::ZERO);
        let client = ClientId::from_raw(1);
        core.subscribe(client, parse_profile(r#"host = "London""#).unwrap())
            .unwrap();
        core.handle_message(
            &HostName::new("gds-1"),
            SysMessage::Gds(binary_deliver(1, vec![])),
            SimTime::from_secs(1),
        );
        let delivered = core.take_notifications(client);
        let fp = core.alert_key(&delivered[0]).unwrap();
        assert!(core.ack_alert(fp, SimTime::from_secs(2)));

        let mut core = core.crashed(SimTime::from_secs(2));
        core.startup(SimTime::from_secs(3));
        // The acknowledgement replayed from the journal...
        assert_eq!(core.alert_state(fp), Some(AlertState::Acked));
        // ...so the post-restart duplicate still does not re-notify.
        let eff = core.handle_message(
            &HostName::new("gds-1"),
            SysMessage::Gds(binary_deliver(2, vec![])),
            SimTime::from_secs(4),
        );
        assert_eq!(eff.notified, 0);
        assert!(core.take_notifications(client).is_empty());
    }

    /// An alert instance ends with its profile: 200 rounds of subscribe,
    /// one matching delivery and cancel leave no instance in the engine,
    /// and none comes back from the journal after a crash. Before
    /// instances were keyed by profile, both read 200.
    #[test]
    fn a_cancelled_profile_leaves_no_alert_instance_before_or_after_a_crash() {
        use gsa_state::{JournalConfig, JournalStateStore, MemMedium};
        let mut core = AlertingCore::new("A", "gds-1");
        core.set_alert_policies(Some(AlertPolicyConfig::observe_only()));
        let store = JournalStateStore::new(MemMedium::new(), JournalConfig::default());
        core.set_state_store(Box::new(store));
        core.startup(SimTime::ZERO);
        let client = ClientId::from_raw(1);
        for round in 1..=200 {
            let profile = core.subscribe(client, parse_profile(r#"host = "London""#).unwrap()).unwrap();
            let msg = SysMessage::Gds(binary_deliver(round, vec![]));
            let eff = core.handle_message(&HostName::new("gds-1"), msg, SimTime::from_millis(round));
            assert_eq!(eff.notified, 1, "round {round}");
            assert!(core.unsubscribe(profile));
        }
        let instances = |core: &AlertingCore| core.delivery.alerts.as_ref().map(AlertEngine::len);
        assert_eq!(instances(&core), Some(0), "before the crash");
        let mut core = core.crashed(SimTime::from_secs(1));
        core.startup(SimTime::from_secs(1));
        assert_eq!(instances(&core), Some(0), "after the crash");
    }

    /// A pruning, probe-off, dedup-policy server, durable or not,
    /// holding one of everything a crash keeps or loses: a collection
    /// with a remote sub-collection (its plant still owed), a live and a
    /// cancelled profile, an announced summary, an acknowledged alert in
    /// a mailbox, a profile Paris planted, an event London forwarded
    /// (rewritten, published and forwarded on to Paris) and a fetch in
    /// flight.
    fn lived(durable: bool) -> AlertingCore {
        use gsa_state::{JournalConfig, JournalStateStore, MemMedium};
        let t = SimTime::ZERO;
        let mut core = AlertingCore::new("A", "gds-1");
        core.set_pruning(true);
        core.set_probe(false);
        core.set_alert_policies(Some(AlertPolicyConfig::dedup_only()));
        if durable {
            let store = JournalStateStore::new(MemMedium::new(), JournalConfig::default());
            core.set_state_store(Box::new(store));
        }
        core.startup(t);
        let london_d = CollectionId::new("London", "D");
        let e = CollectionConfig::simple("E", "e")
            .with_subcollection(SubCollectionRef::new("d", london_d.clone()));
        core.add_collection(e, t).unwrap();
        let client = ClientId::from_raw(1);
        core.subscribe(client, parse_profile(r#"host = "London""#).unwrap()).unwrap();
        let cancelled = core.subscribe(client, parse_profile(r#"host = "Paris""#).unwrap()).unwrap();
        core.unsubscribe(cancelled);
        core.summary_refresh();
        core.handle_message(&HostName::new("gds-1"), SysMessage::Gds(binary_deliver(1, vec![])), t);
        let fp = core.alert_key(&core.subscriptions().peek_notifications(client)[0]);
        assert!(core.ack_alert(fp.unwrap(), t));
        let plant = AuxPayload::Plant {
            super_collection: CollectionId::new("Paris", "P"),
            sub_name: CollectionName::new("E"),
        };
        core.handle_message(&HostName::new("Paris"), SysMessage::Aux(Reliable::Data { seq: 0, payload: plant }), t);
        let event = Event::new(EventId::new("London", 7), london_d, EventKind::CollectionRebuilt, t);
        let forward = AuxPayload::ForwardEvent {
            super_name: CollectionName::new("E"),
            event: Payload::from_event(Arc::new(event)),
        };
        core.handle_message(&HostName::new("London"), SysMessage::Aux(Reliable::Data { seq: 0, payload: forward }), t);
        core.start_fetch(&CollectionName::new("E"), t);
        core
    }

    /// One row per thing a crash keeps or loses, on a volatile and on a
    /// durable server. A row reads one value off the server that lived,
    /// off the server [`AlertingCore::crashed`] restarts, and off a new
    /// one: what is kept reads as it did before the crash, what is lost
    /// reads as on a new server, what is renewed reads as the first
    /// number of the crash's new incarnation, and the server that lived
    /// and the new one must differ for the row to tell them apart.
    #[test]
    fn what_a_crash_keeps_and_what_it_loses() {
        #[derive(Debug, Clone, Copy)]
        enum Fate {
            Kept,
            Lost,
            Renewed,
        }
        use Fate::{Kept, Lost, Renewed};
        let crash = SimTime::from_secs(1);
        let base = (crash.as_micros() + 1) << crate::subs::INCARNATION_SHIFT;
        let deliver = |core: &mut AlertingCore, seq| {
            let msg = SysMessage::Gds(binary_deliver(seq, vec![]));
            core.handle_message(&HostName::new("gds-1"), msg, SimTime::ZERO).notified as u64
        };
        let london = || parse_profile(r#"host = "London""#).unwrap();
        type Read<'a> = &'a dyn Fn(&mut AlertingCore) -> u64;
        let rows: [(&str, Fate, Fate, Read); 18] = [
            ("collections", Kept, Kept, &|c| c.server().collections().count() as u64),
            ("client mailboxes", Kept, Kept, &|c| c.subscriptions().queued_notifications() as u64),
            ("a redelivery does not re-notify", Kept, Kept, &|c| {
                c.subscribe(ClientId::from_raw(9), london()).unwrap();
                deliver(c, 1)
            }),
            ("the first publish after a restart gets a new message id", Kept, Kept, &|c| {
                c.gds.publish(gsa_wire::XmlElement::new("e")).0.as_u64()
            }),
            ("auxiliary profiles", Kept, Kept, &|c| c.aux_store().len() as u64),
            ("auxiliary log", Kept, Kept, &|c| c.pending_ops().len() as u64),
            ("event sequence", Kept, Kept, &|c| c.event_seq),
            ("rewrite runs", Kept, Kept, &|c| c.aux.rewritten.len() as u64),
            ("request start times", Kept, Kept, &|c| c.on_tick(SimTime::from_secs(5)).fetches.len() as u64),
            ("pruning", Kept, Kept, &|c| u64::from(c.subs.pruning)),
            ("the probe setting", Kept, Kept, &|c| u64::from(c.delivery.probe)),
            ("alert policies", Kept, Kept, &|c| u64::from(c.delivery.alerts.is_some())),
            ("profiles", Lost, Kept, &|c| c.subscriptions().len() as u64),
            ("the profile-id allocator", Renewed, Renewed, &|c| {
                c.subscribe(ClientId::from_raw(9), london()).unwrap().as_u64()
            }),
            ("the summary version", Renewed, Renewed, &|c| c.subs.summary_version),
            ("a duplicate alert delivers again", Lost, Kept, &|c| {
                c.subs.restore(ProfileId::from_raw(0), ClientId::from_raw(1), london()).unwrap();
                deliver(c, 2)
            }),
            ("interest counts", Lost, Lost, &|c| u64::from(c.subs.interests_changed())),
            ("the last announced summary", Lost, Lost, &|c| u64::from(c.subs.last_summary.is_some())),
        ];
        for (what, volatile, durable, read) in rows {
            for (is_durable, fate) in [(false, volatile), (true, durable)] {
                let before = read(&mut lived(is_durable));
                let after = read(&mut lived(is_durable).crashed(crash));
                let new = read(&mut AlertingCore::new("A", "gds-1"));
                assert_ne!(before, new, "{what}: the history shows in the row");
                let expected = match fate {
                    Kept => before,
                    Lost => new,
                    Renewed => base,
                };
                assert_eq!(after, expected, "{what} (durable: {is_durable}) is {fate:?}");
            }
        }
    }

    /// A notification of `profile` about a docless event of `origin`.
    fn notification_of(profile: u64, origin: CollectionId, kind: EventKind) -> Notification {
        let id = EventId::new(origin.host().clone(), 1);
        Notification {
            profile: ProfileId::from_raw(profile),
            client: ClientId::from_raw(1),
            event: Arc::new(Event::new(id, origin, kind, SimTime::ZERO)),
            docs: DocPositions::Bits(0),
            at: SimTime::ZERO,
        }
    }

    fn core_with_labels(labels: &[LabelKey]) -> AlertingCore {
        let mut core = AlertingCore::new("A", "gds-1");
        core.set_alert_policies(Some(AlertPolicyConfig {
            labels: labels.to_vec(),
            ..AlertPolicyConfig::default()
        }));
        core
    }

    /// Journalled fingerprints key alert instances across restarts and
    /// versions: these were printed by the commit before the labels
    /// stopped being built as strings.
    #[test]
    fn fingerprints_are_pinned() {
        use LabelKey::{Collection, Kind, OriginHost};
        let pinned: [(&[LabelKey], u64, CollectionId, EventKind, u64); 3] = [
            (
                &[Collection, Kind],
                7,
                CollectionId::new("Hamilton", "D"),
                EventKind::CollectionRebuilt,
                0x9f04_1567_6a54_083c,
            ),
            (
                &[OriginHost, Kind, Collection],
                0,
                CollectionId::new("London", "E"),
                EventKind::DocumentsAdded,
                0x1ec4_f393_77b2_162c,
            ),
            (
                &[Kind, OriginHost],
                u64::MAX,
                CollectionId::new("Paris", "a.b"),
                EventKind::CollectionDeleted,
                0xbcb1_65b1_252a_f7a2,
            ),
        ];
        for (labels, profile, origin, kind, fp) in pinned {
            let n = notification_of(profile, origin, kind);
            let key = core_with_labels(labels).alert_key(&n).unwrap();
            assert_eq!((key.profile.as_u64(), key.fingerprint), (profile, fp));
        }
    }

    /// The summary an effect set announces, if it announces one.
    fn announced(effects: &CoreEffects) -> Option<&InterestSummary> {
        effects.outbound.iter().find_map(|(_, msg)| match msg {
            SysMessage::Gds(GdsMessage::SummaryUpdate { summary, .. }) => Some(&**summary),
            _ => None,
        })
    }

    #[test]
    fn subscribe_and_cancel_derive_one_digest_whatever_the_population() {
        let client = ClientId::from_raw(1);
        let stored = |n: usize| {
            parse_profile(&format!(r#"collection = "H{}.C" AND dc.Title = "t{n}""#, n % 40)).unwrap()
        };
        for pruning in [true, false] {
            for population in [10, 1_000, 10_000] {
                let mut core = AlertingCore::new("London", "gds-2");
                core.set_pruning(pruning);
                core.startup(SimTime::ZERO);
                for n in 0..population {
                    core.subscribe(client, stored(n)).unwrap();
                }
                core.summary_refresh();
                let each = usize::from(pruning);
                let before = crate::subs::derivations();
                let id = core.subscribe(client, stored(0)).unwrap();
                let effects = core.summary_refresh();
                assert_eq!(crate::subs::derivations() - before, each, "subscribe at {population}");
                // An anchor and a value the server already holds: nothing
                // to announce.
                assert!(announced(&effects).is_none());
                assert!(core.unsubscribe(id));
                core.summary_refresh();
                assert_eq!(crate::subs::derivations() - before, 2 * each, "cancel at {population}");
            }
        }
    }

    #[test]
    fn volatile_restart_announces_the_empty_summary() {
        let mut core = AlertingCore::new("London", "gds-2");
        core.set_pruning(true);
        assert!(announced(&core.startup(SimTime::ZERO)).is_some_and(InterestSummary::is_empty));
        core.subscribe(ClientId::from_raw(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        assert!(announced(&core.summary_refresh()).is_some_and(|s| s.may_match("A", "A.X")));
        let mut core = core.crashed(SimTime::ZERO);
        // Nothing to replay: the restart says so, although it is what a
        // fresh server announces too.
        assert!(announced(&core.startup(SimTime::ZERO)).is_some_and(InterestSummary::is_empty));
        assert!(announced(&core.summary_refresh()).is_none());
    }

    /// One generated frame item: mostly deliveries, in either payload
    /// form, sometimes a redelivery of an earlier id, an undecodable
    /// payload or a naming-service answer.
    fn frame_item(seq: u64, (shape, host, kind, docs, frozen): (usize, usize, usize, usize, usize)) -> GdsMessage {
        let origin = ["London", "Paris", "Hamilton"][host];
        let id = gsa_types::MessageId::from_raw(match shape {
            0 => seq.saturating_sub(1),
            _ => seq,
        });
        match shape {
            1 => {
                return GdsMessage::ResolveResponse {
                    token: ResolveToken(seq),
                    name: origin.into(),
                    result: (kind > 0).then(|| "gds-2".into()),
                }
            }
            2 => {
                return GdsMessage::Deliver {
                    id,
                    origin: origin.into(),
                    payload: gsa_wire::XmlElement::new("not-an-event").into(),
                }
            }
            _ => {}
        }
        let kind = [
            EventKind::CollectionRebuilt,
            EventKind::DocumentsAdded,
            EventKind::CollectionDeleted,
        ][kind];
        let docs = (0..docs)
            .map(|d| {
                let mut meta = gsa_types::MetadataRecord::new();
                meta.add("dc.Title", format!("t{}", (seq as usize + d) % 3));
                gsa_types::DocSummary::new(format!("d{d}"))
                    .with_metadata(meta)
                    .with_excerpt(["alpha beta", "gamma"][d % 2])
            })
            .collect();
        let event = Event::new(
            EventId::new(origin, seq),
            CollectionId::new(origin, "E"),
            kind,
            SimTime::ZERO,
        )
        .with_docs(docs);
        let mut payload = Payload::from(gsa_wire::codec::event_to_xml(&event));
        if frozen > 0 {
            payload.freeze();
        }
        GdsMessage::Deliver {
            id,
            origin: origin.into(),
            payload,
        }
    }

    proptest! {
        /// Hashing the labels as borrowed text is hashing the strings
        /// the gate used to build, for every ordered subset of the keys.
        #[test]
        fn fingerprint_hashes_what_the_label_strings_hashed(
            profile in 0u64..=u64::MAX,
            host in 0usize..3,
            name in 0usize..3,
            kind in 0usize..4,
        ) {
            use LabelKey::{Collection, Kind, OriginHost};
            let origin = CollectionId::new(["Hamilton", "London", "h"][host], ["D", "a.b", "é"][name]);
            let kind = [
                EventKind::CollectionRebuilt,
                EventKind::DocumentsAdded,
                EventKind::DocumentsUpdated,
                EventKind::CollectionDeleted,
            ][kind];
            let n = notification_of(profile, origin, kind);
            let keys = [Collection, Kind, OriginHost];
            // Every ordered subset: sequences of distinct keys, by length.
            let mut orders: Vec<Vec<LabelKey>> = vec![Vec::new()];
            let mut from = 0;
            while from < orders.len() {
                for key in keys {
                    if !orders[from].contains(&key) {
                        let longer = [orders[from].as_slice(), &[key]].concat();
                        orders.push(longer);
                    }
                }
                from += 1;
            }
            prop_assert_eq!(orders.len(), 16);
            for labels in orders {
                let strings: Vec<String> = labels
                    .iter()
                    .map(|key| match key {
                        Collection => n.event.origin.to_string(),
                        Kind => n.event.kind.as_str().to_string(),
                        OriginHost => n.event.origin.host().as_str().to_string(),
                    })
                    .collect();
                let built = fingerprint(n.profile.as_u64(), strings.iter().map(String::as_str));
                let key = core_with_labels(&labels).alert_key(&n).unwrap();
                prop_assert_eq!((key.profile, key.fingerprint), (n.profile, built));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// A frame's items produce what they would have produced as
        /// frames of their own: the same notifications in the same
        /// order with the same matched documents, the same resolved
        /// answers, the same mailboxes and the same counters — with no
        /// policy engine, with one that only observes and with one that
        /// suppresses, over XML and frozen payloads, with a population
        /// the probe can reject for (equality profiles only) and one it
        /// cannot.
        #[test]
        fn a_batch_is_its_items_one_by_one(
            policy in 0usize..3,
            profiles in 3usize..5,
            items in prop::collection::vec(
                (0usize..8, 0usize..3, 0usize..3, 0usize..3, 0usize..2),
                1..9,
            ),
        ) {
            let items: Vec<GdsMessage> = (1u64..)
                .zip(items)
                .map(|(seq, shape)| frame_item(seq, shape))
                .collect();
            let clients = [ClientId::from_raw(1), ClientId::from_raw(2)];
            let run = |frames: Vec<GdsMessage>| {
                let mut core = AlertingCore::new("A", "gds-1");
                core.set_alert_policies([
                    None,
                    Some(AlertPolicyConfig::observe_only()),
                    Some(AlertPolicyConfig::dedup_only()),
                ][policy].clone());
                for (n, text) in [
                    r#"host = "London""#,
                    r#"collection = "Paris.E" AND dc.Title = "t1""#,
                    r#"kind = "collection-deleted""#,
                    r#"text ? (gamma) OR doc = "d0""#,
                ]
                .into_iter()
                .take(profiles)
                .enumerate()
                {
                    core.subscribe(clients[n % 2], parse_profile(text).unwrap()).unwrap();
                }
                let mut effects = CoreEffects::default();
                for frame in frames {
                    effects.extend(core.handle_message(
                        &HostName::new("gds-1"),
                        SysMessage::Gds(frame),
                        SimTime::from_secs(1),
                    ));
                }
                let mailboxes = clients.map(|c| core.take_notifications(c));
                (effects, mailboxes, std::mem::take(core.counts_mut()))
            };
            let one_by_one = run(items.clone());
            let batched = run(vec![GdsMessage::Batch(items.into())]);
            prop_assert_eq!(&one_by_one, &batched);
            // The mailboxes hold what the effects report, nothing else.
            let (effects, mailboxes, _) = one_by_one;
            let queued: usize = mailboxes.iter().map(Vec::len).sum();
            prop_assert_eq!(queued, effects.notified);
        }
    }
}
