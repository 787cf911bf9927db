//! The delivery machine: the one step of §4.2 ("each server filters
//! locally and notifies its own clients"), for events built here and
//! events arriving over the GDS alike. It owns the attribute probe, the
//! alert-policy engine and the delivery path's counters, and borrows the
//! [`SubscriptionManager`] and the state store per call.

use crate::core::CoreEffects;
use crate::subs::{Notification, SubscriptionManager};
use gsa_alerts::{fingerprint, AlertEngine, AlertPolicyConfig, AlertState, LabelKey, Outcome};
use gsa_gds::{GdsClient, GdsMessage};
use gsa_state::StateStore;
use gsa_types::{CounterId, Counts, Event, ProfileId, SimTime};
use gsa_wire::Payload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// The stable alert fingerprint of one profile's match of `event` under
/// a policy configuration: profile id plus the configured label values,
/// `origin` being `event.origin` as text.
fn fingerprint_of(config: &AlertPolicyConfig, profile: ProfileId, origin: &str, event: &Event) -> u64 {
    let labels = config.labels.iter().map(|key| match key {
        LabelKey::Collection => origin,
        LabelKey::Kind => event.kind.as_str(),
        LabelKey::OriginHost => event.origin.host().as_str(),
    });
    fingerprint(profile.as_u64(), labels)
}

/// One host's delivery machine.
#[derive(Debug)]
pub(crate) struct Delivery {
    /// When true (the default), frozen binary deliveries are pre-filtered
    /// by the zero-materialisation attribute probe and only decoded when
    /// some profile could match. Semantics-preserving either way; off
    /// exists for A/B measurement (decode-always).
    pub(crate) probe: bool,
    /// The stateful-lifecycle / delivery-policy engine. `None` (the
    /// default) keeps the fire-and-forget paper behaviour byte for
    /// byte; when set, every matched notification runs through the
    /// dedup / throttle / digest pipeline and alert instances are
    /// tracked per fingerprint.
    pub(crate) alerts: Option<AlertEngine<Notification>>,
    /// The origin of the event being matched, rendered once per event
    /// for the policy gate: a fingerprint label and the digest key.
    origin_label: String,
    /// Decode errors and probe verdicts on the delivery path since the
    /// driver last drained [`counts_mut`](Self::counts_mut).
    counts: Counts,
}

impl Delivery {
    pub(crate) fn new() -> Self {
        let (origin_label, counts) = (String::new(), Counts::default());
        Delivery { probe: true, alerts: None, origin_label, counts }
    }

    /// The machine after a crash (DESIGN.md §4): the probe setting and
    /// the policies are kept, the engine is rebuilt empty — instances,
    /// throttle buckets and digest buffers lost — and the alert states a
    /// durable store `recovered` are restored into it.
    pub(crate) fn crashed(self, recovered: BTreeMap<u64, (u8, u64)>) -> Self {
        let Delivery { probe, alerts, origin_label: _, counts: _ } = self;
        let alerts = alerts.map(|engine| {
            let mut engine = AlertEngine::new(engine.config().clone());
            for (fp, (tag, at_micros)) in recovered {
                // Fail closed on unknown state bytes: a corrupt tag
                // must not forge a lifecycle state.
                if let Some(state) = AlertState::from_tag(tag) {
                    engine.restore(fp, state, SimTime::from_micros(at_micros));
                }
            }
            engine
        });
        Delivery { probe, alerts, ..Delivery::new() }
    }

    /// The fingerprint the policy engine would assign `n` (`None` while
    /// policies are off).
    pub(crate) fn fingerprint(&self, n: &Notification) -> Option<u64> {
        let engine = self.alerts.as_ref()?;
        let origin = n.event.origin.to_string();
        Some(fingerprint_of(engine.config(), n.profile, &origin, &n.event))
    }

    /// The delivery path's counts, with the state store's `stored` and the
    /// alert engine's merged in.
    pub(crate) fn counts_mut(&mut self, stored: &mut Counts) -> &mut Counts {
        self.counts.merge(stored);
        if let Some(engine) = self.alerts.as_mut() {
            self.counts.merge(engine.counts_mut());
        }
        &mut self.counts
    }

    /// Applies a lifecycle `change` to the engine, journaling the
    /// transition. Returns `true` when the state changed.
    pub(crate) fn change(
        &mut self,
        store: &mut dyn StateStore,
        change: impl FnOnce(&mut AlertEngine<Notification>) -> bool,
    ) -> bool {
        let changed = self.alerts.as_mut().is_some_and(change);
        if changed {
            self.persist_alert_transitions(store);
        }
        changed
    }

    /// Journals every lifecycle transition the engine recorded since
    /// the last drain (a no-op store ignores them).
    fn persist_alert_transitions(&mut self, store: &mut dyn StateStore) {
        if let Some(engine) = self.alerts.as_mut() {
            for t in engine.take_transitions() {
                store.record_alert(t.fingerprint, t.state.tag(), t.at.as_micros());
            }
        }
    }

    /// Decodes what crossed the wire; what does not decode is counted and
    /// dropped.
    pub(crate) fn decode(&mut self, payload: &Payload) -> Option<Event> {
        let decoded = payload.decode_event();
        if decoded.is_err() {
            self.counts.add(CounterId::CORE_DECODE_ERROR, 1);
        }
        decoded.ok()
    }

    /// Matches one event against the local profiles and delivers what
    /// is admitted. Without a policy engine every match is admitted, the
    /// paper's fire-and-forget behaviour; with one the engine decides per
    /// notification: suppressed and throttled ones are dropped
    /// everywhere, digested ones wait in the engine for the flush in
    /// [`on_tick`](Self::on_tick).
    pub(crate) fn notify(
        &mut self,
        subs: &mut SubscriptionManager,
        store: &mut dyn StateStore,
        event: &Arc<Event>,
        now: SimTime,
        effects: &mut CoreEffects,
    ) {
        let (alerts, origin) = (&mut self.alerts, &mut self.origin_label);
        if alerts.is_some() {
            origin.clear();
            let _ = write!(origin, "{}", event.origin);
        }
        // An admitted match is built straight into its mailbox; one the
        // engine digests is built into the digest buffer instead, and one
        // it drops is never built.
        effects.notified += subs.deliver_matches(event, now, |profile, build| {
            alerts.as_mut().is_none_or(|engine| {
                let fp = fingerprint_of(engine.config(), profile, origin, event);
                engine.observe_with(fp, origin, build, now) == Outcome::Deliver
            })
        });
        self.persist_alert_transitions(store);
    }

    /// The one delivery routine: every item of a frame — the message
    /// itself, or the messages of a wire batch in arrival order — goes
    /// through accept → probe → decode → [`notify`](Self::notify), so a
    /// batch produces exactly the notifications, mailboxes and counters
    /// its items would have produced as frames of their own.
    pub(crate) fn receive(
        &mut self,
        msg: &GdsMessage,
        gds: &mut GdsClient,
        subs: &mut SubscriptionManager,
        store: &mut dyn StateStore,
        now: SimTime,
        effects: &mut CoreEffects,
    ) {
        let items = match msg {
            GdsMessage::Batch(items) => &items[..],
            one => std::slice::from_ref(one),
        };
        for msg in items {
            if let GdsMessage::ResolveResponse { token, result, .. } = msg {
                effects.resolved.push((*token, result.clone()));
                continue;
            }
            let Some((_origin, payload)) = gds.accept(msg) else {
                continue;
            };
            // Pre-filter: the attribute probe scans the frozen binary
            // encoding in place. `false` is a proof that no stored
            // profile matches, so the common non-matching delivery costs
            // read-only index probes — no Event, no XML tree. XML
            // payloads and probe errors fall through to decode-always.
            if self.probe {
                if let Some(mut probe) = payload.probe_event() {
                    if !subs.could_match_probe(&mut probe) {
                        self.counts.add(CounterId::CORE_PROBE_SKIP, 1);
                        continue;
                    }
                    self.counts.add(CounterId::CORE_PROBE_PASS, 1);
                }
            }
            // Lazy decode: a frozen binary payload deserialises through
            // the native event codec here, at filter time.
            if let Some(event) = self.decode(&payload) {
                self.notify(subs, store, &Arc::new(event), now, effects);
            }
        }
    }

    /// Alert-lifecycle maintenance on the host's tick: stale-expire
    /// quiescent instances and release digest buffers that came due. The
    /// engine spaces flushes by its own interval regardless of the tick
    /// cadence.
    pub(crate) fn on_tick(
        &mut self,
        subs: &mut SubscriptionManager,
        store: &mut dyn StateStore,
        now: SimTime,
        effects: &mut CoreEffects,
    ) {
        let Some(engine) = self.alerts.as_mut() else {
            return;
        };
        for (_key, batch) in engine.on_tick(now).flushed {
            // Admitted when they were digested: only the delivery half
            // is left to do.
            effects.notified += batch.len();
            for n in batch {
                subs.queue_notification(n);
            }
        }
        self.persist_alert_transitions(store);
    }
}
