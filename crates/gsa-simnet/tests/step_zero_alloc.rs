//! Acceptance test for the E7 zero-allocation event loop: after a
//! warm-up phase, the steady-state step loop — pop a delivery, run the
//! receiving actor (which probes and match-rejects a frozen binary
//! event, counts into a [`Counts`] and drains it, looks its peer up by
//! name through the context and replies), route the reply, record the
//! latency sample, service a recurring timer — performs no heap
//! allocation at all.
//!
//! Everything the loop touches is pre-sized or pooled: counters live in
//! fixed [`CounterId`] slots and the latency histogram in fixed buckets,
//! a drained [`Counts`] keeps its capacity, names resolve in the
//! simulator's own table, the one link config is read in place, command
//! buffers check out of the simulator's pool, the scheduling heap and its
//! payload slab reuse warmed capacity, and the filter probe walks frozen
//! bytes in place.
//!
//! Same counting-allocator harness as gsa-filter's `probe_zero_alloc`:
//! a wrapper around the system allocator counts allocations only inside
//! the measured window.

use gsa_filter::{FilterEngine, MatchScratch};
use gsa_profile::parse_profile;
use gsa_simnet::{Actor, CounterId, Ctx, LinkConfig, NodeId, Sim};
use gsa_types::{Counts, ProfileId, SimDuration, SimTime};
use gsa_wire::binary::payload_bytes_from_xml;
use gsa_wire::codec::event_to_xml;
use gsa_wire::EventProbe;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Serializes the tests: the tracking flag is process-global, so two
/// measured windows must never overlap.
static WINDOW: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// An alerting-server stand-in: every delivery is probed against an
/// indexed profile population that rejects it (the overwhelmingly
/// common case at scale), counted the way the product's state machines
/// count — into a [`Counts`] the actor drains after the message — and
/// bounced back to the sender, addressed by name as the product's
/// actors address their peers.
struct Server {
    engine: FilterEngine,
    scratch: MatchScratch,
    payload: Vec<u8>,
    counts: Counts,
    rejected: u64,
}

impl Actor<u32> for Server {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
        let mut probe = EventProbe::from_payload(&self.payload).unwrap().unwrap();
        if !self.engine.probe_matches(&mut probe, &mut self.scratch).unwrap() {
            self.rejected += 1;
            self.counts.add(CounterId::CORE_PROBE_SKIP, 1);
        }
        for (id, n) in self.counts.drain() {
            ctx.count_id(id, n);
        }
        let peer = ctx.resolve(ctx.name_of(from)).expect("the sender has a name");
        assert_eq!(peer, from);
        ctx.send(peer, msg.wrapping_add(1));
    }
}

/// Keeps the ping-pong going and exercises the timer machinery with a
/// recurring tick (moved on fire, so its queue slot recycles every
/// period without growing).
struct Pinger {
    server: NodeId,
    tick: SimDuration,
    next_tick: Option<SimTime>,
}

impl Actor<u32> for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.send(self.server, 0);
        self.next_tick = Some(ctx.now() + self.tick);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
        ctx.send(from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>) {
        self.next_tick = Some(ctx.now() + self.tick);
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.next_tick
    }
}

fn rejecting_engine() -> FilterEngine {
    // Indexed-equality profiles anchored to hosts the payload's event
    // never names: every probe rejects through the counting index, and
    // no scan-set profile can short-circuit to pass-through.
    let mut engine = FilterEngine::new();
    let mut id = 0u64;
    for host in ["Alexandria", "Pergamon", "Nineveh", "Uruk"] {
        for text in [
            format!(r#"host = "{host}""#),
            format!(r#"collection = "{host}.scrolls""#),
            format!(r#"host = "{host}" AND kind = "collection-rebuilt""#),
        ] {
            engine
                .insert(ProfileId::from_raw(id), &parse_profile(&text).unwrap())
                .unwrap();
            id += 1;
        }
    }
    engine
}

fn frozen_payload() -> Vec<u8> {
    let event = gsa_types::Event::new(
        gsa_types::EventId::new("Waikato", 7),
        gsa_types::CollectionId::new("Waikato", "demo"),
        gsa_types::EventKind::DocumentsAdded,
        SimTime::from_millis(7),
    )
    .with_docs(vec![
        gsa_types::DocSummary::new("doc-a"),
        gsa_types::DocSummary::new("doc-b"),
    ]);
    payload_bytes_from_xml(&event_to_xml(&event))
}

/// The measured loop: a server probing every delivery and a pinger
/// bouncing it back, over a jittered link with byte accounting on.
fn ping_pong_sim() -> Sim<u32> {
    let mut sim: Sim<u32> = Sim::new(97);
    // Fixed latency plus jitter: the route path draws from the RNG
    // every message, exactly like the scale scenarios.
    sim.set_default_link(
        LinkConfig::new(SimDuration::from_millis(1)).with_jitter(SimDuration::from_micros(200)),
    );
    // Exercise the byte counters too.
    sim.set_wire_size_fn(|_| 64);
    let server = NodeId::from_raw(0);
    sim.add_node(
        "server",
        Server {
            engine: rejecting_engine(),
            scratch: MatchScratch::new(),
            payload: frozen_payload(),
            counts: Counts::default(),
            rejected: 0,
        },
    );
    sim.add_node(
        "pinger",
        Pinger {
            server,
            tick: SimDuration::from_millis(5),
            next_tick: None,
        },
    );
    sim
}

#[test]
fn steady_state_step_loop_is_allocation_free_after_warmup() {
    let _window = WINDOW.lock().unwrap();
    let mut sim = ping_pong_sim();

    // Warm-up: grows the scheduling heap, the command pool, the match
    // scratch and the server's `Counts` to steady-state capacity.
    sim.run_for(SimDuration::from_secs(6));
    let warm_deliveries = sim.metrics().counter("net.delivered");
    assert!(warm_deliveries > 2_000, "warm-up too short: {warm_deliveries}");

    ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    let mut steps = 0u64;
    while sim.now() < SimTime::from_secs(7) && sim.step() {
        steps += 1;
    }
    TRACKING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert!(steps > 1_000, "measured window too short: {steps} steps");
    assert_eq!(
        allocs, 0,
        "steady-state step loop allocated {allocs} times across {steps} steps"
    );

    // The loop did what it claims: deliveries flowed, probes rejected,
    // counters landed in their slots.
    let delivered = sim.metrics().counter("net.delivered");
    assert!(delivered > warm_deliveries);
    assert_eq!(sim.metrics().counter("net.dropped"), 0);
    assert_eq!(
        sim.metrics().counter("core.probe_skip"),
        sim.metrics().counter_value(CounterId::CORE_PROBE_SKIP),
        "string and slot reads agree"
    );
    assert!(sim.metrics().counter("net.bytes_sent") >= delivered * 64);
}

#[test]
fn traced_step_loop_allocates_per_message() {
    // Negative control: the identical loop with the delivery trace on —
    // which formats a summary of every delivered message by design —
    // must allocate, proving the harness above really measures the hot
    // loop and not an idle sim.
    let _window = WINDOW.lock().unwrap();
    let mut sim = ping_pong_sim();
    sim.enable_trace();
    sim.run_for(SimDuration::from_secs(2));
    let warm_traced = sim.trace().len();

    ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    while sim.now() < SimTime::from_secs(3) && sim.step() {}
    TRACKING.store(false, Ordering::SeqCst);

    let traced = (sim.trace().len() - warm_traced) as u64;
    assert!(traced > 500, "measured window too short: {traced} deliveries");
    assert!(
        ALLOCS.load(Ordering::SeqCst) >= traced,
        "the trace is supposed to allocate per delivered message"
    );
}
