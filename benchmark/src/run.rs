//! One run of one workload: generate, plan, repeat, guard, summarise.

use crate::driver::{run_rep, Noise, Plan, Rep, COUNTERS};
use crate::layers::per_layer;
use crate::metrics::Values;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workloads::{generate, Workload};

/// How much of a workload one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub seed: u64,
    /// Scales the frozen event counts; 10 is the calibrated size.
    pub seconds: u64,
    /// Divides the profile populations; 1 outside the smoke check.
    pub population_div: usize,
    /// Caps the workload's repetitions (the smoke check makes two). A
    /// traced run makes half as many pairs of one untraced and one
    /// traced repetition.
    pub max_reps: usize,
}

/// What one run found.
pub struct Outcome {
    pub workload: &'static Workload,
    pub digest: u64,
    pub events: usize,
    pub reps: usize,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run).
    pub values: Values,
    pub attempted: usize,
    pub failed: usize,
    /// The first wrong delivery of the first failing repetition.
    pub first_bad: Option<String>,
    pub checked: usize,
    pub direct: usize,
    pub rewritten: usize,
    pub retransmits: u64,
    pub pruned_edges: u64,
    /// Events per second of each untraced repetition, in run order.
    pub rates: Vec<f64>,
    /// Repetitions whose CPU/wall ratio fell below 0.9, and whether the
    /// repetitions' rates were more than 10 % apart.
    pub noisy: Option<String>,
    /// The spans of a traced run, as JSON.
    pub trace_json: Option<String>,
}

/// Runs `w` at `size`, untraced or traced.
///
/// # Errors
///
/// Returns the first difference when two repetitions of the same inputs
/// disagree on a delivery, a counter or a simulated quantity: those are
/// deterministic, and a difference means the run cannot be trusted.
pub fn measure(w: &'static Workload, size: Size, traced: bool) -> Result<Outcome, String> {
    let events = w.events_for(size.seconds);
    let reps = w.reps.min(size.max_reps);
    let inputs = generate(w, size.seed, events, size.population_div);
    let digest = inputs.digest;
    let plan = Plan::new(w, inputs);

    let mut tracer = Tracer::new(traced);
    let mut off = Tracer::new(false);
    let mut plain: Vec<Rep> = Vec::new();
    let mut spanned: Vec<Rep> = Vec::new();
    if traced {
        tracer.enter("workload", 0);
        for _ in 0..reps.div_ceil(2) {
            plain.push(run_rep(&plan, &mut off));
            spanned.push(run_rep(&plan, &mut tracer));
        }
    } else {
        for _ in 0..reps {
            plain.push(run_rep(&plan, &mut off));
        }
    }

    let first = &plain[0];
    for (i, rep) in plain.iter().chain(&spanned).enumerate().skip(1) {
        if let Some(diff) = first_difference(first, rep) {
            return Err(format!(
                "{}: repetition {i} differs from repetition 0: {diff}",
                w.name
            ));
        }
    }

    let values = if traced {
        let v = per_layer(&plan, &plain, &spanned, &mut tracer);
        tracer.exit();
        v
    } else {
        end_to_end(&plain)
    };

    let all = || plain.iter().chain(&spanned);
    let Noise {
        rates,
        starved,
        spread,
    } = Noise::of(&plain);
    let noisy = (starved > 0 || spread > 0.1).then(|| {
        format!(
            "noisy: {starved} of {} repetitions below 0.9 CPU/wall, rates {:.1} % apart",
            plain.len(),
            spread * 100.0
        )
    });
    Ok(Outcome {
        workload: w,
        digest,
        events,
        reps: plain.len() + spanned.len(),
        values,
        attempted: all().map(Rep::attempted).sum(),
        failed: all().map(Rep::failed).sum(),
        first_bad: all()
            .find_map(|r| r.verdict.first_bad)
            .map(|(client, event, what)| format!("client {client}, event {event}: {what}")),
        checked: first.verdict.expected,
        direct: first.verdict.direct,
        rewritten: first.verdict.rewritten,
        retransmits: first.counter("net.retransmits"),
        pruned_edges: first.counter("gds.pruned_edges"),
        rates,
        noisy,
        trace_json: traced.then(|| tracer.to_json(w.name)),
    })
}

/// The determinism guard: what must repeat bit for bit from one seed.
fn first_difference(a: &Rep, b: &Rep) -> Option<String> {
    if let Some((x, y)) = a.deliveries.iter().zip(&b.deliveries).find(|(x, y)| x != y) {
        return Some(format!(
            "delivery (client {}, event {}, at {} us) against (client {}, event {}, at {} us)",
            x.client, x.event, x.at_us, y.client, y.event, y.at_us
        ));
    }
    if a.deliveries.len() != b.deliveries.len() {
        return Some(format!(
            "{} deliveries against {}",
            a.deliveries.len(),
            b.deliveries.len()
        ));
    }
    if a.steps != b.steps {
        return Some(format!("{} simulator steps against {}", a.steps, b.steps));
    }
    COUNTERS
        .iter()
        .zip(a.counters.iter().zip(&b.counters))
        .find(|(_, (x, y))| x != y)
        .map(|(name, (x, y))| format!("counter {name}: {x} against {y}"))
}

fn end_to_end(reps: &[Rep]) -> Values {
    let over = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let first = &reps[0];
    let events = first.events as f64;
    let mut v = Values::default();
    v.set("setup_s", over(&|r| r.setup_s));
    v.set("events_per_s", over(&|r| r.events as f64 / r.wall_s));
    v.set(
        "cpu_us_per_event",
        over(&|r| r.cpu_s * 1e6 / r.events as f64),
    );
    // No checked delivery at all fails the run (`correct` is false).
    let latency_ms = |q| {
        if first.latencies_us.is_empty() {
            0.0
        } else {
            quantile(&first.latencies_us, q) / 1e3
        }
    };
    v.set("sim_latency_ms_p50", latency_ms(0.5));
    v.set("sim_latency_ms_p99", latency_ms(0.99));
    v.set("msgs_per_event", first.counter("net.sent") as f64 / events);
    v.set(
        "bytes_per_event",
        first.counter("net.bytes_sent") as f64 / events,
    );
    v.set(
        "peak_rss_mib",
        reps.last().expect("at least one repetition").peak_rss_mib,
    );
    v
}
