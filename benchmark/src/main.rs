//! The rebuild → mailbox benchmark of the distributed alerting service.
//!
//! ```text
//! gsa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gsa-benchmark run   [--all | --only <name>] [--seed <n>] [--seconds <s>] [--check]
//! gsa-benchmark trace [--all | --only <name>] [--seed <n>] [--seconds <s>]
//! gsa-benchmark aa    [--sets <n>] [--only <name>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form is the driver's contract: one workload, and the last
//! line of standard output is the result object. `run` and `trace` are
//! the same with a default seed and size and `--all`; `aa` runs the
//! same code twice and holds the difference against each metric's own
//! bound. See `README.md`.

mod driver;
mod gen;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::Json;
use metrics::{json_number, Better, Metric, END_TO_END, PER_LAYER, SIMULATED};
use run::{measure, Outcome, Size};
use std::process::ExitCode;
use workloads::{Workload, REFERENCE_SECONDS, WORKLOADS};

/// The frozen default seed of `run`, `trace` and `aa`.
const DEFAULT_SEED: u64 = 2005;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Debug, PartialEq, Eq)]
enum Mode {
    Measure,
    Check,
    Aa,
}

struct Options {
    mode: Mode,
    workloads: Vec<&'static Workload>,
    size: Size,
    traced: bool,
    sets: usize,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut mode = Mode::Measure;
    let mut traced = false;
    let mut all = false;
    let mut only = None;
    let mut size = Size {
        seed: DEFAULT_SEED,
        seconds: REFERENCE_SECONDS,
        population_div: 1,
        max_reps: usize::MAX,
    };
    let mut sets = 2;
    let mut it = args.iter();
    let number = |flag: &str, value: Option<&String>| -> Result<u64, String> {
        value
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} takes a whole number"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "run" => {}
            "trace" => traced = true,
            "aa" => mode = Mode::Aa,
            "--check" => mode = Mode::Check,
            "--all" => all = true,
            "--workload" | "--only" => {
                let name = it
                    .next()
                    .ok_or_else(|| format!("{arg} takes a workload name"))?;
                only = Some(
                    workloads::by_name(name)
                        .ok_or_else(|| format!("no workload named {name:?}"))?,
                );
            }
            "--seed" => size.seed = number(arg, it.next())?,
            "--seconds" => size.seconds = number(arg, it.next())?.max(1),
            "--trace" => traced = number(arg, it.next())? != 0,
            "--sets" => sets = number(arg, it.next())?.max(2) as usize,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workloads: Vec<&'static Workload> = match only {
        Some(w) => vec![w],
        None if all || mode != Mode::Measure => WORKLOADS.iter().collect(),
        None => return Err("name a workload with --workload, or pass --all".to_string()),
    };
    Ok(Options {
        mode,
        workloads,
        size,
        traced,
        sets,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gsa-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match options.mode {
        Mode::Measure => run_all(&options),
        Mode::Check => check(&options),
        Mode::Aa => aa(&options),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gsa-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn table(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Prints every metric of one run by name with its unit, then the
/// result object on a line of its own.
fn print(outcome: &Outcome, size: Size, traced: bool) {
    println!(
        "workload {}  seed {}  workload_digest {:016x}  {} repetitions of {} events",
        outcome.workload.name, size.seed, outcome.digest, outcome.reps, outcome.events
    );
    for m in table(traced) {
        let v = outcome
            .values
            .get(m.name)
            .unwrap_or_else(|| panic!("{} was not measured", m.name));
        println!("  {:<32} {:>16.4} {}", m.name, v, m.unit);
    }
    println!(
        "  checked deliveries {} ({} direct, {} re-issued)  attempted {}  failed {}  failed_share {}",
        outcome.checked,
        outcome.direct,
        outcome.rewritten,
        outcome.attempted,
        outcome.failed,
        json_number(outcome.failed as f64 / outcome.attempted as f64),
    );
    let rates: Vec<String> = outcome.rates.iter().map(|r| format!("{r:.1}")).collect();
    println!("  events/s by repetition: {}", rates.join(", "));
    if let Some(bad) = &outcome.first_bad {
        println!("  first failure: {bad}");
    }
    if let Some(noisy) = &outcome.noisy {
        println!("  {noisy}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0 && outcome.checked > 0,
        outcome.attempted,
        outcome.failed,
        outcome.values.to_json(table(traced)),
    );
}

fn run_all(options: &Options) -> Result<(), String> {
    if let [w] = options.workloads[..] {
        let outcome = measure(w, options.size, options.traced)?;
        if let Some(spans) = &outcome.trace_json {
            let path = format!("{OUT_DIR}/trace-{}.json", w.name);
            std::fs::create_dir_all(OUT_DIR)
                .and_then(|()| std::fs::write(&path, spans))
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        print(&outcome, options.size, options.traced);
        return Ok(());
    }
    for w in &options.workloads {
        print!("{}", in_own_process(w, options.size, options.traced)?);
    }
    Ok(())
}

/// Runs one workload as the driver does, in a process of its own, and
/// returns what it printed. `peak_rss_mib` is a high-water mark of the
/// whole process, so two workloads measured in one process would share it.
fn in_own_process(w: &Workload, size: Size, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &size.seed.to_string()])
        .args(["--seconds", &size.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("starting a run of {}: {e}", w.name))?;
    if output.status.success() {
        String::from_utf8(output.stdout).map_err(|e| e.to_string())
    } else {
        Err(format!(
            "{}: {}",
            w.name,
            String::from_utf8_lossy(&output.stderr).trim()
        ))
    }
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(m: &Metric, first: f64, second: f64) -> f64 {
    match m.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs the same code `sets` times, one process per workload, and holds
/// each set against the one before it by each metric's own bound.
fn aa(options: &Options) -> Result<(), String> {
    let mut sets: Vec<Vec<Json>> = Vec::new();
    for _ in 0..options.sets {
        let mut set = Vec::new();
        for w in &options.workloads {
            let printed = in_own_process(w, options.size, false)?;
            let result = printed
                .lines()
                .last()
                .ok_or_else(|| format!("{}: no result line", w.name))?;
            set.push(Json::parse(result).map_err(|e| format!("{}: result line: {e}", w.name))?);
        }
        sets.push(set);
    }
    let mut failures = 0;
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for pair in sets.windows(2) {
        for ((a, b), w) in pair[0].iter().zip(&pair[1]).zip(&options.workloads) {
            let number = |result: &Json, path: &[&str]| -> Result<f64, String> {
                path.iter()
                    .try_fold(result, |at, key| at.get(key))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: result line lacks {}", w.name, path.join(".")))
            };
            for m in &END_TO_END {
                let (x, y) = (
                    number(a, &["metrics", m.name, "value"])?,
                    number(b, &["metrics", m.name, "value"])?,
                );
                let worse = worsening(m, x, y);
                let bound = m.bound.expect("end-to-end metrics have bounds");
                let pass = if SIMULATED.contains(&m.name) {
                    x == y
                } else {
                    worse <= bound
                };
                failures += usize::from(!pass);
                println!(
                    "{:<18} {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {}",
                    w.name,
                    m.name,
                    x,
                    y,
                    worse * 100.0,
                    bound * 100.0,
                    if pass { "pass" } else { "FAIL" }
                );
            }
            let (x, y) = (number(a, &["failed"])?, number(b, &["failed"])?);
            let pass = x == 0.0 && y == 0.0;
            failures += usize::from(!pass);
            println!(
                "{:<18} {:<20} {:>14} {:>14} {:>9} {:>7}  {}",
                w.name,
                "failed",
                x,
                y,
                "",
                "0",
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    if failures == 0 {
        Ok(())
    } else {
        Err(format!("{failures} comparisons outside their bound"))
    }
}

/// The smoke check: every workload at 1/50 of its populations and a
/// fifth of its events, untraced and traced, asserting correctness,
/// non-vacuity, and that what is printed is what `BENCHMARK.json` names.
fn check(options: &Options) -> Result<(), String> {
    let manifest = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("reading {BENCHMARK_JSON}: {e}"))?;
    let manifest = Json::parse(&manifest).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    check_manifest(&manifest)?;

    let size = Size {
        seconds: 2,
        population_div: 50,
        max_reps: 2,
        ..options.size
    };
    for w in &options.workloads {
        for traced in [false, true] {
            let outcome = measure(w, size, traced)?;
            print(&outcome, size, traced);
            let fail = |what: &str| {
                Err(format!(
                    "{} ({}): {what}",
                    w.name,
                    if traced { "traced" } else { "untraced" }
                ))
            };
            if outcome.failed != 0 {
                return fail(&format!(
                    "{} of {} operations failed",
                    outcome.failed, outcome.attempted
                ));
            }
            if outcome.checked == 0 {
                return fail("no notification was expected, the check is vacuous");
            }
            if w.link_drop > 0.0 && outcome.retransmits == 0 {
                return fail("links drop messages but nothing was retransmitted");
            }
            if w.churn && outcome.pruned_edges == 0 {
                return fail("pruning is on but no edge was pruned");
            }
            if w.publishers().len() == 2 && (outcome.direct == 0 || outcome.rewritten == 0) {
                return fail("expected both direct and re-issued deliveries");
            }
            // The result object carries exactly the manifest's metrics.
            let printed =
                Json::parse(&outcome.values.to_json(table(traced))).expect("own output parses");
            let section = if traced { "per_layer" } else { "end_to_end" };
            let named: Vec<&str> = names(&manifest, section);
            if printed.keys() != named {
                return fail(&format!(
                    "printed metrics differ from BENCHMARK.json's {section}"
                ));
            }
        }
    }
    println!(
        "check passed: {} workloads, untraced and traced",
        options.workloads.len()
    );
    Ok(())
}

fn names<'a>(manifest: &'a Json, section: &str) -> Vec<&'a str> {
    manifest
        .get(section)
        .map_or(&[][..], Json::as_array)
        .iter()
        .filter_map(|entry| entry.get("name").and_then(Json::as_str))
        .collect()
}

/// `BENCHMARK.json` against the tables in `metrics.rs` and `workloads.rs`.
fn check_manifest(manifest: &Json) -> Result<(), String> {
    let field = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let listed: Vec<(String, String)> = manifest
        .get("workloads")
        .map_or(&[][..], Json::as_array)
        .iter()
        .map(|e| (field(e, "name"), field(e, "why")))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    if listed != ours {
        return Err("BENCHMARK.json: workloads differ from workloads.rs".to_string());
    }
    for (section, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = manifest.get(section).map_or(&[][..], Json::as_array);
        if entries.len() != table.len() {
            return Err(format!(
                "BENCHMARK.json: {section} has {} metrics, metrics.rs {}",
                entries.len(),
                table.len()
            ));
        }
        for (entry, m) in entries.iter().zip(table) {
            let same = field(entry, "name") == m.name
                && field(entry, "unit") == m.unit
                && field(entry, "better") == m.better.as_str()
                && entry.get("bound").and_then(Json::as_f64) == m.bound;
            if !same {
                return Err(format!(
                    "BENCHMARK.json: {section} entry for {} differs from metrics.rs",
                    m.name
                ));
            }
        }
    }
    if manifest.get("run_seconds").and_then(Json::as_f64) != Some(REFERENCE_SECONDS as f64) {
        return Err("BENCHMARK.json: run_seconds differs from the calibrated size".to_string());
    }
    Ok(())
}
