//! The repository benchmark: four workloads, end-to-end metrics, and
//! per-layer numbers from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed 42] [--seconds 20] [--trace 0|1] \
//!     [--smoke] [--spans DIR]
//! ```
//!
//! One workload runs in one process: for `--seconds`, a timed set-up and
//! then a timed rep of the workload's unit of work, with tracing off.
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and the end-to-end `metrics`. With `--trace 1` the same
//! passes are followed by a traced pass plus one rep with a one-thread
//! pool, and `metrics` holds the per-layer numbers instead; the spans are
//! written to `<DIR>/spans-<workload>.json` (default DIR `target/benchmark`).
//! `--workload all` (the default) runs each workload in a child process,
//! so peak RSS and noise stay per workload. See `benchmark/README.md`.

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use trace::{lower_quartile, median, self_ms, top_level_ms, Span, Tracer};
use workloads::{Bench, Ctx, DagChaos, Fig6, RepMeasure, ScaleBatch, StreamWarm, Workload};

/// End-to-end metrics (name, unit): what an untraced run prints.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cloudlets_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit): what a traced run prints. Layers a
/// workload does not touch read 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("workload.gen_ms", "ms"),
    ("problem.build_ms", "ms"),
    ("eval.cache_build_ms", "ms"),
    ("eval.dense_etc_entries", "count"),
    ("sched.calls", "count"),
    ("sched.base_ms", "ms"),
    ("sched.aco_ms", "ms"),
    ("sched.hbo_ms", "ms"),
    ("sched.rbs_ms", "ms"),
    ("sched.racing_ms", "ms"),
    ("sched.lc_ms", "ms"),
    ("racing.units", "count"),
    ("racing.winner_units_frac", "ratio"),
    ("sim.sequential_ms", "ms"),
    ("sim.sharded_ms", "ms"),
    ("sim.sharded_1t_ms", "ms"),
    ("sim.events", "count"),
    ("sim.makespan_s", "sim_s"),
    ("sim.sharded_speedup", "ratio"),
    ("sim.thread_scaling", "ratio"),
    ("sim.ns_per_event.sequential", "ns"),
    ("sim.ns_per_event.sharded", "ns"),
    ("sim.dag_layered.sequential_ms", "ms"),
    ("sim.dag_layered.sharded_ms", "ms"),
    ("sim.dag_layered.sharded_1t_ms", "ms"),
    ("sim.dag_ensemble.sequential_ms", "ms"),
    ("sim.dag_ensemble.sharded_ms", "ms"),
    ("sim.dag_ensemble.sharded_1t_ms", "ms"),
    ("sim.chaos.sequential_ms", "ms"),
    ("sim.chaos.sharded_ms", "ms"),
    ("sim.chaos.sharded_1t_ms", "ms"),
    ("resched.calls", "count"),
    ("resched.replan_ms", "ms"),
    ("chaos.retries", "count"),
    ("chaos.abandoned", "count"),
    ("chaos.goodput", "ratio"),
    ("stream.rounds", "count"),
    ("stream.peak_backlog", "count"),
    ("stream.replan_p50_ms", "ms"),
    ("stream.replan_p99_ms", "ms"),
    ("stream.sched_call_p50_ms", "ms"),
    ("stream.sched_call_p99_ms", "ms"),
    ("stream.broker_p50_ms", "ms"),
    ("stream.broker_p99_ms", "ms"),
    ("stream.tail_ms", "ms"),
    ("stream.wait_p99_s", "sim_s"),
    ("report.render_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];

/// Reps per pass, at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

fn set_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("the vendored pool accepts repeated global builds");
}

/// Peak resident set of this process in kB (`VmHWM`), 0 where procfs
/// does not report it.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

struct Rep {
    wall_s: f64,
    m: RepMeasure,
    spans: Vec<Span>,
}

/// One pass: a timed set-up before each timed rep.
struct Pass {
    setup_s: Vec<f64>,
    setup_spans: Vec<Vec<Span>>,
    reps: Vec<Rep>,
    /// Peak RSS after the first set-up and rep, in MB: what running the
    /// workload once needs. Later reps only add allocator fragmentation.
    first_rep_rss_mb: f64,
    dense_etc_entries: u64,
    /// A traced pass ends with one more rep on a one-thread pool.
    one_thread: Option<Rep>,
}

fn one_rep<B: Bench>(bench: &B, ctx: &mut Ctx) -> Rep {
    let mark = ctx.tracer.mark();
    ctx.m = RepMeasure::default();
    let t = Instant::now();
    bench.rep(ctx);
    let wall_s = t.elapsed().as_secs_f64();
    Rep {
        wall_s,
        m: std::mem::take(&mut ctx.m),
        spans: ctx.tracer.since(mark),
    }
}

/// Runs a pass for `opts.seconds`. Each rep gets a fresh set-up, so the
/// set-up samples spread over the pass like the reps do, and the host's
/// slow and fast spells weigh on both alike.
fn pass<B: Bench>(opts: &Opts, tracer: Tracer) -> Pass {
    let mut setup_s = Vec::new();
    let mut setup_spans = Vec::new();
    let mut reps = Vec::new();
    let mut ctx = Ctx::new(tracer.clone(), opts.seed);
    let mut bench = None;
    let mut first_rep_rss_mb = 0.0;
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < opts.seconds {
        drop(bench.take());
        let mark = tracer.mark();
        let t = Instant::now();
        let fresh = B::setup(opts.seed, opts.smoke, &tracer);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_spans.push(tracer.since(mark));
        reps.push(one_rep(&fresh, &mut ctx));
        bench = Some(fresh);
        if reps.len() == 1 {
            first_rep_rss_mb = peak_rss_kb() as f64 / 1024.0;
        }
    }
    let bench = bench.expect("MIN_REPS > 0");
    let one_thread = tracer.is_on().then(|| {
        set_threads(1);
        let rep = one_rep(&bench, &mut ctx);
        set_threads(opts.threads);
        rep
    });
    Pass {
        setup_s,
        setup_spans,
        reps,
        first_rep_rss_mb,
        dense_etc_entries: bench.dense_etc_entries(),
        one_thread,
    }
}

/// Per-layer values of one rep (or one set-up): the workload's own
/// numbers plus self time per span name.
fn layer_values(own: &BTreeMap<&str, f64>, spans: &[Span]) -> BTreeMap<String, f64> {
    let mut v: BTreeMap<String, f64> = own.iter().map(|(k, x)| (k.to_string(), *x)).collect();
    let mut add = |name: String, x: f64| *v.entry(name).or_insert(0.0) += x;
    for (name, ms) in self_ms(spans) {
        if let Some((sub, engine)) = name.strip_prefix("sim.").and_then(|r| r.rsplit_once('.')) {
            add(format!("sim.{engine}_ms"), ms);
            add(format!("sim.{sub}.{engine}_ms"), ms);
        } else {
            add(format!("{name}_ms"), ms);
        }
    }
    let count = |prefix: &str| spans.iter().filter(|s| s.name.starts_with(prefix)).count();
    add("sched.calls".into(), count("sched.") as f64);
    add("resched.calls".into(), count("resched.") as f64);
    v
}

/// Median of each name over `maps` (a map missing a name reads 0).
fn medians(maps: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut names: Vec<&String> = maps.iter().flat_map(|m| m.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let vals: Vec<f64> = maps
                .iter()
                .map(|m| m.get(n).copied().unwrap_or(0.0))
                .collect();
            (n.clone(), median(&vals))
        })
        .collect()
}

/// The run's verdict and its metrics.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// How one workload run is configured.
struct Opts {
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Pool size for everything but the one-thread rep.
    threads: usize,
}

/// Measures one workload: an untraced pass for the end-to-end metrics
/// and, with `opts.trace`, a traced pass for the per-layer ones. Returns
/// the outcome and, when traced, the tracer holding every span.
fn measure<B: Bench>(opts: &Opts) -> (Outcome, Option<Tracer>) {
    set_threads(opts.threads);
    let plain = pass::<B>(opts, Tracer::off());
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let reference = plain.reps[0].m.digest.clone();
    let mut tally = |label: &str, reps: &mut dyn Iterator<Item = &Rep>| {
        for rep in reps {
            attempted += rep.m.ops;
            failures.extend(rep.m.failures.iter().cloned());
            if rep.m.digest != reference {
                failures.push(format!("{label} rep diverged from the first rep"));
            }
        }
    };
    tally("untraced", &mut plain.reps.iter());
    // Host noise only ever adds time, so the rep wall is read at the lower
    // quartile: across runs it spreads less than the median does.
    let plain_wall = lower_quartile(&plain.reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    eprintln!(
        "untraced: {} set-ups, {} reps, lower-quartile rep wall {plain_wall:.4} s",
        plain.setup_s.len(),
        plain.reps.len(),
    );

    let (metrics, tracer) = if opts.trace {
        let tracer = Tracer::on();
        let traced = pass::<B>(opts, tracer.clone());
        tally("traced", &mut traced.reps.iter().chain(&traced.one_thread));
        (per_layer(plain_wall, &traced), Some(tracer))
    } else {
        let values = [
            median(&plain.setup_s),
            plain.reps[0].m.cloudlets as f64 / plain_wall,
            plain.first_rep_rss_mb,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        (metrics, None)
    };
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let failed = (failures.len() as u64).min(attempted);
    let outcome = Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
    };
    (outcome, tracer)
}

fn per_layer(plain_wall: f64, traced: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let setup_maps: Vec<_> = traced
        .setup_spans
        .iter()
        .map(|s| layer_values(&BTreeMap::new(), s))
        .collect();
    let rep_maps: Vec<_> = traced
        .reps
        .iter()
        .map(|r| layer_values(&r.m.layer, &r.spans))
        .collect();
    let mut v = medians(&setup_maps);
    v.extend(medians(&rep_maps));
    if let Some(one) = &traced.one_thread {
        for (name, ms) in layer_values(&one.m.layer, &one.spans) {
            if let Some(prefix) = name.strip_suffix("sharded_ms") {
                v.insert(format!("{prefix}sharded_1t_ms"), ms);
            }
        }
    }
    let get = |v: &BTreeMap<String, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let events = get(&v, "sim.events");
    let traced_wall =
        |f: fn(&Rep) -> f64| lower_quartile(&traced.reps.iter().map(f).collect::<Vec<_>>());
    let derived = [
        (
            "sim.sharded_speedup",
            ratio(get(&v, "sim.sequential_ms"), get(&v, "sim.sharded_ms")),
        ),
        (
            "sim.thread_scaling",
            ratio(get(&v, "sim.sharded_1t_ms"), get(&v, "sim.sharded_ms")),
        ),
        (
            "sim.ns_per_event.sequential",
            ratio(get(&v, "sim.sequential_ms") * 1e6, events),
        ),
        (
            "sim.ns_per_event.sharded",
            ratio(get(&v, "sim.sharded_ms") * 1e6, events),
        ),
        ("eval.dense_etc_entries", traced.dense_etc_entries as f64),
        (
            "trace.overhead_frac",
            traced_wall(|r| r.wall_s) / plain_wall - 1.0,
        ),
        (
            "trace.coverage_frac",
            traced_wall(|r| top_level_ms(&r.spans) / 1e3) / plain_wall,
        ),
    ];
    for (name, x) in derived {
        v.insert(name.to_string(), x);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, get(&v, name), unit))
        .collect()
}

fn dispatch(w: Workload, opts: &Opts) -> (Outcome, Option<Tracer>) {
    match w {
        Workload::Fig6Hetero => measure::<Fig6>(opts),
        Workload::ScaleBatch => measure::<ScaleBatch>(opts),
        Workload::DagChaos => measure::<DagChaos>(opts),
        Workload::StreamWarm => measure::<StreamWarm>(opts),
    }
}

struct Args {
    workload: Option<Workload>,
    opts: Opts,
    spans_dir: String,
    raw: Vec<String>,
}

const USAGE: &str = "usage: biosched-benchmark [--workload fig6-hetero|scale-batch|dag-chaos|\
stream-warm|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--spans DIR]";

fn parse_args(raw: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: Opts {
            seed: 42,
            seconds: 20.0,
            trace: false,
            smoke: false,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
        spans_dir: "target/benchmark".into(),
        raw: raw.clone(),
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => args.opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                args.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--spans" => args.spans_dir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The value after `"key": ` in a flat JSON object line.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest.split([',', '}']).next()
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut lines = Vec::new();
    for w in Workload::ALL {
        eprintln!("== {}", w.name());
        let out = Command::new(&exe)
            .args(&args.raw)
            .args(["--workload", w.name()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let line = out
            .as_ref()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .map(String::from)
            });
        let Some(line) = line else {
            eprintln!("error: workload {} failed: {out:?}", w.name());
            correct = false;
            continue;
        };
        let num = |k| json_field(&line, k).and_then(|v| v.parse::<u64>().ok());
        correct &= json_field(&line, "correct") == Some("true");
        attempted += num("attempted").unwrap_or(0);
        failed += num("failed").unwrap_or(0);
        lines.push(format!("\"{}\": {line}", w.name()));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"workloads\": {{{}}}}}",
        lines.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let (outcome, tracer) = dispatch(workload, &args.opts);
    for (name, value, unit) in &outcome.metrics {
        eprintln!(
            "{:>32}  {value:>16.6}  {unit}",
            format!("{}.{name}", workload.name())
        );
    }
    if let Some(tracer) = tracer {
        let path = format!("{}/spans-{}.json", args.spans_dir, workload.name());
        let written = std::fs::create_dir_all(&args.spans_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(workload.name())));
        if let Err(e) = written {
            eprintln!("warning: spans not written to {path}: {e}");
        }
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True for a metric name the benchmark contract accepts.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// True for a unit the benchmark contract accepts.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_follow_the_grammar() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        for bad in ["", ".lead", "has space", "slash/name", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be refused");
        }
        assert!(valid_name("replay_s.sharded") && valid_name("9-lives_x.y"));
        assert!(!valid_unit("sim s") && !valid_unit(""));
    }

    /// Names in the `"name": "..."` entries of one BENCHMARK.json section.
    fn listed(section: &str) -> Vec<&str> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let doc = include_str!("../../BENCHMARK.json");
        let e2e = &doc[doc.find("\"end_to_end\"").expect("end_to_end")..];
        let (e2e, layers) = e2e.split_at(e2e.find("\"per_layer\"").expect("per_layer"));
        let names = |list: &[(&'static str, &str)]| list.iter().map(|m| m.0).collect::<Vec<_>>();
        assert_eq!(listed(e2e), names(&END_TO_END));
        assert_eq!(listed(layers), names(&PER_LAYER));
        let workloads = &doc[doc.find("\"workloads\"").expect("workloads")..];
        let workloads = &workloads[..workloads.find(']').expect("end of workloads")];
        let wanted: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed(workloads), wanted);
    }

    #[test]
    fn args_are_checked_where_they_enter() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from).collect());
        let a = parse("--workload dag-chaos --seed 7 --seconds 2.5 --trace 1 --smoke").unwrap();
        assert_eq!(a.workload, Some(Workload::DagChaos));
        assert_eq!((a.opts.seed, a.opts.seconds), (7, 2.5));
        assert!(a.opts.trace && a.opts.smoke);
        assert!(parse("--workload all").unwrap().workload.is_none());
        for bad in [
            "--trace 2",
            "--seconds -1",
            "--seconds nan",
            "--workload nope",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad} must be refused");
        }
    }

    #[test]
    fn json_field_reads_flat_values() {
        let line = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {}}";
        assert_eq!(json_field(line, "correct"), Some("true"));
        assert_eq!(json_field(line, "attempted"), Some("12"));
        assert_eq!(json_field(line, "failed"), Some("0"));
        assert_eq!(json_field(line, "absent"), None);
    }

    /// The smoke tier: every workload, traced, with a multi-thread pool
    /// for the passes and one thread for the extra rep, must pass every
    /// in-run check (plans valid, cloudlets conserved, engines and thread
    /// counts bit-identical, traced equal to untraced) and report every
    /// per-layer metric.
    #[test]
    fn smoke_tier_passes_every_check() {
        let opts = Opts {
            seed: 42,
            seconds: 0.0,
            trace: true,
            smoke: true,
            threads: 4,
        };
        for w in Workload::ALL {
            let (outcome, tracer) = dispatch(w, &opts);
            assert!(outcome.correct, "{}", w.name());
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            assert_eq!(outcome.metrics.len(), PER_LAYER.len());
            assert!(tracer.expect("traced").mark() > 0);
            let get = |n: &str| outcome.metrics.iter().find(|m| m.0 == n).unwrap().1;
            assert!(get("sim.events") > 0.0 && get("workload.gen_ms") > 0.0);
            assert!(get("sim.sharded_1t_ms") > 0.0, "{}", w.name());
        }
    }
}
