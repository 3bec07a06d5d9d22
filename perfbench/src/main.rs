//! End-to-end and per-layer benchmark of the qld stack.
//!
//! ```text
//! perfbench --workload <theorem1|serve_mixed|ingest_durable> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! A run repeats whole rounds of one seeded, fixed stream of operations
//! until the timed work adds up to `--seconds`, checks every output, and
//! prints as its last line one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` the rounds also record spans and the
//! run then times each layer's public calls on the same seeded inputs of
//! all three workloads, and the metrics are the per-layer ones. `--smoke`
//! runs every workload and every layer probe once on tiny inputs, with
//! all checks, and prints no metrics. See `perfbench/README.md`.

mod checker;
mod ingest;
mod mirror;
mod serve;
mod theorem1;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// How one invocation runs.
pub struct Run {
    pub seed: u64,
    /// Timed work a run accumulates before it stops after a whole round.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and a single round (the smoke mode).
    pub smoke: bool,
    /// Where the durable workload keeps its log files.
    pub scratch: PathBuf,
}

impl Run {
    /// Runs `round` (which returns its timed work) until the timed work
    /// reaches `seconds` and at least `MIN_ROUNDS` rounds ran; one round
    /// in smoke mode. Returns the number of rounds.
    pub fn rounds(&self, mut round: impl FnMut(usize) -> Duration) -> usize {
        const MIN_ROUNDS: usize = 3;
        let mut timed = Duration::ZERO;
        let mut rounds = 0;
        loop {
            timed += round(rounds);
            rounds += 1;
            if self.smoke || (rounds >= MIN_ROUNDS && timed.as_secs_f64() >= self.seconds) {
                return rounds;
            }
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend on
/// the seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

/// Attempted and failed operations per kind.
#[derive(Default)]
pub struct Ops(Vec<(&'static str, u64, u64)>);

impl Ops {
    fn entry(&mut self, kind: &'static str) -> &mut (&'static str, u64, u64) {
        let i = match self.0.iter().position(|e| e.0 == kind) {
            Some(i) => i,
            None => {
                self.0.push((kind, 0, 0));
                self.0.len() - 1
            }
        };
        &mut self.0[i]
    }

    /// Counts one operation of `kind`, failed unless `ok`.
    pub fn record(&mut self, kind: &'static str, ok: bool) {
        let e = self.entry(kind);
        e.1 += 1;
        if !ok {
            e.2 += 1;
        }
    }

    fn merge(&mut self, other: Ops) {
        for (kind, attempted, failed) in other.0 {
            let e = self.entry(kind);
            e.1 += attempted;
            e.2 += failed;
        }
    }

    fn attempted(&self) -> u64 {
        self.0.iter().map(|e| e.1).sum()
    }

    fn failed(&self) -> u64 {
        self.0.iter().map(|e| e.2).sum()
    }

    fn render(&self) -> String {
        let mut s = String::new();
        for (kind, attempted, failed) in &self.0 {
            let _ = write!(s, " {kind} attempted={attempted} failed={failed};");
        }
        s
    }
}

/// What a workload or a probe family hands back.
#[derive(Default)]
pub struct Outcome {
    pub ops: Ops,
    /// Failed checks, each a one-line description.
    pub problems: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Records a failed check unless `ok`; keeps the first few messages.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            if self.problems.len() < 20 {
                self.problems.push(what());
            } else if self.problems.len() == 20 {
                self.problems
                    .push("… further failed checks not shown".to_string());
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The end-to-end metrics every workload reports. Every round runs
    /// the same operations in the same order, so each operation's time is
    /// taken as the fastest of its repeats across rounds; throughput and
    /// percentiles are computed over those per-operation times. Time the
    /// shared host takes away (a descheduled core, a late wake-up, a slow
    /// flush) only ever adds to a repeat, so the fastest repeat is the
    /// one that holds the least of it, while a change in the program
    /// moves every repeat, the fastest too.
    pub fn end_to_end(&mut self, e2e: EndToEnd) {
        let per_op = |series: fn(&Round) -> &Vec<Duration>| -> Vec<Duration> {
            let len = e2e
                .rounds
                .iter()
                .map(|r| series(r).len())
                .min()
                .unwrap_or(0);
            (0..len)
                .map(|i| {
                    e2e.rounds
                        .iter()
                        .map(|r| series(r)[i])
                        .min()
                        .expect("at least one round")
                })
                .collect()
        };
        let (all, op, secondary) = (
            per_op(|r| &r.all),
            per_op(|r| &r.op),
            per_op(|r| &r.secondary),
        );
        let setups: Vec<f64> = e2e.rounds.iter().map(|r| r.setup).collect();
        self.metric("setup_s", median(&setups), "s");
        let rss = e2e.rounds.first().map_or(f64::NAN, |r| r.rss_mib);
        self.metric("rss_peak_mib", rss, "MiB");
        self.metric(
            "ops_per_s",
            all.len() as f64 / all.iter().sum::<Duration>().as_secs_f64(),
            "1/s",
        );
        self.metric("op_ms_p50", percentile_ms(&op, 0.50), "ms");
        self.metric("op_ms_p99", percentile_ms(&op, 0.99), "ms");
        // A mean, not a median: serve_mixed's writes are duplicate inserts
        // (no commit) and changing commits in shares that differ by seed,
        // and half of them go to one predicate, so their median falls on
        // the boundary between two cost classes and jumps with the seed.
        let secondary_ms =
            secondary.iter().sum::<Duration>().as_secs_f64() * 1e3 / secondary.len() as f64;
        self.metric("secondary_ms_mean", secondary_ms, "ms");
    }
}

/// The samples of one round, in the order its operations ran.
#[derive(Default)]
pub struct Round {
    /// Set-up time, in seconds.
    pub setup: f64,
    /// Peak resident memory of the process when the round's timed work
    /// ended. Only the first round's is reported: later rounds add the
    /// benchmark's own samples to the process, not the program's memory.
    pub rss_mib: f64,
    /// Latency of every operation in the throughput figure.
    pub all: Vec<Duration>,
    /// Latency of the workload's primary operation.
    pub op: Vec<Duration>,
    /// Latency of its secondary operation.
    pub secondary: Vec<Duration>,
}

/// The raw samples behind the end-to-end metrics.
#[derive(Default)]
pub struct EndToEnd {
    pub rounds: Vec<Round>,
}

impl EndToEnd {
    /// Starts the next round's samples and returns them.
    pub fn round(&mut self) -> &mut Round {
        self.rounds.push(Round::default());
        self.current()
    }

    pub fn current(&mut self) -> &mut Round {
        self.rounds.last_mut().expect("a round was started")
    }
}

/// Spans recorded around each operation of a traced round, kept in
/// memory and summarised when the run ends.
pub struct Tracer {
    on: bool,
    spans: Vec<(&'static str, Instant, Instant)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.push((name, start, Instant::now()));
        out
    }

    /// `name count=… total_ms=…` per span name, in first-seen order.
    pub fn summary(&self) -> String {
        let mut totals: Vec<(&str, u64, Duration)> = Vec::new();
        for (name, start, end) in &self.spans {
            match totals.iter_mut().find(|t| t.0 == *name) {
                Some(t) => {
                    t.1 += 1;
                    t.2 += *end - *start;
                }
                None => totals.push((name, 1, *end - *start)),
            }
        }
        totals
            .iter()
            .map(|(n, c, d)| format!("{n} count={c} total_ms={:.3}", d.as_secs_f64() * 1e3))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `samples`, in milliseconds.
pub fn percentile_ms(samples: &[Duration], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1].as_secs_f64() * 1e3
}

/// Mean time per call of `f`, run `calls` times, in microseconds.
pub fn mean_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        f(i);
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <theorem1|serve_mixed|ingest_durable> --seed <n> \
         --seconds <s> --trace <0|1>\n       perfbench --smoke"
    );
    ExitCode::from(2)
}

const WORKLOADS: [&str; 3] = ["theorem1", "serve_mixed", "ingest_durable"];

fn run_workload(name: &str, run: &Run) -> Outcome {
    let mut tracer = Tracer::new(run.trace);
    let out = match name {
        "theorem1" => theorem1::run(run, &mut tracer),
        "serve_mixed" => serve::run(run, &mut tracer),
        "ingest_durable" => ingest::run(run, &mut tracer),
        _ => unreachable!("workload names are checked before the run"),
    };
    if run.trace {
        eprintln!("spans: {}", tracer.summary());
    }
    out
}

/// Every per-layer metric: each workload's layer probes on its own
/// seeded inputs.
fn probe_layers(run: &Run) -> Outcome {
    let mut all = Outcome::default();
    for probe in [theorem1::probe, serve::probe, ingest::probe] {
        let out = probe(run);
        all.ops.merge(out.ops);
        all.problems.extend(out.problems);
        all.metrics.extend(out.metrics);
    }
    all
}

fn json(out: &Outcome, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        out.problems.is_empty(),
        out.ops.attempted(),
        out.ops.failed()
    )
}

fn report_problems(out: &Outcome) {
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
}

/// The run's scratch directory: inside the working directory (the
/// benchmark reads and writes nothing outside it), unique per process.
fn scratch_dir() -> PathBuf {
    Path::new(".bench_scratch").join(format!("run-{}", std::process::id()))
}

fn smoke(scratch: PathBuf) -> ExitCode {
    let mut ok = true;
    for (i, name) in WORKLOADS.iter().enumerate() {
        let run = Run {
            seed: 1 + i as u64,
            seconds: 0.0,
            trace: false,
            smoke: true,
            scratch: scratch.clone(),
        };
        let out = run_workload(name, &run);
        report_problems(&out);
        ok &= out.problems.is_empty() && out.ops.failed() == 0;
        println!("smoke {name}:{}", out.ops.render());
    }
    let run = Run {
        seed: 1,
        seconds: 0.0,
        trace: true,
        smoke: true,
        scratch,
    };
    let layers = probe_layers(&run);
    report_problems(&layers);
    ok &= layers.problems.is_empty() && layers.ops.failed() == 0;
    println!(
        "smoke layer probes: {} metrics;{}",
        layers.metrics.len(),
        layers.ops.render()
    );
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scratch = scratch_dir();
    if args == ["--smoke"] {
        let code = smoke(scratch.clone());
        let _ = std::fs::remove_dir_all(&scratch);
        return code;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let run = Run {
        seed,
        seconds,
        trace,
        smoke: false,
        scratch: scratch.clone(),
    };
    let mut out = run_workload(&workload, &run);
    println!("ops:{}", out.ops.render());
    let metrics = if trace {
        println!("traced end-to-end: {}", json(&out, &out.metrics));
        let layers = probe_layers(&run);
        out.ops.merge(layers.ops);
        out.problems.extend(layers.problems);
        layers.metrics
    } else {
        out.metrics.clone()
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_scratch");
    report_problems(&out);
    println!("{}", json(&out, &metrics));
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
