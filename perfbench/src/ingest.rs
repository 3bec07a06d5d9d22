//! `ingest_durable`: durable, replicated writes over the wire.
//!
//! One `Client` connection streams `:insert` lines, with an occasional
//! `:assert-ne`, to a primary whose `SharedEngine::durable` logs to real
//! files in the run's scratch directory: every record is written, a
//! checkpoint every 256 commits is written and synced, but records are
//! not synced one by one (see [`durability`]). The database
//! is a larger one with many unknown constants, and one `FollowerLink`
//! stays attached over loopback throughout. Afterwards the finished log
//! is recovered repeatedly with `SharedEngine::recover_with`. Every line
//! changes the database, so commit `k` publishes epoch `k`. There is no
//! Theorem 1 search here.

use crate::mirror::Mirror;
use crate::{mean_us, EndToEnd, Outcome, Rng, Run, Tracer};
use qld_core::textio::{from_text, to_text};
use qld_engine::{
    Delta, DiskStorage, DurabilityConfig, Engine, FsyncPolicy, Semantics, SharedEngine, WalConfig,
    WalRecord,
};
use qld_logic::{ConstId, PredId};
use qld_server::replication::FollowerLink;
use qld_server::{Client, RetryPolicy, Server, ServerConfig};
use qld_wal::Wal;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PREDS: [(&str, usize); 3] = [("P0", 2), ("P1", 1), ("P2", 2)];
const KNOWN: usize = 40;
const UNKNOWN: usize = 80;

struct Sizes {
    commits: usize,
    recoveries: usize,
}

fn sizes(run: &Run) -> Sizes {
    if run.smoke {
        Sizes {
            commits: 40,
            recoveries: 2,
        }
    } else {
        Sizes {
            commits: 1000,
            recoveries: 16,
        }
    }
}

enum Line {
    Insert(usize, Vec<u32>),
    AssertNe(u32, u32),
}

struct Stream {
    base: Mirror,
    lines: Vec<Line>,
    /// The database after every line.
    last: Mirror,
}

fn stream(run: &Run) -> Stream {
    let mut rng = Rng::new(run.seed, 21);
    let n = KNOWN + UNKNOWN;
    let mut base = Mirror::new(KNOWN, UNKNOWN, &PREDS);
    let random_fact = |rng: &mut Rng, p: usize| -> Vec<u32> {
        (0..PREDS[p].1).map(|_| rng.below(n) as u32).collect()
    };
    for (p, count) in [(0, 300), (1, 60), (2, 200)] {
        for _ in 0..count {
            let args = random_fact(&mut rng, p);
            base.insert(p, &args);
        }
    }
    base.epoch = 0;
    let mut last = base.clone();
    let mut lines = Vec::new();
    while lines.len() < sizes(run).commits {
        if rng.chance(3) {
            let a = (KNOWN + rng.below(UNKNOWN)) as u32;
            let b = rng.below(n) as u32;
            if a != b && last.assert_ne(a, b) {
                lines.push(Line::AssertNe(a, b));
            }
        } else {
            let p = rng.below(PREDS.len());
            let args = random_fact(&mut rng, p);
            if last.insert(p, &args) {
                lines.push(Line::Insert(p, args));
            }
        }
    }
    Stream { base, lines, last }
}

fn build(db: qld_core::CwDatabase) -> Engine {
    Engine::builder(db)
        .semantics(Semantics::Auto)
        .parallelism(1)
        .build()
}

/// The default WAL settings except the flush policy: `FsyncPolicy::Never`
/// in place of an fsync per record. On the shared virtual disk this was
/// built on, an fsync's latency follows other tenants' I/O for minutes at
/// a time: in one loaded stretch alternating 8 s runs read 3,350–4,140
/// commits/s with an fsync per record and 8,220–9,370 without, while a
/// quiet stretch gave 7,800 with it. A gate on figures that move twofold with the
/// neighbours cannot resolve a change in the program, so the commit
/// stream leaves the per-record flush out and `wal.sync_us` times it on
/// its own. Checkpoints are still synced.
fn durability() -> DurabilityConfig {
    DurabilityConfig {
        wal: WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::default()
        },
        ..DurabilityConfig::default()
    }
}

fn storage(dir: &Path) -> Box<DiskStorage> {
    Box::new(DiskStorage::open(dir).expect("scratch directory is writable"))
}

/// Polls `done` every 100 µs for up to 30 s; returns whether it held.
fn wait_for(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    true
}

/// Figures of one round that the layer probes report.
struct RoundFigures {
    replicated_per_s: f64,
    fsyncs: u64,
    bytes_appended: u64,
}

/// One round in `dir`: set-up, the timed stream, replication catch-up,
/// shutdown, then the repeated recoveries of the finished log.
fn round(
    run: &Run,
    stream: &Stream,
    dir: &Path,
    out: &mut Outcome,
    e2e: &mut EndToEnd,
    tracer: &mut Tracer,
) -> (Duration, RoundFigures) {
    let _ = std::fs::remove_dir_all(dir);
    let n = stream.base.consts.len();

    let setup = Instant::now();
    let (primary, running, follower, handle, mut client) = tracer.span("setup", || {
        let db = from_text(&stream.base.text()).expect("generated database parses");
        let primary = SharedEngine::durable(build(db), storage(dir), durability())
            .expect("a fresh log directory");
        let server = Server::bind(primary.clone(), ServerConfig::default()).expect("server binds");
        let addr = server.local_addr().expect("bound address");
        let running = server.spawn().expect("server starts");
        let placeholder = from_text("const bootstrap").expect("placeholder database");
        let follower = SharedEngine::new(build(placeholder));
        let retry = RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(40),
            jitter_seed: run.seed,
        };
        let handle = FollowerLink::new(
            follower.clone(),
            addr.to_string(),
            None,
            retry,
            Arc::new(build),
        )
        .spawn();
        let client = Client::connect(addr).expect("client connects");
        let bootstrapped = wait_for(|| follower.snapshot().engine().db().num_consts() == n);
        out.check(bootstrapped, || {
            "the follower never bootstrapped".to_string()
        });
        (primary, running, follower, handle, client)
    });
    e2e.round().setup = setup.elapsed().as_secs_f64();

    let mut mirror = stream.base.clone();
    let mut timed = Duration::ZERO;
    let first_commit = Instant::now();
    for (i, line) in stream.lines.iter().enumerate() {
        let (kind, text) = match line {
            Line::Insert(p, args) => ("insert", mirror.insert_line(*p, args)),
            Line::AssertNe(a, b) => ("assert-ne", mirror.ne_line(*a, *b)),
        };
        let start = Instant::now();
        let reply = tracer.span("commit", || client.request(&text));
        let took = start.elapsed();
        timed += took;
        e2e.current().all.push(took);
        e2e.current().op.push(took);
        match reply {
            Ok(reply) if reply.is_ok() => {
                out.ops.record(kind, true);
                match line {
                    Line::Insert(p, args) => mirror.insert(*p, args),
                    Line::AssertNe(a, b) => mirror.assert_ne(*a, *b),
                };
                out.check(reply.epoch == Some(mirror.epoch), || {
                    format!(
                        "line {i} `{text}`: epoch {:?}, expected {}",
                        reply.epoch, mirror.epoch
                    )
                });
            }
            other => {
                out.ops.record(kind, false);
                eprintln!("line {i} `{text}` failed: {other:?}");
            }
        }
    }
    e2e.current().rss_mib = crate::rss_peak_mib();
    let caught_up = tracer.span("catch-up", || wait_for(|| follower.epoch() >= mirror.epoch));
    let replicated = first_commit.elapsed();
    for _ in 0..mirror.epoch {
        out.ops.record("follower-apply", caught_up);
    }

    let primary_db = primary.snapshot();
    if let Err(e) = mirror.matches(primary_db.engine().db()) {
        out.check(false, || format!("primary database: {e}"));
    }
    let follower_text = to_text(follower.snapshot().engine().db());
    out.check(follower_text == to_text(primary_db.engine().db()), || {
        "the follower's database differs from the primary's".to_string()
    });
    out.check(follower.epoch() == mirror.epoch, || {
        format!(
            "follower at epoch {}, expected {}",
            follower.epoch(),
            mirror.epoch
        )
    });
    let wal = primary.wal_stats().expect("the primary is durable");
    let figures = RoundFigures {
        replicated_per_s: mirror.epoch as f64 / replicated.as_secs_f64(),
        fsyncs: wal.fsyncs,
        bytes_appended: wal.bytes_appended,
    };

    let _ = client.quit();
    handle.stop();
    if let Err(e) = running.shutdown() {
        out.check(false, || format!("server shutdown: {e}"));
    }
    drop((primary_db, primary));

    for k in 0..sizes(run).recoveries {
        let start = Instant::now();
        let recovered = tracer.span("recovery", || {
            SharedEngine::recover_with(storage(dir), durability(), build)
        });
        let took = start.elapsed();
        timed += took;
        e2e.current().secondary.push(took);
        out.ops.record("recovery", recovered.is_ok());
        match recovered {
            Ok((shared, report)) => {
                out.check(report.epoch == mirror.epoch, || {
                    format!(
                        "recovery {k}: epoch {}, expected {}",
                        report.epoch, mirror.epoch
                    )
                });
                if let Err(e) = mirror.matches(shared.snapshot().engine().db()) {
                    out.check(false, || format!("recovery {k}: {e}"));
                }
            }
            Err(e) => eprintln!("recovery {k} failed: {e}"),
        }
    }
    (timed, figures)
}

pub fn run(run: &Run, tracer: &mut Tracer) -> Outcome {
    let stream = stream(run);
    let dir = run.scratch.join("ingest");
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    run.rounds(|_| round(run, &stream, &dir, &mut out, &mut e2e, tracer).0);
    let _ = std::fs::remove_dir_all(&dir);
    out.end_to_end(e2e);
    out
}

fn record(line: &Line, epoch: u64) -> WalRecord {
    match line {
        Line::Insert(p, args) => WalRecord {
            epoch,
            facts: vec![(*p as u32, args.clone())],
            ne_pairs: Vec::new(),
        },
        Line::AssertNe(a, b) => WalRecord {
            epoch,
            facts: Vec::new(),
            ne_pairs: vec![(*a, *b)],
        },
    }
}

fn delta(line: &Line) -> Delta {
    match line {
        Line::Insert(p, args) => {
            let args: Vec<ConstId> = args.iter().map(|&c| ConstId(c)).collect();
            Delta::new().insert_fact(PredId(*p as u32), &args)
        }
        Line::AssertNe(a, b) => Delta::new().assert_ne(ConstId(*a), ConstId(*b)),
    }
}

pub fn probe(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let stream = stream(run);
    let dir = run.scratch.join("ingest-probe");
    let (_, figures) = round(
        run,
        &stream,
        &dir.join("round"),
        &mut out,
        &mut EndToEnd::default(),
        &mut Tracer::new(false),
    );
    let commits = stream.lines.len();
    let base = from_text(&stream.base.text()).expect("generated database parses");

    let mut solo = build(base.clone());
    let delta_us = mean_us(commits, |i| {
        let report = solo.apply(&delta(&stream.lines[i]));
        out.ops.record("apply", report.is_ok());
    });
    let shared = SharedEngine::new(build(base.clone()));
    let shared_us = mean_us(commits, |i| {
        let report = shared.apply(&delta(&stream.lines[i]));
        out.ops.record("apply", report.is_ok());
    });
    let follower = SharedEngine::new(build(base));
    follower.set_read_only(true);
    let records: Vec<WalRecord> = stream
        .lines
        .iter()
        .enumerate()
        .map(|(i, line)| record(line, i as u64 + 1))
        .collect();
    let replica_us = mean_us(commits, |i| {
        let applied = follower.apply_replica(&records[i]);
        out.ops.record("follower-apply", applied.is_ok());
    });

    // The log on its own: appends without a sync, then each sync.
    let config = WalConfig {
        fsync: FsyncPolicy::Never,
        ..WalConfig::default()
    };
    let (mut wal, _) = Wal::open(storage(&dir.join("wal")), config).expect("fresh log opens");
    let (mut append, mut sync) = (Duration::ZERO, Duration::ZERO);
    for r in &records {
        let start = Instant::now();
        let appended = wal.append(r);
        let mid = Instant::now();
        let synced = wal.sync();
        sync += mid.elapsed();
        append += mid - start;
        out.ops
            .record("wal-append", appended.is_ok() && synced.is_ok());
    }
    let last_db = from_text(&stream.last.text()).expect("final database parses");
    const CHECKPOINTS: usize = 8;
    let checkpoint_ms = mean_us(CHECKPOINTS, |i| {
        let payload = to_text(&last_db);
        let written = wal.checkpoint(commits as u64 + i as u64, 1, payload.as_bytes());
        out.ops.record("checkpoint", written.is_ok());
    }) / 1e3;
    drop(wal);

    // Opening and decoding the finished log of the round.
    let log = dir.join("round");
    const OPENS: usize = 16;
    let mut payload = Vec::new();
    let open_ms = mean_us(OPENS, |_| {
        let opened = Wal::open(storage(&log), WalConfig::default());
        out.ops.record("recovery", opened.is_ok());
        if let Ok((_, recovery)) = opened {
            payload = recovery.checkpoint.map(|c| c.payload).unwrap_or_default();
        }
    }) / 1e3;
    let text = String::from_utf8(payload).unwrap_or_default();
    let decode_ms = mean_us(OPENS, |_| {
        let db = from_text(&text);
        out.ops.record("recovery", db.is_ok());
        if let Ok(db) = db {
            std::hint::black_box(build(db));
        }
    }) / 1e3;
    let _ = std::fs::remove_dir_all(&dir);

    out.metric("engine.delta_us", delta_us, "us");
    out.metric("engine.publish_us", shared_us - delta_us, "us");
    out.metric(
        "wal.append_us",
        append.as_secs_f64() * 1e6 / commits as f64,
        "us",
    );
    out.metric(
        "wal.sync_us",
        sync.as_secs_f64() * 1e6 / commits as f64,
        "us",
    );
    out.metric("wal.checkpoint_ms", checkpoint_ms, "ms");
    out.metric(
        "wal.fsyncs_per_commit",
        figures.fsyncs as f64 / commits as f64,
        "ratio",
    );
    out.metric(
        "wal.bytes_per_commit",
        figures.bytes_appended as f64 / commits as f64,
        "B",
    );
    out.metric("replication.apply_us", replica_us, "us");
    out.metric("replication.commits_per_s", figures.replicated_per_s, "1/s");
    out.metric("wal.open_ms", open_ms, "ms");
    out.metric("recovery.decode_ms", decode_ms, "ms");
    out
}
