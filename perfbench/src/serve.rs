//! `serve_mixed`: a `qld_server` over a `SharedEngine` with no WAL, driven
//! by one `Client` connection through a seeded script.
//!
//! About 90% of the lines are queries drawn from a fixed pool: positive
//! queries that Theorem 13 certifies onto the §5 path, negation and
//! universal queries that escalate to Theorem 1, and repeats of both that
//! the answer cache serves. The rest are writes, in bursts: `:insert`,
//! half of them into `P2`, which no pooled query mentions, and a few
//! `:assert-ne`. With one connection every reply's epoch, and so the work
//! behind it, is fixed by the seed.

use crate::mirror::Mirror;
use crate::{mean_us, EndToEnd, Outcome, Rng, Run, Tracer};
use qld_core::textio::from_text;
use qld_engine::{Engine, Semantics, SharedEngine};
use qld_logic::parser::parse_query;
use qld_logic::{PredId, Query, Vocabulary};
use qld_server::script::parse_line;
use qld_server::{Client, Server, ServerConfig};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The query pool: text, whether it is positive (certified onto the §5
/// path), and how many times it appears in each 36-query segment. No
/// query mentions `P2`. Every constant of the database has an outgoing
/// `P0` fact and `P1` is never empty, so each non-positive query has a
/// certain answer and its Theorem 1 search visits every image: the cost
/// of a miss is fixed by the shape of the database, not by luck.
const POOL: [(&str, bool, usize); 8] = [
    ("(x) . exists y. P0(x, y) & P1(y)", true, 8),
    ("(x, y) . P0(x, y) | P0(y, x)", true, 6),
    ("(x) . P1(x)", true, 5),
    ("exists x. P0(x, x)", true, 3),
    ("(x) . !P1(x) | exists y. P0(x, y)", false, 5),
    ("(x) . P1(x) | !P0(k0, x)", false, 4),
    ("forall x. P1(x) -> exists y. P0(x, y)", false, 3),
    (
        "(x, y) . P0(x, y) & (!P1(x) | exists z. P0(y, z))",
        false,
        2,
    ),
];

/// `P2` is the predicate no pooled query mentions.
const PREDS: [(&str, usize); 3] = [("P0", 2), ("P1", 1), ("P2", 3)];
const P2: usize = 2;

struct Sizes {
    /// Script segments per round; each is 36 queries then 4 writes.
    segments: usize,
    /// Every this many Theorem 1 misses (from a seeded offset) the
    /// independent checker recomputes the reply.
    checked_every: usize,
}

fn sizes(run: &Run) -> Sizes {
    if run.smoke {
        Sizes {
            segments: 3,
            checked_every: 1,
        }
    } else {
        Sizes {
            segments: 40,
            checked_every: 4,
        }
    }
}

enum Line {
    Query(usize),
    Insert(usize, Vec<u32>),
    AssertNe(u32, u32),
}

struct Script {
    base: Mirror,
    lines: Vec<Line>,
}

const KNOWN: usize = 4;
const UNKNOWN: usize = 4;
/// One write burst in this many carries an `:assert-ne`. Few enough that
/// the database never becomes fully specified and Theorem 1 stays in
/// play.
const NE_EVERY: usize = 8;

fn script(run: &Run) -> Script {
    let mut rng = Rng::new(run.seed, 11);
    let n = KNOWN + UNKNOWN;
    let mut base = Mirror::new(KNOWN, UNKNOWN, &PREDS);
    let random_fact = |rng: &mut Rng, p: usize| -> Vec<u32> {
        (0..PREDS[p].1).map(|_| rng.below(n) as u32).collect()
    };
    for c in 0..n as u32 {
        base.insert(0, &[c, rng.below(n) as u32]);
    }
    for (p, count) in [(0, 2), (1, 3), (P2, 6)] {
        for _ in 0..count {
            let args = random_fact(&mut rng, p);
            base.insert(p, &args);
        }
    }
    base.epoch = 0;

    let segment: Vec<usize> = POOL
        .iter()
        .enumerate()
        .flat_map(|(q, (_, _, times))| std::iter::repeat_n(q, *times))
        .collect();
    let mut ne = base.clone();
    let mut lines = Vec::new();
    for s in 0..sizes(run).segments {
        let mut queries = segment.clone();
        for i in (1..queries.len()).rev() {
            queries.swap(i, rng.below(i + 1));
        }
        lines.extend(queries.into_iter().map(Line::Query));
        // Two inserts into P2, one into P0 or P1, and one more into P0 —
        // or, in every NE_EVERY-th segment, an `:assert-ne` between two
        // unknown constants not yet declared distinct.
        lines.push(Line::Insert(P2, random_fact(&mut rng, P2)));
        let p = if rng.chance(50) { 0 } else { 1 };
        lines.push(Line::Insert(p, random_fact(&mut rng, p)));
        lines.push(Line::Insert(P2, random_fact(&mut rng, P2)));
        if s % NE_EVERY == NE_EVERY - 1 {
            loop {
                let a = (KNOWN + rng.below(UNKNOWN)) as u32;
                let b = (KNOWN + rng.below(UNKNOWN)) as u32;
                if a != b && ne.assert_ne(a, b) {
                    lines.push(Line::AssertNe(a, b));
                    break;
                }
            }
        } else {
            lines.push(Line::Insert(0, random_fact(&mut rng, 0)));
        }
    }
    Script { base, lines }
}

/// What one reply established in the first round.
#[derive(PartialEq, Eq)]
struct Seen {
    answers: BTreeSet<String>,
    epoch: Option<u64>,
    cached: bool,
}

/// Counts from one pass over the script.
#[derive(Default)]
struct Pass {
    reads: u64,
    hits: u64,
    wasted: u64,
}

/// One pass of the script over a fresh server: set-up, the timed
/// requests, and the checks of every reply. `first` is filled on the
/// first pass and compared against afterwards.
fn pass(
    run: &Run,
    script: &Script,
    pool: &[Query],
    first: &mut Vec<Seen>,
    out: &mut Outcome,
    e2e: &mut EndToEnd,
    tracer: &mut Tracer,
) -> Pass {
    let sizes = sizes(run);
    let checked_offset = Rng::new(run.seed, 12).below(sizes.checked_every);

    // Set-up is loading the database, building the engine and starting
    // the server. The client's connect is left out: the server's accept
    // loop polls, so it adds a wait of up to one poll tick that has
    // nothing to do with the work being set up.
    let setup = Instant::now();
    let running = tracer.span("setup", || {
        let db = from_text(&script.base.text()).expect("generated database parses");
        let engine = Engine::builder(db)
            .semantics(Semantics::Auto)
            .parallelism(1)
            .build();
        let server = Server::bind(SharedEngine::new(engine), ServerConfig::default())
            .expect("server binds on loopback");
        server.spawn().expect("server starts")
    });
    e2e.round().setup = setup.elapsed().as_secs_f64();
    let mut client = Client::connect(running.addr()).expect("client connects");

    let mut mirror = script.base.clone();
    // Per pooled query: answered before, and touched by a changing commit
    // since its last answer.
    let mut answered = vec![false; POOL.len()];
    let mut touched = vec![false; POOL.len()];
    let mut stats = Pass::default();
    let mut misses = 0usize;
    let record = first.is_empty();

    for (i, line) in script.lines.iter().enumerate() {
        let text = match line {
            Line::Query(q) => POOL[*q].0.to_string(),
            Line::Insert(p, args) => mirror.insert_line(*p, args),
            Line::AssertNe(a, b) => mirror.ne_line(*a, *b),
        };
        let start = Instant::now();
        let reply = tracer.span("request", || client.request(&text));
        let took = start.elapsed();
        e2e.current().all.push(took);

        let kind = match line {
            Line::Query(_) => "query",
            Line::Insert(..) => "insert",
            Line::AssertNe(..) => "assert-ne",
        };
        let reply = match reply {
            Ok(reply) if reply.is_ok() => reply,
            other => {
                out.ops.record(kind, false);
                eprintln!("line {i} `{text}` failed: {other:?}");
                continue;
            }
        };
        out.ops.record(kind, true);
        let cached = reply
            .evidence
            .as_deref()
            .is_some_and(|e| e.contains("(cached)"));
        match line {
            Line::Query(q) => {
                e2e.current().op.push(took);
                stats.reads += 1;
                stats.hits += u64::from(cached);
                if !cached && answered[*q] && !touched[*q] {
                    stats.wasted += 1;
                }
                answered[*q] = true;
                touched[*q] = false;
                if record {
                    let (_, positive, _) = POOL[*q];
                    let boolean = pool[*q].is_boolean();
                    let got: BTreeSet<String> = reply.answers.iter().cloned().collect();
                    if positive {
                        let want =
                            mirror.render(&mirror.checker().distinct_world(&pool[*q]), boolean);
                        out.check(got == want, || {
                            format!("line {i} `{text}`: got {got:?}, the mirror gives {want:?}")
                        });
                    } else if !cached {
                        if misses % sizes.checked_every == checked_offset {
                            let want = mirror.render(&mirror.checker().certain(&pool[*q]), boolean);
                            out.check(got == want, || {
                                format!(
                                    "line {i} `{text}`: got {got:?}, the checker gives {want:?}"
                                )
                            });
                        }
                        misses += 1;
                    }
                }
            }
            Line::Insert(p, args) => {
                e2e.current().secondary.push(took);
                if mirror.insert(*p, args) {
                    let pred = PredId(*p as u32);
                    for (q, query) in pool.iter().enumerate() {
                        touched[q] |= query.body().preds().contains(&pred);
                    }
                }
            }
            Line::AssertNe(a, b) => {
                e2e.current().secondary.push(took);
                if mirror.assert_ne(*a, *b) {
                    // Uniqueness axioms change the answers of the
                    // non-positive queries only.
                    for (q, (_, positive, _)) in POOL.iter().enumerate() {
                        touched[q] |= !positive;
                    }
                }
            }
        }
        out.check(reply.epoch == Some(mirror.epoch), || {
            format!(
                "line {i} `{text}`: epoch {:?}, expected {}",
                reply.epoch, mirror.epoch
            )
        });
        let seen = Seen {
            answers: reply.answers.into_iter().collect(),
            epoch: reply.epoch,
            cached,
        };
        if record {
            first.push(seen);
        } else {
            out.check(first.get(i) == Some(&seen), || {
                format!("line {i} `{text}`: reply differs from the first pass")
            });
        }
    }
    e2e.current().rss_mib = crate::rss_peak_mib();
    let _ = client.quit();
    if let Err(e) = running.shutdown() {
        out.check(false, || format!("server shutdown: {e}"));
    }
    stats
}

fn parse_pool(voc: &Vocabulary) -> Vec<Query> {
    POOL.iter()
        .map(|(text, _, _)| parse_query(voc, text).expect("pooled query parses"))
        .collect()
}

pub fn run(run: &Run, tracer: &mut Tracer) -> Outcome {
    let script = script(run);
    let base = from_text(&script.base.text()).expect("generated database parses");
    let pool = parse_pool(base.voc());
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let mut first = Vec::new();
    run.rounds(|_| {
        pass(run, &script, &pool, &mut first, &mut out, &mut e2e, tracer);
        e2e.current().all.iter().sum()
    });
    out.end_to_end(e2e);
    out
}

pub fn probe(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let script = script(run);
    let base = from_text(&script.base.text()).expect("generated database parses");
    let voc = base.voc().clone();
    let pool = parse_pool(&voc);

    // One pass over the wire for the cache figures.
    let mut e2e = EndToEnd::default();
    let pass = pass(
        run,
        &script,
        &pool,
        &mut Vec::new(),
        &mut out,
        &mut e2e,
        &mut Tracer::new(false),
    );

    let mirror = script.base.clone();
    let texts: Vec<String> = script
        .lines
        .iter()
        .map(|line| match line {
            Line::Query(q) => POOL[*q].0.to_string(),
            Line::Insert(p, args) => mirror.insert_line(*p, args),
            Line::AssertNe(a, b) => mirror.ne_line(*a, *b),
        })
        .collect();
    let script_parse_us = mean_us(texts.len(), |i| {
        std::hint::black_box(parse_line(&voc, &texts[i]).ok());
    });

    let engine = Engine::builder(base)
        .semantics(Semantics::Auto)
        .parallelism(1)
        .build();
    let queries: Vec<&Query> = script
        .lines
        .iter()
        .filter_map(|line| match line {
            Line::Query(q) => Some(&pool[*q]),
            _ => None,
        })
        .collect();
    let _ = engine.prepare(queries[0].clone());
    let prepare_us = mean_us(queries.len(), |i| {
        std::hint::black_box(engine.prepare(queries[i].clone()).ok());
    });

    let positive: Vec<&Query> = POOL
        .iter()
        .zip(&pool)
        .filter(|((_, positive, _), _)| *positive)
        .map(|(_, q)| q)
        .collect();
    const REPEAT: usize = 200;
    let approx_us = mean_us(positive.len() * REPEAT, |i| {
        std::hint::black_box(
            engine
                .approx_engine()
                .eval(positive[i % positive.len()])
                .ok(),
        );
    });

    // Hits and misses of the shared cache, in process.
    let shared = SharedEngine::new(engine.clone());
    let mut session = shared.session();
    let prepared: Vec<_> = pool
        .iter()
        .map(|q| session.prepare(q.clone()).expect("pooled query prepares"))
        .collect();
    let mut miss_total = Duration::ZERO;
    for _ in 0..5 {
        for p in &prepared {
            shared.invalidate_cache();
            let start = Instant::now();
            let answer = session.execute(p);
            miss_total += start.elapsed();
            out.ops.record("query", answer.is_ok());
        }
    }
    let miss_ms = miss_total.as_secs_f64() * 1e3 / (5 * prepared.len()) as f64;
    let hit_us = mean_us(prepared.len() * REPEAT, |i| {
        let answer = session.execute(&prepared[i % prepared.len()]);
        std::hint::black_box(answer.is_ok());
    });

    // The same hits over the wire.
    let server = Server::bind(shared, ServerConfig::default()).expect("server binds");
    let addr = server.local_addr().expect("bound address");
    let running = server.spawn().expect("server starts");
    let mut client = Client::connect(addr).expect("client connects");
    let request_us = mean_us(POOL.len() * REPEAT, |i| {
        let reply = client.request(POOL[i % POOL.len()].0);
        out.ops.record("query", reply.is_ok_and(|r| r.is_ok()));
    });
    let _ = client.quit();
    if let Err(e) = running.shutdown() {
        out.check(false, || format!("server shutdown: {e}"));
    }

    out.metric("server.script_parse_us", script_parse_us, "us");
    out.metric("engine.prepare_us", prepare_us, "us");
    out.metric("approx.eval_us", approx_us, "us");
    out.metric("engine.hit_us", hit_us, "us");
    out.metric("engine.miss_ms", miss_ms, "ms");
    out.metric(
        "engine.cache_hit_ratio",
        pass.hits as f64 / pass.reads as f64,
        "ratio",
    );
    out.metric("engine.wasted_recomputes", pass.wasted as f64, "count");
    out.metric("server.roundtrip_us", request_us - hit_us, "us");
    out
}
