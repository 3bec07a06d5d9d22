//! `theorem1`: in-process library use, every answer a Theorem 1 search.
//!
//! A seeded stream of distinct (database, query) instances, each answered
//! once through `Engine::execute` under `Auto`. Every query has a negation
//! or a universal quantifier and no database is fully specified, so no
//! completeness theorem certifies the §5 path and each answer escalates to
//! the Theorem 1 search. Two database families alternate: *dense* ones,
//! whose every constant occurs in a fact, so the decomposition has nothing
//! to collapse, and *sparse* ones, with constants that occur nowhere, which
//! the decomposition collapses. There is no cache hit, socket, WAL or
//! publish on this path.

use crate::checker::{Answers, Checker};
use crate::{mean_us, EndToEnd, Outcome, Rng, Run, Tracer};
use qld_core::exact::{certain_answers_with, ExactOptions};
use qld_core::mappings::{analyze_decomposition, count_kernel_mappings, for_each_kernel_mapping};
use qld_core::textio::from_text;
use qld_core::CwDatabase;
use qld_engine::{Answers as EngineAnswers, Certificate, Engine, PreparedQuery, Regime, Semantics};
use qld_logic::parser::parse_query;
use qld_logic::Query;
use qld_physical::{eval_query, Relation};
use std::time::{Duration, Instant};

/// Queries over `P0/2` and `P1/1`; each escapes every completeness
/// theorem, and none names a constant a sparse database leaves free.
/// Every core constant has an outgoing `P0` fact and `P1` is never empty,
/// so the first six always have a certain answer and their search visits
/// every image; the last two almost always come out empty after a few
/// images. Instances take the queries in turn, so each seed has the same
/// mix of full and early-exit searches.
const QUERIES: [&str; 8] = [
    "(x) . !P1(x) | exists y. P0(x, y)",
    "(x) . P1(x) | !P0(k0, x)",
    "(x, y) . P0(x, y) & (!P1(x) | exists z. P0(y, z))",
    "forall x. P1(x) -> exists y. P0(x, y)",
    "(x) . P1(x) | forall y. P0(y, x) -> exists z. P0(x, z)",
    "exists x. P1(x) & !P0(x, x) | exists y. P0(x, y)",
    "exists x. P1(x) & !P0(x, x)",
    "(x) . forall y. P0(x, y) -> P1(y)",
];

struct Sizes {
    /// Instances per family in one round.
    per_family: usize,
    /// Every this many instances (from a seeded offset) the independent
    /// checker recomputes the answer.
    checked_every: usize,
}

fn sizes(run: &Run) -> Sizes {
    if run.smoke {
        Sizes {
            per_family: 6,
            checked_every: 2,
        }
    } else {
        Sizes {
            per_family: 400,
            checked_every: 10,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Family {
    Dense,
    Sparse,
}

struct Instance {
    family: Family,
    db_text: String,
    query: &'static str,
}

/// `.qld` text of a database with known constants `k0, k1` (distinct),
/// unknown `u0..`, and facts over the first `core` constants only.
fn db_text(rng: &mut Rng, consts: usize, core: usize, extra_unique: usize) -> String {
    let name = |i: usize| {
        if i < 2 {
            format!("k{i}")
        } else {
            format!("u{}", i - 2)
        }
    };
    let mut text = String::from("const");
    for i in 0..consts {
        text.push(' ');
        text.push_str(&name(i));
    }
    text.push_str("\npred P0/2 P1/1\nunique k0 k1\n");
    // Every core constant occurs in a fact, so none of them is free.
    for i in 0..core {
        let j = rng.below(core);
        text.push_str(&format!("fact P0({}, {})\n", name(i), name(j)));
    }
    for _ in 0..2 {
        let (i, j) = (rng.below(core), rng.below(core));
        text.push_str(&format!("fact P0({}, {})\n", name(i), name(j)));
    }
    for _ in 0..3 {
        text.push_str(&format!("fact P1({})\n", name(rng.below(core))));
    }
    for _ in 0..extra_unique {
        let i = 2 + rng.below(core - 2);
        let j = rng.below(i);
        text.push_str(&format!("unique {} {}\n", name(i), name(j)));
    }
    text
}

fn instances(run: &Run) -> Vec<Instance> {
    let sizes = sizes(run);
    let mut rng = Rng::new(run.seed, 1);
    let mut out = Vec::with_capacity(2 * sizes.per_family);
    for i in 0..sizes.per_family {
        for family in [Family::Dense, Family::Sparse] {
            let db_text = match family {
                Family::Dense => db_text(&mut rng, 8, 8, 1),
                Family::Sparse => db_text(&mut rng, 9, 6, 1),
            };
            let query = QUERIES[i % QUERIES.len()];
            out.push(Instance {
                family,
                db_text,
                query,
            });
        }
    }
    out
}

fn tuples(rel: &Relation) -> Answers {
    rel.iter().map(<[u32]>::to_vec).collect()
}

fn load(text: &str) -> CwDatabase {
    from_text(text).expect("generated database text parses")
}

fn engine(db: CwDatabase) -> Engine {
    Engine::builder(db)
        .semantics(Semantics::Auto)
        .parallelism(1)
        .build()
}

/// What the first round established for an instance; later rounds must
/// reproduce it exactly.
struct Expected {
    answers: Answers,
    images: u64,
}

pub fn run(run: &Run, tracer: &mut Tracer) -> Outcome {
    let instances = instances(run);
    let sizes = sizes(run);
    let checked_offset = Rng::new(run.seed, 2).below(sizes.checked_every);
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let mut expected: Vec<Expected> = Vec::new();

    run.rounds(|round| {
        e2e.round();
        let (mut setup, mut timed) = (Duration::ZERO, Duration::ZERO);
        for (i, inst) in instances.iter().enumerate() {
            // Each instance is loaded and built right before its answer,
            // as a caller of the library would; set-up is the sum of those
            // builds.
            let start = Instant::now();
            let engine = tracer.span("setup", || engine(load(&inst.db_text)));
            let built = Instant::now();
            let answer = tracer.span("answer", || {
                engine
                    .prepare_text(inst.query)
                    .and_then(|p| engine.execute(&p).map(|a| (p, a)))
            });
            let took = built.elapsed();
            setup += built - start;
            timed += took;
            let samples = e2e.current();
            samples.all.push(took);
            samples.op.push(took);
            if inst.family == Family::Sparse {
                samples.secondary.push(took);
            }

            out.ops.record("query", answer.is_ok());
            match answer {
                Ok((prepared, answer)) => {
                    let check = Check {
                        i,
                        round,
                        inst,
                        engine: &engine,
                        prepared: &prepared,
                        answer: &answer,
                        sampled: i % sizes.checked_every == checked_offset,
                    };
                    check.run(&mut out, &mut expected);
                }
                Err(e) => out.check(false, || format!("instance {i}: {e}")),
            }
        }
        let samples = e2e.current();
        samples.setup = setup.as_secs_f64();
        samples.rss_mib = crate::rss_peak_mib();
        timed
    });

    out.end_to_end(e2e);
    out
}

/// The checks of one answer. The first round establishes each instance's
/// answer against properties and the independent checker; later rounds
/// must reproduce it exactly.
struct Check<'a> {
    i: usize,
    round: usize,
    inst: &'a Instance,
    engine: &'a Engine,
    prepared: &'a PreparedQuery,
    answer: &'a EngineAnswers,
    /// Whether the independent checker recomputes this instance.
    sampled: bool,
}

impl Check<'_> {
    fn run(&self, out: &mut Outcome, expected: &mut Vec<Expected>) {
        let (i, inst, engine) = (self.i, self.inst, self.engine);
        let ev = self.answer.evidence();
        out.check(
            ev.regime == Regime::Theorem1 && ev.certificate == Certificate::ExactTheorem1,
            || {
                format!(
                    "instance {i} `{}`: answered by {} ({})",
                    inst.query, ev.regime, ev.certificate
                )
            },
        );
        let got = tuples(self.answer.tuples());
        if self.round > 0 {
            let want = &expected[i];
            out.check(
                want.answers == got && want.images == ev.mappings_evaluated,
                || format!("instance {i}: round {} differs from round 0", self.round),
            );
            return;
        }
        let db = engine.db();
        let kernels = count_kernel_mappings(db);
        out.check(ev.mappings_evaluated <= kernels, || {
            format!(
                "instance {i}: {} images visited of {kernels} kernel mappings",
                ev.mappings_evaluated
            )
        });
        let approx = engine.execute_as(self.prepared, Semantics::Approx);
        let possible = engine.execute_as(self.prepared, Semantics::Possible);
        let (Ok(approx), Ok(possible)) = (approx, possible) else {
            out.check(false, || format!("instance {i}: Approx or Possible failed"));
            return;
        };
        let (approx, possible) = (tuples(approx.tuples()), tuples(possible.tuples()));
        out.check(approx.is_subset(&got) && got.is_subset(&possible), || {
            format!("instance {i}: Approx ⊆ Exact ⊆ Possible fails")
        });
        if self.sampled {
            let checker = Checker::new(db);
            let query = self.prepared.query();
            let (certain, possibly) = (checker.certain(query), checker.possible(query));
            out.check(certain == got && possibly == possible, || {
                format!(
                    "instance {i} ({}): engine {got:?} / {possible:?}, \
                     checker {certain:?} / {possibly:?}",
                    inst.query
                )
            });
        }
        expected.push(Expected {
            answers: got,
            images: ev.mappings_evaluated,
        });
    }
}

/// Per-layer probes on this workload's instances: one pass of each public
/// call, timed from here.
pub fn probe(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let instances = instances(run);
    let dbs: Vec<CwDatabase> = instances.iter().map(|i| load(&i.db_text)).collect();
    let queries: Vec<Query> = instances
        .iter()
        .zip(&dbs)
        .map(|(i, db)| parse_query(db.voc(), i.query).expect("workload query parses"))
        .collect();
    let n = instances.len();

    let parse_us = mean_us(n, |i| {
        std::hint::black_box(parse_query(dbs[i].voc(), instances[i].query).ok());
    });
    let decompose_us = mean_us(n, |i| {
        std::hint::black_box(analyze_decomposition(&dbs[i]));
    });
    let mut enumerated = 0u64;
    let enumerate_ms = mean_us(n, |i| {
        for_each_kernel_mapping(&dbs[i], |_| {
            enumerated += 1;
            true
        });
    }) / 1e3;
    std::hint::black_box(enumerated);

    // Images and their evaluation, on up to 256 mappings per instance.
    let (mut image_total, mut eval_total, mut images) = (Duration::ZERO, Duration::ZERO, 0u64);
    for (db, query) in dbs.iter().zip(&queries) {
        let mut mappings = Vec::new();
        for_each_kernel_mapping(db, |h| {
            mappings.push(h.to_vec());
            mappings.len() < 256
        });
        let base = qld_core::ph::ph1(db);
        let mut image = base.clone();
        for h in &mappings {
            let start = Instant::now();
            image.assign_mapped_image(&base, h);
            let mid = Instant::now();
            std::hint::black_box(eval_query(&image, query));
            eval_total += mid.elapsed();
            image_total += mid - start;
        }
        images += mappings.len() as u64;
    }

    // The search itself, then the engine around it, on the same instances.
    let (mut exact_total, mut visited, mut kernels) = (Duration::ZERO, 0u64, 0u64);
    let mut overhead = Vec::with_capacity(n);
    for (i, (db, query)) in dbs.iter().zip(&queries).enumerate() {
        let start = Instant::now();
        let result = certain_answers_with(db, query, ExactOptions::sequential());
        let exact = start.elapsed();
        out.ops.record("query", result.is_ok());
        let Ok((_, stats)) = result else {
            out.check(false, || {
                format!("instance {i}: certain_answers_with failed")
            });
            continue;
        };
        exact_total += exact;
        visited += stats.mappings_evaluated;
        kernels += count_kernel_mappings(db);

        let engine = engine(db.clone());
        let start = Instant::now();
        let answer = engine
            .prepare(query.clone())
            .and_then(|p| engine.execute(&p));
        let full = start.elapsed();
        out.ops.record("query", answer.is_ok());
        overhead.push((full.as_secs_f64() - exact.as_secs_f64()) * 1e6);
    }

    out.metric("logic.parse_us", parse_us, "us");
    out.metric("core.decompose_us", decompose_us, "us");
    out.metric("core.enumerate_ms", enumerate_ms, "ms");
    out.metric(
        "physical.image_us",
        image_total.as_secs_f64() * 1e6 / images as f64,
        "us",
    );
    out.metric(
        "physical.eval_us",
        eval_total.as_secs_f64() * 1e6 / images as f64,
        "us",
    );
    out.metric(
        "core.exact_ms",
        exact_total.as_secs_f64() * 1e3 / n as f64,
        "ms",
    );
    out.metric("core.images_visited", visited as f64, "count");
    out.metric("core.visit_ratio", visited as f64 / kernels as f64, "ratio");
    out.metric(
        "core.images_per_s",
        visited as f64 / exact_total.as_secs_f64(),
        "1/s",
    );
    out.metric("engine.execute_overhead_us", crate::median(&overhead), "us");
    out
}
