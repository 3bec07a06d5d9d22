//! An independent certain-answer checker.
//!
//! It reads a closed-world database through its plain accessors (constants,
//! facts, uniqueness axioms) and a query through its syntax tree, and
//! evaluates everything itself: no evaluation code of `qld_core`,
//! `qld_physical` or `qld_approx` runs here. Under the closed-world axioms
//! (domain closure, unique completion of every predicate) the models of a
//! database are, up to isomorphism, its *identifications*: partitions of
//! the constants in which no block holds two constants of a uniqueness
//! axiom. The domain is the set of blocks and each predicate holds exactly
//! the block images of its facts. A tuple of constants is a certain answer
//! when the query holds of its block image in every identification, and a
//! possible answer when it holds in at least one.
//!
//! The checker enumerates every identification, so it is exponential in
//! the number of constants; the workloads call it on small databases or on
//! a seeded sample of their instances.

use qld_core::CwDatabase;
use qld_logic::{Formula, Query, Term};
use std::collections::{BTreeSet, HashSet};

/// Answer tuples as constant indices; a Boolean query that holds is the
/// set holding the empty tuple.
pub type Answers = BTreeSet<Vec<u32>>;

/// One identification: `block[c]` is the block of constant `c`, blocks
/// are numbered `0..size`, and `rels[p]` holds the packed block tuples of
/// predicate `p`.
struct World {
    block: Vec<u32>,
    size: u32,
    rels: Vec<HashSet<u64>>,
}

/// Packs a tuple of block numbers (each below 1023) into one key.
fn pack(tuple: impl IntoIterator<Item = u32>) -> u64 {
    tuple
        .into_iter()
        .fold(0u64, |key, e| (key << 10) | (u64::from(e) + 1))
}

pub struct Checker {
    n: usize,
    ne: Vec<Vec<bool>>,
    facts: Vec<Vec<Vec<u32>>>,
}

impl Checker {
    pub fn new(db: &CwDatabase) -> Checker {
        let facts = db
            .voc()
            .preds()
            .map(|p| db.facts(p).iter().map(<[u32]>::to_vec).collect())
            .collect();
        Checker::from_parts(db.num_consts(), db.ne_pairs().iter().copied(), facts)
    }

    /// A checker over `n` constants, the uniqueness axioms `ne`, and the
    /// facts of each predicate (indexed by predicate id).
    pub fn from_parts(
        n: usize,
        ne: impl IntoIterator<Item = (u32, u32)>,
        facts: Vec<Vec<Vec<u32>>>,
    ) -> Checker {
        assert!(n < 1023, "the checker packs constants into 10-bit fields");
        let mut table = vec![vec![false; n]; n];
        for (a, b) in ne {
            table[a as usize][b as usize] = true;
            table[b as usize][a as usize] = true;
        }
        Checker {
            n,
            ne: table,
            facts,
        }
    }

    /// Certain answers: the tuples whose image satisfies `query` in every
    /// identification.
    pub fn certain(&self, query: &Query) -> Answers {
        let mut candidates = self.all_tuples(query.arity());
        self.for_each_world(|world| {
            candidates.retain(|t| self.holds(world, query, t));
            !candidates.is_empty()
        });
        candidates.into_iter().collect()
    }

    /// Possible answers: the tuples whose image satisfies `query` in at
    /// least one identification.
    pub fn possible(&self, query: &Query) -> Answers {
        let mut open = self.all_tuples(query.arity());
        let mut found = Answers::new();
        self.for_each_world(|world| {
            open.retain(|t| {
                let hit = self.holds(world, query, t);
                if hit {
                    found.insert(t.clone());
                }
                !hit
            });
            !open.is_empty()
        });
        found
    }

    /// The answers in the identification that keeps every constant apart.
    /// For a positive query these are its certain answers: a positive
    /// formula survives the surjective map onto any other identification.
    pub fn distinct_world(&self, query: &Query) -> Answers {
        let world = self.world((0..self.n as u32).collect());
        self.all_tuples(query.arity())
            .into_iter()
            .filter(|t| self.holds(&world, query, t))
            .collect()
    }

    /// Number of identifications (tests use it to pin the enumeration).
    #[cfg(test)]
    pub fn count_worlds(&self) -> u64 {
        let mut count = 0;
        self.for_each_world(|_| {
            count += 1;
            true
        });
        count
    }

    fn all_tuples(&self, arity: usize) -> Vec<Vec<u32>> {
        let mut tuples = vec![Vec::new()];
        for _ in 0..arity {
            tuples = tuples
                .into_iter()
                .flat_map(|t| {
                    (0..self.n as u32).map(move |c| {
                        let mut t = t.clone();
                        t.push(c);
                        t
                    })
                })
                .collect();
        }
        tuples
    }

    /// Visits every identification until `visit` returns `false`, by
    /// restricted-growth assignment of constants to blocks.
    fn for_each_world(&self, mut visit: impl FnMut(&World) -> bool) {
        let mut block = vec![0u32; self.n];
        self.assign(0, 0, &mut block, &mut visit);
    }

    fn assign(
        &self,
        c: usize,
        blocks: u32,
        block: &mut Vec<u32>,
        visit: &mut impl FnMut(&World) -> bool,
    ) -> bool {
        if c == self.n {
            return visit(&self.world(block.clone()));
        }
        for b in 0..=blocks {
            let clash = (0..c).any(|d| block[d] == b && self.ne[c][d]);
            if clash {
                continue;
            }
            block[c] = b;
            let next = if b == blocks { blocks + 1 } else { blocks };
            if !self.assign(c + 1, next, block, visit) {
                return false;
            }
        }
        true
    }

    fn world(&self, block: Vec<u32>) -> World {
        let size = block.iter().max().map_or(0, |m| m + 1);
        let rels = self
            .facts
            .iter()
            .map(|tuples| {
                tuples
                    .iter()
                    .map(|t| pack(t.iter().map(|&c| block[c as usize])))
                    .collect()
            })
            .collect();
        World { block, size, rels }
    }

    fn holds(&self, world: &World, query: &Query, tuple: &[u32]) -> bool {
        let body = query.body();
        let slots = body
            .max_var()
            .into_iter()
            .chain(query.head().iter().copied())
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0);
        let mut env = vec![u32::MAX; slots];
        for (v, &c) in query.head().iter().zip(tuple) {
            env[v.index()] = world.block[c as usize];
        }
        eval(world, body, &mut env)
    }
}

fn term(world: &World, t: &Term, env: &[u32]) -> u32 {
    match t {
        Term::Const(c) => world.block[c.index()],
        Term::Var(v) => {
            let e = env[v.index()];
            assert!(e != u32::MAX, "free variable outside the query head");
            e
        }
    }
}

fn eval(world: &World, f: &Formula, env: &mut Vec<u32>) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Atom(p, ts) => world.rels[p.index()].contains(&pack(
            ts.iter().map(|t| term(world, t, env)).collect::<Vec<_>>(),
        )),
        Formula::Eq(a, b) => term(world, a, env) == term(world, b, env),
        Formula::Not(g) => !eval(world, g, env),
        Formula::And(gs) => gs.iter().all(|g| eval(world, g, env)),
        Formula::Or(gs) => gs.iter().any(|g| eval(world, g, env)),
        Formula::Implies(a, b) => !eval(world, a, env) || eval(world, b, env),
        Formula::Iff(a, b) => eval(world, a, env) == eval(world, b, env),
        Formula::Exists(v, g) => quantify(world, v.index(), g, env, true),
        Formula::Forall(v, g) => !quantify(world, v.index(), g, env, false),
        Formula::SoAtom(..) | Formula::SoExists(..) | Formula::SoForall(..) => {
            panic!("the checker evaluates first-order queries only")
        }
    }
}

/// Whether some domain element makes `g` evaluate to `want`.
fn quantify(world: &World, v: usize, g: &Formula, env: &mut Vec<u32>, want: bool) -> bool {
    let saved = env[v];
    let found = (0..world.size).any(|d| {
        env[v] = d;
        eval(world, g, env) == want
    });
    env[v] = saved;
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_core::textio::from_text;
    use qld_logic::parser::parse_query;

    fn names(db: &CwDatabase, answers: &Answers) -> Vec<Vec<String>> {
        answers
            .iter()
            .map(|t| {
                t.iter()
                    .map(|&c| db.voc().const_name(qld_logic::ConstId(c)).to_string())
                    .collect()
            })
            .collect()
    }

    fn philosophy() -> CwDatabase {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../examples/data/philosophy.qld"
        );
        let text = std::fs::read_to_string(path).expect("example database");
        from_text(&text).expect("example database parses")
    }

    #[test]
    fn philosophy_answers_worked_by_hand() {
        let db = philosophy();
        let checker = Checker::new(&db);
        let q = |text: &str| parse_query(db.voc(), text).expect("query parses");
        // mystery is alone, or equals plato, or equals aristotle.
        assert_eq!(checker.count_worlds(), 3);
        assert_eq!(
            names(&db, &checker.certain(&q("(x) . TEACHES(socrates, x)"))),
            [["plato"]]
        );
        assert_eq!(
            names(&db, &checker.certain(&q("(x) . WISE(x)"))),
            [["socrates"]]
        );
        // mystery may be plato, whom socrates teaches.
        assert_eq!(
            names(&db, &checker.certain(&q("(x) . !TEACHES(socrates, x)"))),
            [["socrates"], ["aristotle"]]
        );
        assert_eq!(
            names(&db, &checker.possible(&q("(x) . TEACHES(socrates, x)"))),
            [["plato"], ["mystery"]]
        );
        let boolean = q("TEACHES(socrates, mystery)");
        assert!(checker.certain(&boolean).is_empty());
        assert_eq!(checker.possible(&boolean), Answers::from([vec![]]));
    }

    #[test]
    fn hand_built_null_instance() {
        // a and b are distinct; u may be a, b, or neither; P holds of a.
        let db = from_text("const a b u\npred P/1\nfact P(a)\nunique a b\n").unwrap();
        let checker = Checker::new(&db);
        let q = |text: &str| parse_query(db.voc(), text).unwrap();
        assert_eq!(checker.count_worlds(), 3);
        // Certain, though the §5 approximation misses it.
        assert_eq!(
            checker.certain(&q("P(u) | u != a")),
            Answers::from([vec![]])
        );
        // u may be a, so only b is certainly outside P.
        assert_eq!(names(&db, &checker.certain(&q("(x) . !P(x)"))), [["b"]]);
        assert_eq!(
            names(&db, &checker.possible(&q("(x) . P(x)"))),
            [["a"], ["u"]]
        );
        assert_eq!(
            names(&db, &checker.distinct_world(&q("(x) . P(x)"))),
            [["a"]]
        );
        // Some element is outside P in every identification: b.
        assert_eq!(
            checker.certain(&q("exists x. !P(x)")),
            Answers::from([vec![]])
        );
        // Fails in every world where b is its own block, e.g. all apart.
        assert!(checker.certain(&q("forall x. P(x) | x = u")).is_empty());
    }

    #[test]
    fn hand_built_binary_instance() {
        // x0 and x1 are unknown; R(a, x0), R(x1, a); a != b only.
        let db = from_text("const a b x0 x1\npred R/2\nfact R(a, x0)\nfact R(x1, a)\nunique a b\n")
            .unwrap();
        let checker = Checker::new(&db);
        let q = |text: &str| parse_query(db.voc(), text).unwrap();
        // Partitions of 4 elements (15) minus those joining a with b (5).
        assert_eq!(checker.count_worlds(), 10);
        // R(a, a) holds exactly when x0 = a or x1 = a: possible, not certain.
        let loop_aa = q("R(a, a)");
        assert!(checker.certain(&loop_aa).is_empty());
        assert_eq!(checker.possible(&loop_aa), Answers::from([vec![]]));
        // No element is on an R-cycle of length two when all are apart.
        assert_eq!(
            names(
                &db,
                &checker.certain(&q("(x) . exists y. R(x, y) & R(y, x)"))
            ),
            Vec::<Vec<String>>::new()
        );
        assert_eq!(
            names(&db, &checker.certain(&q("(x) . exists y. R(y, x)"))),
            [["a"], ["x0"]]
        );
        // R(x, b) needs x = a and x0 = b: never for b itself (b != a),
        // never for x0 (it would have to be both a and b).
        assert_eq!(
            names(&db, &checker.certain(&q("(x) . !R(x, b)"))),
            [["b"], ["x0"]]
        );
        // R(x, a) holds of a whenever x0 = a or x1 = a.
        assert!(checker.certain(&q("(x) . !R(x, a)")).is_empty());
    }

    #[test]
    fn fully_specified_database_has_one_world() {
        let db = from_text("const a b c\npred R/2\nfact R(a, b)\nfully_specified\n").unwrap();
        let checker = Checker::new(&db);
        assert_eq!(checker.count_worlds(), 1);
        let q = parse_query(db.voc(), "(x, y) . !R(x, y) & x != y").unwrap();
        assert_eq!(checker.certain(&q), checker.distinct_world(&q));
        assert_eq!(checker.certain(&q).len(), 5);
    }
}
