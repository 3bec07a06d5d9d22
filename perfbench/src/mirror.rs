//! The benchmark's own record of a database: its constants, predicates,
//! facts and uniqueness axioms, kept beside the program's copy as writes
//! are acknowledged. It predicts every epoch (one per changing commit),
//! feeds the independent checker, and is compared fact for fact with the
//! databases the program recovers and replicates.

use crate::checker::{Answers, Checker};
use qld_core::CwDatabase;
use qld_logic::{ConstId, PredId};
use std::collections::BTreeSet;

#[derive(Clone)]
pub struct Mirror {
    pub consts: Vec<String>,
    pub preds: Vec<(String, usize)>,
    pub facts: Vec<BTreeSet<Vec<u32>>>,
    /// Normalised `(lo, hi)` pairs.
    pub ne: BTreeSet<(u32, u32)>,
    /// Changing commits applied so far.
    pub epoch: u64,
}

impl Mirror {
    /// `known` constants `k0..` (pairwise distinct), then `unknown`
    /// constants `u0..`; no facts yet.
    pub fn new(known: usize, unknown: usize, preds: &[(&str, usize)]) -> Mirror {
        let consts = (0..known)
            .map(|i| format!("k{i}"))
            .chain((0..unknown).map(|i| format!("u{i}")))
            .collect();
        let mut ne = BTreeSet::new();
        for a in 0..known as u32 {
            for b in a + 1..known as u32 {
                ne.insert((a, b));
            }
        }
        Mirror {
            consts,
            preds: preds.iter().map(|(n, a)| (n.to_string(), *a)).collect(),
            facts: vec![BTreeSet::new(); preds.len()],
            ne,
            epoch: 0,
        }
    }

    /// Adds a fact; returns whether it was new (a changing commit).
    pub fn insert(&mut self, p: usize, args: &[u32]) -> bool {
        let changed = self.facts[p].insert(args.to_vec());
        self.epoch += u64::from(changed);
        changed
    }

    /// Adds a uniqueness axiom; returns whether it was new.
    pub fn assert_ne(&mut self, a: u32, b: u32) -> bool {
        let changed = self.ne.insert((a.min(b), a.max(b)));
        self.epoch += u64::from(changed);
        changed
    }

    pub fn fact_text(&self, p: usize, args: &[u32]) -> String {
        let args: Vec<&str> = args
            .iter()
            .map(|&c| self.consts[c as usize].as_str())
            .collect();
        format!("{}({})", self.preds[p].0, args.join(", "))
    }

    /// The script line that inserts this fact.
    pub fn insert_line(&self, p: usize, args: &[u32]) -> String {
        format!(":insert {}", self.fact_text(p, args))
    }

    pub fn ne_line(&self, a: u32, b: u32) -> String {
        format!(
            ":assert-ne {} {}",
            self.consts[a as usize], self.consts[b as usize]
        )
    }

    /// The database in the `.qld` text format.
    pub fn text(&self) -> String {
        let mut text = format!("const {}\npred", self.consts.join(" "));
        for (name, arity) in &self.preds {
            text.push_str(&format!(" {name}/{arity}"));
        }
        text.push('\n');
        for (p, facts) in self.facts.iter().enumerate() {
            for args in facts {
                text.push_str(&format!("fact {}\n", self.fact_text(p, args)));
            }
        }
        for &(a, b) in &self.ne {
            text.push_str(&format!(
                "unique {} {}\n",
                self.consts[a as usize], self.consts[b as usize]
            ));
        }
        text
    }

    pub fn checker(&self) -> Checker {
        Checker::from_parts(
            self.consts.len(),
            self.ne.iter().copied(),
            self.facts
                .iter()
                .map(|f| f.iter().cloned().collect())
                .collect(),
        )
    }

    /// Renders answers the way the server does: one `(c1, …)` line per
    /// tuple, or the verdict of a Boolean query.
    pub fn render(&self, answers: &Answers, boolean: bool) -> BTreeSet<String> {
        if boolean {
            let verdict = if answers.is_empty() {
                "not certain"
            } else {
                "CERTAIN"
            };
            return BTreeSet::from([verdict.to_string()]);
        }
        answers
            .iter()
            .map(|t| {
                let names: Vec<&str> = t
                    .iter()
                    .map(|&c| self.consts[c as usize].as_str())
                    .collect();
                format!("({})", names.join(", "))
            })
            .collect()
    }

    /// Whether `db` holds exactly these constants, facts and axioms.
    pub fn matches(&self, db: &CwDatabase) -> Result<(), String> {
        let voc = db.voc();
        if voc.num_consts() != self.consts.len() || voc.num_preds() != self.preds.len() {
            return Err("vocabulary differs".to_string());
        }
        for (i, name) in self.consts.iter().enumerate() {
            if voc.const_name(ConstId(i as u32)) != name {
                return Err(format!("constant {i} is not {name}"));
            }
        }
        for (p, want) in self.facts.iter().enumerate() {
            let got: BTreeSet<Vec<u32>> = db
                .facts(PredId(p as u32))
                .iter()
                .map(<[u32]>::to_vec)
                .collect();
            if &got != want {
                return Err(format!(
                    "{}: {} facts held, {} expected",
                    self.preds[p].0,
                    got.len(),
                    want.len()
                ));
            }
        }
        let ne: BTreeSet<(u32, u32)> = db.ne_pairs().iter().copied().collect();
        if ne != self.ne {
            return Err(format!(
                "{} uniqueness axioms held, {} expected",
                ne.len(),
                self.ne.len()
            ));
        }
        Ok(())
    }
}
