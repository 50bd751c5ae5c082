//! Known-answer verdicts (`answers.txt`, compiled in).
//!
//! One row per (suite program, request kind). The verdicts do not depend
//! on the problem size, so the same table checks every workload's scale.
//! See the file's header for how each row was derived.

use openarc_core::exec::RunResult;
use openarc_core::verify::VerificationReport;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

const ANSWERS: &str = include_str!("../answers.txt");

/// The observable verdict of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub exit: i32,
    /// `check`: distinct coherence findings as `Kind:var@site`; verify
    /// kinds: flagged kernels. Sorted.
    pub items: Vec<String>,
    /// Kernels with a data race (verify kinds only).
    pub races: Option<usize>,
    /// Raced kernels that verification did not flag (verify kinds only).
    pub latent: Option<usize>,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let items = if self.items.is_empty() {
            "-".to_string()
        } else {
            self.items.join(",")
        };
        let opt = |v: Option<usize>| v.map_or("-".to_string(), |n| n.to_string());
        write!(
            f,
            "exit={} items={items} races={} latent={}",
            self.exit,
            opt(self.races),
            opt(self.latent)
        )
    }
}

/// Verdict of a `check` request from its (cached) run.
pub fn of_check(exit: i32, r: &RunResult) -> Verdict {
    let items: BTreeSet<String> = r
        .machine
        .report
        .issues
        .iter()
        .map(|i| format!("{:?}:{}@{}", i.kind, i.var, i.site))
        .collect();
    Verdict {
        exit,
        items: items.into_iter().collect(),
        races: None,
        latent: None,
    }
}

/// Verdict of a `verify` request from its (cached) report.
pub fn of_verify(exit: i32, rep: &VerificationReport) -> Verdict {
    let flagged: BTreeSet<&str> = rep
        .kernels
        .iter()
        .filter(|k| k.flagged())
        .map(|k| k.kernel.as_str())
        .collect();
    let raced: BTreeSet<&str> = rep.races.iter().map(|(k, _)| k.as_str()).collect();
    Verdict {
        exit,
        items: flagged.iter().map(|s| s.to_string()).collect(),
        races: Some(raced.len()),
        latent: Some(raced.difference(&flagged).count()),
    }
}

/// Verdict of a `run`/`cpu` request: only the exit code is observable.
pub fn of_exit(exit: i32) -> Verdict {
    Verdict {
        exit,
        items: Vec::new(),
        races: None,
        latent: None,
    }
}

pub struct Answers(BTreeMap<(String, String), Verdict>);

impl Answers {
    pub fn load() -> Answers {
        let mut map = BTreeMap::new();
        for line in ANSWERS.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 6, "answers.txt: malformed row `{line}`");
            let opt = |s: &str| (s != "-").then(|| s.parse::<usize>().expect("answers.txt: count"));
            let items = if f[3] == "-" {
                Vec::new()
            } else {
                f[3].split(',').map(str::to_string).collect()
            };
            let v = Verdict {
                exit: f[2].parse().expect("answers.txt: exit code"),
                items,
                races: opt(f[4]),
                latent: opt(f[5]),
            };
            map.insert((f[0].to_string(), f[1].to_string()), v);
        }
        Answers(map)
    }

    /// `Err` names the mismatch when `got` differs from the known answer.
    pub fn check(&self, bench: &str, request: &str, got: &Verdict) -> Result<(), String> {
        let row = |b: &str| self.0.get(&(b.to_string(), request.to_string()));
        match row(bench).or_else(|| row("*")) {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!("{bench} {request}: verdict {got}, expected {want}")),
            None => Err(format!("{bench} {request}: no known answer for {got}")),
        }
    }
}
