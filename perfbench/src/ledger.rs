//! Determinism ledger: deterministic counters must repeat exactly.
//!
//! Every request records its deterministic observables (simulated time
//! bits, host instructions, transfer bytes and ops, kernel launches,
//! compared elements; the fuzz campaign fingerprint) under a key naming
//! what was run. A key seen twice with different values is drift. At the
//! end of a run the ledger is compared with, then merged into, the file
//! earlier runs of the same build left in the state directory, so drift
//! across runs is caught too. A changed value means the modelled workload
//! itself changed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

pub struct Ledger {
    path: PathBuf,
    seen: Mutex<BTreeMap<String, String>>,
    drift: Mutex<Vec<String>>,
}

impl Ledger {
    pub fn new(workload: &str) -> Ledger {
        Ledger {
            path: crate::state_dir().join(format!("determinism-{workload}.txt")),
            seen: Mutex::new(BTreeMap::new()),
            drift: Mutex::new(Vec::new()),
        }
    }

    pub fn record(&self, key: String, value: String) {
        let mut seen = self.seen.lock().expect("ledger poisoned");
        match seen.get(&key) {
            Some(old) if *old != value => self
                .drift
                .lock()
                .expect("ledger poisoned")
                .push(format!("{key}: {value} != {old} (same run)")),
            Some(_) => {}
            None => {
                seen.insert(key, value);
            }
        }
    }

    /// Compare with earlier runs, persist the union, and return every
    /// drift found.
    pub fn finish(&self) -> Result<Vec<String>, String> {
        let mut drift = std::mem::take(&mut *self.drift.lock().expect("ledger poisoned"));
        let mut all: BTreeMap<String, String> = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(&self.path) {
            for line in text.lines() {
                if let Some((k, v)) = line.split_once('\t') {
                    all.insert(k.to_string(), v.to_string());
                }
            }
        }
        for (k, v) in self.seen.lock().expect("ledger poisoned").iter() {
            match all.get(k) {
                Some(old) if old != v => drift.push(format!("{k}: {v} != {old} (earlier run)")),
                Some(_) => {}
                None => {
                    all.insert(k.clone(), v.clone());
                }
            }
        }
        let body: String = all.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect();
        let tmp = self
            .path
            .with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, body)
            .and_then(|()| std::fs::rename(&tmp, &self.path))
            .map_err(|e| format!("{}: {e}", self.path.display()))?;
        Ok(drift)
    }
}
