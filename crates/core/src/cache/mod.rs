//! Persistent content-addressed artifact store under [`crate::pipeline::Session`].
//!
//! The in-memory stage caches die with the process, so every new CLI
//! invocation re-parses and re-translates sources that have not changed
//! since the last run. This module adds the disk layer: a
//! content-addressed store at `<root>/<stage>/<key>.bin` holding
//! serialized Frontend, Translated, and journal-replay Run artifacts.
//!
//! Entries are written in the versioned binary format of [`bin`]
//! (normative spec: `docs/FORMAT.md`), the store's only format. Legacy
//! `<key>.json` entries from older builds are never read; the directory
//! walk behind [`DiskCache::gc`] and [`DiskCache::clear`] deletes them.
//!
//! Design rules, all load-bearing:
//!
//! * **Keys** fold the artifact's content hash together with
//!   [`SCHEMA_VERSION`] and the tool fingerprint (crate version), so a
//!   schema bump or a new binary never reads stale layouts — old entries
//!   simply stop being addressed and age out via [`DiskCache::gc`].
//! * **Publishing is atomic**: entries are written to a private temp file
//!   and `rename`d into place, so readers never observe partial writes.
//! * **Writers hold an advisory lock** (`create_new` lock file) per entry;
//!   a second concurrent writer of the same content skips the store (the
//!   bytes would be identical). Stale locks are taken over.
//! * **Corruption never panics**: a truncated, garbage, or
//!   wrong-versioned entry is detected on load, deleted, counted, and the
//!   stage recomputes as if the entry never existed.
//! * **Eviction is LRU by modification time**: every hit re-touches the
//!   entry, and [`DiskCache::gc`] drops the oldest entries until the
//!   store fits a byte budget.

pub mod bin;

use crate::exec::RunResult;
use crate::pipeline::{ArtifactId, Fnv, FrontendArtifact, Stage, TranslatedArtifact};
use openarc_trace::TraceEvent;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// On-disk layout version; folded into every entry key. Bump when any
/// [`bin`] encoding changes shape.
pub const SCHEMA_VERSION: u64 = 1;

/// Default cache directory used by the CLI and bench drivers.
pub const DEFAULT_DIR: &str = "target/openarc-cache";

/// Fingerprint of the producing tool, folded into every entry key so
/// artifacts written by one build are never read by another.
pub fn tool_fingerprint() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// Age after which an abandoned writer lock or temp file is taken over.
const STALE_LOCK: Duration = Duration::from_secs(60);

/// Counters of one cache's disk traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Entries loaded, decoded, and served.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries published.
    pub stores: u64,
    /// Entries evicted by [`DiskCache::gc`].
    pub evictions: u64,
    /// Entries found corrupt (bad bytes, bad header, bad payload) and
    /// deleted.
    pub corrupt: u64,
}

impl DiskStats {
    /// True when no counter has moved (e.g. a session without a disk layer).
    pub fn is_empty(&self) -> bool {
        *self == DiskStats::default()
    }
}

/// Outcome of one typed lookup.
pub enum Lookup<T> {
    /// Entry existed, validated, and decoded.
    Hit(T),
    /// No entry on disk.
    Miss,
    /// Entry existed but was unreadable/invalid; it has been deleted and
    /// counted, and the caller should recompute.
    Corrupt,
}

/// Result of one [`DiskCache::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcResult {
    /// Entries examined.
    pub examined: u64,
    /// Entries removed.
    pub evicted: u64,
    /// Store size before the pass, bytes.
    pub bytes_before: u64,
    /// Store size after the pass, bytes.
    pub bytes_after: u64,
}

/// Per-stage usage row reported by [`DiskCache::usage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UsageRow {
    /// Stage directory label.
    pub stage: &'static str,
    /// Number of entries.
    pub entries: u64,
    /// Total bytes of those entries.
    pub bytes: u64,
}

/// The content-addressed on-disk artifact store.
///
/// All operations are best-effort: I/O failures degrade to cache misses
/// or skipped stores, never to pipeline errors — the pipeline can always
/// recompute.
pub struct DiskCache {
    root: PathBuf,
    /// Tenant namespace folded into every entry key (`""` = the default
    /// namespace, whose keys are identical to a pre-namespace store).
    namespace: String,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
}

impl std::fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCache")
            .field("root", &self.root)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Stages whose artifacts are persisted to disk. Directives, Plan, and
/// Verify artifacts are cheap derivations of these and stay memory-only.
pub const DISK_STAGES: [Stage; 4] = [
    Stage::Frontend,
    Stage::Analysis,
    Stage::Instrument,
    Stage::Execute,
];

impl DiskCache {
    /// Open (lazily — directories are created on first store) a cache
    /// rooted at `root`, in the default (empty) tenant namespace.
    pub fn new(root: impl Into<PathBuf>) -> DiskCache {
        DiskCache::with_namespace(root, "")
    }

    /// Open a cache rooted at `root` whose entry keys are folded with the
    /// tenant namespace `namespace`. Two caches over the same root with
    /// different namespaces address disjoint key sets: one tenant's
    /// entries are plain misses for every other tenant (the multi-tenant
    /// isolation layer behind `openarc serve`). The empty namespace
    /// addresses exactly the keys [`DiskCache::new`] does.
    pub fn with_namespace(root: impl Into<PathBuf>, namespace: impl Into<String>) -> DiskCache {
        DiskCache {
            root: root.into(),
            namespace: namespace.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// Root directory of the store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Tenant namespace this handle addresses (`""` = default).
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// Snapshot of this process's traffic counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Entry key: the artifact's content hash folded with the schema
    /// version, tool fingerprint, and (when non-empty) the tenant
    /// namespace, so incompatible layouts — and other tenants' entries —
    /// are simply never addressed. The empty namespace writes nothing
    /// into the hash, keeping default-namespace keys stable across the
    /// namespace feature's introduction.
    fn entry_key(&self, stage: Stage, id: ArtifactId) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(SCHEMA_VERSION)
            .write_str(tool_fingerprint())
            .write_str(stage.label())
            .write_u64(id.0);
        if !self.namespace.is_empty() {
            h.write_str("tenant").write_str(&self.namespace);
        }
        h.finish()
    }

    fn entry_path(&self, stage: Stage, key: u64) -> PathBuf {
        self.root
            .join(stage.label())
            .join(format!("{key:016x}.bin"))
    }

    /// Re-touch an entry's mtime for LRU: [`DiskCache::gc`] evicts
    /// oldest-mtime entries first.
    fn touch(path: &Path) {
        if let Ok(f) = fs::File::open(path) {
            let _ = f.set_modified(SystemTime::now());
        }
    }

    /// Look up `(stage, id)` and decode it with `decode`. A decode
    /// failure deletes the entry and reports [`Lookup::Corrupt`]; the
    /// caller recomputes.
    fn load_entry<T>(
        &self,
        stage: Stage,
        id: ArtifactId,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Lookup<T> {
        let path = self.entry_path(stage, self.entry_key(stage, id));
        let Ok(bytes) = fs::read(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss;
        };
        match decode(&bytes) {
            Ok(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Self::touch(&path);
                Lookup::Hit(v)
            }
            Err(_) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
                Lookup::Corrupt
            }
        }
    }

    /// Look up a frontend artifact.
    pub fn load_frontend(&self, id: ArtifactId) -> Lookup<FrontendArtifact> {
        self.load_entry(Stage::Frontend, id, |bytes| bin::decode_frontend(id, bytes))
    }

    /// Look up a translation artifact stored under `stage`
    /// ([`Stage::Analysis`] or [`Stage::Instrument`]).
    pub fn load_translated(&self, stage: Stage, id: ArtifactId) -> Lookup<TranslatedArtifact> {
        self.load_entry(stage, id, |bytes| bin::decode_translated(stage, id, bytes))
    }

    /// Look up a finished run (surface + journal events).
    pub fn load_run(&self, id: ArtifactId) -> Lookup<(RunResult, Vec<TraceEvent>)> {
        self.load_entry(Stage::Execute, id, |bytes| bin::decode_run(id, bytes))
    }

    /// Publish a frontend artifact.
    pub fn store_frontend(&self, art: &FrontendArtifact) -> bool {
        self.store_bytes(Stage::Frontend, art.id, &bin::encode_frontend(art))
    }

    /// Publish a translation artifact under `stage` ([`Stage::Analysis`]
    /// or [`Stage::Instrument`]).
    pub fn store_translated(&self, stage: Stage, art: &TranslatedArtifact) -> bool {
        self.store_bytes(stage, art.id, &bin::encode_translated(stage, art))
    }

    /// Publish a finished run (surface + journal events).
    pub fn store_run(&self, id: ArtifactId, r: &RunResult, events: &[TraceEvent]) -> bool {
        self.store_bytes(Stage::Execute, id, &bin::encode_run(id, r, events))
    }

    /// Publish `bytes` for `(stage, id)`. Returns true when this call
    /// wrote the entry (false: lock held by a live concurrent writer, or
    /// I/O failure — both benign).
    fn store_bytes(&self, stage: Stage, id: ArtifactId, bytes: &[u8]) -> bool {
        let ok = self.publish(stage, self.entry_key(stage, id), bytes);
        if ok {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Atomically publish raw entry bytes at `<stage>/<key>.bin`:
    /// private temp file, fsync, rename, under the `<key>.lock` writer
    /// lock.
    fn publish(&self, stage: Stage, key: u64, bytes: &[u8]) -> bool {
        let path = self.entry_path(stage, key);
        let Some(dir) = path.parent() else {
            return false;
        };
        if fs::create_dir_all(dir).is_err() {
            return false;
        }
        let lock = path.with_extension("lock");
        if !Self::acquire_lock(&lock) {
            return false;
        }
        let tmp = dir.join(format!(".tmp-{key:016x}-{}", std::process::id()));
        let ok = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        })()
        .is_ok();
        if !ok {
            let _ = fs::remove_file(&tmp);
        }
        let _ = fs::remove_file(&lock);
        ok
    }

    /// Take the advisory per-entry writer lock. A held lock younger than
    /// [`STALE_LOCK`] means a live writer is publishing the same content —
    /// skip. An older one is an abandoned writer: take it over.
    fn acquire_lock(lock: &Path) -> bool {
        for _ in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(lock)
            {
                Ok(_) => return true,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if Self::is_stale(lock) {
                        let _ = fs::remove_file(lock);
                        continue;
                    }
                    return false;
                }
                Err(_) => return false,
            }
        }
        false
    }

    fn is_stale(path: &Path) -> bool {
        match fs::metadata(path).and_then(|m| m.modified()) {
            Ok(mtime) => SystemTime::now()
                .duration_since(mtime)
                .map(|age| age > STALE_LOCK)
                .unwrap_or(false),
            // Metadata unreadable: the file likely vanished between the
            // existence check and here — retrying create_new is safe.
            Err(_) => true,
        }
    }

    /// Every entry in the store: `(path, bytes, mtime)`, unsorted. Also
    /// sweeps abandoned temp files, stale locks and legacy `.json`
    /// entries (which no lookup addresses) as a side effect.
    fn entries(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        for stage in DISK_STAGES {
            let dir = self.root.join(stage.label());
            let Ok(rd) = fs::read_dir(&dir) else {
                continue;
            };
            for entry in rd.flatten() {
                let path = entry.path();
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with(".tmp-") || name.ends_with(".lock") {
                    if Self::is_stale(&path) {
                        let _ = fs::remove_file(&path);
                    }
                    continue;
                }
                if name.ends_with(".json") {
                    let _ = fs::remove_file(&path);
                    continue;
                }
                if !name.ends_with(".bin") {
                    continue;
                }
                if let Ok(meta) = entry.metadata() {
                    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    out.push((path, meta.len(), mtime));
                }
            }
        }
        out
    }

    /// Per-stage entry counts and sizes.
    pub fn usage(&self) -> Vec<UsageRow> {
        DISK_STAGES
            .iter()
            .map(|stage| {
                let dir = self.root.join(stage.label());
                let mut row = UsageRow {
                    stage: stage.label(),
                    ..Default::default()
                };
                if let Ok(rd) = fs::read_dir(&dir) {
                    for entry in rd.flatten() {
                        if !entry.file_name().to_string_lossy().ends_with(".bin") {
                            continue;
                        }
                        if let Ok(meta) = entry.metadata() {
                            row.entries += 1;
                            row.bytes += meta.len();
                        }
                    }
                }
                row
            })
            .collect()
    }

    /// Recompute-cost rank of an entry, derived from the stage directory
    /// it lives in: [`DISK_STAGES`] is ordered cheapest-first (a Frontend
    /// parse re-runs in microseconds; an Execute artifact replays a whole
    /// simulated run), so the array position *is* the rank. Unknown
    /// directories rank cheapest.
    fn stage_cost(path: &Path) -> usize {
        path.parent()
            .and_then(|p| p.file_name())
            .and_then(|dir| {
                DISK_STAGES
                    .iter()
                    .position(|s| dir.to_string_lossy() == s.label())
            })
            .unwrap_or(0)
    }

    /// Cost-aware LRU eviction pass: delete least-valuable entries until
    /// the store holds at most `max_bytes`.
    ///
    /// Eviction order is least-recently-touched first, with recency
    /// compared at whole-second granularity; inside one second the
    /// cheaper-to-recompute stage goes first (its position in
    /// [`DISK_STAGES`], cheapest-first), then
    /// exact mtime. The coarse bucket is deliberate: hits re-touch
    /// entries, so sub-second mtime deltas mostly record directory-walk
    /// and publish order — at that resolution "which artifact costs more
    /// to rebuild" is the better signal, and a pipeline that stored a
    /// Frontend parse and an Execute run in the same second keeps the
    /// run.
    pub fn gc(&self, max_bytes: u64) -> GcResult {
        let whole_secs = |t: &SystemTime| {
            t.duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0)
        };
        let mut entries = self.entries();
        entries.sort_by_key(|(path, _, mtime)| (whole_secs(mtime), Self::stage_cost(path), *mtime));
        let bytes_before: u64 = entries.iter().map(|(_, len, _)| len).sum();
        let mut result = GcResult {
            examined: entries.len() as u64,
            evicted: 0,
            bytes_before,
            bytes_after: bytes_before,
        };
        for (path, len, _) in entries {
            if result.bytes_after <= max_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                result.evicted += 1;
                result.bytes_after -= len;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Delete every entry (and abandoned temp, lock or legacy `.json`
    /// file). Returns the number of entries removed.
    pub fn clear(&self) -> u64 {
        let mut removed = 0;
        for stage in DISK_STAGES {
            let dir = self.root.join(stage.label());
            let Ok(rd) = fs::read_dir(&dir) else {
                continue;
            };
            for entry in rd.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let is_entry = name.ends_with(".bin");
                if fs::remove_file(entry.path()).is_ok() && is_entry {
                    removed += 1;
                }
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A fresh per-test cache root under the system temp dir.
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "openarc-cache-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Store the 8-byte payload `n` under `(stage, id)`.
    fn store_n(cache: &DiskCache, stage: Stage, id: u64, n: u64) -> bool {
        cache.store_bytes(stage, ArtifactId(id), &n.to_le_bytes())
    }

    /// Load the payload stored by [`store_n`].
    fn load_n(cache: &DiskCache, stage: Stage, id: u64) -> Lookup<u64> {
        cache.load_entry(stage, ArtifactId(id), |bytes| {
            bytes
                .try_into()
                .map(u64::from_le_bytes)
                .map_err(|_| "payload is not 8 bytes".to_string())
        })
    }

    fn entry_path(cache: &DiskCache, stage: Stage, id: u64) -> PathBuf {
        cache.entry_path(stage, cache.entry_key(stage, ArtifactId(id)))
    }

    #[test]
    fn store_then_load_round_trips_and_counts() {
        let cache = DiskCache::new(scratch("roundtrip"));
        assert!(matches!(load_n(&cache, Stage::Frontend, 7), Lookup::Miss));
        assert!(store_n(&cache, Stage::Frontend, 7, 7));
        match load_n(&cache, Stage::Frontend, 7) {
            Lookup::Hit(n) => assert_eq!(n, 7),
            _ => panic!("expected hit"),
        }
        // Same id under a different stage is a different entry.
        assert!(matches!(load_n(&cache, Stage::Execute, 7), Lookup::Miss));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 2, 1));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let cache = DiskCache::new(scratch("gc"));
        for n in 0..4u64 {
            assert!(store_n(&cache, Stage::Frontend, n, n));
        }
        // Backdate entries 0..3 in order; then touch entry 0 via a hit so
        // it becomes the newest and survives eviction.
        let now = SystemTime::now();
        for n in 0..4u64 {
            let f = fs::File::open(entry_path(&cache, Stage::Frontend, n)).unwrap();
            f.set_modified(now - Duration::from_secs(100 - n)).unwrap();
        }
        assert!(matches!(load_n(&cache, Stage::Frontend, 0), Lookup::Hit(0)));
        let one_entry = cache.usage().iter().map(|r| r.bytes).sum::<u64>() / 4;
        let gc = cache.gc(2 * one_entry);
        assert_eq!(gc.examined, 4);
        assert_eq!(gc.evicted, 2);
        assert!(gc.bytes_after <= 2 * one_entry && gc.bytes_before > gc.bytes_after);
        // Oldest-touched (1, 2) went; recently-hit 0 and newest 3 remain.
        for (n, hit) in [(0u64, true), (1, false), (2, false), (3, true)] {
            let got = load_n(&cache, Stage::Frontend, n);
            assert_eq!(matches!(got, Lookup::Hit(_)), hit, "entry {n}");
        }
        assert_eq!(cache.stats().evictions, 2);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn gc_prefers_evicting_cheap_stages_at_equal_recency() {
        // ROADMAP cost-aware-gc item: a Frontend parse and an Execute run
        // land in the same one-second recency bucket, the Execute entry
        // strictly older by exact mtime. A plain LRU-by-mtime policy
        // (what `gc` used to be) would evict the expensive Execute
        // artifact first; the cost-aware order must keep it and evict the
        // Frontend parse instead.
        let cache = DiskCache::new(scratch("gc-cost"));
        assert!(store_n(&cache, Stage::Frontend, 1, 1));
        assert!(store_n(&cache, Stage::Execute, 2, 2));
        // Pin both mtimes inside one second, Execute older than Frontend.
        let secs = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .unwrap()
            .as_secs();
        let bucket = SystemTime::UNIX_EPOCH + Duration::from_secs(secs);
        let touch = |stage: Stage, id: u64, offset_ms: u64| {
            let f = fs::File::open(entry_path(&cache, stage, id)).unwrap();
            f.set_modified(bucket + Duration::from_millis(offset_ms))
                .unwrap();
        };
        touch(Stage::Execute, 2, 100);
        touch(Stage::Frontend, 1, 800);
        let total = cache.usage().iter().map(|r| r.bytes).sum::<u64>();
        let gc = cache.gc(total - 1);
        assert_eq!(gc.examined, 2);
        assert_eq!(gc.evicted, 1);
        assert!(matches!(load_n(&cache, Stage::Frontend, 1), Lookup::Miss));
        assert!(matches!(load_n(&cache, Stage::Execute, 2), Lookup::Hit(2)));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn clear_empties_the_store() {
        let cache = DiskCache::new(scratch("clear"));
        for n in 0..3u64 {
            assert!(store_n(&cache, Stage::Analysis, n, n));
        }
        assert_eq!(cache.clear(), 3);
        assert!(cache.usage().iter().all(|r| r.entries == 0));
        assert!(matches!(load_n(&cache, Stage::Analysis, 0), Lookup::Miss));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn concurrent_writers_of_the_same_entry_are_safe() {
        // Two threads race to publish the same content-addressed entry;
        // at least one wins, and the result decodes cleanly either way.
        let cache = std::sync::Arc::new(DiskCache::new(scratch("race")));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                store_n(&cache, Stage::Execute, 1, 1)
            }));
        }
        let wins: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(wins.iter().any(|w| *w), "at least one writer publishes");
        assert!(matches!(load_n(&cache, Stage::Execute, 1), Lookup::Hit(1)));
        let _ = fs::remove_dir_all(cache.root());
    }

    /// A small but real frontend artifact for typed-codec tests.
    fn frontend_artifact(id: u64) -> FrontendArtifact {
        let (program, sema) = openarc_minic::frontend("int x;\nvoid main() { x = 1; }").unwrap();
        FrontendArtifact {
            id: ArtifactId(id),
            program,
            sema,
        }
    }

    #[test]
    fn typed_store_and_load_use_the_binary_format() {
        let cache = DiskCache::new(scratch("typed"));
        let art = frontend_artifact(3);
        assert!(matches!(cache.load_frontend(art.id), Lookup::Miss));
        assert!(cache.store_frontend(&art));
        assert!(entry_path(&cache, Stage::Frontend, 3).exists());
        match cache.load_frontend(art.id) {
            Lookup::Hit(back) => assert_eq!(back.program, art.program),
            _ => panic!("expected binary hit"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn legacy_json_files_are_misses_and_swept_by_gc() {
        // A `<key>.json` entry written by an older build: no lookup reads
        // it, it is not corruption, and the next gc pass reclaims it.
        let cache = DiskCache::new(scratch("legacy"));
        let art = frontend_artifact(11);
        let legacy = entry_path(&cache, Stage::Frontend, 11).with_extension("json");
        fs::create_dir_all(legacy.parent().unwrap()).unwrap();
        fs::write(&legacy, "{\"schema\": 1, \"payload\": {}}").unwrap();
        assert!(matches!(cache.load_frontend(art.id), Lookup::Miss));
        assert_eq!(cache.stats().corrupt, 0);
        assert!(cache.usage().iter().all(|r| r.entries == 0));
        let gc = cache.gc(u64::MAX);
        assert_eq!((gc.examined, gc.evicted), (0, 0));
        assert!(!legacy.exists(), "gc sweeps the legacy entry");
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_binary_entries_are_deleted_and_recomputable() {
        let cache = DiskCache::new(scratch("bin-corrupt"));
        let art = frontend_artifact(5);
        let path = entry_path(&cache, Stage::Frontend, 5);
        let good = cache.store_frontend(&art);
        assert!(good);
        let original = fs::read(&path).unwrap();
        let truncated = original[..original.len() / 2].to_vec();
        let mut flipped = original.clone();
        flipped[0] ^= 0xff;
        // An entry written by the previous format version keeps its key,
        // so it is found, rejected and recomputed.
        let mut old_version = original.clone();
        old_version[8..12].copy_from_slice(&(bin::FORMAT_VERSION - 1).to_le_bytes());
        for bytes in [
            b"junk".to_vec(),
            truncated,
            flipped,
            old_version,
            Vec::new(),
        ] {
            fs::write(&path, &bytes).unwrap();
            assert!(matches!(cache.load_frontend(art.id), Lookup::Corrupt));
            assert!(!path.exists(), "corrupt binary entry must be deleted");
            assert!(cache.store_frontend(&art));
            assert!(matches!(cache.load_frontend(art.id), Lookup::Hit(_)));
        }
        assert_eq!(cache.stats().corrupt, 5);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn tenant_namespaces_are_disjoint() {
        // Same root, same artifact id, three namespaces: each handle
        // addresses its own key, so one tenant's warm entries are plain
        // misses for every other tenant and for the default namespace.
        let root = scratch("tenant");
        let a = DiskCache::with_namespace(&root, "tenant-a");
        let b = DiskCache::with_namespace(&root, "tenant-b");
        let default = DiskCache::new(&root);
        let id = ArtifactId(7);
        assert_ne!(
            a.entry_key(Stage::Frontend, id),
            b.entry_key(Stage::Frontend, id)
        );
        assert_ne!(
            a.entry_key(Stage::Frontend, id),
            default.entry_key(Stage::Frontend, id)
        );
        assert!(store_n(&a, Stage::Frontend, 7, 1));
        assert!(matches!(load_n(&a, Stage::Frontend, 7), Lookup::Hit(1)));
        assert!(matches!(load_n(&b, Stage::Frontend, 7), Lookup::Miss));
        assert!(matches!(load_n(&default, Stage::Frontend, 7), Lookup::Miss));
        // The default namespace is the identity: a second handle made via
        // `new` reads what the first wrote.
        assert!(store_n(&default, Stage::Execute, 7, 2));
        let again = DiskCache::new(&root);
        assert!(matches!(load_n(&again, Stage::Execute, 7), Lookup::Hit(2)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn usage_reports_per_stage_rows() {
        let cache = DiskCache::new(scratch("usage"));
        assert!(store_n(&cache, Stage::Frontend, 1, 1));
        assert!(store_n(&cache, Stage::Execute, 2, 2));
        let usage = cache.usage();
        assert_eq!(usage.len(), DISK_STAGES.len());
        for row in &usage {
            let expect = u64::from(row.stage == "frontend" || row.stage == "execute");
            assert_eq!(row.entries, expect, "{}", row.stage);
            assert_eq!(row.bytes > 0, expect == 1);
        }
        let _ = fs::remove_dir_all(cache.root());
    }
}
