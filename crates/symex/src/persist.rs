//! Persistent cross-run refutation cache (`thresher.cache/4`).
//!
//! Edge decisions are pure functions of the program slice they examine,
//! so they survive across processes: every decision the coordinator
//! commits can be written through to an append-only JSONL store keyed by
//! a content fingerprint, and a later run reuses any record whose
//! fingerprint still matches. The fingerprint covers everything a search
//! consults — the edge itself, its producer commands, the
//! precision-relevant engine configuration, and the canonical printed
//! text plus local points-to facts of every method in the edge's
//! call-graph slice — so editing one method invalidates exactly the
//! decisions whose slice contains it (or whose points-to facts it
//! shifts) and nothing else. See DESIGN.md §14 for the invalidation
//! soundness argument.
//!
//! # Store format
//!
//! One JSONL file (`decisions.jsonl`) per cache directory. The first
//! line is a header `{"schema":"thresher.cache/4"}`; every other line is
//! one decision record serialized with [`obs::json`]. A record's `obs`
//! field is its captured [`MetricsDelta`] in the form `obs` owns
//! ([`MetricsDelta::to_value`]): counter totals plus per-histogram log₂
//! bucket counts, so a record stays a few KB however long its search
//! ran. Corruption degrades, never propagates: an unparseable or
//! unresolvable line (a malformed `obs` included) is skipped (counted
//! under [`obs::Counter::CacheSkippedCorrupt`]), a truncated tail is just
//! another skipped line, and a header mismatch discards the whole file —
//! every failure mode falls back to a cold computation
//! ([`crate::Engine::refute_key_resilient`]), never a panic and never a
//! wrong answer.
//!
//! # Identity across runs
//!
//! Nothing in a record or a fingerprint uses a numeric id: edges are
//! rendered through canonical location/global/field names, methods
//! through their canonical `Class.name` text, and witness traces as
//! `(method name, command ordinal)` pairs resolved against the current
//! program at load. Records therefore survive print/parse round trips
//! and edits to unrelated methods, which renumber ids but preserve
//! names.

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use obs::json::Value;
use obs::{Counter, MetricsDelta};
use pta::{HeapEdge, LocId, PtaResult};
use tir::{CmdId, MethodId, Program};

use crate::engine::EdgeDecision;
use crate::key::RefKey;
use crate::stats::{RefutationCounts, SearchOutcome, SearchStats, StopReason, Witness};
use crate::SymexConfig;

/// The store schema identifier; a mismatch discards the whole file. Bump
/// it whenever the config fingerprint key, a search-limit constant of
/// `config.rs`, or the meaning of a record field changes.
pub const CACHE_SCHEMA: &str = "thresher.cache/4";

/// File name of the decision store inside a cache directory.
pub const CACHE_FILE: &str = "decisions.jsonl";

/// File name of the advisory write lock inside a cache directory.
pub const LOCK_FILE: &str = "decisions.lock";

/// Scratch file used by compaction; a leftover one (from a crash mid-
/// compaction) is ignored by readers and removed at the next open.
pub const TMP_FILE: &str = "decisions.jsonl.tmp";

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// FNV-1a content hashing
// ---------------------------------------------------------------------------

/// Incremental FNV-1a 64-bit hasher (zero-dependency, stable across
/// platforms and runs — unlike `DefaultHasher`, whose seed varies).
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        // Length-prefix-free framing: a NUL cannot appear in IR text, so
        // adjacent fields cannot be confused by concatenation.
        self.write(&[0]);
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// Computes content fingerprints for edge decisions over one analyzed
/// program. Per-method content hashes are precomputed; per-edge
/// fingerprints are memoized behind a mutex so coordinator and workers
/// can share one instance.
pub struct Fingerprinter<'a> {
    program: &'a Program,
    pta: &'a PtaResult,
    /// Canonical rendering of every precision-relevant config field.
    config_key: String,
    /// Per-method content hash, indexed by `MethodId`.
    method_hash: Vec<u64>,
    memo: Mutex<HashMap<RefKey, u64>>,
}

/// Cross-edit cache of per-method content hashes, keyed by canonical
/// method name (names survive the id renumbering an edit causes; ids do
/// not). After an edit-delta solve, only methods reported changed by
/// [`pta::EditSolveStats::changed_methods`] — plus methods new to the
/// cache — need re-hashing; every other method's hash is reused, so
/// fingerprinting cost tracks the size of the *edit*, not the program.
///
/// Reuse is sound because [`Fingerprinter::hash_method`] reads only
/// renumbering-stable inputs (printed text, canonical location names,
/// callee names), and `changed_methods` conservatively covers every
/// method whose points-to facts or call targets moved.
#[derive(Debug, Default)]
pub struct MethodHashCache {
    by_name: HashMap<String, u64>,
    hits: u64,
    recomputed: u64,
}

impl MethodHashCache {
    /// An empty cache; the first [`Fingerprinter::with_cache`] call fills
    /// it by hashing every method.
    pub fn new() -> Self {
        MethodHashCache::default()
    }

    /// Hashes served from the cache across all `with_cache` calls.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Hashes recomputed (changed, new, or cold) across all calls.
    pub fn recomputed(&self) -> u64 {
        self.recomputed
    }

    /// Methods currently hashed.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True if no method has been hashed yet.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

impl<'a> Fingerprinter<'a> {
    /// Builds a fingerprinter, hashing every method's canonical content
    /// up front.
    pub fn new(program: &'a Program, pta: &'a PtaResult, config: &SymexConfig) -> Self {
        let method_hash =
            program.method_ids().map(|m| Self::hash_method(program, pta, m)).collect();
        Fingerprinter {
            program,
            pta,
            config_key: config_fingerprint_key(config),
            method_hash,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// Like [`Fingerprinter::new`], but reuses cached per-method hashes
    /// for every method *not* named in `changed`. The cache is refreshed
    /// in place to exactly the current program's methods (hashes of
    /// removed methods are dropped).
    pub fn with_cache(
        program: &'a Program,
        pta: &'a PtaResult,
        config: &SymexConfig,
        cache: &mut MethodHashCache,
        changed: &[MethodId],
    ) -> Self {
        let changed: HashSet<String> = changed.iter().map(|&m| program.method_name(m)).collect();
        let mut next = HashMap::new();
        let method_hash = program
            .method_ids()
            .map(|m| {
                let name = program.method_name(m);
                let h = match cache.by_name.get(&name) {
                    Some(&h) if !changed.contains(&name) => {
                        cache.hits += 1;
                        h
                    }
                    _ => {
                        cache.recomputed += 1;
                        Self::hash_method(program, pta, m)
                    }
                };
                next.insert(name, h);
                h
            })
            .collect();
        cache.by_name = next;
        Fingerprinter {
            program,
            pta,
            config_key: config_fingerprint_key(config),
            method_hash,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// The canonical content hash of one method: its printed text plus
    /// the points-to facts the search may consult while inside it (the
    /// from-set of every local, and the dispatch targets of every call).
    /// Any points-to shift that can influence a search through this
    /// method shows up in some local's from-set, because Andersen's
    /// closure folds loaded globals and fields into the loading local.
    fn hash_method(program: &Program, pta: &PtaResult, m: MethodId) -> u64 {
        let mut h = Fnv::new();
        h.write_str(&program.method_name(m));
        h.write_str(&tir::print_method_text(program, m));
        for &v in &program.method(m).locals {
            h.write_str(&program.var(v).name);
            let mut names: Vec<String> =
                pta.pt_var(v).iter().map(|i| pta.loc_name(program, LocId(i as u32))).collect();
            names.sort_unstable();
            for n in &names {
                h.write_str(n);
            }
        }
        for c in program.method_cmds(m) {
            for &t in pta.call_targets(c) {
                h.write_str(&program.method_name(t));
            }
        }
        h.finish()
    }

    /// Canonical, id-free description of an edge — the invalidation key
    /// linking records for the *same* edge across fingerprint changes.
    pub fn edge_key(&self, edge: &HeapEdge) -> String {
        let p = self.program;
        match edge {
            HeapEdge::Global { global, target } => {
                format!("${} => {}", p.global(*global).name, self.pta.loc_name(p, *target))
            }
            HeapEdge::Field { base, field, target } => {
                let f = p.field(*field);
                format!(
                    "{}.{}::{} => {}",
                    self.pta.loc_name(p, *base),
                    p.class(f.owner).name,
                    f.name,
                    self.pta.loc_name(p, *target)
                )
            }
        }
    }

    /// Canonical, id-free description of any [`RefKey`]. Deref sites are
    /// keyed by method name, command ordinal within the method, and base
    /// variable name — all stable across the id renumbering an edit
    /// causes (any edit that *moves* the command within its method also
    /// changes the method's content hash, so the fingerprint catches it).
    pub fn key_string(&self, key: &RefKey) -> String {
        match key {
            RefKey::Edge(e) => self.edge_key(e),
            RefKey::Deref(s) => {
                let p = self.program;
                let m = p.cmd_method(s.cmd);
                let ordinal = p
                    .method_cmds(m)
                    .iter()
                    .position(|&c| c == s.cmd)
                    .expect("deref command in its own method");
                format!("deref {}#{} {}", p.method_name(m), ordinal, p.var(s.base).name)
            }
        }
    }

    /// The edge's mod-ref/call-graph slice: every method transitively
    /// reachable from the producers' methods along the call graph, in
    /// either direction (callees the search may enter, callers it may
    /// propagate into). Sorted by canonical method name.
    pub fn slice(&self, edge: &HeapEdge) -> Vec<MethodId> {
        self.slice_from(self.pta.producers(edge).iter().map(|&c| self.program.cmd_method(c)))
    }

    /// The call-graph slice seeded from an arbitrary set of methods (deref
    /// queries are seeded from the method containing the dereference).
    fn slice_from(&self, seeds: impl Iterator<Item = MethodId>) -> Vec<MethodId> {
        let mut set = HashSet::new();
        let mut work = Vec::new();
        for m in seeds {
            if set.insert(m) {
                work.push(m);
            }
        }
        while let Some(m) = work.pop() {
            for c in self.program.method_cmds(m) {
                for &t in self.pta.call_targets(c) {
                    if set.insert(t) {
                        work.push(t);
                    }
                }
            }
            for &c in self.pta.callers(m) {
                let cm = self.program.cmd_method(c);
                if set.insert(cm) {
                    work.push(cm);
                }
            }
        }
        let mut v: Vec<MethodId> = set.into_iter().collect();
        v.sort_by_key(|&m| self.program.method_name(m));
        v
    }

    /// The content fingerprint keying this edge's decision record:
    /// FNV-1a over the edge key, every producer command's rendering, the
    /// config key, and every slice method's (name, content hash) pair.
    pub fn fingerprint(&self, edge: &HeapEdge) -> u64 {
        self.fingerprint_key(&RefKey::Edge(*edge))
    }

    /// [`Fingerprinter::fingerprint`] generalized over [`RefKey`]: deref
    /// fingerprints cover the key string, the dereferencing command's
    /// rendering, the config key, and the slice seeded from the method
    /// containing the dereference.
    pub fn fingerprint_key(&self, key: &RefKey) -> u64 {
        if let Some(&fp) = lock(&self.memo).get(key) {
            return fp;
        }
        let mut h = Fnv::new();
        h.write_str(CACHE_SCHEMA);
        h.write_str(&self.key_string(key));
        let slice = match key {
            RefKey::Edge(edge) => {
                for &c in self.pta.producers(edge) {
                    h.write_str(&self.program.method_name(self.program.cmd_method(c)));
                    h.write_str(&tir::print_cmd(self.program, self.program.cmd(c)));
                }
                self.slice(edge)
            }
            RefKey::Deref(site) => {
                let m = self.program.cmd_method(site.cmd);
                h.write_str(&self.program.method_name(m));
                h.write_str(&tir::print_cmd(self.program, self.program.cmd(site.cmd)));
                self.slice_from(std::iter::once(m))
            }
        };
        h.write_str(&self.config_key);
        for m in slice {
            h.write_str(&self.program.method_name(m));
            h.write_u64(self.method_hash[m.index()]);
        }
        let fp = h.finish();
        lock(&self.memo).insert(*key, fp);
        fp
    }
}

/// Canonical rendering of every [`SymexConfig`] field that can change a
/// decision. All fields participate — including the deadlines and the
/// fault-injection hook — so a record is only ever reused under the
/// exact configuration that produced it. The search limits that are
/// constants are covered by [`CACHE_SCHEMA`]: changing one means bumping
/// it.
fn config_fingerprint_key(c: &SymexConfig) -> String {
    format!(
        "repr={:?};loop={:?};simp={};budget={};edge_deadline={:?};total_deadline={:?};\
         null_guards={};inject={:?}",
        c.representation,
        c.loop_mode,
        c.simplification,
        c.budget,
        c.edge_deadline,
        c.total_deadline,
        c.track_null_guards,
        c.inject_panic_on_new,
    )
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// Cache access policy for [`DecisionStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Read existing records and append newly committed decisions.
    #[default]
    ReadWrite,
    /// Read existing records; never write.
    Read,
}

impl std::str::FromStr for CacheMode {
    type Err = String;

    fn from_str(s: &str) -> Result<CacheMode, String> {
        match s {
            "read-write" => Ok(CacheMode::ReadWrite),
            "read" => Ok(CacheMode::Read),
            other => Err(format!("unknown cache mode {other:?} (read-write|read)")),
        }
    }
}

/// Residency limits for a [`DecisionStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreLimits {
    /// Size cap in bytes for the backing JSONL. When an append pushes the
    /// file past the cap, the store compacts: records are rewritten
    /// most-recently-hit first, each one that still fits in half the cap
    /// (hysteresis) kept, and the remainder are dropped — they are pure
    /// decisions, so a dropped record only means one future recomputation,
    /// never a changed answer. `None` (the default) leaves growth
    /// unbounded.
    pub max_bytes: Option<u64>,
}

impl StoreLimits {
    /// Limits with a byte cap on the backing file.
    pub fn with_max_bytes(bytes: u64) -> Self {
        StoreLimits { max_bytes: Some(bytes) }
    }
}

/// Everything one committed edge decision produced — the persisted
/// mirror of the scheduler's in-memory cache entry. Replaying `obs` and
/// merging `stats` at commit reproduces the cold run's report exactly.
#[derive(Clone)]
pub struct PersistedDecision {
    /// The decision (outcome, attempts, degradation flag).
    pub decision: EdgeDecision,
    /// Engine-statistics delta of the original computation.
    pub stats: SearchStats,
    /// Buffered metrics of the original computation.
    pub obs: MetricsDelta,
    /// Compute time of the original computation.
    pub elapsed: Duration,
}

struct StoreInner {
    records: HashMap<u64, PersistedDecision>,
    /// Edge key → fingerprints present, for stale-record (invalidation)
    /// detection.
    edge_fps: HashMap<String, HashSet<u64>>,
    /// Fingerprint → edge key, so compaction can re-serialize records.
    fp_edge: HashMap<u64, String>,
    /// Fingerprint → last-hit generation, the compaction eviction order.
    hit_gen: HashMap<u64, u64>,
    /// Monotonic lookup generation.
    gen: u64,
    /// Current byte length of the backing file (tracked, not re-stat'ed).
    bytes: u64,
    file: Option<std::fs::File>,
}

/// The on-disk decision store: a versioned, append-only JSONL file of
/// fingerprint-keyed decision records, loaded (and resolved against the
/// current program) once at open. Thread-safe; lookups clone.
///
/// Read-write opens take an advisory lock file ([`LOCK_FILE`]) so two
/// processes can never interleave appends into one JSONL: the loser
/// degrades to read-only (counted under
/// [`Counter::CacheLockContended`]) instead of corrupting the store. A
/// lock left behind by a dead process (crash, `kill -9`) is detected by
/// pid liveness and stolen.
pub struct DecisionStore {
    mode: CacheMode,
    path: PathBuf,
    skipped_corrupt: u64,
    limits: StoreLimits,
    /// The lock file this store owns (removed on drop), if any.
    lock_path: Option<PathBuf>,
    /// True when a read-write open lost the lock and degraded to read.
    lock_contended: bool,
    inner: Mutex<StoreInner>,
}

impl DecisionStore {
    /// Opens (and in read-write mode creates) the store under `dir`,
    /// loading every resolvable record. Corrupt lines are skipped and
    /// counted — once, here, under [`Counter::CacheSkippedCorrupt`] — and
    /// a header mismatch discards the whole file (rewritten fresh in
    /// read-write mode). Only I/O that makes the store unusable (an
    /// uncreatable directory, an unopenable append handle) errors.
    pub fn open(dir: &Path, mode: CacheMode, program: &Program) -> std::io::Result<DecisionStore> {
        Self::open_with_limits(dir, mode, program, StoreLimits::default())
    }

    /// [`DecisionStore::open`] with explicit residency limits (see
    /// [`StoreLimits`]).
    pub fn open_with_limits(
        dir: &Path,
        mode: CacheMode,
        program: &Program,
        limits: StoreLimits,
    ) -> std::io::Result<DecisionStore> {
        let mut mode = mode;
        let mut lock_path = None;
        let mut lock_contended = false;
        if mode == CacheMode::ReadWrite {
            std::fs::create_dir_all(dir)?;
            // A leftover compaction scratch file (crash mid-compaction)
            // is never read; clear it so it cannot accumulate.
            let _ = std::fs::remove_file(dir.join(TMP_FILE));
            match acquire_lock(dir) {
                Some(p) => lock_path = Some(p),
                None => {
                    // Another live process owns the store: degrade to
                    // read-only instead of risking interleaved appends.
                    mode = CacheMode::Read;
                    lock_contended = true;
                    obs::add(Counter::CacheLockContended, 1);
                }
            }
        }
        let path = dir.join(CACHE_FILE);
        let resolver = MethodResolver::new(program);
        let mut records = HashMap::new();
        let mut edge_fps: HashMap<String, HashSet<u64>> = HashMap::new();
        let mut skipped = 0u64;
        let mut discard_file = false;
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let mut lines = text.lines();
                match lines.next() {
                    Some(header) if header_ok(header) => {
                        for line in lines {
                            if line.trim().is_empty() {
                                continue;
                            }
                            match parse_record(&resolver, line) {
                                Some((fp, edge_key, d)) => {
                                    edge_fps.entry(edge_key).or_default().insert(fp);
                                    records.insert(fp, d);
                                }
                                None => skipped += 1,
                            }
                        }
                    }
                    Some(_) => {
                        // Version/schema mismatch: the whole file is
                        // unusable. Degrade to cold; start fresh on write.
                        skipped += 1;
                        discard_file = true;
                    }
                    None => {}
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(_) => {
                // Unreadable (permissions, I/O error): degrade to cold.
                skipped += 1;
                discard_file = true;
            }
        }
        let mut bytes = 0u64;
        let file = if mode == CacheMode::ReadWrite {
            let fresh = discard_file || !path.exists();
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(!fresh)
                .write(true)
                .truncate(fresh)
                .open(&path)?;
            if fresh {
                writeln!(f, "{}", header_line())?;
            }
            bytes = f.metadata().map(|m| m.len()).unwrap_or(0);
            Some(f)
        } else {
            None
        };
        if skipped > 0 {
            obs::add(Counter::CacheSkippedCorrupt, skipped);
        }
        let fp_edge: HashMap<u64, String> = edge_fps
            .iter()
            .flat_map(|(key, fps)| fps.iter().map(move |&fp| (fp, key.clone())))
            .collect();
        let hit_gen = records.keys().map(|&fp| (fp, 0)).collect();
        Ok(DecisionStore {
            mode,
            path,
            skipped_corrupt: skipped,
            limits,
            lock_path,
            lock_contended,
            inner: Mutex::new(StoreInner {
                records,
                edge_fps,
                fp_edge,
                hit_gen,
                gen: 0,
                bytes,
                file,
            }),
        })
    }

    /// The store's access mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Path of the backing JSONL file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records (and files) skipped as corrupt, truncated, or
    /// version-mismatched at open.
    pub fn skipped_corrupt(&self) -> u64 {
        self.skipped_corrupt
    }

    /// True when a read-write open lost the advisory lock to another live
    /// process and degraded to read-only.
    pub fn lock_contended(&self) -> bool {
        self.lock_contended
    }

    /// The residency limits this store was opened with.
    pub fn limits(&self) -> StoreLimits {
        self.limits
    }

    /// Tracked byte length of the backing JSONL file (0 in read mode).
    pub fn file_bytes(&self) -> u64 {
        lock(&self.inner).bytes
    }

    /// Number of loaded (resolvable) records.
    pub fn len(&self) -> usize {
        lock(&self.inner).records.len()
    }

    /// True when no record loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The record stored under `fp`, if any. A hit refreshes the record's
    /// generation, protecting it from size-cap compaction.
    pub fn lookup(&self, fp: u64) -> Option<PersistedDecision> {
        let mut inner = lock(&self.inner);
        inner.gen += 1;
        let g = inner.gen;
        let d = inner.records.get(&fp).cloned();
        if d.is_some() {
            inner.hit_gen.insert(fp, g);
        }
        d
    }

    /// True when a record exists for this edge under a *different*
    /// fingerprint — i.e. an edit invalidated a previously cached
    /// decision for the same edge.
    pub fn has_stale(&self, edge_key: &str, fp: u64) -> bool {
        lock(&self.inner).edge_fps.get(edge_key).is_some_and(|s| s.iter().any(|&f| f != fp))
    }

    /// Writes one committed decision through to disk (read-write mode
    /// only; a no-op otherwise or when `fp` is already stored). A
    /// decision whose witness cannot be rendered canonically is silently
    /// not persisted — it will simply be recomputed next run.
    pub fn record(&self, program: &Program, fp: u64, edge_key: &str, d: &PersistedDecision) {
        if self.mode != CacheMode::ReadWrite {
            return;
        }
        let mut inner = lock(&self.inner);
        if inner.records.contains_key(&fp) {
            return;
        }
        let Some(value) = serialize_record(program, fp, edge_key, d) else { return };
        let line = value.to_json();
        if let Some(f) = &mut inner.file {
            // A failed append leaves the in-memory tier intact; worst
            // case the next run recomputes (and the partial line is
            // skipped as corrupt).
            let _ = writeln!(f, "{line}");
            inner.bytes += line.len() as u64 + 1;
        }
        inner.edge_fps.entry(edge_key.to_owned()).or_default().insert(fp);
        inner.fp_edge.insert(fp, edge_key.to_owned());
        inner.gen += 1;
        let g = inner.gen;
        inner.hit_gen.insert(fp, g);
        inner.records.insert(fp, d.clone());
        if self.limits.max_bytes.is_some_and(|cap| inner.bytes > cap) {
            self.compact_locked(program, &mut inner);
        }
    }

    /// Rewrites the backing file keeping, most-recently-hit first, every
    /// record that still fits in half the size cap, dropping the rest.
    /// Writes go to a scratch file atomically renamed over the store, so a
    /// crash at any point leaves either the old or the new file — never a
    /// torn one.
    fn compact_locked(&self, program: &Program, inner: &mut StoreInner) {
        let Some(cap) = self.limits.max_bytes else { return };
        if inner.file.is_none() {
            return;
        }
        let budget = (cap / 2).max(header_line().len() as u64 + 1);
        let mut fps: Vec<u64> = inner.records.keys().copied().collect();
        fps.sort_by_key(|fp| std::cmp::Reverse(inner.hit_gen.get(fp).copied().unwrap_or(0)));
        let mut out = String::new();
        out.push_str(&header_line());
        out.push('\n');
        let mut kept = HashSet::new();
        for fp in fps {
            let Some(key) = inner.fp_edge.get(&fp) else { continue };
            let Some(d) = inner.records.get(&fp) else { continue };
            let Some(v) = serialize_record(program, fp, key, d) else { continue };
            let line = v.to_json();
            // A record too big for what is left is dropped, but older
            // ones that fit still are kept: stopping here would let one
            // oversized (and newest) record empty the store.
            if out.len() as u64 + line.len() as u64 + 1 > budget {
                continue;
            }
            out.push_str(&line);
            out.push('\n');
            kept.insert(fp);
        }
        let tmp = self.path.with_file_name(TMP_FILE);
        // Any I/O failure here keeps the current (oversized but valid)
        // file; the next append retries the compaction.
        if std::fs::write(&tmp, &out).is_err() {
            return;
        }
        if std::fs::rename(&tmp, &self.path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        match std::fs::OpenOptions::new().append(true).open(&self.path) {
            Ok(f) => inner.file = Some(f),
            // The renamed file is intact; this store just stops appending.
            Err(_) => inner.file = None,
        }
        let dropped = (inner.records.len() - kept.len()) as u64;
        inner.records.retain(|fp, _| kept.contains(fp));
        inner.fp_edge.retain(|fp, _| kept.contains(fp));
        inner.hit_gen.retain(|fp, _| kept.contains(fp));
        for fps in inner.edge_fps.values_mut() {
            fps.retain(|fp| kept.contains(fp));
        }
        inner.edge_fps.retain(|_, fps| !fps.is_empty());
        inner.bytes = out.len() as u64;
        obs::add(Counter::CacheCompactions, 1);
        if dropped > 0 {
            obs::add(Counter::CacheRecordsDropped, dropped);
        }
    }
}

impl Drop for DecisionStore {
    fn drop(&mut self) {
        if let Some(p) = &self.lock_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Tries to take the advisory write lock in `dir`: atomically creates
/// [`LOCK_FILE`] containing this process's pid. A lock whose recorded pid
/// is no longer alive (crashed owner) is stolen once. Returns the owned
/// lock path, or `None` when another live process holds it.
fn acquire_lock(dir: &Path) -> Option<PathBuf> {
    let path = dir.join(LOCK_FILE);
    for attempt in 0..2 {
        match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", std::process::id());
                return Some(path);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                if attempt == 0 && lock_holder_is_dead(&path) {
                    let _ = std::fs::remove_file(&path);
                    continue;
                }
                return None;
            }
            Err(_) => return None,
        }
    }
    None
}

/// True when the pid recorded in the lock file provably no longer runs.
/// Unknown (unparseable pid, non-Linux hosts) counts as alive — degrading
/// to read-only is always safe; stealing a live lock is not.
fn lock_holder_is_dead(path: &Path) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else { return false };
    let Ok(pid) = text.trim().parse::<u32>() else { return false };
    if pid == std::process::id() {
        return false;
    }
    #[cfg(target_os = "linux")]
    {
        !Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

fn header_line() -> String {
    Value::Obj(vec![("schema".to_owned(), Value::str(CACHE_SCHEMA))]).to_json()
}

fn header_ok(line: &str) -> bool {
    obs::json::parse(line)
        .ok()
        .and_then(|v| v.get("schema").and_then(Value::as_str).map(|s| s == CACHE_SCHEMA))
        .unwrap_or(false)
}

// ---------------------------------------------------------------------------
// Record (de)serialization
// ---------------------------------------------------------------------------

/// Name-keyed method/command resolution for witness traces.
struct MethodResolver {
    by_name: HashMap<String, MethodId>,
    cmds: HashMap<MethodId, Vec<CmdId>>,
}

impl MethodResolver {
    fn new(program: &Program) -> Self {
        let mut by_name = HashMap::new();
        let mut cmds = HashMap::new();
        for m in program.method_ids() {
            by_name.insert(program.method_name(m), m);
            cmds.insert(m, program.method_cmds(m));
        }
        MethodResolver { by_name, cmds }
    }

    fn resolve(&self, name: &str, ordinal: usize) -> Option<CmdId> {
        let m = *self.by_name.get(name)?;
        self.cmds.get(&m)?.get(ordinal).copied()
    }
}

fn serialize_witness(program: &Program, w: &Witness) -> Option<Value> {
    let mut steps = Vec::with_capacity(w.trace.len());
    for &c in &w.trace {
        let m = program.cmd_method(c);
        let ordinal = program.method_cmds(m).iter().position(|&x| x == c)?;
        steps.push(Value::Arr(vec![
            Value::str(program.method_name(m)),
            Value::uint(ordinal as u64),
        ]));
    }
    Some(Value::Obj(vec![
        ("trace".to_owned(), Value::Arr(steps)),
        ("final_query".to_owned(), Value::str(w.final_query.clone())),
    ]))
}

fn parse_witness(resolver: &MethodResolver, v: &Value) -> Option<Witness> {
    let mut trace = Vec::new();
    for step in v.get("trace")?.as_arr()? {
        let pair = step.as_arr()?;
        let [name, ordinal] = pair else { return None };
        let c = resolver.resolve(name.as_str()?, usize::try_from(ordinal.as_u64()?).ok()?)?;
        trace.push(c);
    }
    let final_query = v.get("final_query")?.as_str()?.to_owned();
    Some(Witness { trace, final_query })
}

fn serialize_outcome(program: &Program, o: &SearchOutcome) -> Option<Value> {
    Some(match o {
        SearchOutcome::Refuted => Value::Obj(vec![("kind".to_owned(), Value::str("refuted"))]),
        SearchOutcome::Witnessed(w) => Value::Obj(vec![
            ("kind".to_owned(), Value::str("witnessed")),
            ("witness".to_owned(), serialize_witness(program, w)?),
        ]),
        SearchOutcome::Aborted(r) => Value::Obj(vec![
            ("kind".to_owned(), Value::str("aborted")),
            ("reason".to_owned(), Value::str(r.to_string())),
        ]),
    })
}

fn parse_outcome(resolver: &MethodResolver, v: &Value) -> Option<SearchOutcome> {
    match v.get("kind")?.as_str()? {
        "refuted" => Some(SearchOutcome::Refuted),
        "witnessed" => Some(SearchOutcome::Witnessed(parse_witness(resolver, v.get("witness")?)?)),
        "aborted" => {
            let reason: StopReason = v.get("reason")?.as_str()?.parse().ok()?;
            Some(SearchOutcome::Aborted(reason))
        }
        _ => None,
    }
}

/// Field order doubles as the schema: (name, getter) pairs shared by the
/// serializer and the parser so they cannot drift apart.
const STAT_FIELDS: [&str; 11] = [
    "path_programs",
    "cmds_executed",
    "subsumed",
    "loop_fixpoints",
    "calls_skipped_irrelevant",
    "calls_skipped_depth",
    "refuted_empty_region",
    "refuted_separation",
    "refuted_pure",
    "refuted_allocation",
    "refuted_entry",
];

fn stats_values(s: &SearchStats) -> [u64; 11] {
    [
        s.path_programs,
        s.cmds_executed,
        s.subsumed,
        s.loop_fixpoints,
        s.calls_skipped_irrelevant,
        s.calls_skipped_depth,
        s.refutations.empty_region,
        s.refutations.separation,
        s.refutations.pure,
        s.refutations.allocation,
        s.refutations.entry,
    ]
}

fn serialize_stats(s: &SearchStats) -> Value {
    Value::Obj(
        STAT_FIELDS
            .iter()
            .zip(stats_values(s))
            .map(|(&k, v)| (k.to_owned(), Value::uint(v)))
            .collect(),
    )
}

fn parse_stats(v: &Value) -> Option<SearchStats> {
    let mut n = [0u64; 11];
    for (slot, &key) in n.iter_mut().zip(STAT_FIELDS.iter()) {
        *slot = v.get(key)?.as_u64()?;
    }
    Some(SearchStats {
        path_programs: n[0],
        cmds_executed: n[1],
        subsumed: n[2],
        loop_fixpoints: n[3],
        calls_skipped_irrelevant: n[4],
        calls_skipped_depth: n[5],
        refutations: RefutationCounts {
            empty_region: n[6],
            separation: n[7],
            pure: n[8],
            allocation: n[9],
            entry: n[10],
        },
    })
}

fn serialize_record(
    program: &Program,
    fp: u64,
    edge_key: &str,
    d: &PersistedDecision,
) -> Option<Value> {
    Some(Value::Obj(vec![
        ("fp".to_owned(), Value::str(format!("{fp:016x}"))),
        ("edge".to_owned(), Value::str(edge_key)),
        ("outcome".to_owned(), serialize_outcome(program, &d.decision.outcome)?),
        ("attempts".to_owned(), Value::uint(u64::from(d.decision.attempts))),
        ("degraded".to_owned(), Value::Bool(d.decision.degraded)),
        ("stats".to_owned(), serialize_stats(&d.stats)),
        ("obs".to_owned(), d.obs.to_value()),
        (
            "elapsed_ns".to_owned(),
            Value::uint(d.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64),
        ),
    ]))
}

fn parse_record(resolver: &MethodResolver, line: &str) -> Option<(u64, String, PersistedDecision)> {
    let v = obs::json::parse(line).ok()?;
    let fp = u64::from_str_radix(v.get("fp")?.as_str()?, 16).ok()?;
    let edge_key = v.get("edge")?.as_str()?.to_owned();
    let outcome = parse_outcome(resolver, v.get("outcome")?)?;
    let attempts = u32::try_from(v.get("attempts")?.as_u64()?).ok()?;
    let degraded = match v.get("degraded")? {
        Value::Bool(b) => *b,
        _ => return None,
    };
    let stats = parse_stats(v.get("stats")?)?;
    let obs = MetricsDelta::from_value(v.get("obs")?)?;
    let elapsed = Duration::from_nanos(v.get("elapsed_ns")?.as_u64()?);
    Some((
        fp,
        edge_key,
        PersistedDecision {
            decision: EdgeDecision { outcome, attempts, degraded },
            stats,
            obs,
            elapsed,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Hist;
    use pta::ContextPolicy;

    const SRC: &str = r#"
class Box { field item: Object; }
global CACHE: Box;
fn helper(o: Object): Object {
  return o;
}
fn main() {
  var b: Box;
  var s: Object;
  b = new Box @box0;
  s = new Object @str0;
  s = call helper(s);
  b.item = s;
  $CACHE = b;
}
entry main;
"#;

    fn setup(src: &str) -> (Program, PtaResult) {
        let p = tir::parse(src).expect("parse");
        let r = pta::analyze(&p, ContextPolicy::Insensitive);
        (p, r)
    }

    fn some_edge(p: &Program, r: &PtaResult) -> HeapEdge {
        let g = p.global_by_name("CACHE").unwrap();
        let target = r.pt_global(g).iter().next().unwrap();
        HeapEdge::Global { global: g, target: LocId(target as u32) }
    }

    fn sample_decision() -> PersistedDecision {
        let stats = SearchStats { path_programs: 3, cmds_executed: 17, ..Default::default() };
        let mut obs = MetricsDelta::default();
        obs.add(Counter::EdgesRefuted, 1);
        obs.add(Counter::PathPrograms, 3);
        obs.observe(Hist::EdgeMicros, 42);
        PersistedDecision {
            decision: EdgeDecision {
                outcome: SearchOutcome::Refuted,
                attempts: 1,
                degraded: false,
            },
            stats,
            obs,
            elapsed: Duration::from_micros(42),
        }
    }

    #[test]
    fn fingerprint_is_stable_and_edit_sensitive() {
        let (p, r) = setup(SRC);
        let cfg = SymexConfig::default();
        let edge = some_edge(&p, &r);
        let fpr1 = Fingerprinter::new(&p, &r, &cfg);
        let fpr2 = Fingerprinter::new(&p, &r, &cfg);
        assert_eq!(fpr1.fingerprint(&edge), fpr2.fingerprint(&edge), "not deterministic");

        // A print/parse round trip renumbers ids but preserves content.
        let p2 = tir::parse(&tir::print_program(&p)).expect("round trip");
        let r2 = pta::analyze(&p2, ContextPolicy::Insensitive);
        let edge2 = some_edge(&p2, &r2);
        let fpr3 = Fingerprinter::new(&p2, &r2, &cfg);
        assert_eq!(fpr1.fingerprint(&edge), fpr3.fingerprint(&edge2), "not id-free");
        assert_eq!(fpr1.edge_key(&edge), fpr3.edge_key(&edge2));

        // Editing a slice method changes the fingerprint.
        let edited = SRC.replace("return o;", "var t: Object;\n  t = o;\n  return t;");
        let (p3, r3) = setup(&edited);
        let edge3 = some_edge(&p3, &r3);
        let fpr4 = Fingerprinter::new(&p3, &r3, &cfg);
        assert_ne!(fpr1.fingerprint(&edge), fpr4.fingerprint(&edge3), "edit not detected");
        assert_eq!(fpr1.edge_key(&edge), fpr4.edge_key(&edge3), "edge key must survive edits");

        // A different config changes the fingerprint too.
        let fpr5 = Fingerprinter::new(&p, &r, &cfg.clone().with_budget(7));
        assert_ne!(fpr1.fingerprint(&edge), fpr5.fingerprint(&edge));
    }

    #[test]
    fn slice_contains_producers_and_callees() {
        let (p, r) = setup(SRC);
        let fpr = Fingerprinter::new(&p, &r, &SymexConfig::default());
        let edge = some_edge(&p, &r);
        let names: Vec<String> = fpr.slice(&edge).into_iter().map(|m| p.method_name(m)).collect();
        assert!(names.contains(&"main".to_owned()), "{names:?}");
        assert!(names.contains(&"helper".to_owned()), "{names:?}");
    }

    #[test]
    fn store_round_trips_records() {
        let (p, r) = setup(SRC);
        let fpr = Fingerprinter::new(&p, &r, &SymexConfig::default());
        let edge = some_edge(&p, &r);
        let fp = fpr.fingerprint(&edge);
        let key = fpr.edge_key(&edge);
        let dir = std::env::temp_dir().join(format!("thresher-persist-{fp:x}"));
        let _ = std::fs::remove_dir_all(&dir);

        // Histograms with zeros, u64::MAX and a saturated sum, plus the
        // one-observation EdgeMicros of the sample.
        let mut original = sample_decision();
        for v in [0, 0, 7, 900, 1 << 40, u64::MAX, u64::MAX] {
            original.obs.observe(Hist::SolverNanos, v);
        }
        original.obs.observe(Hist::HeapCells, 3);

        let store = DecisionStore::open(&dir, CacheMode::ReadWrite, &p).unwrap();
        assert!(store.is_empty());
        store.record(&p, fp, &key, &original);
        assert_eq!(store.len(), 1);
        drop(store);

        let store = DecisionStore::open(&dir, CacheMode::Read, &p).unwrap();
        assert_eq!(store.skipped_corrupt(), 0);
        let d = store.lookup(fp).expect("record survives reopen");
        assert!(d.decision.outcome.is_refuted());
        assert_eq!(d.stats.path_programs, 3);
        assert_eq!(d.obs.counter(Counter::EdgesRefuted), 1);
        for h in [Hist::EdgeMicros, Hist::SolverNanos, Hist::HeapCells, Hist::WitnessTraceLen] {
            // count, sum, max and buckets all survive the round trip.
            assert_eq!(d.obs.histogram(h), original.obs.histogram(h), "{}", h.name());
        }
        assert_eq!(d.obs.histogram(Hist::SolverNanos).sum, u64::MAX);
        assert_eq!(d.obs, original.obs);
        assert_eq!(d.elapsed, Duration::from_micros(42));
        assert!(!store.has_stale(&key, fp));
        assert!(store.has_stale(&key, fp ^ 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn witness_round_trips_by_name_and_ordinal() {
        let (p, r) = setup(SRC);
        let resolver = MethodResolver::new(&p);
        let main = p.method_ids().find(|&m| p.method_name(m) == "main").unwrap();
        let cmds = p.method_cmds(main);
        let w = Witness { trace: vec![cmds[0], cmds[2]], final_query: "q".to_owned() };
        let v = serialize_witness(&p, &w).unwrap();
        let back = parse_witness(&resolver, &v).unwrap();
        assert_eq!(back.trace, w.trace);
        assert_eq!(back.final_query, w.final_query);
        let _ = r;
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let (p, _r) = setup(SRC);
        let dir = std::env::temp_dir().join("thresher-persist-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = serialize_record(&p, 7, "$CACHE => box0", &sample_decision()).unwrap().to_json();
        // Damaged histograms inside an otherwise well-formed record.
        let damaged = |from: &str, to: &str| {
            assert!(good.contains(from), "{from} not in {good}");
            good.replace(from, to)
        };
        let bad_obs = [
            damaged("\"edge_refutation_us\"", "\"no_such_hist\""),
            damaged("\"buckets\":[[6,1]]", "\"buckets\":[[65,1]]"),
            damaged("[[6,1]]", "[[6,\"one\"]]"),
        ];
        std::fs::write(
            dir.join(CACHE_FILE),
            format!(
                "{}\nnot json at all\n{}\n{{\"fp\":\"zz\"}}\n{}\n{{\"truncat",
                header_line(),
                good,
                bad_obs.join("\n")
            ),
        )
        .unwrap();
        let store = DecisionStore::open(&dir, CacheMode::Read, &p).unwrap();
        assert_eq!(store.len(), 1, "the good record loads");
        assert_eq!(store.skipped_corrupt(), 3 + bad_obs.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_discards_file() {
        let (p, _r) = setup(SRC);
        let dir = std::env::temp_dir().join("thresher-persist-version");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = serialize_record(&p, 7, "$CACHE => box0", &sample_decision()).unwrap();
        std::fs::write(
            dir.join(CACHE_FILE),
            format!("{{\"schema\":\"thresher.cache/999\"}}\n{}", good.to_json()),
        )
        .unwrap();
        let store = DecisionStore::open(&dir, CacheMode::Read, &p).unwrap();
        assert!(store.is_empty(), "mismatched file must be ignored wholesale");
        assert_eq!(store.skipped_corrupt(), 1);

        // Read-write mode starts the file over with a fresh header.
        let store = DecisionStore::open(&dir, CacheMode::ReadWrite, &p).unwrap();
        store.record(&p, 7, "$CACHE => box0", &sample_decision());
        drop(store);
        let store = DecisionStore::open(&dir, CacheMode::Read, &p).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.skipped_corrupt(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_mode_never_writes() {
        let (p, _r) = setup(SRC);
        let dir = std::env::temp_dir().join("thresher-persist-readonly");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CACHE_FILE), format!("{}\n", header_line())).unwrap();
        let store = DecisionStore::open(&dir, CacheMode::Read, &p).unwrap();
        store.record(&p, 7, "$CACHE => box0", &sample_decision());
        assert!(store.is_empty());
        drop(store);
        let text = std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        assert_eq!(text.lines().count(), 1, "read mode must not append");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_lock_degrades_second_writer() {
        let (p, _r) = setup(SRC);
        let dir = std::env::temp_dir().join("thresher-persist-lock");
        let _ = std::fs::remove_dir_all(&dir);

        let a = DecisionStore::open(&dir, CacheMode::ReadWrite, &p).unwrap();
        assert!(!a.lock_contended());
        assert_eq!(a.mode(), CacheMode::ReadWrite);

        // Same store, second writer: must degrade to read-only, not
        // interleave appends.
        let b = DecisionStore::open(&dir, CacheMode::ReadWrite, &p).unwrap();
        assert!(b.lock_contended());
        assert_eq!(b.mode(), CacheMode::Read);
        b.record(&p, 7, "$CACHE => box0", &sample_decision());
        assert!(b.is_empty(), "degraded store must not write");

        // Read mode never contends.
        let r = DecisionStore::open(&dir, CacheMode::Read, &p).unwrap();
        assert!(!r.lock_contended());

        // Dropping the owner releases the lock for the next writer.
        drop(a);
        let c = DecisionStore::open(&dir, CacheMode::ReadWrite, &p).unwrap();
        assert!(!c.lock_contended());
        assert_eq!(c.mode(), CacheMode::ReadWrite);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_dead_process_is_stolen() {
        let (p, _r) = setup(SRC);
        let dir = std::env::temp_dir().join("thresher-persist-stale-lock");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A pid far above any real pid_max: provably dead on Linux.
        std::fs::write(dir.join(LOCK_FILE), "999999999\n").unwrap();
        let store = DecisionStore::open(&dir, CacheMode::ReadWrite, &p).unwrap();
        #[cfg(target_os = "linux")]
        {
            assert!(!store.lock_contended(), "dead owner's lock must be stolen");
            assert_eq!(store.mode(), CacheMode::ReadWrite);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_cap_compaction_keeps_recently_hit_and_bounds_file() {
        let (p, _r) = setup(SRC);
        let dir = std::env::temp_dir().join("thresher-persist-compact");
        let _ = std::fs::remove_dir_all(&dir);
        let hot = 1_000u64;
        let key = |i: u64| format!("$CACHE => box{i}");
        // A compaction keeps the newest record first and the hot one
        // second. Half the cap holds the header and four of the longest
        // records, so the hot one survives however long a record grows.
        let line_len = |i: u64| {
            let v = serialize_record(&p, hot + i, &key(i), &sample_decision()).unwrap();
            v.to_json().len() as u64 + 1
        };
        let longest = (0..40u64).map(line_len).max().unwrap();
        let cap = 2 * (header_line().len() as u64 + 1 + 4 * longest);
        let store = DecisionStore::open_with_limits(
            &dir,
            CacheMode::ReadWrite,
            &p,
            StoreLimits::with_max_bytes(cap),
        )
        .unwrap();
        for i in 0..40u64 {
            store.record(&p, hot + i, &key(i), &sample_decision());
            // Keep the first record hot: every compaction must spare it.
            assert!(store.lookup(hot).is_some(), "hot record evicted at step {i}");
        }
        assert!(store.file_bytes() <= cap, "file over cap: {}", store.file_bytes());
        assert!(store.len() < 40, "compaction never dropped anything");
        drop(store);

        // The rewritten file is valid and the kept records survive reopen.
        let back = DecisionStore::open(&dir, CacheMode::Read, &p).unwrap();
        assert_eq!(back.skipped_corrupt(), 0, "compacted file must be clean");
        assert!(back.lookup(hot).is_some());
        let on_disk = std::fs::metadata(dir.join(CACHE_FILE)).unwrap().len();
        assert!(on_disk <= cap);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_skips_an_oversized_record_and_keeps_older_ones() {
        let (p, _r) = setup(SRC);
        let dir = std::env::temp_dir().join("thresher-persist-compact-oversized");
        let _ = std::fs::remove_dir_all(&dir);
        let cap = 4096u64;
        let store = DecisionStore::open_with_limits(
            &dir,
            CacheMode::ReadWrite,
            &p,
            StoreLimits::with_max_bytes(cap),
        )
        .unwrap();
        for fp in 1..=3u64 {
            store.record(&p, fp, &format!("$CACHE => box{fp}"), &sample_decision());
        }
        assert!(store.file_bytes() < cap / 2);
        // The newest record alone is bigger than half the cap, so it is
        // the first one compaction considers and the only one it drops.
        let mut big = sample_decision();
        big.decision.outcome = SearchOutcome::Witnessed(Witness {
            trace: Vec::new(),
            final_query: "q".repeat(cap as usize),
        });
        store.record(&p, 4, "$CACHE => box4", &big);
        assert_eq!(store.len(), 3, "compaction must keep the older records that fit");
        assert!(store.lookup(4).is_none());
        assert!(store.file_bytes() <= cap / 2);
        drop(store);

        let back = DecisionStore::open(&dir, CacheMode::Read, &p).unwrap();
        assert_eq!(back.skipped_corrupt(), 0);
        assert_eq!(back.len(), 3);
        for fp in 1..=3u64 {
            assert!(back.lookup(fp).is_some(), "record {fp} lost");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_compaction_scratch_is_ignored_and_cleared() {
        let (p, _r) = setup(SRC);
        let dir = std::env::temp_dir().join("thresher-persist-scratch");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Simulate a kill -9 mid-compaction: a half-written scratch file.
        std::fs::write(dir.join(TMP_FILE), "{\"fp\":\"trunc").unwrap();
        let store = DecisionStore::open(&dir, CacheMode::ReadWrite, &p).unwrap();
        store.record(&p, 7, "$CACHE => box0", &sample_decision());
        assert!(!dir.join(TMP_FILE).exists(), "scratch file must be cleared at open");
        assert_eq!(store.len(), 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_mode_parses() {
        assert_eq!("read-write".parse::<CacheMode>(), Ok(CacheMode::ReadWrite));
        assert_eq!("read".parse::<CacheMode>(), Ok(CacheMode::Read));
        // Leaving the cache off is leaving out the store, not a mode.
        assert!("off".parse::<CacheMode>().is_err());
        assert!("rw".parse::<CacheMode>().is_err());
    }
}
