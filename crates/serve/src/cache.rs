//! The spec-keyed result store and the in-memory instance cache.
//!
//! A solve result is addressed by the canonical triple
//! `(instance_spec, machine_spec, sched_spec)` — exactly the strings the
//! registries round-trip through [`spec()`][bsp_schedule::SchedulerSpec],
//! so two requests naming the same problem in different parameter order
//! land on the same entry. The store persists as a line-oriented,
//! per-entry checksummed file ([`STORE_SCHEMA`], "store-v2") and
//! survives server restarts — including restarts after a crash mid-write:
//! every entry line carries its own byte length and FNV-1a 64 checksum,
//! so truncated or bit-flipped lines are quarantined to `<path>.corrupt`
//! (and counted in `bsp_store_corrupt_total`) while every intact entry
//! keeps being served. Legacy single-JSON-document v1 files are migrated
//! transparently on load and rewritten as v2 on the next save.
//!
//! The [`InstanceCache`] keeps a *recipe* for every instance the daemon
//! has resolved, and a bounded set of the instances themselves:
//!
//! - **Recipes.** A generated instance's recipe is its canonical name,
//!   which spells out its seed; an edited one's is `(base name, edit
//!   list)`, kept under its derived `…+edit<fnv> @ …` name, so `delta`s
//!   chain. Raw request specs (per seed) and `delta` labels are aliases
//!   of canonical names.
//! - **Two tiers.** First-use instances wait in a probation FIFO sized to
//!   the job queue; an instance looked up again moves to a reuse tier,
//!   an LRU under a byte budget ([`REUSE_BUDGET_BYTES`]).
//! - **Rebuild on miss.** An evicted instance is rebuilt from its recipe
//!   when it is next needed, a derived chain base first.
//! - **No instance on the hit path.** A stored result is addressed by
//!   canonical name, and resolving a name reads only the alias tables, so
//!   a stored `solve` (and a `delta` whose recipe matches its edits) is
//!   answered without materialising anything.
//!
//! ```
//! use bsp_serve::cache::ResultKey;
//!
//! let key = ResultKey::from_name("spmv?n=500&q=0.25 @ bsp?p=4&g=2", "etf").unwrap();
//! assert_eq!(key.machine, "bsp?p=4&g=2");
//! assert_eq!(key.composite(), "spmv?n=500&q=0.25 @ bsp?p=4&g=2 :: etf");
//! ```

use bsp_instance::source::{InstanceRegistry, DEFAULT_SEED};
use bsp_instance::{apply_edits, DagEdit, Instance};
use serde::{json, Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;

/// Schema tag of the persisted store file: the first line of a v2 file.
/// Every following line frames one entry as
/// `<json-byte-len> <fnv64-hex> <entry-json>`.
pub const STORE_SCHEMA: &str = "bsp-serve/store-v2";

/// Schema tag of the legacy single-JSON-document format, still accepted
/// (and migrated) on load.
pub const STORE_SCHEMA_V1: &str = "bsp-serve/store-v1";

/// FNV-1a 64-bit hash — the per-entry store checksum, also reused for
/// instance fingerprints elsewhere in the crate.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Process-global counter of quarantined store entries.
fn store_corrupt_metric() -> &'static bsp_obs::Counter {
    static METRIC: std::sync::OnceLock<bsp_obs::Counter> = std::sync::OnceLock::new();
    METRIC.get_or_init(|| bsp_obs::global().counter("bsp_store_corrupt_total", &[]))
}

/// Raises any injected fault for a store I/O site: `io_err`/`drop` become
/// an `Err` the caller surfaces, `panic`/`slow` act in place.
fn store_fault(site: bsp_faults::Site, what: &str) -> Result<(), String> {
    if let Some(plan) = bsp_faults::current() {
        match plan.fault_at(site) {
            Some(bsp_faults::Fault::IoErr) | Some(bsp_faults::Fault::Drop) => {
                return Err(format!("injected fault: io_err during {what}"));
            }
            Some(bsp_faults::Fault::Panic) => panic!("injected fault: panic during {what}"),
            Some(bsp_faults::Fault::Slow(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms))
            }
            None => {}
        }
    }
    Ok(())
}

/// The canonical address of one cached result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// DAG half of the instance spec (`"spmv?n=500"`).
    pub instance: String,
    /// Machine half of the instance spec (`"bsp?p=4&g=2&l=5"`).
    pub machine: String,
    /// Canonical scheduler spec (`"pipeline/base?ilp=off"`).
    pub sched: String,
}

impl ResultKey {
    /// Builds a key from a full instance name (`"dag @ machine"`) and a
    /// canonical scheduler spec. Returns `None` if `name` has no
    /// `" @ "` separator.
    pub fn from_name(name: &str, sched: &str) -> Option<ResultKey> {
        let (dag, machine) = name.split_once(" @ ")?;
        Some(ResultKey {
            instance: dag.to_string(),
            machine: machine.to_string(),
            sched: sched.to_string(),
        })
    }

    /// The flat string form used as the persisted map key.
    pub fn composite(&self) -> String {
        format!("{} @ {} :: {}", self.instance, self.machine, self.sched)
    }
}

/// One cached schedule: the assignment vectors plus its cost, in a form
/// that serializes directly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedResult {
    /// DAG half of the instance spec.
    pub instance: String,
    /// Machine half of the instance spec.
    pub machine: String,
    /// Canonical scheduler spec.
    pub sched: String,
    /// Final schedule cost.
    pub cost: u64,
    /// Node → processor assignment.
    pub procs: Vec<u32>,
    /// Node → superstep assignment.
    pub steps: Vec<u32>,
}

impl CachedResult {
    /// The key this entry lives under.
    pub fn key(&self) -> ResultKey {
        ResultKey {
            instance: self.instance.clone(),
            machine: self.machine.clone(),
            sched: self.sched.clone(),
        }
    }
}

/// The persisted file shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoreFile {
    schema: String,
    entries: Vec<CachedResult>,
}

/// Hit/miss counters of a [`ResultStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently stored.
    pub len: u64,
    /// Entries evicted by the LRU cap.
    pub evictions: u64,
    /// Corrupt/truncated entries quarantined at load time.
    pub corrupt: u64,
}

/// The spec-keyed result store. Not internally synchronized — the server
/// wraps it in a `Mutex`. An optional LRU entry cap (`--store-cap`)
/// bounds its size: recency is tracked per lookup/insert and the
/// least-recently-used entry is dropped when an insert overflows the cap.
#[derive(Debug, Default)]
pub struct ResultStore {
    map: HashMap<String, CachedResult>,
    /// Entry cap; `None` = unbounded (the default).
    cap: Option<usize>,
    /// Logical clock for LRU recency (ticks on get/insert).
    tick: u64,
    /// Key → last-used tick.
    recency: HashMap<String, u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    corrupt: u64,
    dirty: bool,
}

impl ResultStore {
    /// An empty store.
    pub fn new() -> Self {
        ResultStore::default()
    }

    /// Sets the LRU entry cap (`None` = unbounded), evicting down to it
    /// immediately if the store already overflows.
    pub fn set_cap(&mut self, cap: Option<usize>) {
        self.cap = cap;
        self.enforce_cap();
    }

    /// The configured entry cap.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Stamps `key` with the next tick. Borrows only the recency fields,
    /// so `get` can call it while it holds the entry it lends.
    fn touch(recency: &mut HashMap<String, u64>, tick: &mut u64, key: String) {
        *tick += 1;
        recency.insert(key, *tick);
    }

    /// Evicts least-recently-used entries until the cap holds. Entries
    /// never looked up rank oldest (tick 0); composite-key order breaks
    /// ties for determinism.
    fn enforce_cap(&mut self) {
        let Some(cap) = self.cap else { return };
        while self.map.len() > cap {
            let victim = self
                .map
                .keys()
                .min_by_key(|k| (self.recency.get(*k).copied().unwrap_or(0), (*k).clone()))
                .cloned()
                .expect("len > cap ≥ 0 implies non-empty");
            self.map.remove(&victim);
            self.recency.remove(&victim);
            self.evictions += 1;
            self.dirty = true;
        }
    }

    /// Parses one v2 entry line (`<len> <fnv64-hex> <json>`), returning
    /// `None` for truncated, bit-flipped or otherwise malformed lines.
    fn parse_v2_line(line: &str) -> Option<CachedResult> {
        let (len_s, rest) = line.split_once(' ')?;
        let (sum_s, body) = rest.split_once(' ')?;
        let len: usize = len_s.parse().ok()?;
        let sum = u64::from_str_radix(sum_s, 16).ok()?;
        if body.len() != len || fnv64(body.as_bytes()) != sum {
            return None;
        }
        json::from_str::<CachedResult>(body).ok()
    }

    /// Loads a store from `path`. A missing file yields an empty store.
    /// Corrupt or truncated content never aborts startup: v2 entry lines
    /// that fail their length/checksum/JSON validation — and v1 documents
    /// that fail to parse — are appended verbatim to `<path>.corrupt`,
    /// counted in [`StoreStats::corrupt`] and `bsp_store_corrupt_total`,
    /// while every intact entry is served. Legacy v1 documents that *do*
    /// parse are migrated in memory (the store comes back dirty so the
    /// next save rewrites them as v2).
    pub fn load(path: &Path) -> Result<Self, String> {
        store_fault(bsp_faults::Site::StoreLoad, "store load")?;
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ResultStore::new()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        // Lossy decode: a bit-flip can make a line invalid UTF-8, and
        // that line must land in quarantine (the replacement characters
        // fail its checksum), not abort the whole load.
        let text = String::from_utf8_lossy(&bytes);
        let mut store = ResultStore::new();
        let mut quarantined: Vec<&str> = Vec::new();
        let mut lines = text.lines();
        match lines.next() {
            None => {}
            Some(header) if header == STORE_SCHEMA => {
                for line in lines {
                    if line.is_empty() {
                        continue;
                    }
                    match ResultStore::parse_v2_line(line) {
                        Some(entry) => {
                            store.map.insert(entry.key().composite(), entry);
                        }
                        None => quarantined.push(line),
                    }
                }
            }
            Some(header) if header.trim_start().starts_with('{') => {
                match json::from_str::<StoreFile>(&text) {
                    Ok(file) if file.schema == STORE_SCHEMA_V1 => {
                        for entry in file.entries {
                            store.map.insert(entry.key().composite(), entry);
                        }
                        store.dirty = true; // rewrite as v2 on the next save
                    }
                    _ => quarantined.push(text.trim_end()),
                }
            }
            Some(_) => quarantined.push(text.trim_end()),
        }
        if !quarantined.is_empty() {
            store.corrupt = quarantined.len() as u64;
            store_corrupt_metric().add(store.corrupt);
            let qpath = format!("{}.corrupt", path.display());
            let mut blob = quarantined.join("\n");
            blob.push('\n');
            use std::io::Write;
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&qpath)
            {
                Ok(mut f) => {
                    let _ = f.write_all(blob.as_bytes());
                }
                Err(e) => return Err(format!("{qpath}: {e}")),
            }
        }
        Ok(store)
    }

    /// Writes the store to `path` in v2 format — atomically (temp file +
    /// rename) and durably (fsync of the temp file before the rename, of
    /// the parent directory after) — then clears the dirty flag. Entries
    /// are sorted by key for byte-stable output.
    pub fn save(&mut self, path: &Path) -> Result<(), String> {
        store_fault(bsp_faults::Site::StoreSave, "store save")?;
        let mut entries: Vec<&CachedResult> = self.map.values().collect();
        entries.sort_by_key(|e| e.key().composite());
        let mut out = String::with_capacity(64 + entries.len() * 128);
        out.push_str(STORE_SCHEMA);
        out.push('\n');
        for entry in entries {
            let body = json::to_string(entry);
            out.push_str(&format!(
                "{} {:016x} {body}\n",
                body.len(),
                fnv64(body.as_bytes())
            ));
        }
        let tmp = path.with_extension("tmp");
        {
            use std::io::Write;
            let mut f =
                std::fs::File::create(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
            f.write_all(out.as_bytes())
                .map_err(|e| format!("{}: {e}", tmp.display()))?;
            f.sync_all()
                .map_err(|e| format!("{}: {e}", tmp.display()))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                // Make the rename itself durable; best-effort on platforms
                // where directories cannot be fsynced.
                if let Ok(dir) = std::fs::File::open(parent) {
                    let _ = dir.sync_all();
                }
            }
        }
        self.dirty = false;
        Ok(())
    }

    /// Looks up `key`, counting the hit or miss and refreshing the
    /// entry's LRU recency. The entry is lent, not copied: a caller that
    /// needs it past the store's lock clones what it keeps.
    pub fn get(&mut self, key: &ResultKey) -> Option<&CachedResult> {
        let composite = key.composite();
        if !self.map.contains_key(&composite) {
            self.misses += 1;
        }
        self.hit(composite)
    }

    /// [`get`](Self::get) for a caller that is not the request's last
    /// stop: an absent key counts nothing, because the lookup that
    /// follows will count it.
    pub fn get_if_present(&mut self, key: &ResultKey) -> Option<&CachedResult> {
        self.hit(key.composite())
    }

    /// Counts a miss the caller decided without a lookup: a key whose
    /// entry, if any, it cannot trust.
    pub fn count_miss(&mut self) {
        self.misses += 1;
    }

    /// Counts a hit and refreshes recency if `composite` is stored.
    fn hit(&mut self, composite: String) -> Option<&CachedResult> {
        let entry = self.map.get(&composite)?;
        self.hits += 1;
        ResultStore::touch(&mut self.recency, &mut self.tick, composite);
        Some(entry)
    }

    /// Looks up `key` without touching the counters (internal warm-start
    /// probes are not client-visible cache traffic).
    pub fn peek(&self, key: &ResultKey) -> Option<&CachedResult> {
        self.map.get(&key.composite())
    }

    /// Inserts (or replaces) an entry, marks the store dirty and evicts
    /// the least-recently-used entry if the cap overflows.
    pub fn insert(&mut self, entry: CachedResult) {
        let composite = entry.key().composite();
        self.map.insert(composite.clone(), entry);
        ResultStore::touch(&mut self.recency, &mut self.tick, composite);
        self.dirty = true;
        self.enforce_cap();
    }

    /// Whether there are unsaved changes.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits,
            misses: self.misses,
            len: self.map.len() as u64,
            evictions: self.evictions,
            corrupt: self.corrupt,
        }
    }
}

/// Byte budget of the instance cache's reuse tier (see [`InstanceCache`]).
/// An instance larger than the whole budget still stays until the next
/// one is looked up again.
pub const REUSE_BUDGET_BYTES: usize = 64 << 20;

/// How to rebuild an instance the cache has resolved. Every resolved name
/// keeps its recipe for as long as the cache lives; only the materialised
/// instances are evicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recipe {
    /// Made by the instance registry. The canonical name spells out every
    /// parameter and the effective seed, so `generate_one(name, _)`
    /// rebuilds the same instance.
    Generated,
    /// The instance named `base` with `edits` applied: a `delta`'s
    /// instance, named `<base dag>+edit<fnv> @ <machine>`.
    Derived {
        /// Canonical name of the base instance.
        base: String,
        /// The edits, in request order.
        edits: Vec<DagEdit>,
    },
}

/// What [`InstanceCache::get`] found for a canonical name.
#[derive(Debug)]
pub enum Lookup {
    /// The instance is resident.
    Resident(Arc<Instance>),
    /// The name is known but its instance was evicted: [`Rebuild::run`]
    /// replays its recipe (outside any lock) and
    /// [`InstanceCache::insert`] takes the result back with no recipe.
    Rebuild(Rebuild),
    /// The cache never resolved this name.
    Unknown,
}

/// Where a [`Rebuild`] starts.
#[derive(Debug)]
enum Root {
    /// A resident ancestor of a derived chain.
    Resident(Arc<Instance>),
    /// A generated instance to regenerate from its canonical name.
    Generate(String),
}

/// A recipe chain to replay: a root, then the `(name, edits)` steps from
/// it to the wanted instance, base first.
#[derive(Debug)]
pub struct Rebuild {
    root: Root,
    steps: Vec<(String, Vec<DagEdit>)>,
}

impl Rebuild {
    /// Instances the replay builds: the root if it is regenerated, and
    /// one per edit step.
    pub fn builds(&self) -> usize {
        self.steps.len() + usize::from(matches!(self.root, Root::Generate(_)))
    }

    /// Replays the chain iteratively, base first.
    pub fn run(&self, registry: &InstanceRegistry) -> Result<Arc<Instance>, String> {
        let mut inst = match &self.root {
            Root::Resident(root) => root.clone(),
            Root::Generate(name) => {
                let inst = registry
                    .generate_one(name, DEFAULT_SEED)
                    .map_err(|e| format!("{name:?}: {e}"))?;
                if inst.name != *name {
                    return Err(format!("{name:?} regenerates as {:?}", inst.name));
                }
                Arc::new(inst)
            }
        };
        for (name, edits) in &self.steps {
            let edited = apply_edits(&inst.dag, edits).map_err(|e| format!("{name:?}: {e}"))?;
            inst = Arc::new(Instance {
                name: name.clone(),
                dag: edited.dag,
                machine: inst.machine.clone(),
            });
        }
        Ok(inst)
    }
}

/// One materialised instance.
#[derive(Debug)]
struct Resident {
    inst: Arc<Instance>,
    /// [`footprint`] of `inst`.
    bytes: usize,
    /// Its key in the reuse tier's LRU order; `None` while on probation.
    tick: Option<u64>,
}

/// Estimated heap bytes of an instance: the DAG's CSR arrays and weights,
/// the machine's NUMA matrix and the name.
fn footprint(inst: &Instance) -> usize {
    let (n, m, p) = (inst.dag.n(), inst.dag.m(), inst.machine.p());
    std::mem::size_of::<Instance>()
        + inst.name.len()
        + 2 * 4 * (n + 1)
        + 2 * 4 * m
        + 2 * 8 * n
        + 8 * p * p
}

/// The instances the daemon has resolved: a recipe for every name, and a
/// bounded set of materialised instances.
///
/// **Names.** A request names an instance by raw spec and seed, by a
/// `delta` label, or by canonical name. Raw specs are remembered per
/// effective seed as aliases of the canonical name, so
/// `"spmv?q=0.3&n=100 @ bsp?p=4"` and its canonical ordering resolve to
/// the same entry while `"erdos?n=50 @ bsp?p=4"` under seeds 1 and 2
/// resolve to two. [`resolve`](Self::resolve) answers from these tables
/// alone: a stored result is found from the name and the
/// [`ResultStore`], and needs no instance.
///
/// **Resident set.** Materialised instances live in two tiers:
/// - *probation*, a FIFO of `probation_cap` first-use instances: the
///   daemon passes its queue capacity, the instances of jobs that can
///   still be in flight;
/// - the *reuse* tier, which an instance enters when it is looked up
///   again: an LRU under [`REUSE_BUDGET_BYTES`], so a base that takes
///   delta after delta stays resident.
///
/// **Rebuild.** A [`get`](Self::get) that misses returns the name's
/// recipe chain, replayed base first from the nearest resident ancestor
/// or by regenerating the root.
#[derive(Debug, Default)]
pub struct InstanceCache {
    recipes: HashMap<String, Recipe>,
    /// Raw spec → `(effective seed, canonical name)` for each seed it
    /// was requested under.
    aliases: HashMap<String, Vec<(u64, String)>>,
    /// `delta` label → canonical name.
    labels: HashMap<String, String>,
    resident: HashMap<String, Resident>,
    probation: VecDeque<String>,
    probation_cap: usize,
    /// The reuse tier in LRU order: last-use tick → name.
    reuse: BTreeMap<u64, String>,
    reuse_bytes: usize,
    /// [`REUSE_BUDGET_BYTES`]; a field only so tests can shrink it.
    budget: usize,
    tick: u64,
    evictions: u64,
}

impl InstanceCache {
    /// An empty cache whose probation FIFO holds `probation_cap`
    /// instances.
    pub fn new(probation_cap: usize) -> Self {
        InstanceCache {
            probation_cap,
            budget: REUSE_BUDGET_BYTES,
            ..InstanceCache::default()
        }
    }

    /// The canonical name `spec` requested under `seed` resolves to:
    /// through the alias table, then the labels, then as a name the cache
    /// already knows.
    pub fn resolve(&self, spec: &str, seed: u64) -> Option<&str> {
        let alias = self
            .aliases
            .get(spec)
            .and_then(|seeds| seeds.iter().find(|(s, _)| *s == seed));
        if let Some((_, name)) = alias {
            return Some(name);
        }
        if let Some(name) = self.labels.get(spec) {
            return Some(name);
        }
        self.recipes
            .get_key_value(spec)
            .map(|(name, _)| name.as_str())
    }

    /// Remembers that raw `spec` under `seed` resolved to `name`.
    pub fn alias(&mut self, spec: &str, seed: u64, name: &str) {
        if spec == name {
            return; // a canonical name resolves as itself
        }
        match self.aliases.get_mut(spec) {
            Some(seeds) => match seeds.iter_mut().find(|(s, _)| *s == seed) {
                Some(entry) => entry.1 = name.to_string(),
                None => seeds.push((seed, name.to_string())),
            },
            None => {
                self.aliases
                    .insert(spec.to_string(), vec![(seed, name.to_string())]);
            }
        }
    }

    /// Points the `delta` label `label` at `name`.
    pub fn label(&mut self, label: &str, name: &str) {
        if label != name {
            self.labels.insert(label.to_string(), name.to_string());
        }
    }

    /// Whether `name` was derived from `base` by exactly `edits`. A derived
    /// name carries only a 64-bit hash of its edits, so a stored answer
    /// under it is the request's answer only if this holds.
    pub fn derived_from(&self, name: &str, base: &str, edits: &[DagEdit]) -> bool {
        matches!(
            self.recipes.get(name),
            Some(Recipe::Derived { base: b, edits: e }) if b == base && e.as_slice() == edits
        )
    }

    /// Looks `name` up to use its instance: a resident instance moves to
    /// the reuse tier's most recent end; an evicted one comes back as
    /// the recipe chain that rebuilds it.
    pub fn get(&mut self, name: &str) -> Lookup {
        if let Some(entry) = self.detach(name) {
            let inst = entry.inst.clone();
            self.attach(name.to_string(), entry, true);
            return Lookup::Resident(inst);
        }
        let mut steps = Vec::new();
        let mut at = name;
        let root = loop {
            if let Some(entry) = self.resident.get(at) {
                break Root::Resident(entry.inst.clone());
            }
            match self.recipes.get(at) {
                None => return Lookup::Unknown,
                Some(Recipe::Generated) => break Root::Generate(at.to_string()),
                Some(Recipe::Derived { base, edits }) => {
                    steps.push((at.to_string(), edits.clone()));
                    at = base;
                }
            }
        };
        steps.reverse();
        Lookup::Rebuild(Rebuild { root, steps })
    }

    /// Makes `inst` resident under its own name, with `recipe` as the way
    /// to rebuild it (`None`: a rebuilt instance keeps the recipe it has).
    /// A name seen for the first time goes on probation; a name the cache
    /// already knew was looked up again and enters the reuse tier.
    pub fn insert(&mut self, inst: Arc<Instance>, recipe: Option<Recipe>) {
        let known = self.recipes.contains_key(&inst.name);
        debug_assert!(known || recipe.is_some(), "{} has no recipe", inst.name);
        if let Some(recipe) = recipe {
            self.recipes.insert(inst.name.clone(), recipe);
        }
        self.detach(&inst.name);
        let entry = Resident {
            bytes: footprint(&inst),
            inst,
            tick: None,
        };
        self.attach(entry.inst.name.clone(), entry, known);
    }

    /// Takes `name` out of whichever tier holds it.
    fn detach(&mut self, name: &str) -> Option<Resident> {
        let entry = self.resident.remove(name)?;
        match entry.tick {
            Some(tick) => {
                self.reuse.remove(&tick);
                self.reuse_bytes -= entry.bytes;
            }
            None => self.probation.retain(|n| n != name),
        }
        Some(entry)
    }

    /// Puts a detached entry into the reuse tier (`reused`) or on
    /// probation, then evicts what no longer fits: the oldest probation
    /// entries past the cap, the least recently used reuse entries past
    /// the byte budget (never the one just placed).
    fn attach(&mut self, name: String, mut entry: Resident, reused: bool) {
        if reused {
            self.tick += 1;
            entry.tick = Some(self.tick);
            self.reuse.insert(self.tick, name.clone());
            self.reuse_bytes += entry.bytes;
        } else {
            entry.tick = None;
            self.probation.push_back(name.clone());
        }
        self.resident.insert(name, entry);
        while self.probation.len() > self.probation_cap {
            let victim = self.probation.pop_front().expect("len > cap ≥ 0");
            self.resident.remove(&victim);
            self.evictions += 1;
        }
        while self.reuse_bytes > self.budget && self.reuse.len() > 1 {
            let (_, victim) = self.reuse.pop_first().expect("len > 1");
            let gone = self
                .resident
                .remove(&victim)
                .expect("reuse names are resident");
            self.reuse_bytes -= gone.bytes;
            self.evictions += 1;
        }
    }

    /// Number of resident (materialised) instances.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether no instance is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Instances evicted so far, from either tier.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(instance: &str, sched: &str, cost: u64) -> CachedResult {
        CachedResult {
            instance: instance.to_string(),
            machine: "bsp?p=4".to_string(),
            sched: sched.to_string(),
            cost,
            procs: vec![0, 1, 2],
            steps: vec![0, 0, 1],
        }
    }

    #[test]
    fn store_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("bsp-serve-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let _ = std::fs::remove_file(&path);

        let mut store = ResultStore::new();
        store.insert(entry("spmv?n=100", "pipeline/base?ilp=off", 42));
        store.insert(entry("grid?side=8", "etf", 99));
        assert!(store.is_dirty());
        store.save(&path).unwrap();
        assert!(!store.is_dirty());

        let mut loaded = ResultStore::load(&path).unwrap();
        let key = ResultKey {
            instance: "spmv?n=100".to_string(),
            machine: "bsp?p=4".to_string(),
            sched: "pipeline/base?ilp=off".to_string(),
        };
        let got = loaded.get(&key).unwrap();
        assert_eq!(got.cost, 42);
        assert_eq!(loaded.stats().hits, 1);
        assert_eq!(loaded.stats().len, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_loads_empty_and_corrupt_content_is_quarantined() {
        let dir = std::env::temp_dir().join("bsp-serve-cache-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("absent.json");
        let _ = std::fs::remove_file(&missing);
        assert_eq!(ResultStore::load(&missing).unwrap().stats().len, 0);

        // A malformed JSON-looking file no longer aborts startup: the
        // whole document is quarantined and the store comes back empty.
        let corrupt = dir.join("corrupt.json");
        let qpath = format!("{}.corrupt", corrupt.display());
        let _ = std::fs::remove_file(&qpath);
        std::fs::write(&corrupt, "{not json").unwrap();
        let store = ResultStore::load(&corrupt).unwrap();
        assert_eq!(store.stats().len, 0);
        assert_eq!(store.stats().corrupt, 1);
        assert!(std::fs::read_to_string(&qpath)
            .unwrap()
            .contains("{not json"));
        let _ = std::fs::remove_file(&corrupt);
        let _ = std::fs::remove_file(&qpath);
    }

    #[test]
    fn v2_bad_lines_are_quarantined_and_good_lines_served() {
        let dir = std::env::temp_dir().join("bsp-serve-cache-test-v2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let qpath = format!("{}.corrupt", path.display());
        let _ = std::fs::remove_file(&qpath);

        let mut store = ResultStore::new();
        store.insert(entry("good-a", "etf", 1));
        store.insert(entry("good-b", "etf", 2));
        store.save(&path).unwrap();

        // Corrupt the file: flip a byte in the first entry line and append
        // a truncated line.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        assert_eq!(lines.len(), 3, "header + 2 entries");
        let flipped = lines[1].replace("good-a", "gXod-a");
        assert_ne!(flipped, lines[1]);
        lines[1] = flipped;
        lines.push("999 0123456789abcdef {\"trunc".to_string());
        std::fs::write(&path, lines.join("\n")).unwrap();

        let loaded = ResultStore::load(&path).unwrap();
        assert_eq!(loaded.stats().len, 1, "intact entry survives");
        assert_eq!(loaded.stats().corrupt, 2, "flipped + truncated");
        assert!(loaded.peek(&entry("good-b", "etf", 2).key()).is_some());
        let q = std::fs::read_to_string(&qpath).unwrap();
        assert!(q.contains("gXod-a") && q.contains("trunc"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&qpath);
    }

    #[test]
    fn v1_document_migrates_to_v2_on_next_save() {
        let dir = std::env::temp_dir().join("bsp-serve-cache-test-v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");

        let v1 = StoreFile {
            schema: STORE_SCHEMA_V1.to_string(),
            entries: vec![entry("legacy", "etf", 7)],
        };
        std::fs::write(&path, json::to_string(&v1)).unwrap();

        let mut loaded = ResultStore::load(&path).unwrap();
        assert_eq!(loaded.stats().len, 1);
        assert_eq!(loaded.stats().corrupt, 0);
        assert!(loaded.is_dirty(), "migration marks the store dirty");
        loaded.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(STORE_SCHEMA));
        assert_eq!(ResultStore::load(&path).unwrap().stats().len, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lru_cap_evicts_least_recently_used() {
        let mut store = ResultStore::new();
        store.set_cap(Some(2));
        store.insert(entry("a", "etf", 1));
        store.insert(entry("b", "etf", 2));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(store.get(&entry("a", "etf", 1).key()).is_some());
        store.insert(entry("c", "etf", 3));
        assert_eq!(store.stats().len, 2);
        assert_eq!(store.stats().evictions, 1);
        assert!(store.peek(&entry("b", "etf", 2).key()).is_none());
        assert!(store.peek(&entry("a", "etf", 1).key()).is_some());
        assert!(store.peek(&entry("c", "etf", 3).key()).is_some());

        // Shrinking the cap evicts down immediately.
        store.set_cap(Some(1));
        assert_eq!(store.stats().len, 1);
        assert_eq!(store.stats().evictions, 2);
        // Unbounded again: inserts accumulate freely.
        store.set_cap(None);
        store.insert(entry("d", "etf", 4));
        store.insert(entry("e", "etf", 5));
        assert_eq!(store.stats().len, 3);
    }

    #[test]
    fn get_by_reference_refreshes_recency() {
        // Same scenario as `lru_cap_evicts_least_recently_used`, holding on
        // to what `get` lends: it must be the stored entry itself, and the
        // lookup must still have moved `a` ahead of `b`.
        let mut store = ResultStore::new();
        store.set_cap(Some(2));
        store.insert(entry("a", "etf", 1));
        store.insert(entry("b", "etf", 2));
        let key_a = entry("a", "etf", 1).key();
        let lent: *const CachedResult = store.get(&key_a).expect("a is stored");
        assert!(std::ptr::eq(lent, store.peek(&key_a).unwrap()));
        assert_eq!((store.stats().hits, store.stats().misses), (1, 0));
        store.insert(entry("c", "etf", 3));
        assert!(store.peek(&entry("b", "etf", 2).key()).is_none());
        assert!(store.peek(&key_a).is_some());
        assert!(store.get(&entry("b", "etf", 2).key()).is_none());
        assert_eq!((store.stats().hits, store.stats().misses), (1, 1));
    }

    #[test]
    fn get_if_present_counts_hits_only() {
        let mut store = ResultStore::new();
        store.set_cap(Some(2));
        store.insert(entry("a", "etf", 1));
        store.insert(entry("b", "etf", 2));
        assert!(store.get_if_present(&entry("c", "etf", 3).key()).is_none());
        assert_eq!((store.stats().hits, store.stats().misses), (0, 0));
        let key_a = entry("a", "etf", 1).key();
        assert_eq!(store.get_if_present(&key_a).map(|c| c.cost), Some(1));
        assert_eq!((store.stats().hits, store.stats().misses), (1, 0));
        // The hit moved `a` ahead of `b`, as `get` would have.
        store.insert(entry("c", "etf", 3));
        assert!(store.peek(&entry("b", "etf", 2).key()).is_none());
        assert!(store.peek(&key_a).is_some());
    }

    #[test]
    fn key_from_name_splits_at_separator() {
        let key = ResultKey::from_name("spmv?n=5 @ bsp?p=2&g=1", "etf").unwrap();
        assert_eq!(key.instance, "spmv?n=5");
        assert_eq!(key.machine, "bsp?p=2&g=1");
        assert!(ResultKey::from_name("no-separator", "etf").is_none());
    }

    fn tiny(name: &str) -> Arc<Instance> {
        use bsp_dag::DagBuilder;
        use bsp_model::BspParams;
        let mut b = DagBuilder::new();
        b.add_node(1, 1);
        Arc::new(Instance {
            name: name.to_string(),
            dag: b.build().unwrap(),
            machine: BspParams::new(2, 1, 1),
        })
    }

    fn resident(cache: &mut InstanceCache, name: &str) -> bool {
        matches!(cache.get(name), Lookup::Resident(_))
    }

    #[test]
    fn instance_cache_resolves_aliases() {
        let mut cache = InstanceCache::new(4);
        let name = "canonical&seed=1 @ bsp?p=2";
        cache.insert(tiny(name), Some(Recipe::Generated));
        cache.alias("raw-alias", 1, name);
        cache.label("my-label", name);
        assert_eq!(cache.resolve(name, 9), Some(name));
        assert_eq!(cache.resolve("raw-alias", 1), Some(name));
        assert_eq!(
            cache.resolve("raw-alias", 2),
            None,
            "another seed is another instance"
        );
        assert_eq!(cache.resolve("my-label", 2), Some(name));
        assert_eq!(cache.resolve("unknown", 1), None);
        cache.alias("raw-alias", 2, "canonical&seed=2 @ bsp?p=2");
        assert_eq!(cache.resolve("raw-alias", 1), Some(name));
        assert_eq!(
            cache.resolve("raw-alias", 2),
            Some("canonical&seed=2 @ bsp?p=2")
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn probation_is_a_fifo_and_a_second_lookup_moves_to_the_reuse_tier() {
        let mut cache = InstanceCache::new(2);
        for name in ["a", "b", "c"] {
            cache.insert(tiny(name), Some(Recipe::Generated));
        }
        // `a` fell off probation; its name and recipe stay.
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        assert_eq!(cache.resolve("a", 0), Some("a"));
        assert!(resident(&mut cache, "b"), "second lookup: b moves to reuse");
        for name in ["d", "e"] {
            cache.insert(tiny(name), Some(Recipe::Generated));
        }
        assert_eq!((cache.len(), cache.evictions()), (3, 2), "c went, b stayed");
        assert!(resident(&mut cache, "b"));
        match cache.get("a") {
            Lookup::Rebuild(plan) => assert_eq!(plan.builds(), 1),
            other => panic!("expected a rebuild plan, got {other:?}"),
        }
        // A known name inserted again (a rebuilt or re-spelled instance)
        // was looked up again: it skips probation.
        cache.insert(tiny("a"), None);
        for name in ["f", "g"] {
            cache.insert(tiny(name), Some(Recipe::Generated));
        }
        assert!(resident(&mut cache, "a"));
        assert!(matches!(cache.get("nobody"), Lookup::Unknown));
    }

    #[test]
    fn reuse_tier_evicts_least_recently_used_past_its_budget() {
        let mut cache = InstanceCache::new(0);
        let each = footprint(&tiny("a"));
        cache.budget = 2 * each;
        for name in ["a", "b", "c"] {
            cache.insert(tiny(name), Some(Recipe::Generated)); // on probation of 0: gone
            cache.insert(tiny(name), None); // looked up again: reuse tier
            if name == "b" {
                assert!(resident(&mut cache, "a"), "touch a: b is now the LRU");
            }
        }
        assert_eq!(cache.len(), 2);
        assert!(resident(&mut cache, "a"));
        assert!(resident(&mut cache, "c"));
        assert!(matches!(cache.get("b"), Lookup::Rebuild(_)));
        // One instance over the whole budget stays until the next arrives.
        cache.budget = each / 2;
        cache.insert(tiny("c"), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn an_evicted_derived_chain_replays_base_first() {
        let registry = InstanceRegistry::standard();
        let base = registry
            .generate_one("layered?layers=3&width=3&q=0.5 @ bsp?p=2", 3)
            .unwrap();
        let e1 = vec![DagEdit::AddNode {
            work: 2,
            comm: 1,
            preds: vec![0],
            succs: vec![],
        }];
        let e2 = vec![DagEdit::RemoveNode { node: 1 }];
        let step = |inst: &Instance, name: &str, edits: &[DagEdit]| Instance {
            name: name.to_string(),
            dag: apply_edits(&inst.dag, edits).unwrap().dag,
            machine: inst.machine.clone(),
        };
        let d1 = step(&base, "d1", &e1);
        let d2 = step(&d1, "d2", &e2);

        let mut cache = InstanceCache::new(0);
        cache.insert(Arc::new(base.clone()), Some(Recipe::Generated));
        let recipe = |base: &str, edits: &Vec<DagEdit>| Recipe::Derived {
            base: base.to_string(),
            edits: edits.clone(),
        };
        cache.insert(Arc::new(d1), Some(recipe(&base.name, &e1)));
        cache.insert(Arc::new(d2.clone()), Some(recipe("d1", &e2)));
        assert!(cache.is_empty());
        let Lookup::Rebuild(plan) = cache.get("d2") else {
            panic!("d2 was evicted")
        };
        assert_eq!(plan.builds(), 3, "regenerate, then two edit steps");
        assert_eq!(*plan.run(&registry).unwrap(), d2);

        // With the base resident, the replay starts there.
        cache.insert(Arc::new(base.clone()), None);
        let Lookup::Rebuild(plan) = cache.get("d2") else {
            panic!("d2 is still evicted")
        };
        assert_eq!(plan.builds(), 2);
        assert_eq!(*plan.run(&registry).unwrap(), d2);
    }

    #[test]
    fn a_forged_derived_name_does_not_match_other_edits() {
        // Two edit lists that claim one derived name, as a 64-bit hash
        // collision would: only the recipe's own edits match it.
        let mut cache = InstanceCache::new(4);
        cache.insert(tiny("g @ bsp?p=2"), Some(Recipe::Generated));
        let stored = vec![DagEdit::RemoveNode { node: 0 }];
        let forged = vec![DagEdit::RemoveNode { node: 1 }];
        let name = "g+edit0123456789abcdef @ bsp?p=2";
        let recipe = Recipe::Derived {
            base: "g @ bsp?p=2".to_string(),
            edits: stored.clone(),
        };
        cache.insert(tiny(name), Some(recipe));
        assert!(cache.derived_from(name, "g @ bsp?p=2", &stored));
        assert!(!cache.derived_from(name, "g @ bsp?p=2", &forged));
        assert!(!cache.derived_from(name, "h @ bsp?p=2", &stored));
        assert!(!cache.derived_from("g @ bsp?p=2", "g @ bsp?p=2", &stored));
        assert!(!cache.derived_from("never-seen", "g @ bsp?p=2", &stored));
    }
}
