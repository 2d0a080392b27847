//! The compile-once artifact cache: bounded residency, cost-aware
//! eviction, and on-disk spill.
//!
//! Variational sweeps re-run one circuit structure under thousands of
//! parameter bindings; every engine query routes through this cache, so
//! the expensive compilation happens exactly once per structure and each
//! iteration only pays the cheap bind step. Long-running services add a
//! second requirement the paper's economics imply but an unbounded map
//! ignores: the compiled artifacts *are* the precious resource, and a
//! shared cache must hold as many of them as memory allows — and no more.
//!
//! # Lifecycle
//!
//! [`CacheOptions`] bounds the cache. When `max_resident_bytes` is set,
//! the cache enforces it against the **exact** resident tape footprint
//! (`PipelineMetrics::ac_size_bytes`, maintained incrementally): whenever
//! occupancy exceeds the budget, entries are evicted in cost-aware-LRU
//! order (GreedyDual-Size: each resident artifact carries the priority
//! `clock + reacquire_cost / size`, refreshed on every access; eviction
//! removes the minimum and advances the clock to it — so recently used,
//! expensive-to-recompile, small artifacts survive longest).
//!
//! When `spill_dir` is also set, artifacts are *written through* to disk
//! in the versioned artifact wire format ([`KcSimulator::to_bytes`]) right
//! after compilation, outside every lock. Eviction then merely drops the
//! resident copy; the next request for that structure **rehydrates** from
//! the spill file ([`KcSimulator::from_bytes`]) instead of recompiling —
//! orders of magnitude cheaper, and bit-for-bit identical (the
//! determinism contract is unaffected by eviction). Spill files carry the
//! circuit's structural hash, an options fingerprint, and checksums, so a
//! fresh cache pointed at a warm `spill_dir` safely reuses artifacts from
//! a previous process — corrupt, stale, or mismatched files are detected
//! and recompiled over.
//!
//! # Concurrency
//!
//! One mutex guards the whole cache state, so counters, entry count, and
//! occupancy are always mutually consistent (a [`stats`](ArtifactCache::stats)
//! snapshot is taken under a single lock acquisition). Compilation and
//! rehydration run *outside* the lock: the resolving thread marks the
//! entry busy, and concurrent requests for the same structure block on a
//! condvar until it lands, while requests for other structures proceed in
//! parallel. Eviction and spill never do I/O under the lock.
//!
//! # Examples
//!
//! ```
//! use qkc_circuit::{Circuit, Param, ParamMap};
//! use qkc_core::KcOptions;
//! use qkc_engine::ArtifactCache;
//!
//! let cache = ArtifactCache::new();
//! let mut c = Circuit::new(2);
//! c.rx(0, Param::symbol("t")).cnot(0, 1);
//! let a = cache.get_or_compile(&c, &KcOptions::default());
//! let b = cache.get_or_compile(&c, &KcOptions::default());
//! assert_eq!(cache.misses(), 1); // compiled once
//! assert_eq!(cache.hits(), 1);
//! // Both handles re-bind against the same artifact.
//! assert!(a.bind(&ParamMap::from_pairs([("t", 0.3)])).is_ok());
//! assert!(b.bind(&ParamMap::from_pairs([("t", 1.2)])).is_ok());
//! ```

use crate::budget::{self, QueryCtx};
use crate::faults::{self, FaultPlan, FaultSite};
use crate::EngineError;
use qkc_circuit::Circuit;
use qkc_core::{
    record_verify_telemetry, CompileError, CompilePhase, KcOptions, KcSimulator, VerifyLevel,
};
use qkc_telemetry::{count, record_size, record_span_secs};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Total attempts per spill-I/O operation (1 initial + retries).
const SPILL_ATTEMPTS: u32 = 3;

/// Deterministic exponential backoff before retry `n` (0-based):
/// 500µs · 2ⁿ — long enough to let a transient I/O hiccup clear, short
/// enough that an always-failing disk degrades within a few milliseconds.
fn spill_backoff(retry: u32) -> Duration {
    Duration::from_micros(500) * 2u32.saturating_pow(retry)
}

/// Residency and persistence bounds for an [`ArtifactCache`].
#[derive(Debug, Clone, Default)]
pub struct CacheOptions {
    /// Maximum bytes of compiled execution tape the cache keeps resident
    /// (`None` = unbounded). Enforced against the exact
    /// `PipelineMetrics::ac_size_bytes` occupancy after every
    /// resolution/access; a single artifact larger than the budget is
    /// evicted as soon as it lands (each request then recompiles or
    /// rehydrates it, but the budget holds).
    ///
    /// The budget covers the compiled tapes — the payload that dominates
    /// memory by orders of magnitude. Per-structure bookkeeping (the
    /// circuit, options, spill path) stays resident after eviction so the
    /// entry can come back; a service cycling through unboundedly many
    /// *distinct structures* should call
    /// [`clear`](ArtifactCache::clear) at its own epoch boundaries.
    pub max_resident_bytes: Option<usize>,
    /// Directory for on-disk artifact spill. When set, compiled artifacts
    /// are written through here and evicted entries rehydrate from disk
    /// instead of recompiling; a cache constructed over a warm directory
    /// reuses artifacts across process restarts. `None` disables spill —
    /// eviction then discards, and the next request recompiles.
    pub spill_dir: Option<PathBuf>,
    /// Deterministic fault-injection schedule for the cache's spill I/O
    /// (see [`FaultPlan`]). `None` — the production default — makes every
    /// hook a skipped `Option` check.
    pub fault_plan: Option<FaultPlan>,
    /// Static-verification level applied to **rehydrated** artifacts —
    /// the one artifact source that crosses a trust boundary (a spill
    /// directory can be torn or hostile in ways the checksum alone does
    /// not certify semantically). An artifact whose report is not
    /// [`clean`](qkc_core::VerifyReport::is_clean) is quarantined and
    /// recompiled over, exactly like a checksum failure. The default
    /// ([`VerifyLevel::default`]) is full verification in debug builds
    /// and none in release builds, keeping the release hot path
    /// unchanged.
    pub verify: VerifyLevel,
}

impl CacheOptions {
    /// Sets the resident-byte budget.
    pub fn with_max_resident_bytes(mut self, max: usize) -> Self {
        self.max_resident_bytes = Some(max);
        self
    }

    /// Sets the spill directory.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Installs a fault-injection plan on the spill I/O paths.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the static-verification level for rehydrated artifacts.
    pub fn with_verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }
}

/// Residency of one cached structure.
#[derive(Debug, Default)]
enum EntryState {
    /// No resident artifact: never compiled, evicted, or cleared.
    #[default]
    Absent,
    /// A worker is compiling or rehydrating outside the lock; waiters
    /// block on the cache condvar.
    Resolving,
    /// Resident and shared.
    Ready(Arc<KcSimulator>),
}

/// One cached `(circuit, options)` structure. The entry persists across
/// evictions — only the `Ready` artifact is dropped — so the identity
/// needed to rehydrate or recompile (and to detect 64-bit key collisions)
/// is never lost.
#[derive(Debug)]
struct Entry {
    /// The circuit this entry was created for, kept to turn a 64-bit key
    /// collision into a cache miss instead of silently wrong results, and
    /// to recompile/rehydrate after eviction.
    circuit: Circuit,
    options: KcOptions,
    state: EntryState,
    /// Designated spill path (fixed at insertion when the cache has a
    /// spill dir; stable across this entry's lifetime).
    spill_path: Option<PathBuf>,
    /// Bytes of a *valid* spill file on disk, once one is known to exist.
    spilled_bytes: Option<usize>,
    /// Exact resident tape bytes while `Ready` (0 before first
    /// resolution).
    size_bytes: usize,
    /// Measured seconds of this entry's most recent acquisition (compile
    /// on a miss, decode on a spill hit) — the price eviction would make
    /// the next request pay again.
    cost_seconds: f64,
    /// GreedyDual-Size priority: `clock_at_access + cost / size`.
    priority: f64,
}

#[derive(Debug, Default)]
struct CacheState {
    /// Key → indices into `entries`; each key holds *every* distinct
    /// `(circuit, options)` pair that hashes to it (64-bit collisions are
    /// astronomically rare, so the vec is length 1 in practice — but a
    /// collision must not evict either structure from caching).
    buckets: HashMap<u64, Vec<usize>>,
    entries: Vec<Entry>,
    /// Bumped by `clear()`; resolutions and waiters started against an
    /// older generation re-validate instead of touching freed indices.
    generation: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    spill_hits: u64,
    /// Exact bytes of compiled tape across every `Ready` entry,
    /// maintained incrementally (the figure the byte budget bounds).
    resident_bytes: usize,
    /// Bytes of valid spill files on disk.
    spilled_bytes: usize,
    /// GreedyDual-Size clock: advances to the evicted priority on each
    /// eviction, so post-eviction accesses outrank stale ones.
    clock: f64,
}

/// A thread-safe, optionally bounded cache of compiled [`KcSimulator`]
/// artifacts, keyed by the circuit's
/// [structural hash](Circuit::structural_hash) plus the pipeline options.
/// [`CacheOptions`] bounds its residency: over budget it evicts in
/// cost-aware LRU order, and with a spill directory set an evicted
/// artifact rehydrates from disk instead of recompiling.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    options: CacheOptions,
    state: Mutex<CacheState>,
    resolved: Condvar,
    /// Sticky in-memory-only degradation: set once spill-write retries
    /// exhaust, cleared by [`clear`](Self::clear). While set, spill writes
    /// are skipped (queries keep succeeding; evicted entries recompile).
    degraded: AtomicBool,
    /// Spill-I/O attempts retried after a failure (monotonic).
    spill_retries: AtomicU64,
    /// Corrupt spill files renamed aside (monotonic).
    quarantined: AtomicU64,
    /// Test-only key hook: collapse every key to a constant so collision
    /// handling can be exercised deterministically.
    #[cfg(test)]
    collide_all_keys: bool,
}

impl ArtifactCache {
    /// An empty, unbounded cache without spill.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with the given residency/persistence bounds. The
    /// spill dir (if any) is probed lazily, on first spill; use
    /// [`Self::try_with_options`] to fail fast instead.
    pub fn with_options(options: CacheOptions) -> Self {
        Self {
            options,
            ..Self::default()
        }
    }

    /// [`Self::with_options`] with the spill directory validated eagerly:
    /// the directory is created if missing and probed for writability, so
    /// a misconfigured path is a typed
    /// [`EngineError::SpillDirUnavailable`] at construction instead of a
    /// silent in-memory fallback on the first spill.
    pub fn try_with_options(options: CacheOptions) -> Result<Self, EngineError> {
        if let Some(dir) = &options.spill_dir {
            validate_spill_dir(dir)?;
        }
        Ok(Self::with_options(options))
    }

    /// The residency/persistence bounds this cache enforces.
    pub fn cache_options(&self) -> &CacheOptions {
        &self.options
    }

    /// Whether the cache has degraded to in-memory-only caching (spill
    /// writes are skipped after their retries exhausted). Sticky until
    /// [`clear`](Self::clear).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// A cache whose every key collides — the regression hook for the
    /// collision path (test-only).
    #[cfg(test)]
    fn with_forced_collisions() -> Self {
        Self {
            collide_all_keys: true,
            ..Self::default()
        }
    }

    /// The cache key: structural hash of the circuit, extended with the
    /// pipeline options through their bit-exact `Hash` implementation
    /// (different options compile different artifacts; float fields key by
    /// bit pattern, never by a formatted representation).
    fn key(&self, circuit: &Circuit, options: &KcOptions) -> u64 {
        #[cfg(test)]
        if self.collide_all_keys {
            return 0;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write_u64(circuit.structural_hash());
        options.hash(&mut h);
        h.finish()
    }

    /// Returns the compiled artifact for `circuit`, compiling it on first
    /// use — or rehydrating it from the spill tier when an evicted (or
    /// previous-process) artifact is on disk. Concurrent callers with the
    /// same structure share one resolution; callers with different
    /// structures resolve in parallel.
    ///
    /// A 64-bit key collision between two different circuits is detected
    /// by comparing the stored circuits, and the colliding structure is
    /// stored *alongside* the existing one — both cache normally.
    pub fn get_or_compile(&self, circuit: &Circuit, options: &KcOptions) -> Arc<KcSimulator> {
        self.try_get_or_compile(circuit, options, None)
            .expect("acquisition without a query budget cannot fail")
    }

    /// [`Self::get_or_compile`] under a per-query context: the caller's
    /// [`QueryBudget`](crate::QueryBudget) is honoured cooperatively (at
    /// compile-phase boundaries via the core checkpoint, and with a timed
    /// condvar wait while blocked on another thread's resolution) and the
    /// caller's [`FaultPlan`] reaches the spill I/O shim. With `ctx =
    /// None` this is exactly `get_or_compile` and cannot fail.
    pub(crate) fn try_get_or_compile(
        &self,
        circuit: &Circuit,
        options: &KcOptions,
        ctx: Option<&QueryCtx>,
    ) -> Result<Arc<KcSimulator>, EngineError> {
        if let Some(ctx) = ctx {
            ctx.check_deadline()?;
        }
        let key = self.key(circuit, options);
        let mut st = self.state.lock().expect("cache poisoned");
        'restart: loop {
            let ix = Self::find_or_insert(&mut st, key, circuit, options, &self.options);
            let generation = st.generation;
            loop {
                match &st.entries[ix].state {
                    EntryState::Ready(artifact) => {
                        let artifact = Arc::clone(artifact);
                        st.hits += 1;
                        count("cache/hit", 1);
                        Self::touch(&mut st, ix);
                        self.enforce_budget(&mut st);
                        return Ok(artifact);
                    }
                    EntryState::Resolving => {
                        // Block until the resolving thread publishes — but
                        // never past this caller's own deadline.
                        match ctx.and_then(QueryCtx::remaining) {
                            None => st = self.resolved.wait(st).expect("cache poisoned"),
                            Some(remaining) => {
                                if remaining.is_zero() {
                                    ctx.expect("remaining implies ctx").check_deadline()?;
                                }
                                let (guard, _) = self
                                    .resolved
                                    .wait_timeout(st, remaining)
                                    .expect("cache poisoned");
                                st = guard;
                                if let Some(ctx) = ctx {
                                    ctx.check_deadline()?;
                                }
                            }
                        }
                        if st.generation != generation {
                            // The cache was cleared while we waited; the
                            // index may now name a different entry.
                            continue 'restart;
                        }
                    }
                    EntryState::Absent => {
                        st.entries[ix].state = EntryState::Resolving;
                        let spill_path = st.entries[ix].spill_path.clone();
                        drop(st);
                        return self.resolve(circuit, options, ix, generation, spill_path, ctx);
                    }
                }
            }
        }
    }

    /// Finds the entry for `(circuit, options)` in `key`'s bucket, or
    /// inserts a fresh one (designating its spill path from its stable
    /// position in the bucket).
    fn find_or_insert(
        st: &mut CacheState,
        key: u64,
        circuit: &Circuit,
        options: &KcOptions,
        cache_options: &CacheOptions,
    ) -> usize {
        if let Some(bucket) = st.buckets.get(&key) {
            for &ix in bucket {
                let e = &st.entries[ix];
                if e.options == *options && e.circuit == *circuit {
                    return ix;
                }
            }
        }
        let position = st.buckets.get(&key).map_or(0, Vec::len);
        let ix = st.entries.len();
        st.entries.push(Entry {
            circuit: circuit.clone(),
            options: options.clone(),
            state: EntryState::Absent,
            spill_path: cache_options
                .spill_dir
                .as_ref()
                .map(|dir| dir.join(format!("qkc-art-{key:016x}-{position}.qkcart"))),
            spilled_bytes: None,
            size_bytes: 0,
            cost_seconds: 0.0,
            priority: 0.0,
        });
        st.buckets.entry(key).or_default().push(ix);
        ix
    }

    /// Compiles or rehydrates entry `ix` outside the state lock, then
    /// publishes the result. Runs with the entry marked `Resolving`; the
    /// guard restores `Absent` and wakes waiters if this unwinds — or if
    /// this returns a typed budget error, so no waiter is ever stranded.
    fn resolve(
        &self,
        circuit: &Circuit,
        options: &KcOptions,
        ix: usize,
        generation: u64,
        spill_path: Option<PathBuf>,
        ctx: Option<&QueryCtx>,
    ) -> Result<Arc<KcSimulator>, EngineError> {
        let mut guard = ResolveGuard {
            cache: self,
            ix,
            generation,
            armed: true,
        };
        // The caller's plan (per-query) wins over the installed one.
        let plan = ctx
            .and_then(QueryCtx::faults)
            .or(self.options.fault_plan.as_ref());

        // Rehydrate from the spill tier when a decodable artifact is on
        // disk (written by this cache, an earlier eviction, or a previous
        // process sharing the spill dir). Reads retry transient I/O errors
        // with deterministic backoff; validation inside `from_bytes`
        // rejects stale/corrupt/mismatched files, which are then renamed
        // aside (quarantined) so they cost one recompile, not one per
        // request.
        let mut rehydrated: Option<(Arc<KcSimulator>, f64, usize)> = None;
        let mut quarantined_now = false;
        if let Some(path) = &spill_path {
            let started = Instant::now();
            if let Some(bytes) = self.read_spill(path, plan) {
                let read_secs = started.elapsed().as_secs_f64();
                let decode_started = Instant::now();
                match KcSimulator::from_bytes(circuit, options, &bytes) {
                    Ok(sim) => {
                        // Decode re-established the structural invariants;
                        // when configured, certify the semantic ones too
                        // before publishing. A rehydrated artifact that
                        // fails static verification is quarantined and
                        // recompiled over, exactly like a checksum failure.
                        let certified = if self.options.verify > VerifyLevel::Off {
                            let verify_started = Instant::now();
                            let report = sim.verify(self.options.verify);
                            record_span_secs(
                                "cache/rehydrate/verify",
                                verify_started.elapsed().as_secs_f64(),
                            );
                            record_verify_telemetry(&report);
                            report.is_clean()
                        } else {
                            true
                        };
                        if certified {
                            record_span_secs("cache/rehydrate/read", read_secs);
                            record_span_secs(
                                "cache/rehydrate/decode",
                                decode_started.elapsed().as_secs_f64(),
                            );
                            record_size("cache/rehydrate/bytes", bytes.len() as u64);
                            rehydrated =
                                Some((Arc::new(sim), started.elapsed().as_secs_f64(), bytes.len()));
                        } else {
                            count("cache/rehydrate/verify_reject", 1);
                            self.quarantine(path);
                            quarantined_now = true;
                        }
                    }
                    Err(_) => {
                        self.quarantine(path);
                        quarantined_now = true;
                    }
                }
            }
        }

        let (artifact, cost_seconds, spilled, spill_hit) = match rehydrated {
            Some((artifact, secs, file_len)) => (artifact, secs, Some(file_len), true),
            None => {
                let started = Instant::now();
                let artifact = match self.compile_checked(circuit, options, ctx, plan) {
                    Ok(artifact) => Arc::new(artifact),
                    // Drop `guard` armed: it restores `Absent` and wakes
                    // waiters, exactly as on a panicking compile.
                    Err(e) => return Err(e),
                };
                let secs = started.elapsed().as_secs_f64();
                record_span_secs("cache/compile", secs);
                // Write-through spill: serialize now, outside every lock,
                // so eviction later is a pure pointer drop.
                let spill_started = Instant::now();
                let spilled = spill_path
                    .as_ref()
                    .and_then(|path| self.write_spill(path, &artifact, circuit, options, plan));
                if let Some(file_len) = spilled {
                    record_span_secs("cache/spill/write", spill_started.elapsed().as_secs_f64());
                    record_size("cache/spill/bytes", file_len as u64);
                }
                (artifact, secs, spilled, false)
            }
        };

        let mut st = self.state.lock().expect("cache poisoned");
        guard.armed = false;
        if st.generation != generation {
            // The cache was cleared mid-resolution: the entry (and any
            // index stability) is gone. Hand the artifact to the caller,
            // counted, without touching freed state — and take back any
            // spill file this resolution wrote, since no entry tracks it
            // and `clear()` promises an empty spill dir.
            if spill_hit {
                st.spill_hits += 1;
                count("cache/spill_hit", 1);
            } else {
                st.misses += 1;
                count("cache/miss", 1);
            }
            drop(st);
            if spilled.is_some() && !spill_hit {
                if let Some(path) = &spill_path {
                    let _ = std::fs::remove_file(path);
                }
            }
            self.resolved.notify_all();
            return Ok(artifact);
        }
        let spill_delta = {
            let entry = &mut st.entries[ix];
            entry.size_bytes = artifact.metrics().ac_size_bytes;
            entry.cost_seconds = cost_seconds;
            entry.state = EntryState::Ready(Arc::clone(&artifact));
            match spilled {
                Some(file_len) => {
                    let previous = entry.spilled_bytes.replace(file_len).unwrap_or(0);
                    file_len as isize - previous as isize
                }
                // The file was quarantined and no replacement landed: the
                // entry no longer has a valid spill copy on disk.
                None if quarantined_now => -(entry.spilled_bytes.take().unwrap_or(0) as isize),
                None => 0,
            }
        };
        st.spilled_bytes = (st.spilled_bytes as isize + spill_delta) as usize;
        st.resident_bytes += st.entries[ix].size_bytes;
        if spill_hit {
            st.spill_hits += 1;
            count("cache/spill_hit", 1);
        } else {
            st.misses += 1;
            count("cache/miss", 1);
        }
        Self::touch(&mut st, ix);
        self.enforce_budget(&mut st);
        drop(st);
        self.resolved.notify_all();
        Ok(artifact)
    }

    /// Compiles `circuit` under the caller's budget and fault plan: the
    /// core checkpoint fires at every `PhaseSeconds` boundary, injecting
    /// the plan's artificial phase delay and cancelling on
    /// `compile_timeout` (measured from this resolution's start) or the
    /// whole-call deadline. Without either, this is plain `try_compile`.
    fn compile_checked(
        &self,
        circuit: &Circuit,
        options: &KcOptions,
        ctx: Option<&QueryCtx>,
        plan: Option<&FaultPlan>,
    ) -> Result<KcSimulator, EngineError> {
        let delay = plan.map_or(0.0, |p| p.compile_delay_secs);
        let budgeted =
            ctx.is_some_and(|c| c.compile_timeout().is_some() || c.remaining().is_some());
        if !budgeted && delay == 0.0 {
            return Ok(KcSimulator::try_compile(circuit, options)
                .expect("valid circuits encode satisfiable CNFs"));
        }
        let compile_started = Instant::now();
        // The checkpoint closure runs on this thread; the typed engine
        // error rides out through this cell (core only sees the reason
        // string).
        let cancel: Cell<Option<EngineError>> = Cell::new(None);
        let checkpoint = |_phase: CompilePhase| -> Result<(), String> {
            if delay > 0.0 {
                count(FaultSite::CompileDelay.telemetry_path(), 1);
                std::thread::sleep(Duration::from_secs_f64(delay));
            }
            if let Some(limit) = ctx.and_then(QueryCtx::compile_timeout) {
                if compile_started.elapsed() > limit {
                    let err = budget::deadline_exceeded("compile_timeout", limit);
                    let reason = err.to_string();
                    cancel.set(Some(err));
                    return Err(reason);
                }
            }
            if let Some(ctx) = ctx {
                if let Err(err) = ctx.check_deadline() {
                    let reason = err.to_string();
                    cancel.set(Some(err));
                    return Err(reason);
                }
            }
            Ok(())
        };
        match KcSimulator::try_compile_checked(circuit, options, Some(&checkpoint)) {
            Ok(sim) => Ok(sim),
            Err(CompileError::Unsat(e)) => {
                panic!("valid circuits encode satisfiable CNFs: {e:?}")
            }
            Err(CompileError::Cancelled(_)) => Err(cancel
                .take()
                .expect("the checkpoint records its typed error before cancelling")),
        }
    }

    /// The spill-read half of the injectable I/O shim: reads `path` with
    /// up to [`SPILL_ATTEMPTS`] attempts and deterministic backoff,
    /// consulting the fault plan before each real read. `NotFound` (the
    /// common cold-cache case, and any quarantined file) returns
    /// immediately without retrying.
    fn read_spill(&self, path: &Path, plan: Option<&FaultPlan>) -> Option<Vec<u8>> {
        let key = faults::path_key(path);
        let op_started = Instant::now();
        for attempt in 0..SPILL_ATTEMPTS {
            if attempt > 0 {
                self.spill_retries.fetch_add(1, Ordering::Relaxed);
                count("cache/spill/retry", 1);
                std::thread::sleep(spill_backoff(attempt - 1));
            }
            let injected = plan.is_some_and(|p| p.spill_read_fails(key, attempt));
            if injected {
                count(FaultSite::SpillRead.telemetry_path(), 1);
                continue;
            }
            match std::fs::read(path) {
                Ok(bytes) => {
                    if attempt > 0 {
                        record_span_secs(
                            "cache/spill/retry_latency",
                            op_started.elapsed().as_secs_f64(),
                        );
                    }
                    return Some(bytes);
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
                Err(_) => {}
            }
        }
        record_span_secs(
            "cache/spill/retry_latency",
            op_started.elapsed().as_secs_f64(),
        );
        None
    }

    /// The spill-write half of the I/O shim: serializes `artifact` and
    /// writes it through a same-directory temp file + rename, with up to
    /// [`SPILL_ATTEMPTS`] attempts and deterministic backoff. Exhausting
    /// the retries flips the cache into sticky in-memory-only degradation
    /// — queries keep succeeding; this artifact (and future ones) simply
    /// will not rehydrate from disk. Returns the file length on success.
    fn write_spill(
        &self,
        path: &Path,
        artifact: &KcSimulator,
        circuit: &Circuit,
        options: &KcOptions,
        plan: Option<&FaultPlan>,
    ) -> Option<usize> {
        if self.degraded.load(Ordering::Relaxed) {
            return None;
        }
        let key = faults::path_key(path);
        let bytes = artifact.to_bytes(circuit, options);
        let op_started = Instant::now();
        for attempt in 0..SPILL_ATTEMPTS {
            if attempt > 0 {
                self.spill_retries.fetch_add(1, Ordering::Relaxed);
                count("cache/spill/retry", 1);
                std::thread::sleep(spill_backoff(attempt - 1));
            }
            if plan.is_some_and(|p| p.spill_write_fails(key, attempt)) {
                count(FaultSite::SpillWrite.telemetry_path(), 1);
                continue;
            }
            // A torn write "succeeds" from the writer's point of view but
            // persists truncated bytes — the corruption the decode
            // validation and quarantine path exist to absorb.
            let payload = if plan.is_some_and(|p| p.spill_write_torn(key, attempt)) {
                count(FaultSite::SpillTorn.telemetry_path(), 1);
                &bytes[..bytes.len() / 2]
            } else {
                &bytes[..]
            };
            if let Some(dir) = path.parent() {
                if std::fs::create_dir_all(dir).is_err() {
                    continue;
                }
            }
            let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
            if std::fs::write(&tmp, payload).is_err() {
                let _ = std::fs::remove_file(&tmp);
                continue;
            }
            let rename_ok = if plan.is_some_and(|p| p.spill_rename_fails(key, attempt)) {
                count(FaultSite::SpillRename.telemetry_path(), 1);
                false
            } else {
                std::fs::rename(&tmp, path).is_ok()
            };
            if !rename_ok {
                let _ = std::fs::remove_file(&tmp);
                continue;
            }
            if attempt > 0 {
                record_span_secs(
                    "cache/spill/retry_latency",
                    op_started.elapsed().as_secs_f64(),
                );
            }
            return Some(payload.len());
        }
        record_span_secs(
            "cache/spill/retry_latency",
            op_started.elapsed().as_secs_f64(),
        );
        if !self.degraded.swap(true, Ordering::Relaxed) {
            count("cache/spill/degraded", 1);
        }
        None
    }

    /// Renames a corrupt/stale spill file aside (`*.quarantined`) so it is
    /// decoded — and fails — exactly once instead of on every request.
    /// The quarantined copy is kept for post-mortem until
    /// [`clear`](Self::clear) removes it.
    fn quarantine(&self, path: &Path) {
        if std::fs::rename(path, quarantine_path(path)).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            count("cache/spill/quarantined", 1);
        }
    }

    /// Refreshes entry `ix`'s GreedyDual-Size priority at the current
    /// clock: `clock + reacquire_cost / size`. Bigger artifacts and
    /// cheaper reacquisitions (a spill file beats a recompile) sort
    /// earlier toward eviction; every access pushes the entry past the
    /// clock frontier.
    fn touch(st: &mut CacheState, ix: usize) {
        let e = &mut st.entries[ix];
        e.priority = st.clock + e.cost_seconds / (e.size_bytes.max(1) as f64);
    }

    /// Evicts minimum-priority `Ready` entries until occupancy fits the
    /// byte budget. No I/O: spill files were written through at
    /// compile time, so eviction only drops the resident copy.
    fn enforce_budget(&self, st: &mut CacheState) {
        let Some(max) = self.options.max_resident_bytes else {
            return;
        };
        while st.resident_bytes > max {
            let victim = st
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e.state, EntryState::Ready(_)))
                .min_by(|(_, a), (_, b)| a.priority.total_cmp(&b.priority))
                .map(|(ix, _)| ix);
            let Some(victim) = victim else {
                break; // nothing resident is evictable (all resolving)
            };
            st.clock = st.clock.max(st.entries[victim].priority);
            st.entries[victim].state = EntryState::Absent;
            st.resident_bytes -= st.entries[victim].size_bytes;
            st.evictions += 1;
            count("cache/evict", 1);
            record_size(
                "cache/evict/victim_bytes",
                st.entries[victim].size_bytes as u64,
            );
            // GreedyDual priority in nano-units so the integer histogram
            // resolves the (seconds-per-byte scale) fractional values.
            record_size(
                "cache/evict/priority_nanos",
                (st.entries[victim].priority * 1e9) as u64,
            );
        }
    }

    /// Peeks at the cache for a **resident** compiled artifact of
    /// `(circuit, options)` and returns its pipeline metrics together with
    /// the measured acquisition cost in seconds (compile on a miss, decode
    /// on a spill hit).
    ///
    /// This is a pure observation for callers — like the
    /// [`Planner`](crate::Planner) — that want to replace static proxies
    /// with measured figures when they happen to be available: it never
    /// compiles, never blocks on an in-flight resolution (a `Resolving`
    /// entry reports `None`), never touches eviction priorities, and does
    /// not count as a hit or a miss.
    pub fn resident_metrics(
        &self,
        circuit: &Circuit,
        options: &KcOptions,
    ) -> Option<(qkc_core::PipelineMetrics, f64)> {
        let key = self.key(circuit, options);
        let st = self.state.lock().expect("cache poisoned");
        let bucket = st.buckets.get(&key)?;
        for &ix in bucket {
            let e = &st.entries[ix];
            if e.options == *options && e.circuit == *circuit {
                if let EntryState::Ready(artifact) = &e.state {
                    return Some((artifact.metrics().clone(), e.cost_seconds));
                }
                return None;
            }
        }
        None
    }

    /// Number of requests served from a resident artifact.
    pub fn hits(&self) -> u64 {
        self.state.lock().expect("cache poisoned").hits
    }

    /// Number of requests that compiled a new artifact.
    pub fn misses(&self) -> u64 {
        self.state.lock().expect("cache poisoned").misses
    }

    /// Number of artifacts evicted to enforce the byte budget.
    pub fn evictions(&self) -> u64 {
        self.state.lock().expect("cache poisoned").evictions
    }

    /// Number of requests served by rehydrating a spilled artifact from
    /// disk instead of recompiling.
    pub fn spill_hits(&self) -> u64 {
        self.state.lock().expect("cache poisoned").spill_hits
    }

    /// Exact bytes of compiled execution tape resident in the cache: the
    /// sum of `ac_size_bytes` over every resident artifact (entries still
    /// resolving contribute 0). This is the occupancy the byte budget
    /// bounds.
    pub fn resident_bytes(&self) -> usize {
        self.state.lock().expect("cache poisoned").resident_bytes
    }

    /// A point-in-time snapshot of counters and footprint, taken under
    /// **one** lock acquisition so every field is consistent with every
    /// other (`entries` can never disagree with the counters that created
    /// them).
    pub fn stats(&self) -> crate::CacheStats {
        let st = self.state.lock().expect("cache poisoned");
        crate::CacheStats {
            hits: st.hits,
            misses: st.misses,
            evictions: st.evictions,
            spill_hits: st.spill_hits,
            entries: st.entries.len(),
            resident_entries: st
                .entries
                .iter()
                .filter(|e| matches!(e.state, EntryState::Ready(_)))
                .count(),
            resident_bytes: st.resident_bytes,
            spilled_bytes: st.spilled_bytes,
            spill_retries: self.spill_retries.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }

    /// Number of cached structures (resident, resolving, or evicted — an
    /// evicted entry still knows how to come back).
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache poisoned").entries.len()
    }

    /// Whether the cache holds no structures.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every artifact, removes this cache's spill files (including
    /// quarantined copies), and lifts in-memory-only degradation — the
    /// epoch boundary at which a service gives a repaired disk another
    /// chance. Hit/miss counters keep accumulating.
    pub fn clear(&self) {
        let spill_paths: Vec<PathBuf> = {
            let mut st = self.state.lock().expect("cache poisoned");
            // Every designated path, not just recorded ones: an in-flight
            // resolution may have written its file before this lock was
            // taken (it will not record it either — the generation bump
            // below routes it to the orphan-cleanup path in `resolve`).
            let paths = st
                .entries
                .iter()
                .filter_map(|e| e.spill_path.clone())
                .collect();
            st.buckets.clear();
            st.entries.clear();
            st.resident_bytes = 0;
            st.spilled_bytes = 0;
            st.generation += 1;
            paths
        };
        // Wake waiters parked on pre-clear resolutions so they re-validate.
        self.resolved.notify_all();
        self.degraded.store(false, Ordering::Relaxed);
        for path in spill_paths {
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(quarantine_path(&path));
        }
    }
}

/// Where [`ArtifactCache::quarantine`] renames a corrupt spill file.
fn quarantine_path(path: &Path) -> PathBuf {
    path.with_extension("quarantined")
}

/// Probes `dir` for use as a spill directory: creates it if missing, then
/// writes and removes a probe file. Any failure is the typed construction
/// error [`EngineError::SpillDirUnavailable`].
fn validate_spill_dir(dir: &Path) -> Result<(), EngineError> {
    let unavailable = |detail: &std::io::Error| EngineError::SpillDirUnavailable {
        path: dir.display().to_string(),
        detail: detail.to_string(),
    };
    std::fs::create_dir_all(dir).map_err(|e| unavailable(&e))?;
    let probe = dir.join(format!(".qkc-spill-probe-{}", std::process::id()));
    std::fs::write(&probe, b"probe").map_err(|e| unavailable(&e))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// Restores a `Resolving` entry to `Absent` and wakes waiters if the
/// resolving thread unwinds (a panicking compile must not strand every
/// waiter on the condvar).
struct ResolveGuard<'a> {
    cache: &'a ArtifactCache,
    ix: usize,
    generation: u64,
    armed: bool,
}

impl Drop for ResolveGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Ok(mut st) = self.cache.state.lock() {
            if st.generation == self.generation {
                if let Some(entry) = st.entries.get_mut(self.ix) {
                    if matches!(entry.state, EntryState::Resolving) {
                        entry.state = EntryState::Absent;
                    }
                }
            }
        }
        self.cache.resolved.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkc_circuit::Param;

    fn parameterized() -> Circuit {
        let mut c = Circuit::new(2);
        c.rx(0, Param::symbol("a")).zz(0, 1, Param::symbol("b"));
        c
    }

    /// A unique temp dir per test invocation (std-only; no tempfile dep).
    fn scratch_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qkc-cache-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn same_structure_compiles_once() {
        let cache = ArtifactCache::new();
        for _ in 0..10 {
            cache.get_or_compile(&parameterized(), &KcOptions::default());
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 9);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn changed_structure_recompiles() {
        let cache = ArtifactCache::new();
        cache.get_or_compile(&parameterized(), &KcOptions::default());
        let mut widened = parameterized();
        widened.h(1);
        cache.get_or_compile(&widened, &KcOptions::default());
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn changed_options_recompile() {
        let cache = ArtifactCache::new();
        cache.get_or_compile(&parameterized(), &KcOptions::default());
        let no_elide = KcOptions {
            elide_internal: false,
            ..Default::default()
        };
        cache.get_or_compile(&parameterized(), &no_elide);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn options_differing_only_in_a_float_field_cache_separately() {
        // Regression for the stringly-typed `format!("{options:?}")` key:
        // the cache key and entry identity now go through KcOptions'
        // bit-exact Hash/Eq, so two balances that differ in the last ulp —
        // or only in zero sign — are distinct artifacts.
        let cache = ArtifactCache::new();
        let base = KcOptions::default();
        let nudged = KcOptions {
            separator_balance: f64::from_bits(base.separator_balance.to_bits() + 1),
            ..Default::default()
        };
        assert_ne!(base, nudged);
        cache.get_or_compile(&parameterized(), &base);
        cache.get_or_compile(&parameterized(), &nudged);
        cache.get_or_compile(&parameterized(), &base);
        cache.get_or_compile(&parameterized(), &nudged);
        assert_eq!(
            cache.misses(),
            2,
            "distinct float bits → distinct artifacts"
        );
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_requests_share_one_compilation() {
        let cache = Arc::new(ArtifactCache::new());
        crossbeam::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                handles.push(s.spawn(move |_| {
                    cache.get_or_compile(&parameterized(), &KcOptions::default());
                }));
            }
            for h in handles {
                h.join().expect("thread");
            }
        })
        .expect("scope");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn stats_snapshots_are_internally_consistent_under_concurrency() {
        // Counters, entry count, and occupancy all live under one lock:
        // any snapshot taken while workers hammer `get_or_compile` must
        // satisfy the bookkeeping invariants (the old implementation read
        // counters outside the entries lock and could violate them).
        let cache = Arc::new(ArtifactCache::new());
        let distinct = 3u64;
        let workers = 4;
        let iters = 25;
        crossbeam::scope(|s| {
            let mut handles = Vec::new();
            for w in 0..workers {
                let cache = Arc::clone(&cache);
                handles.push(s.spawn(move |_| {
                    for i in 0..iters {
                        let mut c = parameterized();
                        for _ in 0..((w + i) % distinct as usize) {
                            c.h(1);
                        }
                        cache.get_or_compile(&c, &KcOptions::default());
                    }
                }));
            }
            let snapshotter = {
                let cache = Arc::clone(&cache);
                s.spawn(move |_| {
                    for _ in 0..200 {
                        let s = cache.stats();
                        assert!(
                            s.misses <= s.entries as u64,
                            "every miss creates its entry first: {s:?}"
                        );
                        assert!(s.entries as u64 <= distinct, "snapshot: {s:?}");
                        assert_eq!(s.evictions, 0, "unbounded cache never evicts");
                        assert!(
                            s.hits + s.misses <= (workers * iters) as u64,
                            "snapshot: {s:?}"
                        );
                        std::thread::yield_now();
                    }
                })
            };
            for h in handles {
                h.join().expect("worker");
            }
            snapshotter.join().expect("snapshotter");
        })
        .expect("scope");
        let s = cache.stats();
        assert_eq!(s.misses, distinct);
        assert_eq!(s.hits + s.misses, (workers * iters) as u64);
        assert_eq!(s.entries as u64, distinct);
    }

    #[test]
    fn resident_bytes_track_cached_artifacts() {
        let cache = ArtifactCache::new();
        assert_eq!(cache.resident_bytes(), 0);
        let a = cache.get_or_compile(&parameterized(), &KcOptions::default());
        let one = cache.resident_bytes();
        assert_eq!(one, a.metrics().ac_size_bytes);
        assert!(one > 0);
        // A second structure adds its own tape bytes.
        let mut widened = parameterized();
        widened.h(1);
        let b = cache.get_or_compile(&widened, &KcOptions::default());
        assert_eq!(
            cache.resident_bytes(),
            a.metrics().ac_size_bytes + b.metrics().ac_size_bytes
        );
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.resident_bytes, cache.resident_bytes());
        cache.clear();
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn colliding_structures_both_cache() {
        // Regression: with every key forced to collide, two different
        // structures must still each compile exactly once — the earlier
        // collision handling never stored the second structure, so every
        // later request for it recompiled forever.
        let cache = ArtifactCache::with_forced_collisions();
        let a = parameterized();
        let mut b = parameterized();
        b.h(1);
        for _ in 0..3 {
            cache.get_or_compile(&a, &KcOptions::default());
            cache.get_or_compile(&b, &KcOptions::default());
        }
        assert_eq!(cache.misses(), 2, "one compile per structure, ever");
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.len(), 2, "both structures resident under one key");
        // Options changes on a colliding key also cache independently.
        let no_elide = KcOptions {
            elide_internal: false,
            ..Default::default()
        };
        cache.get_or_compile(&a, &no_elide);
        cache.get_or_compile(&a, &no_elide);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.len(), 3);
        // Occupancy accounting covers every entry in the bucket.
        assert!(cache.resident_bytes() > 0);
        assert_eq!(cache.stats().entries, 3);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn resident_metrics_peeks_without_counting() {
        let cache = ArtifactCache::new();
        // Cold cache: nothing resident, nothing counted.
        assert!(cache
            .resident_metrics(&parameterized(), &KcOptions::default())
            .is_none());
        assert_eq!(cache.hits() + cache.misses(), 0, "a peek is not a request");
        let artifact = cache.get_or_compile(&parameterized(), &KcOptions::default());
        let (metrics, cost_seconds) = cache
            .resident_metrics(&parameterized(), &KcOptions::default())
            .expect("artifact is resident");
        assert_eq!(metrics.ac_size_bytes, artifact.metrics().ac_size_bytes);
        assert!(cost_seconds > 0.0, "compile cost was measured");
        // Different options → different structure → no peek result.
        let no_elide = KcOptions {
            elide_internal: false,
            ..Default::default()
        };
        assert!(cache
            .resident_metrics(&parameterized(), &no_elide)
            .is_none());
        assert_eq!(cache.hits(), 0, "peeks never count as hits");
        assert_eq!(cache.misses(), 1);
        // An evicted entry reports None again.
        cache.clear();
        assert!(cache
            .resident_metrics(&parameterized(), &KcOptions::default())
            .is_none());
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = ArtifactCache::new();
        cache.get_or_compile(&parameterized(), &KcOptions::default());
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        cache.get_or_compile(&parameterized(), &KcOptions::default());
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn byte_budget_evicts_down_to_the_cap() {
        // Three structures, budget sized for roughly one: after every
        // request the resident footprint must respect the cap, with the
        // shortfall recorded as evictions.
        let sizes: Vec<usize> = {
            let probe = ArtifactCache::new();
            (0..3)
                .map(|extra| {
                    let mut c = parameterized();
                    for q in 0..extra {
                        c.h(q % 2);
                    }
                    probe
                        .get_or_compile(&c, &KcOptions::default())
                        .metrics()
                        .ac_size_bytes
                })
                .collect()
        };
        let cap = *sizes.iter().max().unwrap();
        let cache =
            ArtifactCache::with_options(CacheOptions::default().with_max_resident_bytes(cap));
        for round in 0..2 {
            for extra in 0..3 {
                let mut c = parameterized();
                for q in 0..extra {
                    c.h(q % 2);
                }
                cache.get_or_compile(&c, &KcOptions::default());
                assert!(
                    cache.resident_bytes() <= cap,
                    "round {round}: {} resident > cap {cap}",
                    cache.resident_bytes()
                );
            }
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "cap below total footprint must evict");
        assert_eq!(s.entries, 3, "evicted entries keep their identity");
        assert_eq!(s.spill_hits, 0, "no spill dir → evictions recompile");
        assert!(s.misses > 3, "recompiles after spill-less eviction");
    }

    #[test]
    fn spilled_artifacts_rehydrate_instead_of_recompiling() {
        let dir = scratch_dir("spill");
        let a = parameterized();
        let mut b = parameterized();
        b.h(1);
        // A budget below every artifact: nothing stays resident, so the
        // second request for `a` must deterministically come from disk
        // (the returned handles stay valid — eviction only drops the
        // cache's own reference).
        let cache = ArtifactCache::with_options(
            CacheOptions::default()
                .with_max_resident_bytes(1)
                .with_spill_dir(&dir),
        );
        let first = cache.get_or_compile(&a, &KcOptions::default());
        assert!(cache.stats().spilled_bytes > 0, "write-through spill");
        assert!(cache.resident_bytes() <= 1, "budget holds after eviction");
        cache.get_or_compile(&b, &KcOptions::default());
        let again = cache.get_or_compile(&a, &KcOptions::default());
        let s = cache.stats();
        assert_eq!(s.misses, 2, "a and b each compile exactly once");
        assert!(
            s.evictions >= 3,
            "every resolution is evicted under a 1-byte cap"
        );
        assert_eq!(s.spill_hits, 1, "the second `a` came from disk");
        // The rehydrated artifact answers bit-identically.
        let p = qkc_circuit::ParamMap::from_pairs([("a", 0.37), ("b", 1.2)]);
        let wa = first.bind(&p).unwrap().wavefunction();
        let wb = again.bind(&p).unwrap().wavefunction();
        for (x, y) in wa.iter().zip(&wb) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
        cache.clear();
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "clear removes spill files"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_spill_dir_survives_process_restart() {
        // A fresh cache over a directory another cache spilled into must
        // rehydrate instead of compiling — the restart-survival half of
        // the spill tier (simulated here by a second cache instance).
        let dir = scratch_dir("restart");
        let writer = ArtifactCache::with_options(CacheOptions::default().with_spill_dir(&dir));
        let original = writer.get_or_compile(&parameterized(), &KcOptions::default());
        assert_eq!(writer.misses(), 1);
        assert!(writer.stats().spilled_bytes > 0);

        let reader = ArtifactCache::with_options(CacheOptions::default().with_spill_dir(&dir));
        let rehydrated = reader.get_or_compile(&parameterized(), &KcOptions::default());
        let s = reader.stats();
        assert_eq!(s.misses, 0, "warm start: no compile");
        assert_eq!(s.spill_hits, 1);
        assert_eq!(
            rehydrated.metrics().ac_size_bytes,
            original.metrics().ac_size_bytes
        );

        // A corrupt spill file falls back to a clean compile.
        let corrupt_dir = scratch_dir("corrupt");
        let writer =
            ArtifactCache::with_options(CacheOptions::default().with_spill_dir(&corrupt_dir));
        writer.get_or_compile(&parameterized(), &KcOptions::default());
        for f in std::fs::read_dir(&corrupt_dir).unwrap() {
            let path = f.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
        }
        let reader =
            ArtifactCache::with_options(CacheOptions::default().with_spill_dir(&corrupt_dir));
        reader.get_or_compile(&parameterized(), &KcOptions::default());
        let s = reader.stats();
        assert_eq!(s.misses, 1, "corrupt file → recompile");
        assert_eq!(s.spill_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&corrupt_dir);
    }

    #[test]
    fn spill_write_retries_recover_from_transient_failures() {
        let dir = scratch_dir("retry-write");
        // The first write attempt per path always fails; the retry lands.
        let plan = FaultPlan::seeded(21).with_spill_write_fail_first(1);
        let cache = ArtifactCache::with_options(
            CacheOptions::default()
                .with_spill_dir(&dir)
                .with_fault_plan(plan),
        );
        cache.get_or_compile(&parameterized(), &KcOptions::default());
        let s = cache.stats();
        assert!(s.spilled_bytes > 0, "the retry persisted the artifact");
        assert!(s.spill_retries >= 1, "stats record the retry");
        assert!(!s.degraded);
        // The persisted bytes are good: a fresh cache rehydrates them.
        let reader = ArtifactCache::with_options(CacheOptions::default().with_spill_dir(&dir));
        reader.get_or_compile(&parameterized(), &KcOptions::default());
        assert_eq!(reader.stats().spill_hits, 1);
        assert_eq!(reader.stats().misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_read_retries_recover_from_transient_failures() {
        let dir = scratch_dir("retry-read");
        let writer = ArtifactCache::with_options(CacheOptions::default().with_spill_dir(&dir));
        writer.get_or_compile(&parameterized(), &KcOptions::default());
        // The first read attempt per path always fails; the retry lands
        // and rehydration still beats recompilation.
        let plan = FaultPlan::seeded(23).with_spill_read_fail_first(1);
        let reader = ArtifactCache::with_options(
            CacheOptions::default()
                .with_spill_dir(&dir)
                .with_fault_plan(plan),
        );
        reader.get_or_compile(&parameterized(), &KcOptions::default());
        let s = reader.stats();
        assert_eq!(s.misses, 0, "rehydrated on retry, no recompile");
        assert_eq!(s.spill_hits, 1);
        assert!(s.spill_retries >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_spill_writes_degrade_to_in_memory_only() {
        let dir = scratch_dir("degrade");
        // Every write attempt fails: after the bounded retries the cache
        // must degrade to in-memory-only caching — queries keep
        // succeeding, the spill tier is simply gone.
        let plan = FaultPlan::seeded(22).with_spill_write_rate(1.0);
        let cache = ArtifactCache::with_options(
            CacheOptions::default()
                .with_spill_dir(&dir)
                .with_fault_plan(plan),
        );
        let artifact = cache.get_or_compile(&parameterized(), &KcOptions::default());
        let s = cache.stats();
        assert!(s.degraded, "exhausted retries flip the degraded latch");
        assert_eq!(s.spilled_bytes, 0);
        assert!(s.spill_retries >= 1);
        // Degraded is a caching mode, not an error: answers still come.
        let p = qkc_circuit::ParamMap::from_pairs([("a", 0.3), ("b", 0.7)]);
        artifact.bind(&p).unwrap();
        let mut widened = parameterized();
        widened.h(1);
        cache.get_or_compile(&widened, &KcOptions::default());
        assert_eq!(cache.stats().misses, 2);
        // Later writes short-circuit instead of burning retries again.
        let retries_so_far = cache.stats().spill_retries;
        cache.get_or_compile(&parameterized(), &KcOptions::default());
        assert_eq!(cache.stats().spill_retries, retries_so_far);
        // `clear` resets the latch (an operator fixed the disk).
        cache.clear();
        assert!(!cache.is_degraded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_files_are_quarantined_and_never_reread() {
        use qkc_core::{ArtifactDecodeError, ARTIFACT_WIRE_VERSION};
        let dir = scratch_dir("quarantine");
        fn flip_mid(bytes: &mut [u8]) {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
        }
        // Payloads stamped with earlier wire versions: the upgrade path
        // every warm spill directory takes after a format bump. Version 3
        // files hold circuits of a compiler that searched one separator
        // balance, so serving them would make a structure's circuit depend
        // on cache state.
        fn stamp_v2(bytes: &mut [u8]) {
            bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        }
        fn stamp_v3(bytes: &mut [u8]) {
            bytes[4..6].copy_from_slice(&3u16.to_le_bytes());
        }
        let cases = [
            (
                flip_mid as fn(&mut [u8]),
                ArtifactDecodeError::ChecksumMismatch,
            ),
            (stamp_v2, ArtifactDecodeError::UnsupportedVersion(2)),
            (stamp_v3, ArtifactDecodeError::UnsupportedVersion(3)),
        ];
        for (damage, error) in cases {
            let writer = ArtifactCache::with_options(CacheOptions::default().with_spill_dir(&dir));
            writer.get_or_compile(&parameterized(), &KcOptions::default());
            for f in std::fs::read_dir(&dir).unwrap() {
                let path = f.unwrap().path();
                let mut bytes = std::fs::read(&path).unwrap();
                damage(&mut bytes);
                let decoded =
                    KcSimulator::from_bytes(&parameterized(), &KcOptions::default(), &bytes);
                assert_eq!(decoded.err(), Some(error));
                std::fs::write(&path, &bytes).unwrap();
            }
            // The bad file costs exactly one recompile and is renamed
            // aside — it can never be decoded (and fail) a second time.
            let reader = ArtifactCache::with_options(CacheOptions::default().with_spill_dir(&dir));
            reader.get_or_compile(&parameterized(), &KcOptions::default());
            let s = reader.stats();
            assert_eq!(s.misses, 1, "{error}: one recompile");
            assert_eq!(s.spill_hits, 0, "{error}");
            assert_eq!(s.quarantined, 1, "{error}");
            let (quarantined, live): (Vec<PathBuf>, Vec<PathBuf>) = std::fs::read_dir(&dir)
                .unwrap()
                .map(|f| f.unwrap().path())
                .partition(|p| p.extension() == Some(std::ffi::OsStr::new("quarantined")));
            assert_eq!(
                quarantined.len(),
                1,
                "{error}: the bad bytes were renamed aside"
            );
            // The recompile wrote fresh current-version bytes through: a
            // third cache rehydrates cleanly with nothing left to
            // quarantine.
            assert_eq!(live.len(), 1, "{error}");
            let rewritten = std::fs::read(&live[0]).unwrap();
            assert_eq!(rewritten[4..6], ARTIFACT_WIRE_VERSION.to_le_bytes());
            let third = ArtifactCache::with_options(CacheOptions::default().with_spill_dir(&dir));
            third.get_or_compile(&parameterized(), &KcOptions::default());
            assert_eq!(third.stats().spill_hits, 1, "{error}");
            assert_eq!(third.stats().quarantined, 0, "{error}");
            // `clear` sweeps quarantined files out with the live ones.
            third.clear();
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{error}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_prefers_cheap_large_artifacts() {
        // Cost-aware ordering: with equal recency, the entry whose
        // reacquisition is cheap relative to its size goes first. Compile
        // a small and a large structure, then insert pressure: the large
        // one (smaller cost/size density on this workload) is evicted
        // while the small survives.
        let small = parameterized();
        let mut large = parameterized();
        for q in 0..2 {
            large.h(q).t(q).h(q);
        }
        large.zz(0, 1, Param::symbol("c"));
        let (small_sz, large_sz) = {
            let probe = ArtifactCache::new();
            (
                probe
                    .get_or_compile(&small, &KcOptions::default())
                    .metrics()
                    .ac_size_bytes,
                probe
                    .get_or_compile(&large, &KcOptions::default())
                    .metrics()
                    .ac_size_bytes,
            )
        };
        assert!(large_sz > small_sz, "workload sizes must differ");
        // Budget: both fit, but adding either again after pressure from a
        // third structure forces exactly one out.
        let cache = ArtifactCache::with_options(
            CacheOptions::default().with_max_resident_bytes(small_sz + large_sz),
        );
        cache.get_or_compile(&small, &KcOptions::default());
        cache.get_or_compile(&large, &KcOptions::default());
        assert_eq!(cache.stats().evictions, 0);
        let mut third = parameterized();
        third.h(0);
        cache.get_or_compile(&third, &KcOptions::default());
        assert!(cache.stats().evictions >= 1, "pressure must evict");
        assert!(cache.resident_bytes() <= small_sz + large_sz);
    }
}
