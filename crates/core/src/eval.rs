//! The corpus-evaluation engine: a feature-vector cache and the
//! per-program evaluation loops every experiment shares, fanned out on
//! the [`Pool`].
//!
//! Three design rules make parallel runs **bit-exact** with serial ones at
//! any thread count:
//!
//! 1. **Per-program work is pure.** A program's verdict depends only on its
//!    own subwindows and a seed derived from `(run seed, program id)` via
//!    [`rhmd_trace::seed::derive_seed`] — never on shared RNG state or on
//!    which other programs were evaluated before it.
//! 2. **Results are keyed by index.** The pool's workers race over *which
//!    item to compute next*, not over where results land; output order is
//!    always corpus order, so reductions (datasets, tallies) fold
//!    identically.
//! 3. **The cache stores finished values.** A [`FeatureCache`] hit returns
//!    the same immutable vectors a miss would compute, so interleaving of
//!    hits and misses cannot change any result, only the wall-clock.

use crate::hmd::{Hmd, ProgramVerdict, QuorumVerdict};
use crate::retrain::DetectionQuality;
use crate::rhmd::ResilientHmd;
use crate::verdict::{DegradedVerdict, VerdictPolicy};
use crate::RhmdError;
use rhmd_data::store::CorpusStore;
use rhmd_data::{CorpusSource, TracedCorpus};
use rhmd_features::pipeline::project_windows_into;
use rhmd_features::vector::FeatureSpec;
use rhmd_features::window::{apply_faults, RawWindow};
use rhmd_ml::matrix::FeatureMatrix;
use rhmd_ml::model::Dataset;
use rhmd_obs::{self as obs, NoopRecorder, Recorder};
use rhmd_runtime::ckpt::Journal;
use rhmd_runtime::pool::{Pool, RunReport, WatchdogConfig};
use rhmd_trace::seed::derive_seed;
use rhmd_uarch::faults::{FaultConfig, FaultModel};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Feature-vector cache
// ---------------------------------------------------------------------------

/// Cache key: one projected window set is identified by the backing corpus
/// source, the program, the fault seed, the collection period, the feature
/// definition, and the fault configuration (hashed stably, so keys survive
/// process boundaries).
///
/// `source` is the [`CorpusSource::identity`] of the backing data — `0` for
/// live generation, the store's path/config hash otherwise — so mixing a
/// corpus store and a generated corpus in one process can never alias
/// entries even when program indices and specs coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    source: u64,
    program: usize,
    seed: u64,
    period: u32,
    spec_hash: u64,
    fault_hash: u64,
}

/// Lock stripes of a [`FeatureCache`]. Sharding never changes results,
/// only which mutex a key lands on.
const SHARDS: usize = 16;

/// Where an [`Evaluator`] reads feature rows from: a live traced corpus or
/// an opened on-disk [`CorpusStore`].
///
/// Both sides satisfy the same contract ([`CorpusSource`]): for the same
/// underlying corpus, feature rows are bit-identical — which is what makes
/// `rhmd sweep --corpus-store` byte-identical to live generation.
#[derive(Debug, Clone, Copy)]
pub enum EvalSource<'a> {
    /// Programs traced in RAM this run.
    Traced(&'a TracedCorpus),
    /// Feature rows mmap'd from a prebuilt corpus store.
    Store(&'a CorpusStore),
}

impl<'a> EvalSource<'a> {
    /// The backing data, through the [`CorpusSource`] contract both sides
    /// share.
    pub fn corpus(&self) -> &'a dyn CorpusSource {
        match *self {
            EvalSource::Traced(t) => t,
            EvalSource::Store(s) => s,
        }
    }
}

/// Statistics of a [`FeatureCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, thread-safe cache of projected feature matrices.
///
/// Multi-detector ensembles, RHMD pools, and sweep grids repeatedly project
/// the same `(program, spec, fault)` combination — every detector sharing a
/// spec, every algorithm trained at the same sweep point, every metric pass
/// over the same split. The cache computes each combination once — one flat
/// row-major [`FeatureMatrix`] per program, a single allocation — and hands
/// out `Arc`s to the immutable result.
///
/// Correctness: a hit returns exactly the matrix a miss would compute (both
/// call [`project_windows_into`] on the same inputs), so caching can never
/// change a result — only skip recomputation. The equivalence suite
/// asserts this against the uncached path.
#[derive(Debug)]
pub struct FeatureCache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One lock-striped slice of the cache (a flat matrix per key).
type Shard = Mutex<HashMap<CacheKey, Arc<FeatureMatrix>>>;

impl Default for FeatureCache {
    fn default() -> FeatureCache {
        FeatureCache::new()
    }
}

impl FeatureCache {
    /// An empty cache, lock-striped into a fixed 16 slices.
    pub fn new() -> FeatureCache {
        FeatureCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        // Program index spreads entries across however many shards exist.
        &self.shards[(key.program ^ key.spec_hash as usize) % self.shards.len()]
    }

    /// Projected feature matrix of program `program` under `spec` (one row
    /// per window), optionally through a fault model `(config, seed)` —
    /// computed on first use, served from the cache afterwards.
    pub fn vectors(
        &self,
        traced: &TracedCorpus,
        program: usize,
        spec: &FeatureSpec,
        fault: Option<(&FaultConfig, u64)>,
    ) -> Arc<FeatureMatrix> {
        self.vectors_source(&EvalSource::Traced(traced), program, spec, fault)
    }

    /// [`FeatureCache::vectors`] over any [`EvalSource`]. Store-backed hits
    /// and misses both return zero-copy views over the mapped shard; the
    /// source identity is part of the key, so a store and a generated
    /// corpus sharing one process never alias entries.
    ///
    /// # Panics
    ///
    /// When `fault` is given for a store source: fault injection corrupts
    /// raw subwindows, which a store does not retain. Degraded evaluations
    /// require a traced source.
    pub fn vectors_source(
        &self,
        source: &EvalSource<'_>,
        program: usize,
        spec: &FeatureSpec,
        fault: Option<(&FaultConfig, u64)>,
    ) -> Arc<FeatureMatrix> {
        let key = CacheKey {
            source: source.corpus().identity(),
            program,
            seed: fault.map_or(0, |(_, s)| s),
            period: spec.period,
            spec_hash: spec.stable_hash(),
            fault_hash: fault.map_or(0, |(c, _)| c.stable_hash()),
        };
        if let Some(found) = self
            .shard(&key)
            .lock()
            .expect("cache mutex poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::incr("cache.hits");
            return Arc::clone(found);
        }
        // Compute outside the lock: projections are pure, so two racing
        // computations of the same key produce identical matrices and either
        // may win the insert.
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::incr("cache.misses");
        let projected = match (source, fault) {
            (EvalSource::Traced(traced), Some((config, seed))) => {
                let subs = traced.subwindows(program);
                let mut flat = Vec::new();
                let model = FaultModel::new(*config, seed);
                let windows = project_windows_into(&apply_faults(subs, &model), spec, &mut flat);
                if spec.dims() == 0 {
                    // Flat storage cannot infer a row count at zero dims;
                    // keep the window count by pushing empty rows.
                    let mut m = FeatureMatrix::new(0);
                    for _ in 0..windows {
                        m.push_row(&[]);
                    }
                    m
                } else {
                    FeatureMatrix::from_flat(spec.dims(), flat)
                }
            }
            (EvalSource::Store(_), Some(_)) => panic!(
                "fault injection needs raw subwindows, which a corpus store does not \
                 retain; evaluate degraded runs from a traced corpus"
            ),
            // Clean stream: both sources produce bit-identical rows (a
            // store-backed matrix is a zero-copy view into the shard). A
            // source mismatch (spec not stored, index out of range) is a
            // caller bug, validated at CLI level before any loop runs.
            (_, None) => source
                .corpus()
                .features_of(program, spec)
                .unwrap_or_else(|e| panic!("{e}")),
        };
        let value = Arc::new(projected);
        let mut shard = self.shard(&key).lock().expect("cache mutex poisoned");
        Arc::clone(shard.entry(key).or_insert(value))
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache mutex poisoned").len())
                .sum(),
        }
    }

    /// Drops every entry (statistics keep accumulating).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache mutex poisoned").clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Corpus evaluator
// ---------------------------------------------------------------------------

/// Sensitivity / specificity / abstention over a degraded (fault-injected)
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DegradedQuality {
    /// Fraction of decided malware programs flagged.
    pub sensitivity: f64,
    /// Fraction of decided benign programs passed.
    pub specificity: f64,
    /// Fraction of programs abstained on.
    pub abstain_rate: f64,
}

/// Configures and builds an [`Evaluator`].
///
/// Obtained from [`Evaluator::builder`]; every knob has a sensible default
/// (single-threaded pool, no fault model, no watchdog, no checkpoint,
/// metrics off), so callers name only what they deviate on:
///
/// ```
/// use rhmd_core::eval::Evaluator;
/// use rhmd_runtime::pool::Pool;
/// # fn doc(traced: &rhmd_data::TracedCorpus) {
/// let engine = Evaluator::builder(traced, 0xabc).pool(Pool::new(4)).build();
/// # }
/// ```
pub struct EvaluatorBuilder<'a> {
    source: EvalSource<'a>,
    run_seed: u64,
    pool: Pool,
    fault: Option<FaultConfig>,
    watchdog: Option<WatchdogConfig>,
    recorder: Arc<dyn Recorder>,
    checkpoint: Option<Journal>,
}

impl fmt::Debug for EvaluatorBuilder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvaluatorBuilder")
            .field("pool", &self.pool)
            .field("run_seed", &self.run_seed)
            .finish_non_exhaustive()
    }
}

impl<'a> EvaluatorBuilder<'a> {
    /// Uses an explicit [`Pool`] (e.g. [`Pool::new`] or [`Pool::available`]).
    #[must_use]
    pub fn pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Attaches a counter fault model; [`Evaluator::fault_config`] hands it
    /// back to evaluation loops that inject degradation.
    #[must_use]
    pub fn fault(mut self, config: FaultConfig) -> Self {
        self.fault = Some(config);
        self
    }

    /// Supervises every evaluation loop with a per-unit deadline watchdog;
    /// stuck/lost units are flagged, requeued deterministically, and
    /// accumulated into [`Evaluator::run_report`]. Results stay
    /// bit-identical to an unsupervised run — the watchdog only recovers
    /// lost work, it never alters values.
    #[must_use]
    pub fn watchdog(mut self, config: WatchdogConfig) -> Self {
        self.watchdog = Some(config);
        self
    }

    /// Attaches a metrics [`Recorder`]. An enabled recorder switches the
    /// global metrics registry on at [`EvaluatorBuilder::build`] time;
    /// [`Evaluator::export_metrics`] then snapshots and exports through it.
    /// The default [`NoopRecorder`] leaves metrics off (and every
    /// instrumentation site on its near-zero disabled path).
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a checkpoint [`Journal`]; [`Evaluator::unit`] then skips
    /// work units the journal already holds and records fresh ones.
    #[must_use]
    pub fn checkpoint(mut self, journal: Journal) -> Self {
        self.checkpoint = Some(journal);
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Evaluator<'a> {
        if self.recorder.is_enabled() {
            obs::set_enabled(true);
        }
        obs::set_gauge("pool.threads", self.pool.threads() as f64);
        Evaluator {
            source: self.source,
            pool: self.pool,
            cache: FeatureCache::new(),
            run_seed: self.run_seed,
            fault: self.fault,
            watchdog: self.watchdog,
            recorder: self.recorder,
            checkpoint: self.checkpoint.map(Mutex::new),
            report: Mutex::new(RunReport::default()),
        }
    }
}

/// The parallel corpus-evaluation engine: a [`Pool`], a [`FeatureCache`],
/// and a run seed from which every per-program seed is derived — plus the
/// optional run services every experiment shares (fault model, watchdog,
/// metrics recorder, checkpoint journal), all configured through
/// [`Evaluator::builder`].
///
/// Every loop is bit-exact with its serial counterpart at any thread count;
/// the equivalence suite (`tests/equivalence.rs`) enforces this for thread
/// counts {1, 2, 8} across seeds and fault configs.
pub struct Evaluator<'a> {
    source: EvalSource<'a>,
    pool: Pool,
    cache: FeatureCache,
    run_seed: u64,
    fault: Option<FaultConfig>,
    watchdog: Option<WatchdogConfig>,
    recorder: Arc<dyn Recorder>,
    checkpoint: Option<Mutex<Journal>>,
    report: Mutex<RunReport>,
}

impl fmt::Debug for Evaluator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Evaluator")
            .field("pool", &self.pool)
            .field("run_seed", &self.run_seed)
            .field("fault", &self.fault)
            .field("watchdog", &self.watchdog)
            .field("checkpointed", &self.checkpoint.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> Evaluator<'a> {
    /// Starts configuring an engine over `traced` with the given run seed.
    pub fn builder(traced: &'a TracedCorpus, run_seed: u64) -> EvaluatorBuilder<'a> {
        Evaluator::builder_from_source(EvalSource::Traced(traced), run_seed)
    }

    /// Starts configuring an engine over an opened corpus store: feature
    /// rows come back as zero-copy views over the mapped shards, and every
    /// clean-stream loop ([`Evaluator::vectors`],
    /// [`Evaluator::window_dataset`], [`Evaluator::quality_hmd`]) produces
    /// bit-identical results to a traced-corpus engine over the same
    /// underlying corpus. Subwindow-dependent loops
    /// ([`Evaluator::quality_rhmd`], [`Evaluator::degraded_quality`],
    /// [`Evaluator::vectors_faulted`]) need raw traces and panic in store
    /// mode.
    pub fn builder_from_store(store: &'a CorpusStore, run_seed: u64) -> EvaluatorBuilder<'a> {
        Evaluator::builder_from_source(EvalSource::Store(store), run_seed)
    }

    /// Starts configuring an engine over any [`EvalSource`].
    pub fn builder_from_source(source: EvalSource<'a>, run_seed: u64) -> EvaluatorBuilder<'a> {
        EvaluatorBuilder {
            source,
            run_seed,
            pool: Pool::new(1),
            fault: None,
            watchdog: None,
            recorder: Arc::new(NoopRecorder),
            checkpoint: None,
        }
    }

    /// The accumulated degraded-run report across every supervised loop run
    /// so far (empty and non-degraded when no watchdog is configured).
    pub fn run_report(&self) -> RunReport {
        self.report.lock().expect("report mutex poisoned").clone()
    }

    /// The fault model attached at build time, if any.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.fault.as_ref()
    }

    /// The attached metrics recorder ([`NoopRecorder`] by default).
    pub fn recorder(&self) -> &dyn Recorder {
        &*self.recorder
    }

    /// Snapshots the global metrics registry and exports it through the
    /// attached recorder. A no-op (returning `Ok`) under [`NoopRecorder`].
    ///
    /// # Errors
    ///
    /// [`RhmdError::Io`] when the recorder cannot write its output.
    pub fn export_metrics(&self) -> Result<(), RhmdError> {
        if !self.recorder.is_enabled() {
            return Ok(());
        }
        self.recorder
            .export(&obs::snapshot())
            .map_err(|e| RhmdError::io("metrics export".to_owned(), e.to_string()))
    }

    /// Runs (or skips) one checkpointed work unit: with a journal attached,
    /// already-recorded keys return their journaled value (`cached = true`)
    /// and fresh ones are computed and recorded; without one, `compute`
    /// simply runs (`cached = false`).
    ///
    /// # Errors
    ///
    /// See [`Journal::unit`].
    pub fn unit<T: serde::Serialize + serde::Deserialize>(
        &self,
        key: &str,
        compute: impl FnOnce() -> T,
    ) -> Result<(T, bool), RhmdError> {
        match &self.checkpoint {
            None => Ok((compute(), false)),
            Some(journal) => journal
                .lock()
                .expect("journal mutex poisoned")
                .unit(key, compute),
        }
    }

    /// The attached checkpoint directory, if any.
    pub fn checkpoint_dir(&self) -> Option<std::path::PathBuf> {
        self.checkpoint.as_ref().map(|journal| {
            journal
                .lock()
                .expect("journal mutex poisoned")
                .dir()
                .to_path_buf()
        })
    }

    /// Forces pending checkpoint records to disk (no-op without a journal).
    ///
    /// # Errors
    ///
    /// See [`Journal::sync`].
    pub fn sync_checkpoint(&self) -> Result<(), RhmdError> {
        match &self.checkpoint {
            None => Ok(()),
            Some(journal) => journal.lock().expect("journal mutex poisoned").sync(),
        }
    }

    /// Completed units replayed from the checkpoint at open time (0 without
    /// a journal).
    pub fn resumed_units(&self) -> usize {
        self.checkpoint.as_ref().map_or(0, |journal| {
            journal
                .lock()
                .expect("journal mutex poisoned")
                .resumed_units()
        })
    }

    /// Dispatches a map through the watchdog when one is configured.
    ///
    /// A unit failing twice is deterministic (pool closures are pure), so
    /// it aborts the run via panic with the typed error's message — the
    /// same observable behavior `Pool::map` has for any worker panic, minus
    /// the recoverable cases the watchdog absorbs.
    fn run_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        match self.watchdog {
            None => self.pool.map(items, f),
            Some(config) => {
                let (out, report) = self
                    .pool
                    .map_watchdog(items, &config, f)
                    .unwrap_or_else(|e| panic!("{e}"));
                self.report
                    .lock()
                    .expect("report mutex poisoned")
                    .merge(&report);
                out
            }
        }
    }

    /// The corpus source under evaluation.
    pub fn source(&self) -> EvalSource<'a> {
        self.source
    }

    /// The traced corpus under evaluation.
    ///
    /// # Panics
    ///
    /// In store-backed mode (see [`Evaluator::builder_from_store`]): raw
    /// traces are not retained on disk. Callers that need subwindows must
    /// run from a traced corpus.
    pub fn traced(&self) -> &TracedCorpus {
        match self.source {
            EvalSource::Traced(t) => t,
            EvalSource::Store(s) => panic!(
                "this evaluation needs raw subwindows, which the corpus store at {} \
                 does not retain; rerun from live generation",
                s.dir().display()
            ),
        }
    }

    /// The worker pool.
    pub fn pool(&self) -> Pool {
        self.pool
    }

    /// The feature-vector cache.
    pub fn cache(&self) -> &FeatureCache {
        &self.cache
    }

    /// The run seed.
    pub fn run_seed(&self) -> u64 {
        self.run_seed
    }

    /// The derived seed of program `index` — stable across runs, thread
    /// counts, and evaluation order.
    pub fn program_seed(&self, index: usize) -> u64 {
        derive_seed(self.run_seed, index as u64)
    }

    /// Runs `f` over the given program indices on the pool; results come
    /// back in `indices` order. `f` receives `(program index, derived
    /// program seed)`.
    pub fn map_programs<R, F>(&self, indices: &[usize], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, u64) -> R + Sync,
    {
        self.run_map(indices, |_, &i| f(i, self.program_seed(i)))
    }

    /// Cached projected feature matrix of one program (clean stream) —
    /// from the traced corpus or, in store mode, a zero-copy shard view.
    pub fn vectors(&self, program: usize, spec: &FeatureSpec) -> Arc<FeatureMatrix> {
        self.cache.vectors_source(&self.source, program, spec, None)
    }

    /// Cached projected feature matrix of one program through a fault model
    /// seeded with the program's derived seed.
    ///
    /// # Panics
    ///
    /// In store-backed mode — see [`Evaluator::traced`].
    pub fn vectors_faulted(
        &self,
        program: usize,
        spec: &FeatureSpec,
        config: &FaultConfig,
    ) -> Arc<FeatureMatrix> {
        self.cache.vectors(
            self.traced(),
            program,
            spec,
            Some((config, self.program_seed(program))),
        )
    }

    /// Window-level dataset over `indices` — the parallel, cached
    /// equivalent of [`TracedCorpus::window_dataset`]: projections fan out
    /// over the pool (or come from the cache), assembly is sequential in
    /// `indices` order, so rows are bit-identical to the serial path.
    pub fn window_dataset(&self, indices: &[usize], spec: &FeatureSpec) -> Dataset {
        let labels = self.source.corpus().labels();
        let per_program = self.run_map(indices, |_, &i| self.vectors(i, spec));
        let mut data = Dataset::new(spec.dims());
        data.reserve_rows(per_program.iter().map(|m| m.len()).sum());
        for (&i, matrix) in indices.iter().zip(&per_program) {
            data.extend_from_flat(matrix.as_slice(), labels[i]);
        }
        data
    }

    /// Program-level detection quality of a deterministic [`Hmd`] over
    /// `indices`, evaluated on the pool. Matches
    /// [`crate::retrain::detection_quality`] exactly — an `Hmd` holds no
    /// evaluation state, so order cannot matter. Window projections come
    /// from the cache ([`Hmd::decide_windows`] is precisely "predict each
    /// row of the projected matrix"), so detectors sharing a spec classify
    /// without re-projecting, and each program's windows score through one
    /// [`rhmd_ml::model::Classifier::score_batch`] sweep.
    pub fn quality_hmd(&self, hmd: &Hmd, indices: &[usize]) -> DetectionQuality {
        let threshold = hmd.model().threshold();
        let verdicts = self.run_map(indices, |_, &i| {
            let matrix = self.vectors(i, hmd.spec());
            let mut scores = vec![0.0; matrix.len()];
            hmd.model().score_batch(&matrix, &mut scores);
            let decisions: Vec<bool> = scores.into_iter().map(|s| s >= threshold).collect();
            ProgramVerdict::from_decisions(&decisions).is_malware()
        });
        DetectionQuality::from_verdicts(&self.source.corpus().labels(), indices, &verdicts)
    }

    /// Program-level detection quality of an RHMD pool over `indices`,
    /// using per-program switching streams seeded from the *detector's*
    /// construction seed mixed with each program id — order-independent by
    /// construction, unlike the shared-RNG serial walk.
    pub fn quality_rhmd(&self, rhmd: &ResilientHmd, indices: &[usize]) -> DetectionQuality {
        let traced = self.traced();
        let verdicts = self.run_map(indices, |_, &i| {
            let stream =
                rhmd.label_stream(traced.subwindows(i), derive_seed(rhmd.seed(), i as u64));
            ProgramVerdict::from_decisions(&stream).is_malware()
        });
        DetectionQuality::from_verdicts(&self.source.corpus().labels(), indices, &verdicts)
    }

    /// Degraded (fault-injected) program-level quality: `quorum_of`
    /// receives each program's index and its fault-corrupted subwindows and
    /// returns a quorum verdict; `policy` then decides or abstains at
    /// `min_coverage`. `seed_of` derives each program's fault seed —
    /// callers preserving historical sweeps pass their legacy derivation,
    /// new callers pass [`Evaluator::program_seed`].
    pub fn degraded_quality<Q, S>(
        &self,
        indices: &[usize],
        config: FaultConfig,
        policy: &VerdictPolicy,
        min_coverage: f64,
        seed_of: S,
        quorum_of: Q,
    ) -> DegradedQuality
    where
        Q: Fn(usize, &[RawWindow]) -> QuorumVerdict + Sync,
        S: Fn(usize) -> u64 + Sync,
    {
        let traced = self.traced();
        let labels = self.source.corpus().labels();
        let judged: Vec<DegradedVerdict> = self.run_map(indices, |_, &i| {
            let model = FaultModel::new(config, seed_of(i));
            let subs = apply_faults(traced.subwindows(i), &model);
            policy.judge_quorum(&quorum_of(i, &subs), min_coverage)
        });
        let (mut tp, mut malware, mut tn, mut benign, mut abstained) =
            (0u32, 0u32, 0u32, 0u32, 0u32);
        for (&i, verdict) in indices.iter().zip(&judged) {
            match verdict {
                DegradedVerdict::Abstained => abstained += 1,
                DegradedVerdict::Decided(flag) => {
                    if labels[i] {
                        malware += 1;
                        tp += u32::from(*flag);
                    } else {
                        benign += 1;
                        tn += u32::from(!*flag);
                    }
                }
            }
        }
        DegradedQuality {
            sensitivity: f64::from(tp) / f64::from(malware.max(1)),
            specificity: f64::from(tn) / f64::from(benign.max(1)),
            abstain_rate: f64::from(abstained) / indices.len().max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig};
    use rhmd_features::vector::FeatureKind;
    use rhmd_uarch::CoreConfig;

    fn traced() -> TracedCorpus {
        let cfg = CorpusConfig::tiny();
        TracedCorpus::trace(Corpus::build(&cfg), cfg.limits(), CoreConfig::default())
    }

    #[test]
    fn evaluator_watchdog_keeps_results_and_accumulates_report() {
        let t = traced();
        let spec = FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]);
        let indices: Vec<usize> = (0..t.corpus().len()).collect();
        let plain = Evaluator::builder(&t, 0xabc).pool(Pool::new(4)).build();
        let supervised = Evaluator::builder(&t, 0xabc)
            .pool(Pool::new(4))
            .watchdog(WatchdogConfig::default())
            .build();
        let a = plain.window_dataset(&indices, &spec);
        let b = supervised.window_dataset(&indices, &spec);
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.labels(), b.labels());
        let report = supervised.run_report();
        assert_eq!(report.items, indices.len() as u64);
        assert!(!report.degraded());
        assert!(!plain.run_report().degraded());
    }

    #[test]
    fn cache_hits_return_identical_vectors() {
        let t = traced();
        let cache = FeatureCache::new();
        let spec = FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]);
        let first = cache.vectors(&t, 0, &spec, None);
        let again = cache.vectors(&t, 0, &spec, None);
        assert!(Arc::ptr_eq(&first, &again), "second lookup must hit");
        let direct = rhmd_features::pipeline::project_windows(t.subwindows(0), &spec);
        assert_eq!(first.len(), direct.len());
        assert!(first.iter().eq(direct.iter().map(|v| v.as_slice())));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_keys_separate_fault_configs_and_seeds() {
        let t = traced();
        let cache = FeatureCache::new();
        let spec = FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]);
        let clean = cache.vectors(&t, 0, &spec, None);
        let noisy = cache.vectors(&t, 0, &spec, Some((&FaultConfig::noise(0.2), 7)));
        let noisy_other_seed = cache.vectors(&t, 0, &spec, Some((&FaultConfig::noise(0.2), 8)));
        assert_ne!(*clean, *noisy);
        assert_ne!(*noisy, *noisy_other_seed);
        assert_eq!(cache.stats().entries, 3);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn evaluator_dataset_matches_traced_corpus() {
        let t = traced();
        let spec = FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]);
        let indices: Vec<usize> = (0..t.corpus().len()).step_by(3).collect();
        let serial = t.window_dataset(&indices, &spec);
        for threads in [1, 4] {
            let eval = Evaluator::builder(&t, 0xabc)
                .pool(Pool::new(threads))
                .build();
            let par = eval.window_dataset(&indices, &spec);
            assert_eq!(par.len(), serial.len());
            assert_eq!(par.rows(), serial.rows(), "threads={threads}");
            assert_eq!(par.labels(), serial.labels());
        }
    }

    #[test]
    fn program_seeds_are_order_free_and_distinct() {
        let t = traced();
        let eval = Evaluator::builder(&t, 99).pool(Pool::new(2)).build();
        let a: Vec<u64> = (0..10).map(|i| eval.program_seed(i)).collect();
        let b: Vec<u64> = (0..10).rev().map(|i| eval.program_seed(i)).collect();
        assert_eq!(a, b.into_iter().rev().collect::<Vec<_>>());
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
    }
}
