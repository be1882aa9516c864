//! The on-disk corpus store: generate traces and features once, evaluate
//! forever after from memory-mapped shards.
//!
//! Every evaluation path used to regenerate traces per run and cache
//! feature vectors in RAM, capping corpus size at available memory. The
//! store inverts that: `rhmd corpus build` (via [`StoreBuilder`]) traces
//! each *canonical* program once, projects every requested
//! [`FeatureSpec`], and streams the rows into per-spec shard files; later
//! runs [`CorpusStore::open`] the directory and read rows back as zero-copy
//! [`FeatureMatrix`] views over the page cache — no tracing, no per-program
//! allocation, bounded RSS at any corpus size.
//!
//! # Layout
//!
//! ```text
//! <dir>/store.json            checksummed manifest: schema version, the
//!                             full CorpusConfig, labels, strata, the
//!                             dedup mapping, and one entry per shard
//! <dir>/<spec_hash>.shard     versioned 64-byte header + row-major
//!                             little-endian f64 rows, FNV-checksummed
//! <dir>/journal/              PR-3 checkpoint journal of the build; a
//!                             killed build resumes from the last chunk
//! ```
//!
//! Shard header (all integers little-endian):
//!
//! ```text
//! offset  0  "RHMDSHRD"   magic (8 bytes)
//! offset  8  version      u32 (= SHARD_VERSION)
//! offset 12  flags        u32 (0 = little-endian payload)
//! offset 16  spec_hash    u64 (FeatureSpec::stable_hash)
//! offset 24  dims         u64
//! offset 32  rows         u64
//! offset 40  checksum     u64 (FNV-1a of the data bytes)
//! offset 48  data_len     u64 (bytes of row data)
//! offset 56  reserved     u64 (0)
//! ```
//!
//! The 64-byte header keeps the row data 8-byte aligned, so a mapped shard
//! slice *is* a valid [`FeatureMatrix`] and `Classifier::score_batch`
//! consumes it without a copy.
//!
//! # Dedup
//!
//! Programs are content-addressed by a structure hash (the serialized
//! program with its `name` cleared — two generated samples that differ only
//! in name are the same binary). Only the first occurrence (the *canonical*
//! program) is traced and stored; duplicates alias the canonical rows
//! through the manifest's `canonical` mapping, invisibly to every consumer:
//! `features_of(dup)` returns bit-identical rows to `features_of(canon)`.
//!
//! All writes go through the durable plane ([`rhmd_runtime::durable`]):
//! appends tolerate short writes, the manifest is checksummed and written
//! atomically, and partially built shards are truncated back to the last
//! journaled chunk on resume.

use crate::config::CorpusConfig;
use crate::corpus::Corpus;
use rhmd_features::stream::{stream_features_into, LaneSpec};
use rhmd_features::vector::FeatureSpec;

std::thread_local! {
    /// Per-thread staging buffers for streamed feature rows, reused across
    /// every program a worker thread traces.
    static STAGING: std::cell::RefCell<Vec<Vec<f64>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}
use rhmd_ml::matrix::FeatureMatrix;
use rhmd_ml::mmap::{MappedBuffer, NATIVE_F64_VIEWS};
use rhmd_runtime::ckpt::{Journal, Manifest};
use rhmd_runtime::durable::{fnv1a, Durable};
use rhmd_runtime::pool::Pool;
use rhmd_runtime::RhmdError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Version of the store layout (manifest schema and shard header).
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// Version field written into every shard header.
pub const SHARD_VERSION: u32 = 1;

/// Shard file magic.
pub const SHARD_MAGIC: &[u8; 8] = b"RHMDSHRD";

/// Fixed shard header length; also the alignment pad that keeps row data at
/// an 8-byte boundary.
pub const SHARD_HEADER_LEN: usize = 64;

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "store.json";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming continuation of [`fnv1a`]: feeding chunks through
/// `fnv1a_update` starting from [`FNV_OFFSET`] equals hashing the
/// concatenation in one call.
fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One shard (one [`FeatureSpec`]) recorded in the store manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Shard file name inside the store directory.
    pub file: String,
    /// Human-readable spec label (`"Memory@10k"`), for messages.
    pub label: String,
    /// The full feature spec, including the selected opcode subset.
    pub spec: FeatureSpec,
    /// `spec.stable_hash()`, the lookup key.
    pub spec_hash: u64,
    /// Row width.
    pub dims: u64,
    /// Total rows across all canonical programs.
    pub rows: u64,
    /// FNV-1a of the shard's row data, duplicated from the header so either
    /// copy detects tampering with the other.
    pub checksum: u64,
    /// Prefix row offsets per canonical program (`canonical_count + 1`
    /// entries): canonical rank `r` owns rows `row_offsets[r]..row_offsets[r+1]`.
    pub row_offsets: Vec<u64>,
}

/// The checksummed `store.json` manifest describing a corpus store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreManifest {
    /// Store layout version.
    pub schema_version: u32,
    /// The corpus configuration the store was generated from.
    pub config: CorpusConfig,
    /// Human-readable build configuration summary.
    pub config_summary: String,
    /// FNV-1a of `config_summary` — folded into cache keys and checkpoint
    /// manifests so stores with different configurations can never alias.
    pub config_hash: u64,
    /// Ground-truth label per program (`true` = malware), duplicates
    /// included.
    pub labels: Vec<bool>,
    /// Stratum id per program, for reconstructing the paper's stratified
    /// splits without the corpus.
    pub strata: Vec<u32>,
    /// Dedup mapping: `canonical[i]` is the id of the canonical program
    /// whose rows program `i` aliases (`canonical[i] == i` for canonicals).
    pub canonical: Vec<u64>,
    /// One entry per stored feature spec.
    pub shards: Vec<ShardEntry>,
}

impl StoreManifest {
    /// Number of programs (duplicates included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the store holds no programs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of canonical (actually stored) programs.
    #[must_use]
    pub fn canonical_count(&self) -> usize {
        self.canonical
            .iter()
            .enumerate()
            .filter(|(i, &c)| c == *i as u64)
            .count()
    }

    /// Fraction of programs that are duplicates of an earlier one.
    #[must_use]
    pub fn dedup_ratio(&self) -> f64 {
        if self.canonical.is_empty() {
            return 0.0;
        }
        1.0 - self.canonical_count() as f64 / self.canonical.len() as f64
    }
}

/// Summary statistics returned by [`StoreBuilder::build`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreSummary {
    /// Programs in the corpus (duplicates included).
    pub programs: usize,
    /// Canonical programs actually traced and stored.
    pub canonical: usize,
    /// Duplicate programs aliased to canonical rows.
    pub duplicates: usize,
    /// Feature specs (= shard files) written.
    pub shards: usize,
    /// Total rows written across all shards.
    pub rows: u64,
    /// Total shard bytes on disk (headers included).
    pub bytes: u64,
    /// Chunks skipped because a previous interrupted build had journaled
    /// them.
    pub resumed_chunks: usize,
}

/// Per-shard running state journaled after every chunk. `bytes`/`fnv`/`rows`
/// are absolute totals after the chunk, so a resumed build can truncate the
/// partial file to `bytes` and continue the checksum stream from `fnv`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SpecProgress {
    bytes: u64,
    fnv: u64,
    rows: u64,
    /// Rows contributed by each canonical program of this chunk, in order.
    program_rows: Vec<u64>,
}

/// The journaled record of one completed build chunk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ChunkRecord {
    specs: Vec<SpecProgress>,
}

/// Builds a corpus store directory: trace once, dedup, shard, checkpoint.
///
/// # Examples
///
/// ```no_run
/// use rhmd_data::config::CorpusConfig;
/// use rhmd_data::store::{CorpusStore, StoreBuilder};
/// use rhmd_features::{FeatureKind, FeatureSpec};
///
/// let spec = FeatureSpec::new(FeatureKind::Memory, 10_000, vec![]);
/// let summary = StoreBuilder::new("corpus-store", CorpusConfig::tiny())
///     .specs(vec![spec.clone()])
///     .build()
///     .unwrap();
/// assert!(summary.rows > 0);
/// let store = CorpusStore::open("corpus-store").unwrap();
/// let first = store.features_of(0, &spec).unwrap();
/// assert!(first.is_mapped() || first.len() > 0);
/// ```
#[derive(Debug)]
pub struct StoreBuilder {
    dir: PathBuf,
    config: CorpusConfig,
    corpus: Option<Corpus>,
    specs: Vec<FeatureSpec>,
    threads: usize,
    chunk: usize,
}

impl StoreBuilder {
    /// A builder writing to `dir` for the corpus generated by `config`.
    pub fn new(dir: impl Into<PathBuf>, config: CorpusConfig) -> StoreBuilder {
        StoreBuilder {
            dir: dir.into(),
            config,
            corpus: None,
            specs: Vec::new(),
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            chunk: 64,
        }
    }

    /// The feature specs to shard (one shard file each).
    #[must_use]
    pub fn specs(mut self, specs: Vec<FeatureSpec>) -> StoreBuilder {
        self.specs = specs;
        self
    }

    /// Worker threads for tracing (results are identical at any count).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> StoreBuilder {
        self.threads = threads.max(1);
        self
    }

    /// Canonical programs per build chunk (the checkpoint granularity).
    #[must_use]
    pub fn chunk(mut self, chunk: usize) -> StoreBuilder {
        self.chunk = chunk.max(1);
        self
    }

    /// Overrides the corpus instead of generating it from the config —
    /// used by dedup tests that need hand-built duplicate programs.
    #[must_use]
    pub fn with_corpus(mut self, corpus: Corpus) -> StoreBuilder {
        self.corpus = Some(corpus);
        self
    }

    /// The configuration summary string hashed into the build journal's
    /// manifest — a different config refuses to resume into this directory.
    #[must_use]
    pub fn summary(&self) -> String {
        let specs = self
            .specs
            .iter()
            .map(|s| format!("{}#{:016x}", s.label(), s.stable_hash()))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "store;programs={};seed={};max_instructions={};specs={specs}",
            self.config.total_programs(),
            self.config.seed,
            self.config.max_instructions,
        )
    }

    /// Generates (or reuses) the corpus, dedups it, traces every canonical
    /// program once, and writes the shards + manifest.
    ///
    /// The build is chunked and journaled: re-running after a crash skips
    /// every journaled chunk, truncates partial shards back to the last
    /// consistent offset, and produces byte-identical shards to an
    /// uninterrupted build at any thread count.
    ///
    /// # Errors
    ///
    /// [`RhmdError::Config`] when no specs were given, [`RhmdError::Io`] /
    /// [`RhmdError::Parse`] on filesystem or journal trouble.
    pub fn build(self) -> Result<StoreSummary, RhmdError> {
        if self.specs.is_empty() {
            return Err(RhmdError::config("corpus store build needs at least one feature spec"));
        }
        let _span = rhmd_obs::span("store.build");
        let durable = Durable::from_env()?;
        std::fs::create_dir_all(&self.dir).map_err(|e| {
            RhmdError::io(self.dir.display().to_string(), format!("create store dir: {e}"))
        })?;

        let corpus = match &self.corpus {
            Some(c) => c.clone(),
            None => Corpus::build(&self.config),
        };
        let canonical = canonical_map(&corpus, self.threads)?;
        let canonical_ids: Vec<usize> = (0..corpus.len()).filter(|&i| canonical[i] == i).collect();
        rhmd_obs::add("store.duplicates", (corpus.len() - canonical_ids.len()) as u64);

        let summary_text = self.summary();
        let mut journal = Journal::create(
            &self.dir.join("journal"),
            &Manifest::new("corpus-build", &summary_text),
            Durable::from_env()?,
            1,
        )?;

        // Open one partial file per spec; resume state starts at an empty
        // header-sized prefix and is fast-forwarded by journaled chunks.
        let mut shards: Vec<ShardState> = self
            .specs
            .iter()
            .map(|spec| ShardState::open(&self.dir, spec, &durable))
            .collect::<Result<_, _>>()?;

        let limits = self.config.limits();
        let core_config = rhmd_uarch::CoreConfig::default();
        let mut resumed_chunks = 0usize;
        for (chunk_index, ids) in canonical_ids.chunks(self.chunk).enumerate() {
            let key = format!("chunk/{chunk_index}");
            let record = if journal.is_done(&key) {
                resumed_chunks += 1;
                rhmd_obs::incr("store.chunks_resumed");
                let (record, _) = journal
                    .unit(&key, || unreachable!("journaled chunks are never recomputed"))?;
                record
            } else {
                // Trace + project the chunk in parallel (ordered, so output
                // is identical at any thread count), then append rows
                // sequentially in program order. Each program is one
                // streaming pass: every spec is a clean lane fed from the
                // same execution, writing rows into per-thread staging
                // buffers reused across programs.
                let lanes: Vec<LaneSpec> = self.specs.iter().map(LaneSpec::clean).collect();
                let flats: Vec<Vec<(u64, Vec<u8>)>> =
                    Pool::new(self.threads).map(ids, |_, &id| {
                        STAGING.with(|staging| {
                            let mut staging = staging.borrow_mut();
                            let want = lanes.len().max(staging.len());
                            staging.resize_with(want, Vec::new);
                            for buf in staging.iter_mut().take(lanes.len()) {
                                buf.clear();
                            }
                            let mut outs: Vec<&mut Vec<f64>> =
                                staging.iter_mut().take(lanes.len()).collect();
                            let outcome = stream_features_into(
                                corpus.program(id),
                                limits,
                                core_config,
                                &lanes,
                                &mut outs,
                            );
                            outcome
                                .rows
                                .iter()
                                .zip(outs.iter())
                                .map(|(&rows, buf)| {
                                    let bytes: Vec<u8> =
                                        buf.iter().flat_map(|v| v.to_le_bytes()).collect();
                                    (rows as u64, bytes)
                                })
                                .collect()
                        })
                    });
                let mut specs_progress: Vec<SpecProgress> = shards
                    .iter()
                    .map(|s| SpecProgress {
                        bytes: s.bytes,
                        fnv: s.fnv,
                        rows: s.rows,
                        program_rows: Vec::with_capacity(ids.len()),
                    })
                    .collect();
                for per_spec in &flats {
                    for (progress, shard, (rows, bytes)) in
                        itertools3(&mut specs_progress, &mut shards, per_spec)
                    {
                        progress.bytes = durable.append_at(
                            &shard.partial_path,
                            &mut shard.file,
                            progress.bytes,
                            bytes,
                        )?;
                        progress.fnv = fnv1a_update(progress.fnv, bytes);
                        progress.rows += rows;
                        progress.program_rows.push(*rows);
                    }
                }
                for shard in &mut shards {
                    durable.sync(&shard.partial_path, &mut shard.file)?;
                }
                let record = ChunkRecord { specs: specs_progress };
                let (record, _) = journal.unit(&key, move || record)?;
                record
            };
            if record.specs.len() != shards.len() {
                return Err(RhmdError::parse(
                    self.dir.display().to_string(),
                    "build journal does not match the requested specs; \
                     delete the store directory and rebuild",
                ));
            }
            for (shard, progress) in shards.iter_mut().zip(&record.specs) {
                shard.bytes = progress.bytes;
                shard.fnv = progress.fnv;
                shard.rows = progress.rows;
                shard.row_offsets.extend(progress.program_rows.iter().scan(
                    *shard.row_offsets.last().expect("offsets start at 0"),
                    |acc, &r| {
                        *acc += r;
                        Some(*acc)
                    },
                ));
            }
        }
        journal.sync()?;

        // Finalize: truncate any unjournaled tail, stamp the header, rename
        // into place, and write the manifest last — a store without a
        // manifest is simply not open-able, never half-open.
        let mut entries = Vec::with_capacity(shards.len());
        let mut total_bytes = 0u64;
        let mut total_rows = 0u64;
        for (shard, spec) in shards.iter_mut().zip(&self.specs) {
            entries.push(shard.finalize(spec, &durable)?);
            total_bytes += shard.bytes;
            total_rows += shard.rows;
        }
        let manifest = StoreManifest {
            schema_version: STORE_SCHEMA_VERSION,
            config: self.config,
            config_summary: summary_text.clone(),
            config_hash: fnv1a(summary_text.as_bytes()),
            labels: corpus.labels(),
            strata: corpus.strata(),
            canonical: canonical.iter().map(|&c| c as u64).collect(),
            shards: entries,
        };
        let json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| RhmdError::config(format!("cannot serialize store manifest: {e}")))?;
        durable.write_checksummed(&self.dir.join(MANIFEST_FILE), json.as_bytes())?;
        rhmd_obs::incr("store.builds");

        Ok(StoreSummary {
            programs: corpus.len(),
            canonical: canonical_ids.len(),
            duplicates: corpus.len() - canonical_ids.len(),
            shards: manifest.shards.len(),
            rows: total_rows,
            bytes: total_bytes,
            resumed_chunks,
        })
    }
}

/// Lock-step iteration over the three per-spec collections of a chunk.
fn itertools3<'a>(
    progress: &'a mut [SpecProgress],
    shards: &'a mut [ShardState],
    flat: &'a [(u64, Vec<u8>)],
) -> impl Iterator<Item = (&'a mut SpecProgress, &'a mut ShardState, &'a (u64, Vec<u8>))> {
    progress
        .iter_mut()
        .zip(shards.iter_mut())
        .zip(flat.iter())
        .map(|((p, s), f)| (p, s, f))
}

/// Structure hash and first-occurrence dedup over a corpus.
///
/// The hash covers the serialized program with its `name` cleared, so two
/// generated samples that differ only in name collapse; a (vanishingly
/// unlikely) hash collision is disarmed by an exact equality check before
/// aliasing.
fn canonical_map(corpus: &Corpus, threads: usize) -> Result<Vec<usize>, RhmdError> {
    let hashes: Vec<u64> = Pool::new(threads).map(corpus.programs(), |_, p| {
        let mut anon = p.clone();
        anon.name = String::new();
        let json = serde_json::to_string(&anon).unwrap_or_default();
        fnv1a(json.as_bytes())
    });
    let mut first: HashMap<u64, usize> = HashMap::new();
    let mut canonical = Vec::with_capacity(corpus.len());
    for (i, &h) in hashes.iter().enumerate() {
        let canon = match first.get(&h) {
            Some(&j) => {
                let mut a = corpus.program(i).clone();
                let mut b = corpus.program(j).clone();
                a.name = String::new();
                b.name = String::new();
                if a == b {
                    j
                } else {
                    i // hash collision between distinct programs: keep both
                }
            }
            None => {
                first.insert(h, i);
                i
            }
        };
        canonical.push(canon);
    }
    Ok(canonical)
}

/// An open partial shard during a build.
#[derive(Debug)]
struct ShardState {
    partial_path: PathBuf,
    final_path: PathBuf,
    file: std::fs::File,
    /// Absolute file length in bytes (header included).
    bytes: u64,
    /// Running FNV-1a over the row data only.
    fnv: u64,
    rows: u64,
    row_offsets: Vec<u64>,
}

impl ShardState {
    fn open(dir: &Path, spec: &FeatureSpec, durable: &Durable) -> Result<ShardState, RhmdError> {
        let name = format!("{:016x}.shard", spec.stable_hash());
        let partial_path = dir.join(format!("{name}.partial"));
        let final_path = dir.join(name);
        // A finalized shard from a previous (complete or partially
        // finalized) build is demoted back to partial: the journal is the
        // authority on how many bytes are valid, and finalize re-stamps the
        // header either way.
        if final_path.exists() {
            durable.with_retry("reopen finalized shard", &partial_path, || {
                std::fs::rename(&final_path, &partial_path)
            })?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&partial_path)
            .map_err(|e| {
                RhmdError::io(partial_path.display().to_string(), format!("open shard: {e}"))
            })?;
        // Reserve the header so row appends start 8-byte aligned; the real
        // header is stamped at finalize time. A resumed partial keeps its
        // existing bytes — truncation back to the journaled offset happens
        // at the first recomputed append.
        let existing = file
            .metadata()
            .map_err(|e| {
                RhmdError::io(partial_path.display().to_string(), format!("stat shard: {e}"))
            })?
            .len();
        if existing < SHARD_HEADER_LEN as u64 {
            durable.append_at(&partial_path, &mut file, 0, &[0u8; SHARD_HEADER_LEN])?;
        }
        Ok(ShardState {
            partial_path,
            final_path,
            file,
            bytes: SHARD_HEADER_LEN as u64,
            fnv: FNV_OFFSET,
            rows: 0,
            row_offsets: vec![0],
        })
    }

    /// Truncates unjournaled garbage, writes the final header, fsyncs, and
    /// renames the partial into place.
    fn finalize(&mut self, spec: &FeatureSpec, durable: &Durable) -> Result<ShardEntry, RhmdError> {
        let header = encode_header(spec, self.rows, self.fnv, self.bytes);
        durable.with_retry("finalize shard", &self.partial_path, || {
            self.file.set_len(self.bytes)?;
            self.file.seek(std::io::SeekFrom::Start(0))?;
            self.file.write_all(&header)?;
            self.file.sync_all()
        })?;
        durable.with_retry("rename shard into place", &self.final_path, || {
            std::fs::rename(&self.partial_path, &self.final_path)
        })?;
        let dir = self.final_path.parent().unwrap_or(Path::new(".")).to_path_buf();
        durable.with_retry("fsync store dir", &dir, || {
            std::fs::File::open(&dir)?.sync_all()
        })?;
        Ok(ShardEntry {
            file: self
                .final_path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            label: spec.label(),
            spec: spec.clone(),
            spec_hash: spec.stable_hash(),
            dims: spec.dims() as u64,
            rows: self.rows,
            checksum: self.fnv,
            row_offsets: std::mem::take(&mut self.row_offsets),
        })
    }
}

fn encode_header(spec: &FeatureSpec, rows: u64, checksum: u64, total_bytes: u64) -> [u8; SHARD_HEADER_LEN] {
    let mut h = [0u8; SHARD_HEADER_LEN];
    h[0..8].copy_from_slice(SHARD_MAGIC);
    h[8..12].copy_from_slice(&SHARD_VERSION.to_le_bytes());
    // flags at 12..16 stay 0: little-endian payload.
    h[16..24].copy_from_slice(&spec.stable_hash().to_le_bytes());
    h[24..32].copy_from_slice(&(spec.dims() as u64).to_le_bytes());
    h[32..40].copy_from_slice(&rows.to_le_bytes());
    h[40..48].copy_from_slice(&checksum.to_le_bytes());
    h[48..56].copy_from_slice(&(total_bytes - SHARD_HEADER_LEN as u64).to_le_bytes());
    h
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// One opened, validated, memory-mapped shard.
#[derive(Debug)]
struct OpenShard {
    buf: Arc<MappedBuffer>,
    dims: usize,
    row_offsets: Vec<u64>,
}

/// A read-only corpus store: the manifest plus every shard mapped and
/// validated.
///
/// Rows come back as zero-copy [`FeatureMatrix`] views (see
/// [`CorpusStore::features_of`]); labels, strata, and the dedup mapping are
/// served from the manifest without touching the corpus generator.
#[derive(Debug)]
pub struct CorpusStore {
    dir: PathBuf,
    manifest: StoreManifest,
    identity: u64,
    /// Program id -> canonical rank (index into each shard's `row_offsets`).
    rank: Vec<usize>,
    shards: Vec<OpenShard>,
}

impl CorpusStore {
    /// Opens and fully validates a store directory: manifest checksum and
    /// schema, then every shard's magic, version, spec hash, geometry, and
    /// data checksum.
    ///
    /// # Errors
    ///
    /// [`RhmdError::Io`] when files are missing or unreadable;
    /// [`RhmdError::Parse`] on corrupt or truncated manifest/shards;
    /// [`RhmdError::Version`] on a schema or shard version this build does
    /// not support.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CorpusStore, RhmdError> {
        let dir = dir.into();
        let _span = rhmd_obs::span("store.open");
        let durable = Durable::from_env()?;
        let manifest_path = dir.join(MANIFEST_FILE);
        if !manifest_path.exists() {
            return Err(RhmdError::io(
                dir.display().to_string(),
                "not a corpus store (no store.json); run `rhmd corpus build` first",
            ));
        }
        let bytes = durable.read_checksummed(&manifest_path)?;
        let text = String::from_utf8(bytes)
            .map_err(|e| RhmdError::parse(manifest_path.display().to_string(), e.to_string()))?;
        let manifest: StoreManifest = serde_json::from_str(&text)
            .map_err(|e| RhmdError::parse(manifest_path.display().to_string(), e.to_string()))?;
        if manifest.schema_version != STORE_SCHEMA_VERSION {
            return Err(RhmdError::Version {
                found: manifest.schema_version,
                expected: STORE_SCHEMA_VERSION,
            });
        }
        if manifest.canonical.len() != manifest.labels.len()
            || manifest.strata.len() != manifest.labels.len()
        {
            return Err(RhmdError::parse(
                manifest_path.display().to_string(),
                "manifest label/strata/canonical lengths disagree",
            ));
        }

        let canonical_count = manifest.canonical_count();
        let mut rank_of = vec![usize::MAX; manifest.len()];
        let mut next = 0usize;
        for (i, &c) in manifest.canonical.iter().enumerate() {
            if c == i as u64 {
                rank_of[i] = next;
                next += 1;
            }
        }
        let mut rank = Vec::with_capacity(manifest.len());
        for &c in &manifest.canonical {
            let c = c as usize;
            let r = rank_of.get(c).copied().unwrap_or(usize::MAX);
            if r == usize::MAX {
                return Err(RhmdError::parse(
                    manifest_path.display().to_string(),
                    format!("canonical id {c} is not itself canonical"),
                ));
            }
            rank.push(r);
        }

        let mut shards = Vec::with_capacity(manifest.shards.len());
        for entry in &manifest.shards {
            shards.push(open_shard(&dir, entry, canonical_count)?);
            rhmd_obs::incr("store.shards_opened");
        }

        let canonical_dir = std::fs::canonicalize(&dir).unwrap_or_else(|_| dir.clone());
        let identity = fnv1a_update(
            fnv1a(canonical_dir.display().to_string().as_bytes()),
            &manifest.config_hash.to_le_bytes(),
        );
        Ok(CorpusStore {
            dir,
            manifest,
            identity,
            rank,
            shards,
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The validated manifest.
    #[must_use]
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// The corpus configuration the store was generated from.
    #[must_use]
    pub fn config(&self) -> &CorpusConfig {
        &self.manifest.config
    }

    /// A stable identity for this store (canonical path + config hash),
    /// folded into feature-cache keys so rows from different stores — or
    /// from a store and live generation — can never alias.
    #[must_use]
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// Number of programs (duplicates included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.manifest.len()
    }

    /// Whether the store holds no programs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.manifest.is_empty()
    }

    /// Ground-truth labels, one per program.
    #[must_use]
    pub fn labels(&self) -> &[bool] {
        &self.manifest.labels
    }

    /// Stratum ids, one per program.
    #[must_use]
    pub fn strata(&self) -> &[u32] {
        &self.manifest.strata
    }

    /// The stored feature specs, in build order.
    pub fn specs(&self) -> impl Iterator<Item = &FeatureSpec> {
        self.manifest.shards.iter().map(|s| &s.spec)
    }

    /// Whether a spec projecting identically to `spec` is stored.
    #[must_use]
    pub fn has_spec(&self, spec: &FeatureSpec) -> bool {
        let h = spec.stable_hash();
        self.manifest.shards.iter().any(|s| s.spec_hash == h)
    }

    fn shard_index(&self, spec: &FeatureSpec) -> Result<usize, RhmdError> {
        let h = spec.stable_hash();
        self.manifest
            .shards
            .iter()
            .position(|s| s.spec_hash == h)
            .ok_or_else(|| {
                let have = self
                    .manifest
                    .shards
                    .iter()
                    .map(|s| s.label.as_str())
                    .collect::<Vec<_>>()
                    .join(", ");
                RhmdError::config(format!(
                    "corpus store {} does not contain feature spec {} (stored: {have}); \
                     rebuild the store with this spec",
                    self.dir.display(),
                    spec.label(),
                ))
            })
    }

    /// All rows of program `index` under `spec`, as a zero-copy view into
    /// the mapped shard (an owned copy only on big-endian targets).
    /// Duplicate programs transparently read their canonical rows.
    ///
    /// # Errors
    ///
    /// [`RhmdError::Config`] when the spec is not stored or `index` is out
    /// of range.
    pub fn features_of(&self, index: usize, spec: &FeatureSpec) -> Result<FeatureMatrix, RhmdError> {
        if index >= self.len() {
            return Err(RhmdError::config(format!(
                "program index {index} out of range ({} programs in store)",
                self.len()
            )));
        }
        let si = self.shard_index(spec)?;
        if self.manifest.canonical[index] != index as u64 {
            rhmd_obs::incr("store.dedup_hits");
        }
        let shard = &self.shards[si];
        let rank = self.rank[index];
        let start = shard.row_offsets[rank];
        let rows = (shard.row_offsets[rank + 1] - start) as usize;
        let byte_offset = SHARD_HEADER_LEN + start as usize * shard.dims * 8;
        if NATIVE_F64_VIEWS {
            FeatureMatrix::from_mapped(Arc::clone(&shard.buf), byte_offset, shard.dims, rows)
                .ok_or_else(|| {
                    RhmdError::parse(
                        self.dir.display().to_string(),
                        format!("shard window for program {index} is out of bounds"),
                    )
                })
        } else {
            // Big-endian target: decode an owned copy (correct, not zero-copy).
            let bytes = shard.buf.as_bytes();
            let end = byte_offset + rows * shard.dims * 8;
            if end > bytes.len() {
                return Err(RhmdError::parse(
                    self.dir.display().to_string(),
                    format!("shard window for program {index} is out of bounds"),
                ));
            }
            let mut flat = Vec::with_capacity(rows * shard.dims);
            for chunk in bytes[byte_offset..end].chunks_exact(8) {
                flat.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
            }
            let mut m = FeatureMatrix::from_flat(shard.dims.max(1), flat);
            if shard.dims == 0 {
                m = empty_rows(rows);
            }
            Ok(m)
        }
    }

    /// Number of feature rows program `index` contributes under `spec`.
    ///
    /// # Errors
    ///
    /// Same as [`CorpusStore::features_of`].
    pub fn rows_of(&self, index: usize, spec: &FeatureSpec) -> Result<usize, RhmdError> {
        let si = self.shard_index(spec)?;
        let shard = &self.shards[si];
        let rank = *self.rank.get(index).ok_or_else(|| {
            RhmdError::config(format!("program index {index} out of range"))
        })?;
        Ok((shard.row_offsets[rank + 1] - shard.row_offsets[rank]) as usize)
    }
}

/// A `dims == 0` matrix with `rows` empty rows (degenerate-spec support).
fn empty_rows(rows: usize) -> FeatureMatrix {
    let mut m = FeatureMatrix::new(0);
    for _ in 0..rows {
        m.push_row(&[]);
    }
    m
}

fn open_shard(dir: &Path, entry: &ShardEntry, canonical_count: usize) -> Result<OpenShard, RhmdError> {
    let path = dir.join(&entry.file);
    let reject = |message: String| RhmdError::parse(path.display().to_string(), message);
    let buf = MappedBuffer::map_file(&path)
        .map_err(|e| RhmdError::io(path.display().to_string(), format!("map shard: {e}")))?;
    let bytes = buf.as_bytes();
    if bytes.len() < SHARD_HEADER_LEN {
        return Err(reject(format!(
            "truncated shard: {} bytes is smaller than the {SHARD_HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if &bytes[0..8] != SHARD_MAGIC {
        return Err(reject("bad shard magic (not a corpus shard)".to_string()));
    }
    let version = read_u32(bytes, 8);
    if version != SHARD_VERSION {
        return Err(RhmdError::Version {
            found: version,
            expected: SHARD_VERSION,
        });
    }
    let spec_hash = read_u64(bytes, 16);
    let dims = read_u64(bytes, 24);
    let rows = read_u64(bytes, 32);
    let checksum = read_u64(bytes, 40);
    let data_len = read_u64(bytes, 48);
    if spec_hash != entry.spec_hash || dims != entry.dims || rows != entry.rows {
        return Err(reject(format!(
            "shard header disagrees with manifest \
             (spec {spec_hash:016x}/{:016x}, dims {dims}/{}, rows {rows}/{})",
            entry.spec_hash, entry.dims, entry.rows
        )));
    }
    let expected_len = SHARD_HEADER_LEN as u64 + data_len;
    if bytes.len() as u64 != expected_len || data_len != rows * dims * 8 {
        return Err(reject(format!(
            "truncated or padded shard: {} bytes on disk, header promises {expected_len}",
            bytes.len()
        )));
    }
    let got = fnv1a(&bytes[SHARD_HEADER_LEN..]);
    if got != checksum || checksum != entry.checksum {
        return Err(reject(format!(
            "shard data checksum mismatch ({got:016x} != {checksum:016x}); \
             the shard is corrupt — rebuild the store"
        )));
    }
    if entry.row_offsets.len() != canonical_count + 1
        || entry.row_offsets.first() != Some(&0)
        || entry.row_offsets.last() != Some(&rows)
        || entry.row_offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(reject("manifest row offsets are inconsistent with the shard".to_string()));
    }
    Ok(OpenShard {
        buf: Arc::new(buf),
        dims: dims as usize,
        row_offsets: entry.row_offsets.clone(),
    })
}
