//! Raw per-window accumulation of everything the three feature vectors need.
//!
//! Windows are accumulated at a fine fixed granularity ([`SUBWINDOW`]) and
//! later aggregated to any collection period that is a multiple of it. This
//! lets one (expensive) execution serve every period in the paper's sweep
//! {5K, 8K, 9K, 10K, 11K, 12K, 15K, 19K} (Fig 3a).

use rhmd_trace::exec::{ExecEvent, Observer};
use rhmd_trace::isa::OPCODE_COUNT;
use rhmd_uarch::events::{CounterSet, COUNTER_DIMS};
use rhmd_uarch::faults::FaultModel;
use rhmd_uarch::CounterSource;
use serde::{Deserialize, Serialize};

/// Fine accumulation granularity, in committed instructions.
pub const SUBWINDOW: u32 = 1_000;

/// Number of bins in the memory-delta histogram (paper's Memory feature).
pub const MEM_BINS: usize = 16;

/// Raw statistics of one window of committed instructions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawWindow {
    /// Committed instructions in the window (== the period except possibly
    /// in the final, truncated window).
    pub instructions: u64,
    /// Executed count of each opcode class.
    pub opcode_counts: [u64; OPCODE_COUNT],
    /// Histogram over log2-binned deltas between consecutive memory-access
    /// addresses.
    pub mem_delta_hist: [u64; MEM_BINS],
    /// Hardware event counters for the window.
    pub counters: CounterSet,
}

impl Default for RawWindow {
    fn default() -> RawWindow {
        RawWindow {
            instructions: 0,
            opcode_counts: [0; OPCODE_COUNT],
            mem_delta_hist: [0; MEM_BINS],
            counters: CounterSet::default(),
        }
    }
}

impl RawWindow {
    /// Merges `other` into `self` (for aggregating subwindows).
    pub fn merge(&mut self, other: &RawWindow) {
        self.instructions += other.instructions;
        for (a, b) in self.opcode_counts.iter_mut().zip(&other.opcode_counts) {
            *a += b;
        }
        for (a, b) in self.mem_delta_hist.iter_mut().zip(&other.mem_delta_hist) {
            *a += b;
        }
        self.counters += other.counters;
    }

    /// Total memory accesses recorded in the delta histogram.
    pub fn mem_accesses(&self) -> u64 {
        self.mem_delta_hist.iter().sum()
    }
}

/// Maps an address delta to its histogram bin.
///
/// Bin 0 holds repeated addresses (delta 0); bin `b ≥ 1` holds deltas in
/// `[2^(b-1), 2^b)`, with the last bin absorbing everything larger.
#[inline]
pub fn delta_bin(prev: u64, addr: u64) -> usize {
    let delta = prev.abs_diff(addr);
    if delta == 0 {
        0
    } else {
        ((64 - delta.leading_zeros()) as usize).min(MEM_BINS - 1)
    }
}

/// An [`Observer`] that drives a commit-stage core one event at a time and
/// slices the stream into [`SUBWINDOW`]-sized [`RawWindow`]s.
///
/// It is the body of the differential oracle
/// [`crate::pipeline::trace_subwindows_reference`] (driving
/// [`rhmd_uarch::ReferenceCore`]) and nothing else: production traces run on
/// the batched [`crate::stream`] engine, which is pinned to it bit for bit.
#[derive(Debug)]
pub struct WindowAccumulator<C> {
    core: C,
    current: RawWindow,
    windows: Vec<RawWindow>,
    last_mem_addr: Option<u64>,
}

impl<C: Observer + CounterSource> WindowAccumulator<C> {
    /// Creates an accumulator running the stream through `core`.
    pub fn new(core: C) -> WindowAccumulator<C> {
        WindowAccumulator {
            core,
            current: RawWindow::default(),
            windows: Vec::new(),
            last_mem_addr: None,
        }
    }

    /// Finalizes accumulation, returning all complete subwindows plus a
    /// trailing partial subwindow if one is non-empty.
    pub fn finish(mut self) -> Vec<RawWindow> {
        self.seal_current();
        self.windows
    }

    fn seal_current(&mut self) {
        if self.current.instructions > 0 {
            let mut window = std::mem::take(&mut self.current);
            window.counters = self.core.drain_counters();
            self.windows.push(window);
        }
    }
}

impl<C: Observer + CounterSource> Observer for WindowAccumulator<C> {
    #[inline]
    fn observe(&mut self, ev: &ExecEvent) {
        self.core.observe(ev);
        let w = &mut self.current;
        w.instructions += 1;
        w.opcode_counts[ev.opcode.index()] += 1;
        if let Some(mem) = ev.mem {
            if let Some(prev) = self.last_mem_addr {
                w.mem_delta_hist[delta_bin(prev, mem.addr)] += 1;
            }
            self.last_mem_addr = Some(mem.addr);
        }
        if w.instructions == u64::from(SUBWINDOW) {
            self.seal_current();
        }
    }
}

/// Aggregates fine subwindows into collection windows of `period`
/// instructions, dropping a trailing partial window.
///
/// # Panics
///
/// Panics if `period` is zero or not a multiple of [`SUBWINDOW`].
pub fn aggregate(subwindows: &[RawWindow], period: u32) -> Vec<RawWindow> {
    assert!(
        period > 0 && period.is_multiple_of(SUBWINDOW),
        "period {period} must be a positive multiple of {SUBWINDOW}"
    );
    let per = (period / SUBWINDOW) as usize;
    subwindows
        .chunks(per)
        .filter(|chunk| {
            chunk.len() == per && chunk.iter().all(|w| w.instructions == u64::from(SUBWINDOW))
        })
        .map(|chunk| {
            let mut merged = RawWindow::default();
            for w in chunk {
                merged.merge(w);
            }
            merged
        })
        .collect()
}

/// Like [`aggregate`], but tolerant of gaps: chunks whose subwindows were
/// dropped or coalesced by fault injection are kept as long as they carry at
/// least `min_fill` of the period's instructions. Feature projection
/// normalizes by the window's *actual* counts, so short windows renormalize
/// instead of skewing low.
///
/// With `min_fill = 1.0` and a clean stream this matches [`aggregate`]
/// exactly (coalesced reads can exceed the period; they are kept too).
///
/// # Panics
///
/// Panics if `period` is zero or not a multiple of [`SUBWINDOW`].
pub fn aggregate_with_gaps(subwindows: &[RawWindow], period: u32, min_fill: f64) -> Vec<RawWindow> {
    assert!(
        period > 0 && period.is_multiple_of(SUBWINDOW),
        "period {period} must be a positive multiple of {SUBWINDOW}"
    );
    let per = (period / SUBWINDOW) as usize;
    subwindows
        .chunks(per)
        .filter_map(|chunk| {
            let mut merged = RawWindow::default();
            for w in chunk {
                merged.merge(w);
            }
            let fill = merged.instructions as f64 / f64::from(period);
            (merged.instructions > 0 && fill >= min_fill).then_some(merged)
        })
        .collect()
}

/// Runs a subwindow stream through a counter [`FaultModel`].
///
/// Every observable channel of a [`RawWindow`] is treated as a hardware
/// counter: the [`CounterSet`] channels first, then the opcode counts, then
/// the memory-delta histogram bins. The `instructions` field is the
/// ground-truth committed count of the read interval and is *not*
/// corrupted — faults disturb observation, not execution — but reads lost
/// to interrupt coalescing merge whole subwindows, so downstream
/// aggregation sees over-full and missing windows exactly as a real sampler
/// would.
///
/// A zero-intensity model returns a bit-exact copy of the input.
pub fn apply_faults(subwindows: &[RawWindow], model: &FaultModel) -> Vec<RawWindow> {
    if model.is_identity() {
        return subwindows.to_vec();
    }
    let mut out: Vec<RawWindow> = Vec::with_capacity(subwindows.len());
    let mut pending: Option<RawWindow> = None;
    let mut prev: Option<RawWindow> = None;
    for (idx, clean) in subwindows.iter().enumerate() {
        let window = idx as u64;
        let mut merged = pending.take().unwrap_or_default();
        merged.merge(clean);
        if model.drops_window(window) {
            pending = Some(merged);
            continue;
        }
        let mut read = merged;
        model.corrupt_counters(
            window,
            &mut read.counters,
            prev.as_ref().map(|p: &RawWindow| &p.counters),
        );
        for (i, v) in read.opcode_counts.iter_mut().enumerate() {
            let ch = (COUNTER_DIMS + i) as u64;
            *v = model.corrupt_value(window, ch, *v, prev.as_ref().map(|p| p.opcode_counts[i]));
        }
        for (i, v) in read.mem_delta_hist.iter_mut().enumerate() {
            let ch = (COUNTER_DIMS + OPCODE_COUNT + i) as u64;
            *v = model.corrupt_value(window, ch, *v, prev.as_ref().map(|p| p.mem_delta_hist[i]));
        }
        prev = Some(read.clone());
        out.push(read);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_trace::exec::ExecLimits;
    use rhmd_trace::generate::{benign_profile, BenignClass, ProgramGenerator};
    use rhmd_uarch::faults::FaultConfig;
    use rhmd_uarch::CoreConfig;

    fn subwindows(n_instr: u64) -> Vec<RawWindow> {
        let p = ProgramGenerator::new(benign_profile(BenignClass::Archiver)).generate(1);
        crate::pipeline::trace_subwindows(
            &p,
            ExecLimits::instructions(n_instr),
            CoreConfig::default(),
        )
    }

    #[test]
    fn subwindow_sizes_are_exact() {
        let subs = subwindows(10_500);
        assert_eq!(subs.len(), 11);
        for w in &subs[..10] {
            assert_eq!(w.instructions, 1_000);
            assert_eq!(w.opcode_counts.iter().sum::<u64>(), 1_000);
            assert_eq!(w.counters.instructions, 1_000);
        }
        assert_eq!(subs[10].instructions, 500);
    }

    #[test]
    fn aggregation_merges_counts() {
        let subs = subwindows(20_000);
        let windows = aggregate(&subs, 5_000);
        assert_eq!(windows.len(), 4);
        for w in &windows {
            assert_eq!(w.instructions, 5_000);
            assert_eq!(w.opcode_counts.iter().sum::<u64>(), 5_000);
        }
    }

    #[test]
    fn aggregation_drops_partial_tail() {
        let subs = subwindows(12_500);
        assert_eq!(aggregate(&subs, 10_000).len(), 1);
        assert_eq!(aggregate(&subs, 4_000).len(), 3);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn aggregation_rejects_bad_period() {
        let subs = subwindows(2_000);
        let _ = aggregate(&subs, 1_500);
    }

    #[test]
    fn delta_bins() {
        assert_eq!(delta_bin(100, 100), 0);
        assert_eq!(delta_bin(100, 101), 1);
        assert_eq!(delta_bin(100, 102), 2); // delta 2 → [2,4)
        assert_eq!(delta_bin(100, 98), 2); // absolute value
        assert_eq!(delta_bin(0, 1 << 20), MEM_BINS - 1); // saturates
    }

    #[test]
    fn histogram_counts_consecutive_pairs() {
        let subs = subwindows(5_000);
        let total: u64 = subs.iter().map(RawWindow::mem_accesses).sum();
        // Every memory access after the first contributes one delta.
        assert!(total > 0);
        let mem_instrs: u64 = subs
            .iter()
            .flat_map(|w| {
                rhmd_trace::isa::Opcode::ALL
                    .iter()
                    .filter(|op| op.is_memory())
                    .map(move |op| w.opcode_counts[op.index()])
            })
            .sum();
        assert_eq!(total, mem_instrs - 1);
    }

    #[test]
    fn apply_faults_identity_is_bit_exact() {
        let subs = subwindows(8_000);
        let model = FaultModel::new(FaultConfig::none(), 3);
        assert_eq!(apply_faults(&subs, &model), subs);
    }

    #[test]
    fn apply_faults_preserves_ground_truth_instructions() {
        let subs = subwindows(8_000);
        let model = FaultModel::new(FaultConfig::noise(0.3), 3);
        let faulted = apply_faults(&subs, &model);
        assert_eq!(faulted.len(), subs.len());
        for (f, c) in faulted.iter().zip(&subs) {
            assert_eq!(f.instructions, c.instructions);
        }
        assert_ne!(faulted, subs);
    }

    #[test]
    fn dropped_subwindows_coalesce() {
        let subs = subwindows(20_000);
        let model = FaultModel::new(FaultConfig::dropping(0.4), 5);
        let faulted = apply_faults(&subs, &model);
        assert!(faulted.len() < subs.len());
        // Coalesced reads carry the merged instruction count.
        assert!(faulted.iter().any(|w| w.instructions >= 2_000));
    }

    #[test]
    fn gap_tolerant_aggregation_keeps_short_windows() {
        let subs = subwindows(20_000);
        let model = FaultModel::new(FaultConfig::dropping(0.4), 5);
        let faulted = apply_faults(&subs, &model);
        // Strict aggregation discards windows whose chunks were disturbed …
        let strict = aggregate(&faulted, 5_000);
        // … while the gap-tolerant variant keeps anything half-full.
        let tolerant = aggregate_with_gaps(&faulted, 5_000, 0.5);
        assert!(tolerant.len() >= strict.len());
        assert!(!tolerant.is_empty());
        for w in &tolerant {
            assert!(w.instructions >= 2_500);
        }
    }

    #[test]
    fn gap_tolerant_matches_strict_on_clean_streams() {
        let subs = subwindows(20_000);
        assert_eq!(
            aggregate_with_gaps(&subs, 5_000, 1.0),
            aggregate(&subs, 5_000)
        );
    }

    #[test]
    fn merge_is_additive() {
        let subs = subwindows(3_000);
        let mut merged = RawWindow::default();
        for w in &subs {
            merged.merge(w);
        }
        assert_eq!(merged.instructions, 3_000);
        assert_eq!(
            merged.counters.instructions,
            subs.iter().map(|w| w.counters.instructions).sum::<u64>()
        );
    }
}
