//! What produced a benchmark report: the commit, the corpus scale and the
//! machine. `bench_par` and `loadgen` write the same block.

use rhmd_data::CorpusConfig;
use serde::Serialize;

/// The `provenance` object of `BENCH_par.json` and `BENCH_serve.json`.
#[derive(Debug, Serialize)]
pub struct Provenance {
    /// The checked-out commit, suffixed `-dirty` when tracked files differ
    /// from it, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// The corpus preset (`RHMD_SCALE`), or `custom` if none matches.
    pub scale: &'static str,
    /// Worker threads the measured work ran on (0 when it ran in another
    /// process, as in `loadgen --connect`).
    pub threads: usize,
    /// Whether this CPU has AVX2, which the scoring kernels and the NN
    /// trainer pick at run time.
    pub avx2_detected: bool,
}

impl Provenance {
    /// Records the current checkout and CPU for a run at `config` on
    /// `threads` workers.
    pub fn of(config: &CorpusConfig, threads: usize) -> Provenance {
        let git_rev = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|rev| rev.trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        Provenance {
            git_rev,
            scale: config.scale_name().unwrap_or("custom"),
            threads,
            avx2_detected: rhmd_ml::kernel::simd::avx2_active(),
        }
    }
}
