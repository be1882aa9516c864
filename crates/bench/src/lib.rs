//! Reproduction harness for every table and figure in the RHMD paper.
//!
//! Each figure has a binary (`cargo run --release -p rhmd-bench --bin
//! fig08_least_weight`, etc.) that prints the regenerated rows;
//! `repro_all` runs the whole evaluation and writes a combined report.
//! `bench_par` measures the substrate itself (trace pipeline, scoring
//! kernels, corpus store) and `loadgen` the resident service.
//!
//! Scale is selected with `RHMD_SCALE` (`tiny` | `small` | `standard` |
//! `paper`); experiments default to `standard`.

pub mod context;
pub mod figures;
pub mod flags;
pub mod provenance;
pub mod report;

pub use context::Experiment;
pub use provenance::Provenance;
pub use report::Table;
