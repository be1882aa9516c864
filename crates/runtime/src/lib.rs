//! Shared runtime plane for the RHMD reproduction.
//!
//! The on-disk corpus store (`rhmd_data::store`), the evaluation engine
//! (`rhmd_core::eval`) and the CLI all need these services, and the CLI
//! must not depend on the benchmark harness, so they live low in the crate
//! graph — just above `rhmd-trace`:
//!
//! * [`error::RhmdError`] — the typed error hierarchy (also re-exported as
//!   `rhmd_core::RhmdError`);
//! * [`durable`] — atomic writes, checksummed payloads, seeded I/O fault
//!   plane with bounded retry;
//! * [`ckpt`] — manifest-guarded journals for crash-tolerant, bit-identical
//!   resume;
//! * [`pool`] — the one parallel runtime: a work-stealing pool whose maps
//!   are bit-identical to serial ones at any width, with an optional
//!   per-unit deadline watchdog;
//! * [`metrics`] — the standard metrics key set and the `--metrics` /
//!   `--metrics-summary` options shared by the CLI and the experiment
//!   binaries.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ckpt;
pub mod durable;
pub mod error;
pub mod metrics;
pub mod pool;

pub use error::RhmdError;
