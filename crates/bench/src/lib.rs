//! Benchmark and experiment harness.
//!
//! Every dictionary of the workspace (the Fomitchev–Ruppert list and
//! skip list, the tiers built on them, and all baselines) implements
//! [`lf_core::ConcurrentMap`]; the multi-threaded workload [`runner`]
//! and the experiments drive them through that trait alone, one module
//! per experiment of `DESIGN.md` §5 (E1–E16). The `experiments` binary
//! prints each experiment's table.

pub mod experiments;
pub mod resp_client;
pub mod runner;
pub mod table;

pub use runner::{apply, lookup, run_mixed, RunConfig, RunResult};
pub use table::Table;
