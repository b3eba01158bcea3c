//! # dftmsn-bench — experiment harness for the DFT-MSN reproduction
//!
//! Regenerates every table and figure of the paper's evaluation
//! (DESIGN.md §3 maps experiment ids to binaries):
//!
//! | binary | experiment |
//! |---|---|
//! | `fig2` | Fig. 2(a–c): delivery ratio / power / delay vs #sinks |
//! | `density` | Prose-A: node-density sweep |
//! | `speed` | Prose-B: nodal-speed sweep |
//! | `opt_tables` | Opt-1/2/3: Sec. 4 analytic optimization tables |
//! | `ablation` | Abl-1: per-optimization ablation |
//!
//! All binaries accept `--quick` (short runs), `--seeds N`,
//! `--duration SECS` and `--threads N` (runs executed in parallel), reject
//! any flag they do not read, and write text + CSV tables under `results/`.
//!
//! The Criterion benches (`cargo bench`) cover the protocol math, queue
//! operations, the substrates, and short end-to-end simulations. The
//! simulator's end-to-end and per-layer performance is measured by the
//! repository's benchmark, `perfbench/` (see `perfbench/README.md`),
//! which builds on [`scale::scale_scenario`] and [`sweep::run_all_with`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod scale;
pub mod sweep;

pub use experiments::ExperimentOpts;
pub use sweep::{average, run_all, Averaged, RunSpec};
