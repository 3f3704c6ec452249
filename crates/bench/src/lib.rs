//! Experiment harness shared by the per-figure binaries.
//!
//! One binary per table/figure of the paper lives in `src/bin/`; this
//! library holds the common machinery: strict command-line parsing,
//! table printing, time-series sampling hooks, and the comparative
//! failover scenario used by both Table 1 and Figure 12.

#![deny(warnings)]

#![forbid(unsafe_code)]

pub mod cli;
pub mod failover;
pub mod report;
pub mod sampler;
pub mod storestats;

pub use cli::{Arg, Cli};
pub use failover::{run_failover, FailoverOutcome, FailoverSetup, LbKind};
pub use report::{print_header, print_kv, print_row, Table};
pub use sampler::TimeSeries;
pub use storestats::StoreStatsSummary;
