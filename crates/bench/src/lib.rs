//! Experiment harness for the MicroScopiQ reproduction: shared reporting
//! and the method line-ups used by the table/figure binaries in
//! `src/bin/`, one per paper table or figure and named after it.

pub mod methods;
pub mod report;

pub use report::{f2, f3, median, pct, results_dir, Table};
