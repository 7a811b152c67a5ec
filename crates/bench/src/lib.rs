//! # cleanupspec-bench
//!
//! Experiment harness for the CleanupSpec reproduction: one binary per
//! table/figure of the paper (see `src/bin/`). This library holds the
//! shared experiment runner and plain-text table/chart formatting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attribution;
pub mod bench_report;
pub mod chaos;
pub mod cli;
pub mod exec;
pub mod fmt;
pub mod fuzz;
pub mod journal;
pub mod runner;
pub mod store;
pub mod suite;
pub mod svg;
pub mod target;

pub use attribution::{diff_stacks, top_overheads, StackDelta};
pub use bench_report::{
    canonical_json, check_document, compare_documents, BenchEntry, BenchReport, ModeSection,
    Regression, SCHEMA,
};
pub use chaos::{
    detection_matrix, probe_fault, render_matrix, run_campaign, CampaignOpts, CampaignResult,
    FaultProbe, MatrixRow,
};
pub use exec::{
    default_threads, run_indexed, ExecOutcome, ExecStats, ModeSweep, Sweep, SweepFailure,
    SweepResult, SweepRun, TaskFailure,
};
pub use fuzz::{run_seed, shrink, SeedVerdict, Violation};
pub use journal::{host_fault_matrix, render_host_matrix, HostMatrixRow, Journal};
pub use runner::ExperimentConfig;
pub use store::{
    shared_dir_store, ArtifactStore, DirStore, FaultFs, HostFaultKind, HostFaultPlan, MemStore,
    StoreError, StoreStats,
};
pub use suite::{run_suite, SuiteOptions, SuiteOutcome, SMOKE_WORKLOADS};
pub use target::{resolve_programs, TARGET_HELP};
