//! Scheduling-invariance guarantee of the cs-exec executor: the same
//! seed must produce a byte-identical BENCH document (modulo the
//! host-varying fields `canonical_json` strips) at any `--threads`
//! value.

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::bench_report::canonical_json;
use cleanupspec_bench::runner::ExperimentConfig;
use cleanupspec_bench::suite::{run_suite, SuiteOptions};
use cleanupspec_obs::JsonValue;
use cleanupspec_workloads::spec::SPEC_WORKLOADS;

/// The full BENCH document for a small matrix at a given thread count,
/// in canonical form (host/wall_secs/host_kips stripped).
fn bench_doc_at(threads: usize) -> String {
    let mut opts = SuiteOptions::new(&[SecurityMode::CleanupSpec], &SPEC_WORKLOADS[..3]);
    opts.cfg = ExperimentConfig {
        insts: 3_000,
        seed: 0xC1EA_2019,
        threads,
    };
    let out = run_suite(&opts);
    assert!(out.failed.is_empty(), "no run may panic: {:?}", out.failed);
    canonical_json(&JsonValue::parse(&out.report.to_json()).expect("report is valid JSON"))
}

#[test]
fn bench_document_is_byte_identical_across_thread_counts() {
    let one = bench_doc_at(1);
    assert!(
        one.contains("cs-bench-v1"),
        "canonical doc keeps the schema"
    );
    assert!(
        !one.contains("wall_secs") && !one.contains("host_kips"),
        "canonical doc must strip host-varying fields"
    );
    for threads in [2, 4] {
        assert_eq!(
            one,
            bench_doc_at(threads),
            "BENCH document changed between --threads 1 and --threads {threads}"
        );
    }
}
