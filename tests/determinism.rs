//! The parallel engine's contract: fanning work across cores changes
//! wall-clock time only — every report is bit-for-bit identical to the
//! serial path.

use warped_gates_repro::gates::{runner, Experiment, Technique};
use warped_gates_repro::workloads::Benchmark;

#[test]
fn run_grid_parallel_matches_serial_exactly() {
    let exp = Experiment::quick_for_tests();
    let jobs = runner::grid_of(
        &[Benchmark::Hotspot, Benchmark::Srad, Benchmark::Bfs],
        &Technique::ALL,
    );
    assert_eq!(jobs.len(), 3 * 6);
    let serial = runner::run_grid_with(&exp, &jobs, 1);
    let parallel = runner::run_grid_with(&exp, &jobs, 8);
    assert_eq!(serial.len(), parallel.len());
    for ((s, p), (spec, technique)) in serial.iter().zip(&parallel).zip(&jobs) {
        assert_eq!(s.report.benchmark, spec.name);
        assert_eq!(s.report.technique, *technique);
        assert_eq!(
            s.report.cycles, p.report.cycles,
            "{} / {technique}: cycle counts diverged across worker counts",
            spec.name
        );
        assert_eq!(s.report.timed_out, p.report.timed_out);
        assert_eq!(s.report.stats.issued_by_type, p.report.stats.issued_by_type);
        // Every gating counter of every domain, via GatingReport's Eq.
        assert_eq!(
            s.report.gating, p.report.gating,
            "{} / {technique}: gating counters diverged across worker counts",
            spec.name
        );
    }
}
