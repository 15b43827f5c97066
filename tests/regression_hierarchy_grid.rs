//! Hierarchy-armed regression pins: with `HierarchyConfig::default()`
//! armed, every cell must keep reproducing exactly the cycle and
//! instruction counts and the realized L1/L2/MSHR statistics it
//! produced before the hierarchy's internals were last reworked.
//!
//! The hierarchy-armed twin of `regression_default_grid.rs`: the flat
//! pins never touch `warped-mem`, so without this file the tier-1
//! command would not notice a change to the cache model's realized
//! behavior (fill order, LRU victim choice, MSHR back-pressure).

use warped_gates_repro::gates::{runner, Experiment, Technique};
use warped_gates_repro::sim::{HierarchyConfig, MemoryStats};
use warped_gates_repro::workloads::Benchmark;

/// One pinned cell: `(benchmark, technique, cycles, instructions)` and
/// the `MemoryStats` integers in declaration order — accesses,
/// l1_hits, l1_misses, mshr_merges, fills, mshr_peak, l2_accesses,
/// l2_hits, l2_misses, l2_coalesced, l2_mshr_peak, stores, store_hits.
type Pin = (Benchmark, Technique, u64, u64, [u64; 13]);

/// Values at scale 0.05 under `Experiment::paper_defaults()` with the
/// default hierarchy armed.
const PINS: [Pin; 18] = [
    (
        Benchmark::Bfs,
        Technique::Baseline,
        4307,
        1182,
        [296, 6, 290, 3, 287, 32, 287, 2, 285, 2, 32, 181, 3],
    ),
    (
        Benchmark::Bfs,
        Technique::ConvPg,
        4315,
        1182,
        [296, 7, 289, 2, 287, 32, 287, 2, 285, 3, 32, 181, 4],
    ),
    (
        Benchmark::Bfs,
        Technique::Gates,
        4301,
        1182,
        [296, 6, 290, 3, 287, 32, 287, 2, 285, 3, 32, 181, 4],
    ),
    (
        Benchmark::Bfs,
        Technique::NaiveBlackout,
        4309,
        1182,
        [296, 6, 290, 3, 287, 32, 287, 2, 285, 3, 32, 181, 4],
    ),
    (
        Benchmark::Bfs,
        Technique::CoordinatedBlackout,
        4299,
        1182,
        [296, 7, 289, 2, 287, 32, 287, 2, 285, 3, 32, 181, 4],
    ),
    (
        Benchmark::Bfs,
        Technique::WarpedGates,
        4299,
        1182,
        [296, 7, 289, 2, 287, 32, 287, 2, 285, 3, 32, 181, 4],
    ),
    (
        Benchmark::Hotspot,
        Technique::Baseline,
        2233,
        1021,
        [61, 0, 61, 0, 61, 27, 61, 0, 61, 0, 27, 65, 2],
    ),
    (
        Benchmark::Hotspot,
        Technique::ConvPg,
        2303,
        1021,
        [61, 0, 61, 0, 61, 27, 61, 0, 61, 0, 27, 65, 2],
    ),
    (
        Benchmark::Hotspot,
        Technique::Gates,
        2302,
        1021,
        [61, 0, 61, 0, 61, 27, 61, 0, 61, 0, 27, 65, 2],
    ),
    (
        Benchmark::Hotspot,
        Technique::NaiveBlackout,
        2304,
        1021,
        [61, 0, 61, 0, 61, 27, 61, 0, 61, 0, 27, 65, 2],
    ),
    (
        Benchmark::Hotspot,
        Technique::CoordinatedBlackout,
        2308,
        1021,
        [61, 0, 61, 0, 61, 27, 61, 0, 61, 0, 27, 65, 2],
    ),
    (
        Benchmark::Hotspot,
        Technique::WarpedGates,
        2308,
        1021,
        [61, 0, 61, 0, 61, 27, 61, 0, 61, 0, 27, 65, 2],
    ),
    (
        Benchmark::Nw,
        Technique::Baseline,
        2302,
        149,
        [33, 0, 33, 0, 33, 13, 33, 0, 33, 0, 13, 14, 0],
    ),
    (
        Benchmark::Nw,
        Technique::ConvPg,
        2357,
        149,
        [33, 0, 33, 0, 33, 13, 33, 0, 33, 0, 13, 14, 0],
    ),
    (
        Benchmark::Nw,
        Technique::Gates,
        2357,
        149,
        [33, 0, 33, 0, 33, 13, 33, 0, 33, 0, 13, 14, 0],
    ),
    (
        Benchmark::Nw,
        Technique::NaiveBlackout,
        2363,
        149,
        [33, 0, 33, 0, 33, 13, 33, 0, 33, 0, 13, 14, 0],
    ),
    (
        Benchmark::Nw,
        Technique::CoordinatedBlackout,
        2361,
        149,
        [33, 0, 33, 0, 33, 13, 33, 0, 33, 0, 13, 14, 0],
    ),
    (
        Benchmark::Nw,
        Technique::WarpedGates,
        2361,
        149,
        [33, 0, 33, 0, 33, 13, 33, 0, 33, 0, 13, 14, 0],
    ),
];

fn realized(m: &MemoryStats) -> [u64; 13] {
    [
        m.accesses,
        m.l1_hits,
        m.l1_misses,
        m.mshr_merges,
        m.fills,
        u64::from(m.mshr_peak),
        m.l2_accesses,
        m.l2_hits,
        m.l2_misses,
        m.l2_coalesced,
        u64::from(m.l2_mshr_peak),
        m.stores,
        m.store_hits,
    ]
}

#[test]
fn hierarchy_armed_cells_match_their_pinned_values() {
    let cfg = HierarchyConfig::default();
    let exp = Experiment::paper_defaults()
        .with_scale(0.05)
        .with_memory_hierarchy(Some(cfg.clone()));
    let benches = [Benchmark::Bfs, Benchmark::Hotspot, Benchmark::Nw];
    let jobs = runner::grid_of(&benches, &Technique::ALL);
    let runs = runner::run_grid_with(&exp, &jobs, 4);
    assert_eq!(runs.len(), PINS.len());
    for (run, (bench, technique, cycles, instructions, mem)) in runs.iter().zip(PINS) {
        assert_eq!(run.report.benchmark, bench.name());
        assert_eq!(run.report.technique, technique);
        let m = &run.report.stats.mem;
        assert!(
            m.hierarchy,
            "{bench:?}/{technique}: hierarchy must be armed"
        );
        assert_eq!(m.mshr_capacity, cfg.l1_mshr_entries);
        assert_eq!(
            (
                run.report.cycles,
                run.report.stats.instructions(),
                realized(m)
            ),
            (cycles, instructions, mem),
            "{bench:?}/{technique}: hierarchy-armed cell drifted from its pinned value"
        );
    }
}
