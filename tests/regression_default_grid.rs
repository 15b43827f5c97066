//! Default-configuration regression pins: with no memory hierarchy
//! armed, every cell must keep reproducing exactly the cycle and
//! instruction counts it produced before the L1/L2 subsystem existed.
//!
//! Each cell also pins what the paper measures: every
//! `GatingReport` counter and, per domain, the busy cycles and the
//! idle-period histogram's totals (Figure 3's input).
//!
//! This is the unit-test twin of the CI gate that re-sweeps the full
//! grid and diffs it against the committed `results/bench_grid.json`:
//! small enough to run on every `cargo test`, pinned to literal values
//! so an accidental behavior change in the default (flat latency)
//! memory model fails loudly rather than silently re-baselining.

use warped_gates_repro::gates::{runner, Experiment, Technique, TechniqueRun};
use warped_gates_repro::sim::{DomainId, NUM_DOMAINS};
use warped_gates_repro::workloads::Benchmark;

/// (benchmark, technique, cycles, instructions) at scale 0.05 under
/// `Experiment::paper_defaults()` — values captured from the seed
/// behavior of the flat latency model.
const PINS: [(Benchmark, Technique, u64, u64); 18] = [
    (Benchmark::Bfs, Technique::Baseline, 3187, 1182),
    (Benchmark::Bfs, Technique::ConvPg, 3195, 1182),
    (Benchmark::Bfs, Technique::Gates, 3195, 1182),
    (Benchmark::Bfs, Technique::NaiveBlackout, 3195, 1182),
    (Benchmark::Bfs, Technique::CoordinatedBlackout, 3195, 1182),
    (Benchmark::Bfs, Technique::WarpedGates, 3195, 1182),
    (Benchmark::Hotspot, Technique::Baseline, 1386, 1021),
    (Benchmark::Hotspot, Technique::ConvPg, 1401, 1021),
    (Benchmark::Hotspot, Technique::Gates, 1402, 1021),
    (Benchmark::Hotspot, Technique::NaiveBlackout, 1406, 1021),
    (
        Benchmark::Hotspot,
        Technique::CoordinatedBlackout,
        1399,
        1021,
    ),
    (Benchmark::Hotspot, Technique::WarpedGates, 1399, 1021),
    (Benchmark::Nw, Technique::Baseline, 1146, 149),
    (Benchmark::Nw, Technique::ConvPg, 1199, 149),
    (Benchmark::Nw, Technique::Gates, 1199, 149),
    (Benchmark::Nw, Technique::NaiveBlackout, 1205, 149),
    (Benchmark::Nw, Technique::CoordinatedBlackout, 1203, 149),
    (Benchmark::Nw, Technique::WarpedGates, 1203, 149),
];

/// Per Fermi domain, in `DomainId::ALL` order (INT0, INT1, FP0, FP1,
/// SFU, LDST): the nine `DomainGatingStats` counters in declaration
/// order (gate events, wakeups, critical wakeups, gated, compensated,
/// uncompensated and wakeup cycles, premature wakeups, demand-blocked
/// cycles), then `busy_cycles` and the idle histogram's periods, idle
/// cycles and overflow periods.
type DomainPin = [u64; 13];

/// Accounting pins for the cells of [`PINS`], in the same order,
/// captured before gating and busy/idle accounting became edge-driven.
const ACCOUNTING_PINS: [[DomainPin; 6]; 18] = [
    // bfs/Baseline
    [
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1111, 60, 2076, 3],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1076, 51, 2111, 3],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3187, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3187, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3187, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 966, 122, 2221, 2],
    ],
    // bfs/ConvPG
    [
        [44, 43, 0, 1646, 1185, 461, 129, 18, 0, 1183, 50, 2012, 2],
        [44, 43, 1, 2154, 1637, 517, 129, 14, 0, 657, 21, 2538, 5],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [71, 70, 1, 1607, 918, 689, 210, 43, 0, 935, 108, 2260, 3],
    ],
    // bfs/GATES
    [
        [51, 50, 0, 1910, 1383, 527, 150, 22, 0, 860, 52, 2335, 3],
        [41, 40, 1, 1791, 1365, 426, 120, 18, 0, 1031, 24, 2164, 4],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [68, 67, 2, 1620, 947, 673, 201, 39, 0, 934, 105, 2261, 3],
    ],
    // bfs/Naive Blackout
    [
        [42, 41, 16, 1838, 1250, 588, 123, 0, 149, 995, 43, 2200, 2],
        [40, 39, 13, 2022, 1462, 560, 117, 0, 107, 833, 29, 2362, 5],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [71, 70, 2, 1600, 910, 690, 210, 39, 0, 940, 107, 2255, 3],
    ],
    // bfs/Coordinated Blackout
    [
        [44, 43, 17, 2073, 1457, 616, 129, 0, 148, 827, 41, 2368, 3],
        [41, 40, 13, 1958, 1384, 574, 120, 0, 127, 944, 30, 2251, 4],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [73, 72, 2, 1585, 913, 672, 216, 45, 0, 936, 107, 2259, 3],
    ],
    // bfs/Warped Gates
    [
        [43, 42, 17, 2041, 1439, 602, 126, 0, 151, 859, 40, 2336, 3],
        [42, 41, 14, 1971, 1383, 588, 123, 0, 137, 909, 31, 2286, 4],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [1, 0, 0, 3190, 3176, 14, 0, 0, 0, 0, 1, 3195, 1],
        [73, 72, 2, 1585, 912, 673, 216, 45, 0, 936, 107, 2259, 3],
    ],
    // hotspot/Baseline
    [
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 654, 38, 732, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 484, 43, 902, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 851, 15, 535, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 925, 16, 461, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1386, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 398, 28, 988, 1],
    ],
    // hotspot/ConvPG
    [
        [18, 17, 1, 694, 522, 172, 51, 9, 0, 537, 25, 864, 2],
        [21, 20, 0, 690, 478, 212, 60, 13, 0, 515, 23, 886, 1],
        [8, 7, 0, 533, 432, 101, 21, 1, 0, 791, 13, 610, 2],
        [10, 9, 0, 566, 440, 126, 27, 2, 0, 739, 13, 662, 1],
        [1, 0, 0, 1396, 1382, 14, 0, 0, 0, 0, 1, 1401, 1],
        [21, 20, 0, 828, 579, 249, 60, 5, 0, 396, 27, 1005, 1],
    ],
    // hotspot/GATES
    [
        [15, 14, 0, 586, 454, 132, 42, 10, 0, 659, 31, 743, 1],
        [20, 19, 1, 803, 577, 226, 57, 9, 0, 416, 18, 986, 2],
        [8, 7, 0, 402, 309, 93, 21, 3, 0, 923, 13, 479, 1],
        [11, 10, 0, 610, 486, 124, 30, 4, 0, 678, 15, 724, 2],
        [1, 0, 0, 1397, 1383, 14, 0, 0, 0, 0, 1, 1402, 1],
        [23, 22, 1, 823, 568, 255, 66, 8, 0, 388, 27, 1014, 1],
    ],
    // hotspot/Naive Blackout
    [
        [12, 11, 2, 730, 562, 168, 33, 0, 41, 555, 21, 851, 1],
        [15, 14, 4, 806, 596, 210, 42, 0, 31, 457, 20, 949, 1],
        [6, 5, 0, 475, 391, 84, 15, 0, 4, 866, 13, 540, 1],
        [6, 5, 1, 659, 575, 84, 15, 0, 8, 686, 8, 720, 2],
        [1, 0, 0, 1401, 1387, 14, 0, 0, 0, 0, 1, 1406, 1],
        [24, 23, 1, 838, 548, 290, 69, 8, 0, 378, 25, 1028, 1],
    ],
    // hotspot/Coordinated Blackout
    [
        [11, 10, 5, 681, 527, 154, 30, 0, 21, 634, 18, 765, 1],
        [14, 13, 1, 937, 741, 196, 39, 0, 16, 341, 17, 1058, 2],
        [6, 5, 1, 513, 429, 84, 15, 0, 1, 824, 11, 575, 2],
        [5, 4, 0, 593, 523, 70, 12, 0, 10, 758, 9, 641, 1],
        [1, 0, 0, 1394, 1380, 14, 0, 0, 0, 0, 1, 1399, 1],
        [24, 23, 1, 825, 541, 284, 69, 8, 0, 384, 25, 1015, 1],
    ],
    // hotspot/Warped Gates
    [
        [11, 10, 5, 681, 527, 154, 30, 0, 21, 634, 18, 765, 1],
        [14, 13, 1, 936, 740, 196, 39, 0, 16, 341, 17, 1058, 2],
        [6, 5, 1, 513, 429, 84, 15, 0, 1, 824, 11, 575, 2],
        [5, 4, 0, 593, 523, 70, 12, 0, 10, 758, 9, 641, 1],
        [1, 0, 0, 1394, 1380, 14, 0, 0, 0, 0, 1, 1399, 1],
        [24, 23, 1, 825, 541, 284, 69, 8, 0, 384, 25, 1015, 1],
    ],
    // nw/Baseline
    [
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 204, 13, 942, 2],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 166, 11, 980, 2],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 2, 1140, 2],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 18, 4, 1128, 2],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1146, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 92, 10, 1054, 2],
    ],
    // nw/ConvPG
    [
        [10, 9, 0, 889, 781, 108, 27, 4, 0, 225, 13, 974, 2],
        [10, 9, 0, 1001, 877, 124, 27, 3, 0, 114, 6, 1085, 3],
        [4, 3, 0, 1152, 1096, 56, 9, 0, 0, 18, 4, 1181, 2],
        [4, 3, 0, 1164, 1108, 56, 9, 0, 0, 6, 2, 1193, 2],
        [1, 0, 0, 1194, 1180, 14, 0, 0, 0, 0, 1, 1199, 1],
        [9, 9, 2, 1030, 904, 126, 27, 0, 0, 94, 11, 1105, 2],
    ],
    // nw/GATES
    [
        [10, 9, 0, 889, 781, 108, 27, 4, 0, 225, 13, 974, 2],
        [10, 9, 0, 1001, 877, 124, 27, 3, 0, 114, 6, 1085, 3],
        [4, 3, 0, 1152, 1096, 56, 9, 0, 0, 18, 4, 1181, 2],
        [4, 3, 0, 1164, 1108, 56, 9, 0, 0, 6, 2, 1193, 2],
        [1, 0, 0, 1194, 1180, 14, 0, 0, 0, 0, 1, 1199, 1],
        [9, 9, 2, 1030, 904, 126, 27, 0, 0, 94, 11, 1105, 2],
    ],
    // nw/Naive Blackout
    [
        [7, 6, 1, 988, 890, 98, 18, 0, 22, 158, 9, 1047, 2],
        [9, 8, 1, 962, 836, 126, 24, 0, 13, 171, 6, 1034, 3],
        [4, 3, 0, 1158, 1102, 56, 9, 0, 0, 18, 4, 1187, 2],
        [4, 3, 0, 1170, 1114, 56, 9, 0, 0, 6, 2, 1199, 2],
        [1, 0, 0, 1200, 1186, 14, 0, 0, 0, 0, 1, 1205, 1],
        [9, 9, 2, 1036, 910, 126, 27, 0, 0, 94, 11, 1111, 2],
    ],
    // nw/Coordinated Blackout
    [
        [8, 7, 1, 937, 825, 112, 21, 0, 16, 224, 9, 979, 2],
        [10, 9, 1, 1034, 894, 140, 27, 0, 8, 105, 6, 1098, 2],
        [4, 3, 0, 1164, 1108, 56, 9, 0, 0, 18, 4, 1185, 2],
        [4, 3, 0, 1169, 1113, 56, 9, 0, 0, 6, 2, 1197, 2],
        [1, 0, 0, 1198, 1184, 14, 0, 0, 0, 0, 1, 1203, 1],
        [9, 9, 0, 1034, 908, 126, 27, 0, 0, 94, 11, 1109, 2],
    ],
    // nw/Warped Gates
    [
        [8, 7, 1, 937, 825, 112, 21, 0, 16, 224, 9, 979, 2],
        [10, 9, 1, 1034, 894, 140, 27, 0, 8, 105, 6, 1098, 2],
        [4, 3, 0, 1164, 1108, 56, 9, 0, 0, 18, 4, 1185, 2],
        [4, 3, 0, 1169, 1113, 56, 9, 0, 0, 6, 2, 1197, 2],
        [1, 0, 0, 1198, 1184, 14, 0, 0, 0, 0, 1, 1203, 1],
        [9, 9, 0, 1034, 908, 126, 27, 0, 0, 94, 11, 1109, 2],
    ],
];

fn domain_pin(run: &TechniqueRun, d: DomainId) -> DomainPin {
    let g = run.report.gating.domain(d);
    let u = run.report.stats.unit(d);
    let h = &u.idle_histogram;
    [
        g.gate_events,
        g.wakeups,
        g.critical_wakeups,
        g.gated_cycles,
        g.compensated_cycles,
        g.uncompensated_cycles,
        g.wakeup_cycles,
        g.premature_wakeups,
        g.demand_blocked_cycles,
        u.busy_cycles,
        h.periods(),
        h.idle_cycles(),
        h.overflow_count(),
    ]
}

#[test]
fn default_config_cells_match_their_pinned_seed_values() {
    let exp = Experiment::paper_defaults().with_scale(0.05);
    assert!(
        exp.memory_hierarchy().is_none(),
        "paper defaults must keep the flat latency model"
    );
    let benches = [Benchmark::Bfs, Benchmark::Hotspot, Benchmark::Nw];
    let jobs = runner::grid_of(&benches, &Technique::ALL);
    let runs = runner::run_grid_with(&exp, &jobs, 4);
    assert_eq!(runs.len(), PINS.len());
    for (run, (bench, technique, cycles, instructions)) in runs.iter().zip(PINS) {
        assert_eq!(run.report.benchmark, bench.name());
        assert_eq!(run.report.technique, technique);
        assert_eq!(
            (run.report.cycles, run.report.stats.instructions()),
            (cycles, instructions),
            "{bench:?}/{technique}: default-model cell drifted from its seed value"
        );
        assert!(
            !run.report.stats.mem.hierarchy,
            "flat-model runs must not report hierarchy stats"
        );
    }
}

#[test]
fn default_config_cells_keep_their_gating_and_idle_accounting() {
    let exp = Experiment::paper_defaults().with_scale(0.05);
    let benches = [Benchmark::Bfs, Benchmark::Hotspot, Benchmark::Nw];
    let jobs = runner::grid_of(&benches, &Technique::ALL);
    let runs = runner::run_grid_with(&exp, &jobs, 4);
    assert_eq!(runs.len(), ACCOUNTING_PINS.len());
    for ((run, pins), (bench, technique, ..)) in runs.iter().zip(&ACCOUNTING_PINS).zip(PINS) {
        assert_eq!(run.report.technique, technique);
        for (d, pin) in DomainId::ALL.into_iter().zip(pins) {
            assert_eq!(
                domain_pin(run, d),
                *pin,
                "{bench:?}/{technique}: {d} accounting drifted from its pinned value"
            );
        }
        // Domains outside the Fermi layout never gate.
        let fermi = run.report.gating.sum_over(&DomainId::ALL);
        let all = run.report.gating.sum_over(
            &(0..NUM_DOMAINS)
                .map(DomainId::from_index)
                .collect::<Vec<_>>(),
        );
        assert_eq!(fermi, all, "{bench:?}/{technique}: out-of-layout counters");
    }
}
