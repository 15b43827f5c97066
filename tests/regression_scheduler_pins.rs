//! Outcome pins for every warp scheduler, for MSHR back-pressure and
//! for the barrier path.
//!
//! LRR and GTO run in no benchmark workload and in no grid cell, so a
//! change that silently reorders their picks would go unnoticed without
//! these literals. Each pin is `(cycles, instructions,
//! dual_issue_cycles)`; the flat-memory and barrier pins were captured
//! before the issue stage moved to slot bitmaps, the back-pressure pins
//! before schedulers stopped walking credit-starved loads. They must
//! never be re-baselined to absorb a scheduling change.

use warped_gates_repro::gates::{GatesScheduler, Technique};
use warped_gates_repro::isa::{KernelBuilder, UnitType};
use warped_gates_repro::prelude::*;
use warped_gates_repro::sim::{
    Candidate, GtoScheduler, HierarchyConfig, IssueCtx, LrrScheduler, WarpSlot, NUM_DOMAINS,
};

type Pin = (u64, u64, u64);
type MakeScheduler = fn() -> Box<dyn WarpScheduler>;

fn schedulers() -> [(&'static str, MakeScheduler); 4] {
    [
        ("TwoLevel", || Box::new(TwoLevelScheduler::new())),
        ("LRR", || Box::new(LrrScheduler::new())),
        ("GTO", || Box::new(GtoScheduler::new())),
        ("GATES", || Box::new(GatesScheduler::new())),
    ]
}

fn outcome(out: &SmOutcome) -> Pin {
    assert!(!out.timed_out);
    (
        out.stats.cycles,
        out.stats.instructions(),
        out.stats.dual_issue_cycles,
    )
}

/// `[benchmark][scheduler]` in [`schedulers`] order, scale 0.05,
/// `AlwaysOn` gating.
const BENCH_PINS: [(Benchmark, [Pin; 4]); 3] = [
    (
        Benchmark::Bfs,
        [
            (3187, 1182, 190),
            (3187, 1182, 181),
            (3145, 1182, 182),
            (3192, 1182, 193),
        ],
    ),
    (
        Benchmark::Hotspot,
        [
            (1386, 1021, 263),
            (1384, 1021, 264),
            (1389, 1021, 274),
            (1381, 1021, 274),
        ],
    ),
    (
        Benchmark::LavaMd,
        [
            (750, 896, 309),
            (747, 896, 306),
            (728, 896, 312),
            (757, 896, 316),
        ],
    ),
];

#[test]
fn every_scheduler_reproduces_its_pinned_outcomes() {
    for (bench, pins) in BENCH_PINS {
        let spec = bench.spec().scaled(0.05);
        for ((name, make), pin) in schedulers().into_iter().zip(pins) {
            let out = Sm::new(
                spec.sm_config(),
                spec.launch(),
                make(),
                Box::new(AlwaysOn::new()),
            )
            .run();
            assert_eq!(outcome(&out), pin, "{bench:?}/{name} drifted");
        }
    }
}

/// `bfs` at scale 0.05 with `HierarchyConfig::default()` armed and the
/// Warped Gates controller, in [`schedulers`] order. The L1 MSHRs fill
/// up, so every scheduler walks global loads that cannot issue.
const BACKPRESSURE_PINS: [Pin; 4] = [
    (4227, 1182, 131),
    (4331, 1182, 130),
    (5426, 1182, 112),
    (4299, 1182, 165),
];

#[test]
fn every_scheduler_reproduces_its_pinned_outcomes_under_mshr_backpressure() {
    let spec = Benchmark::Bfs.spec().scaled(0.05);
    let mut cfg = spec.sm_config();
    cfg.memory.hierarchy = Some(HierarchyConfig::default());
    let params = *Experiment::paper_defaults().params();
    for ((name, make), pin) in schedulers().into_iter().zip(BACKPRESSURE_PINS) {
        let out = Sm::new(
            cfg.clone(),
            spec.launch(),
            make(),
            Technique::WarpedGates.make_gating(params),
        )
        .run();
        let mem = &out.stats.mem;
        assert_eq!(
            mem.mshr_peak, mem.mshr_capacity,
            "{name}: the L1 MSHRs must fill up for this pin to cover back-pressure"
        );
        assert_eq!(
            outcome(&out),
            pin,
            "bfs/{name} drifted under MSHR back-pressure"
        );
    }
}

/// Ten slots in blocks of four leave a ragged last group of two; the
/// loop body parks every warp at two back-to-back barriers; the
/// stagger skips some warps past barriers so a group can hold a
/// draining warp, a vacated slot and warps waiting at a barrier at
/// once. The sanitizer re-derives the barrier bookkeeping every cycle.
const BARRIER_PINS: [Pin; 4] = [
    (1929, 524, 114),
    (1928, 524, 114),
    (1915, 524, 114),
    (1928, 524, 108),
];

#[test]
fn ragged_barrier_groups_reproduce_their_pinned_outcomes() {
    let kernel = KernelBuilder::new("ragged-barriers")
        .begin_loop(6)
        .load_global(1)
        .iadd(2, 1, 1)
        .barrier()
        .barrier()
        .fadd(3, 2, 2)
        .sfu(4, 3)
        .end_loop()
        .build();
    let mut cfg = SmConfig::small_for_tests();
    cfg.max_resident_warps = 10;
    cfg.sanitize = true;
    for ((name, make), pin) in schedulers().into_iter().zip(BARRIER_PINS) {
        let launch = LaunchConfig::new(kernel.clone(), 25)
            .with_block_warps(4)
            .with_stagger(9);
        let out = Sm::new(cfg.clone(), launch, make(), Box::new(AlwaysOn::new())).run();
        assert_eq!(out.stats.warps_completed, 25);
        assert_eq!(outcome(&out), pin, "{name} drifted");
    }
}

/// A context with 128 slots, width one and a ready INT warp in each of
/// `slots`.
fn top_ctx(slots: &[usize]) -> IssueCtx {
    let cands = slots
        .iter()
        .map(|&s| Candidate {
            slot: WarpSlot(s),
            unit: UnitType::Int,
            is_global_load: false,
        })
        .collect();
    IssueCtx::new(0, 1, cands, [true; NUM_DOMAINS], [2, 0, 0, 0], 8)
}

#[test]
fn round_robin_pointers_at_the_top_slot_wrap_to_slot_zero() {
    // Issuing slot 127 alone leaves TwoLevel's `last_slot` at 127 and
    // LRR's `next_slot` / GATES' INT rotation at 128: one past the
    // last slot a 128-warp SM has. The next pick must wrap to slot 0.
    let round_robin: [(&str, MakeScheduler); 3] = [
        ("TwoLevel", || Box::new(TwoLevelScheduler::new())),
        ("LRR", || Box::new(LrrScheduler::new())),
        ("GATES", || Box::new(GatesScheduler::new())),
    ];
    for (name, make) in round_robin {
        let mut s = make();
        let mut first = top_ctx(&[127]);
        s.pick(&mut first);
        assert!(first.is_issued(127), "{name}: slot 127 issues");
        let mut next = top_ctx(&[0, 64, 127]);
        s.pick(&mut next);
        assert!(next.is_issued(0), "{name}: wraps to slot 0");
        assert!(!next.is_issued(64) && !next.is_issued(127), "{name}");
    }
}
