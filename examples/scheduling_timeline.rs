//! Reproduction of the paper's Figure 4 illustration: how the baseline
//! two-level scheduler intersperses INT and FP instructions (leaving
//! short, un-gateable bubbles in each pipeline) while GATES clusters
//! same-type instructions into long idle windows.
//!
//! A small active-warp set holds a mix of single-instruction INT and FP
//! warps; we run the same launch under both schedulers and print a
//! per-cycle issue timeline for the two pipelines.
//!
//! ```text
//! cargo run --release --example scheduling_timeline
//! ```

use std::cell::RefCell;
use std::rc::Rc;
use warped_gates_repro::gates::GatesScheduler;
use warped_gates_repro::isa::{KernelBuilder, UnitType};
use warped_gates_repro::prelude::*;
use warped_gates_repro::sim::IssueCtx;

/// Wraps a scheduler and records which (cycle, unit) pairs issued.
struct Tracing<S> {
    inner: S,
    log: Rc<RefCell<Vec<(u64, UnitType)>>>,
}

impl<S: WarpScheduler> WarpScheduler for Tracing<S> {
    fn pick(&mut self, ctx: &mut IssueCtx) {
        self.inner.pick(ctx);
        let mut log = self.log.borrow_mut();
        for unit in UnitType::ALL {
            if ctx.ready_of(unit) & ctx.issued() != 0 {
                log.push((ctx.cycle(), unit));
            }
        }
    }

    fn name(&self) -> &'static str {
        "tracing"
    }
}

fn run(scheduler: Box<dyn WarpScheduler>, label: &str) {
    let sm = Sm::new(
        fig4_config(),
        fig4_launch(),
        scheduler,
        Box::new(AlwaysOn::new()),
    );
    let out = sm.run();

    println!("\n=== {label} ===");
    println!("total cycles: {}", out.stats.cycles);
    for unit in [UnitType::Int, UnitType::Fp] {
        let hist = out.stats.idle_histogram(unit);
        println!(
            "{unit}: busy {:>3} cycles, {} idle periods, longest-class share >5 cycles: {:.0}%",
            out.stats.busy_cycles(unit),
            hist.periods(),
            {
                let (_, mid, long) = hist.region_shares(5, 14);
                (mid + long) * 100.0
            }
        );
    }
}

/// The illustrative instruction window of Figure 4: a mix of integer
/// and floating point adds. Staggered launch offsets put each warp at a
/// different position in the loop, so the active set's *head*
/// instructions mix INT and FP the way the paper's example set does.
fn fig4_launch() -> LaunchConfig {
    let kernel = KernelBuilder::new("fig4")
        .begin_loop(4)
        .iadd(1, 0, 0)
        .fadd(2, 1, 0)
        .iadd(3, 1, 0)
        .iadd(4, 3, 0)
        .fadd(5, 2, 0)
        .end_loop()
        .build();
    LaunchConfig::new(kernel, 10).with_stagger(5)
}

fn fig4_config() -> SmConfig {
    let mut cfg = SmConfig::small_for_tests();
    cfg.max_resident_warps = 10;
    cfg
}

fn run_traced<S: WarpScheduler + 'static>(inner: S, label: &str) {
    let log = Rc::new(RefCell::new(Vec::new()));
    let sm = Sm::new(
        fig4_config(),
        fig4_launch(),
        Box::new(Tracing {
            inner,
            log: Rc::clone(&log),
        }),
        Box::new(AlwaysOn::new()),
    );
    let out = sm.run();

    // Render an issue timeline like the paper's Figure 4.
    let horizon = out.stats.cycles.min(60);
    let mut int_lane = String::new();
    let mut fp_lane = String::new();
    for cycle in 0..horizon {
        let issued_int = log
            .borrow()
            .iter()
            .any(|&(c, u)| c == cycle && u == UnitType::Int);
        let issued_fp = log
            .borrow()
            .iter()
            .any(|&(c, u)| c == cycle && u == UnitType::Fp);
        int_lane.push(if issued_int { 'I' } else { '.' });
        fp_lane.push(if issued_fp { 'F' } else { '.' });
    }
    println!("\n--- {label}: issue timeline (first {horizon} cycles) ---");
    println!("INT issue: {int_lane}");
    println!("FP  issue: {fp_lane}");
}

fn main() {
    println!(
        "Figure 4 illustration: 10 warps with interleaved INT/FP adds.\n\
         The two-level scheduler issues whatever is at the head of the\n\
         active set, scattering both types across the window; GATES\n\
         empties the INT subset first, so each pipeline sees one long\n\
         busy burst and one long idle window."
    );
    run_traced(TwoLevelScheduler::new(), "Two-level scheduler");
    run_traced(GatesScheduler::new(), "GATES");
    run(
        Box::new(TwoLevelScheduler::new()),
        "Two-level: idle-period summary",
    );
    run(
        Box::new(GatesScheduler::new()),
        "GATES: idle-period summary",
    );
}
