//! Benchmark: the L1/L2 hierarchy's two hot entry points under the
//! miss-heavy regime the descriptor-less traces produce (fallback hash
//! over 4096 lines, 16x the L1).
//!
//! * `advance_quiet_full_mshr` — one `advance` on a cycle where both
//!   MSHR files are full and no fill is due yet. The SM asks for load
//!   credits on every stepped cycle, so this is the per-cycle tax the
//!   hierarchy adds to a memory-bound kernel.
//! * `load_miss_heavy` — one load on a hashed stream, including the
//!   per-cycle credit probes the SM makes while the MSHR files are
//!   full and the fills that free them.
//! * `l2_take_due_full_file` — one L2 MSHR drain that lands a single
//!   sector fill while the file stays full (every line × sector in
//!   flight), plus the re-fetch that keeps it full: the drain cost a
//!   memory-bound kernel pays on every cycle a fill arrives.

use warped_bench::timing::{bench, group};
use warped_isa::mix64;
use warped_mem::{Hierarchy, HierarchyConfig, L2MshrFile};

fn main() {
    let cfg = HierarchyConfig::default();
    let line = u64::from(cfg.line_size);
    let footprint = cfg.fallback_footprint;

    group("mem_hierarchy");

    // Fill both MSHR files at cycle 0 with distinct L2 lines; the
    // earliest fill lands 380 cycles later, so every cycle before it
    // is quiet.
    let mut full = Hierarchy::new(cfg.clone());
    let sectors = u64::from(cfg.l2_sectors);
    let mut i = 0;
    while full.load_credits(0) > 0 {
        full.load(0, i * sectors * line);
        i += 1;
    }
    let mut cycle = 0u64;
    bench("advance_quiet_full_mshr", || {
        cycle = cycle % 300 + 1;
        full.advance(std::hint::black_box(cycle));
    });

    // Every sector of every line in flight, one fill due per cycle; each
    // landed sector is fetched again one full round later.
    let (lines, sectors) = (cfg.l2_mshr_entries, cfg.l2_sectors);
    let in_flight = u64::from(lines * sectors);
    let mut l2 = L2MshrFile::new(lines, sectors);
    for k in 0..in_flight {
        l2.add_sector(
            k / u64::from(sectors),
            (k % u64::from(sectors)) as u32,
            k + 1,
        );
    }
    let (mut cycle, mut due) = (0u64, Vec::new());
    bench("l2_take_due_full_file", || {
        cycle += 1;
        l2.take_due(std::hint::black_box(cycle), &mut due);
        let (_, line, sector) = due[0];
        l2.add_sector(line, sector, cycle + in_flight)
    });

    let mut h = Hierarchy::new(cfg);
    let (mut cycle, mut n) = (0u64, 0u64);
    bench("load_miss_heavy", || {
        while h.load_credits(cycle) == 0 {
            cycle += 1;
        }
        n += 1;
        let out = h.load(cycle, (mix64(n) % footprint) * line);
        cycle += 2;
        out
    });
}
