//! Canonical content-addressing of experiment configurations.
//!
//! The experiment engine is deterministic: a grid cell's result is a
//! pure function of `(Experiment, BenchmarkSpec, Technique)`. That
//! makes results *content-addressable* — any consumer (the
//! `warped-serve` result cache, a future on-disk memo) can key a run
//! by a canonical hash of everything that can change its output and
//! reuse the bytes for every identical request.
//!
//! [`cell_fingerprint`] folds exactly the result-determining fields —
//! gating parameters, workload scale, clustered-architecture layout,
//! issue-width override, the full benchmark spec, and the technique —
//! through a SplitMix64-style word mixer ([`ConfigHasher`], re-exported
//! from `warped_isa::hash`, the workspace's one hash module). Observe-only
//! switches (the sanitizer, a telemetry recorder) and run-control
//! switches (the wall-clock
//! watchdog, the [`CoreClock`](crate::CoreClock) backend) are
//! deliberately **excluded**: the repository's equivalence suites pin
//! down that they never move a cycle count, so two configurations
//! differing only there produce byte-identical reports and must share
//! a cache line.
//!
//! The hash is versioned ([`FINGERPRINT_VERSION`] is folded in first),
//! so any change to the canonical field order invalidates old keys
//! instead of silently colliding with them.

use crate::experiment::Experiment;
use crate::technique::Technique;
pub use warped_isa::ConfigHasher;
use warped_isa::UnitType;
use warped_trace::TraceWorkload;
use warped_workloads::BenchmarkSpec;

/// Bump on any change to the canonical encoding below.
///
/// v2: the memory-hierarchy configuration
/// ([`Experiment::memory_hierarchy`]) joined the stream — a presence
/// word followed by every [`HierarchyConfig`](warped_sim::SmConfig)
/// field when armed.
///
/// v3: trace-driven cells joined the address space
/// ([`trace_cell_fingerprint`]) — both fingerprint families carry a
/// workload-source domain string so a trace cell can never alias a
/// synthetic cell, and the version bump retires every v2 key rather
/// than risking silent collisions with the enlarged space.
pub const FINGERPRINT_VERSION: u64 = 3;

/// The canonical content hash of one grid cell: every field that can
/// change the cell's report, in a fixed documented order.
///
/// Two calls agree exactly when the runs would produce byte-identical
/// [`RunReport`](crate::RunReport)s (modulo the excluded observe-only
/// switches; see the module docs).
///
/// # Examples
///
/// ```
/// use warped_gates::fingerprint::cell_fingerprint;
/// use warped_gates::{Experiment, Technique};
/// use warped_workloads::Benchmark;
///
/// let exp = Experiment::paper_defaults();
/// let spec = Benchmark::Nw.spec();
/// let a = cell_fingerprint(&exp, &spec, Technique::Baseline);
/// let b = cell_fingerprint(&exp, &spec, Technique::Baseline);
/// assert_eq!(a, b);
/// assert_ne!(a, cell_fingerprint(&exp, &spec, Technique::ConvPg));
/// ```
#[must_use]
pub fn cell_fingerprint(
    experiment: &Experiment,
    spec: &BenchmarkSpec,
    technique: Technique,
) -> u64 {
    let mut h = ConfigHasher::new(FINGERPRINT_VERSION);
    fold_experiment(&mut h, experiment);
    // Technique, by stable display name (not enum discriminant, so
    // reordering the enum cannot silently remap cached results).
    h.str(technique.name());
    // Workload-source domain: a synthetic spec named like a trace (or
    // vice versa) must never share a key with it.
    h.str("spec");
    // The full benchmark spec, field by field.
    h.str(spec.name);
    for unit in [UnitType::Int, UnitType::Fp, UnitType::Sfu, UnitType::Ldst] {
        h.f64(spec.mix.fraction(unit));
    }
    h.f64(spec.l1_hit_rate)
        .f64(spec.global_frac)
        .f64(spec.dep_density)
        .word(spec.body_len as u64)
        .word(spec.phase_len as u64)
        .word(u64::from(spec.trips))
        .word(u64::from(spec.total_warps))
        .word(u64::from(spec.block_warps))
        .word(u64::from(spec.barrier_period))
        .word(u64::from(spec.launches))
        .word(spec.seed);
    h.finish()
}

/// The canonical content hash of one **trace-driven** grid cell: the
/// experiment and technique folded exactly as in [`cell_fingerprint`],
/// then the trace identified by its *content digest* (plus its header
/// name, which lands in reports). Renaming a trace file never moves the
/// key; editing one byte of its content always does.
///
/// # Examples
///
/// ```
/// use warped_gates::fingerprint::trace_cell_fingerprint;
/// use warped_gates::{Experiment, Technique};
/// use warped_trace::parse_str;
///
/// let trace = parse_str(
///     "WGT1 k\nlaunch warps=2 block=1 stagger=0 waves=1\n\
///      mem hit=0.5 seed=1\nseg straight\ni iadd d=1 s=0 lat=4\nend\n",
/// )
/// .unwrap();
/// let exp = Experiment::paper_defaults();
/// let a = trace_cell_fingerprint(&exp, &trace, Technique::Baseline);
/// assert_eq!(a, trace_cell_fingerprint(&exp, &trace, Technique::Baseline));
/// assert_ne!(a, trace_cell_fingerprint(&exp, &trace, Technique::WarpedGates));
/// ```
#[must_use]
pub fn trace_cell_fingerprint(
    experiment: &Experiment,
    trace: &TraceWorkload,
    technique: Technique,
) -> u64 {
    let mut h = ConfigHasher::new(FINGERPRINT_VERSION);
    fold_experiment(&mut h, experiment);
    h.str(technique.name());
    // Workload-source domain, mirroring the "spec" tag above.
    h.str("trace");
    h.str(&trace.name);
    h.word(trace.digest);
    h.finish()
}

/// Folds the result-determining experiment fields — gating parameters,
/// scale, architecture, issue width, memory hierarchy — in the
/// canonical order shared by both fingerprint families.
fn fold_experiment(h: &mut ConfigHasher, experiment: &Experiment) {
    let p = experiment.params();
    h.word(u64::from(p.idle_detect))
        .word(u64::from(p.bet))
        .word(u64::from(p.wakeup_delay))
        .f64(experiment.scale())
        .word(experiment.layout().sp_clusters() as u64)
        .word(experiment.issue_width().map_or(0, |w| w as u64 + 1));
    // Memory hierarchy: a presence word, then — when armed — every
    // field in declaration order. Each field changes realized latencies,
    // so each must move the hash.
    match experiment.memory_hierarchy() {
        None => {
            h.word(0);
        }
        Some(m) => {
            h.word(1)
                .word(u64::from(m.line_size))
                .word(u64::from(m.l1_sets))
                .word(u64::from(m.l1_ways))
                .word(u64::from(m.l1_banks))
                .word(u64::from(m.l1_latency))
                .word(u64::from(m.l1_mshr_entries))
                .word(u64::from(m.l2_sets))
                .word(u64::from(m.l2_ways))
                .word(u64::from(m.l2_sectors))
                .word(u64::from(m.l2_latency))
                .word(u64::from(m.l2_mshr_entries))
                .word(u64::from(m.dram_latency))
                .word(u64::from(m.dram_interval))
                .word(m.fallback_footprint);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_sim::DomainLayout;
    use warped_workloads::Benchmark;

    fn base() -> (Experiment, BenchmarkSpec) {
        (Experiment::paper_defaults(), Benchmark::Hotspot.spec())
    }

    #[test]
    fn equal_configs_hash_equal() {
        let (exp, spec) = base();
        assert_eq!(
            cell_fingerprint(&exp, &spec, Technique::WarpedGates),
            cell_fingerprint(&exp.clone(), &spec.clone(), Technique::WarpedGates),
        );
    }

    #[test]
    fn every_result_determining_field_moves_the_hash() {
        let (exp, spec) = base();
        let reference = cell_fingerprint(&exp, &spec, Technique::WarpedGates);

        let mut variants: Vec<u64> = vec![
            cell_fingerprint(&exp, &spec, Technique::Baseline),
            cell_fingerprint(&exp.clone().with_scale(0.5), &spec, Technique::WarpedGates),
            cell_fingerprint(
                &exp.clone().with_architecture(DomainLayout::kepler(), None),
                &spec,
                Technique::WarpedGates,
            ),
            cell_fingerprint(
                &exp.clone()
                    .with_architecture(DomainLayout::fermi(), Some(4)),
                &spec,
                Technique::WarpedGates,
            ),
            cell_fingerprint(
                &Experiment::new(warped_gating::GatingParams {
                    bet: 19,
                    ..warped_gating::GatingParams::default()
                }),
                &spec,
                Technique::WarpedGates,
            ),
        ];
        let mut spec2 = spec.clone();
        spec2.seed ^= 1;
        variants.push(cell_fingerprint(&exp, &spec2, Technique::WarpedGates));
        let mut spec3 = spec.clone();
        spec3.l1_hit_rate += 1e-9;
        variants.push(cell_fingerprint(&exp, &spec3, Technique::WarpedGates));
        let mut spec4 = spec.clone();
        spec4.total_warps += 1;
        variants.push(cell_fingerprint(&exp, &spec4, Technique::WarpedGates));
        // Arming the hierarchy moves the hash, and so does every one of
        // its fields.
        let armed = exp
            .clone()
            .with_memory_hierarchy(Some(warped_sim::HierarchyConfig::default()));
        variants.push(cell_fingerprint(&armed, &spec, Technique::WarpedGates));
        let field_edits: Vec<fn(&mut warped_sim::HierarchyConfig)> = vec![
            |m| m.line_size *= 2,
            |m| m.l1_sets *= 2,
            |m| m.l1_ways += 1,
            |m| m.l1_banks *= 2,
            |m| m.l1_latency += 1,
            |m| m.l1_mshr_entries += 1,
            |m| m.l2_sets *= 2,
            |m| m.l2_ways += 1,
            |m| m.l2_sectors *= 2,
            |m| m.l2_latency += 1,
            |m| m.l2_mshr_entries += 1,
            |m| m.dram_latency += 1,
            |m| m.dram_interval += 1,
            |m| m.fallback_footprint += 1,
        ];
        for edit in field_edits {
            let mut m = warped_sim::HierarchyConfig::default();
            edit(&mut m);
            variants.push(cell_fingerprint(
                &exp.clone().with_memory_hierarchy(Some(m)),
                &spec,
                Technique::WarpedGates,
            ));
        }

        for (i, v) in variants.iter().enumerate() {
            assert_ne!(*v, reference, "variant {i} must move the fingerprint");
        }
        // And they are all distinct from each other.
        let mut sorted = variants.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), variants.len(), "variants must not collide");
    }

    #[test]
    fn observe_only_switches_do_not_move_the_hash() {
        let (exp, spec) = base();
        let plain = cell_fingerprint(&exp, &spec, Technique::Gates);
        let sanitized = cell_fingerprint(
            &exp.clone()
                .with_sanitize(true)
                .with_job_timeout(Some(std::time::Duration::from_secs(60))),
            &spec,
            Technique::Gates,
        );
        assert_eq!(
            plain, sanitized,
            "sanitizer and watchdog are bit-identity no-ops and must share cache lines"
        );
        for core in [crate::CoreClock::EventQueue, crate::CoreClock::Stepped] {
            assert_eq!(
                plain,
                cell_fingerprint(&exp.clone().with_core(core), &spec, Technique::Gates),
                "clock backends are bit-equal and must share cache lines"
            );
        }
    }

    #[test]
    fn every_grid_cell_has_a_distinct_fingerprint() {
        let exp = Experiment::paper_defaults();
        let mut seen = std::collections::BTreeSet::new();
        for b in Benchmark::ALL {
            for t in Technique::ALL {
                assert!(
                    seen.insert(cell_fingerprint(&exp, &b.spec(), t)),
                    "collision at {b}/{t}"
                );
            }
        }
        assert_eq!(seen.len(), 108);
    }

    /// A tiny valid trace with two spots worth mutating: a recorded
    /// per-lane address and an opcode mnemonic.
    const TRACE: &str = "WGT1 tf\n\
                         launch warps=2 block=1 stagger=0 waves=1\n\
                         mem hit=0.5 seed=9\n\
                         seg straight\n\
                         i ldg d=5 lat=1\n\
                         @ 0 0 0x1000\n\
                         @ 0 1 0x1004\n\
                         i iadd d=1 s=5 lat=4\n\
                         end\n";

    #[test]
    fn trace_fingerprints_track_content_not_filenames() {
        let exp = Experiment::paper_defaults();
        let a = warped_trace::parse_str(TRACE).unwrap();
        let b = warped_trace::parse_str(TRACE).unwrap();
        assert_eq!(
            trace_cell_fingerprint(&exp, &a, Technique::Gates),
            trace_cell_fingerprint(&exp, &b, Technique::Gates),
            "identical bytes share a key regardless of provenance"
        );
    }

    #[test]
    fn a_single_address_edit_moves_the_trace_fingerprint() {
        let exp = Experiment::paper_defaults();
        let a = warped_trace::parse_str(TRACE).unwrap();
        let edited = TRACE.replace("@ 0 1 0x1004", "@ 0 1 0x1008");
        let b = warped_trace::parse_str(&edited).unwrap();
        assert_ne!(
            trace_cell_fingerprint(&exp, &a, Technique::WarpedGates),
            trace_cell_fingerprint(&exp, &b, Technique::WarpedGates),
            "one recorded address differs — the cells must not share a key"
        );
    }

    #[test]
    fn a_single_opcode_edit_moves_the_trace_fingerprint() {
        let exp = Experiment::paper_defaults();
        let a = warped_trace::parse_str(TRACE).unwrap();
        let edited = TRACE.replace("i iadd d=1 s=5 lat=4", "i imul d=1 s=5 lat=8");
        let b = warped_trace::parse_str(&edited).unwrap();
        assert_ne!(
            trace_cell_fingerprint(&exp, &a, Technique::WarpedGates),
            trace_cell_fingerprint(&exp, &b, Technique::WarpedGates),
            "one opcode differs — the cells must not share a key"
        );
    }

    #[test]
    fn trace_cells_never_alias_synthetic_cells() {
        // A trace named after a real benchmark must not collide with
        // that benchmark's synthetic cell under any technique.
        let exp = Experiment::paper_defaults();
        let spec = Benchmark::Hotspot.spec();
        let trace = warped_trace::parse_str(&TRACE.replace("WGT1 tf", "WGT1 hotspot")).unwrap();
        for t in Technique::ALL {
            assert_ne!(
                cell_fingerprint(&exp, &spec, t),
                trace_cell_fingerprint(&exp, &trace, t),
                "workload-source domain must separate the families ({t})"
            );
        }
    }

    #[test]
    fn experiment_knobs_move_trace_fingerprints_too() {
        let exp = Experiment::paper_defaults();
        let trace = warped_trace::parse_str(TRACE).unwrap();
        let reference = trace_cell_fingerprint(&exp, &trace, Technique::Gates);
        let scaled = trace_cell_fingerprint(&exp.clone().with_scale(0.5), &trace, Technique::Gates);
        assert_ne!(reference, scaled, "scale is a key-bearing knob");
        let rearch = trace_cell_fingerprint(
            &exp.clone()
                .with_architecture(DomainLayout::kepler(), Some(4)),
            &trace,
            Technique::Gates,
        );
        assert_ne!(reference, rearch, "architecture is a key-bearing knob");
    }

    #[test]
    fn hasher_distinguishes_adjacent_string_splits() {
        let mut a = ConfigHasher::new(0);
        a.str("ab").str("c");
        let mut b = ConfigHasher::new(0);
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn domain_tags_separate_hash_uses() {
        let mut a = ConfigHasher::new(1);
        a.word(42);
        let mut b = ConfigHasher::new(2);
        b.word(42);
        assert_ne!(a.finish(), b.finish());
    }
}
