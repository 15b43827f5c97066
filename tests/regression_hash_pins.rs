//! Literal pins for every hash whose value is persisted or addressed
//! from outside the process: trace content digests, grid-cell
//! fingerprints (warped-serve's cache keys and disk-cache file names),
//! the workload generator's SplitMix64 stream, and `mix64`.
//!
//! The other fingerprint tests only check equalities and
//! inequalities, so a reordered fold would pass them while silently
//! re-keying every cache entry. These values were captured before the
//! hash code was consolidated into `warped_isa::hash`; a mismatch here
//! means a stored key moved.

use warped_gates_repro::gates::fingerprint::{
    cell_fingerprint, trace_cell_fingerprint, FINGERPRINT_VERSION,
};
use warped_gates_repro::gates::{Experiment, Technique};
use warped_gates_repro::isa::mix64;
use warped_gates_repro::sim::HierarchyConfig;
use warped_gates_repro::workloads::rng::SplitMix64;
use warped_gates_repro::workloads::Benchmark;
use warped_trace::{content_digest, parse_bytes, TraceWorkload};

fn trace_bytes(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{name}.wgt1"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn trace(name: &str) -> TraceWorkload {
    parse_bytes(&trace_bytes(name)).unwrap()
}

fn armed() -> Experiment {
    Experiment::paper_defaults().with_memory_hierarchy(Some(HierarchyConfig::default()))
}

/// `content_digest` of each committed `traces/*.wgt1` file.
const DIGESTS: [(&str, u64); 6] = [
    ("bfs", 0x896857bf69a7fe69),
    ("hotspot", 0xe98b294294be8ae3),
    ("lbm", 0xf33a42367eca6959),
    ("mri", 0xa69afdc7590c5077),
    ("nw", 0xf02430de81c13285),
    ("sgemm", 0x1a2609b7e6f869f4),
];

#[test]
fn trace_content_digests_are_pinned() {
    for (name, digest) in DIGESTS {
        let bytes = trace_bytes(name);
        assert_eq!(content_digest(&bytes), digest, "{name}");
        assert_eq!(parse_bytes(&bytes).unwrap().digest, digest, "{name}");
    }
}

#[test]
fn cell_fingerprints_are_pinned() {
    assert_eq!(FINGERPRINT_VERSION, 3);
    let exp = Experiment::paper_defaults();
    let cells = [
        (
            cell_fingerprint(&exp, &Benchmark::Nw.spec(), Technique::Baseline),
            0x76c01d4e6f5583a0,
        ),
        (
            cell_fingerprint(
                &exp.clone().with_scale(0.5),
                &Benchmark::Hotspot.spec(),
                Technique::WarpedGates,
            ),
            0x06b47fb353a9b9f0,
        ),
        (
            cell_fingerprint(&armed(), &Benchmark::Bfs.spec(), Technique::Gates),
            0x937dcf6c40573c92,
        ),
    ];
    for (i, (got, want)) in cells.into_iter().enumerate() {
        assert_eq!(got, want, "cell {i}");
    }
}

#[test]
fn trace_cell_fingerprints_are_pinned() {
    let exp = Experiment::paper_defaults();
    assert_eq!(
        trace_cell_fingerprint(&exp, &trace("hotspot"), Technique::Baseline),
        0x7c85c7be83d7b3ea
    );
    assert_eq!(
        trace_cell_fingerprint(&armed(), &trace("sgemm"), Technique::WarpedGates),
        0xc7859a917446ffbd
    );
}

#[test]
fn splitmix_stream_and_mix64_are_pinned() {
    let mut rng = SplitMix64::new(42);
    let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        first,
        [
            0xbdd732262feb6e95,
            0x28efe333b266f103,
            0x47526757130f9f52,
            0x581ce1ff0e4ae394,
        ]
    );
    assert_eq!(mix64(0), 0xe220a8397b1dcdaf);
    assert_eq!(mix64(u64::MAX), 0xe4d971771b652c20);
}
