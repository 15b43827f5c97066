//! Power-gating domains: the granularity at which execution units share a
//! sleep transistor.
//!
//! Following the paper, each SP cluster's sixteen integer units share one
//! switch and its sixteen floating point units share another. The paper's
//! baseline (Fermi GTX480) has two SP clusters — four gateable INT/FP
//! domains per SM — but its Section 5 explicitly motivates clustered
//! Blackout with the trend toward more clusters (Kepler's six SPs, AMD
//! GCN's four SIMDs). The domain model is therefore parameterised by a
//! [`DomainLayout`]: the identifier encoding is *type-major* with a fixed
//! maximum, so a domain's unit type and cluster index are derivable
//! without consulting the layout, and all per-layout domain lists are
//! `'static` lookup tables (no allocation on the hot paths).
//!
//! Encoding (with `MAX_SP_CLUSTERS` = 6): `INT_i` occupy indices
//! `0..6`, `FP_i` occupy `6..12`, SFU is 12, LDST is 13.

use std::fmt;
use warped_isa::UnitType;

/// Maximum supported SP clusters per SM (Kepler-class).
pub const MAX_SP_CLUSTERS: usize = 6;

/// Number of SP clusters in the default (GTX480/Fermi) layout.
pub const NUM_SP_CLUSTERS: usize = 2;

/// Total domain-index space per SM (all INT and FP clusters up to the
/// maximum, plus SFU and LDST). Arrays indexed by
/// [`DomainId::index`] use this size; indices of clusters beyond the
/// active layout are simply never touched.
pub const NUM_DOMAINS: usize = 2 * MAX_SP_CLUSTERS + 2;

/// A set of domains, one bit per [`DomainId::index`] (bit `i` = the
/// domain with index `i`). Per-cycle busy and powered state travels in
/// this form, so "did anything change?" is one XOR.
pub type DomainMask = u16;

/// The domains set in `flags` (indexed by [`DomainId::index`]).
pub(crate) fn mask_of(flags: &[bool; NUM_DOMAINS]) -> DomainMask {
    flags
        .iter()
        .enumerate()
        .fold(0, |m, (i, &on)| m | DomainMask::from(on) << i)
}

/// Per-domain flags, indexed by [`DomainId::index`], of `mask`.
pub(crate) fn flags_of(mask: DomainMask) -> [bool; NUM_DOMAINS] {
    std::array::from_fn(|i| mask >> i & 1 == 1)
}

const SFU_INDEX: usize = 2 * MAX_SP_CLUSTERS;
const LDST_INDEX: usize = SFU_INDEX + 1;

/// Identifies one power-gating domain inside an SM.
///
/// # Examples
///
/// ```
/// use warped_isa::UnitType;
/// use warped_sim::{DomainId, DomainLayout};
///
/// let fermi = DomainLayout::fermi();
/// let ints = fermi.domains_of(UnitType::Int);
/// assert_eq!(ints.len(), 2);
/// assert_eq!(ints[0].to_string(), "INT0");
///
/// let kepler = DomainLayout::new(6);
/// assert_eq!(kepler.domains_of(UnitType::Fp).len(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(usize);

impl DomainId {
    /// Integer pipelines of SP cluster 0.
    pub const INT0: DomainId = DomainId(0);
    /// Integer pipelines of SP cluster 1.
    pub const INT1: DomainId = DomainId(1);
    /// Floating point pipelines of SP cluster 0.
    pub const FP0: DomainId = DomainId(MAX_SP_CLUSTERS);
    /// Floating point pipelines of SP cluster 1.
    pub const FP1: DomainId = DomainId(MAX_SP_CLUSTERS + 1);
    /// The special function units.
    pub const SFU: DomainId = DomainId(SFU_INDEX);
    /// The load/store units.
    pub const LDST: DomainId = DomainId(LDST_INDEX);

    /// The domains of the default two-cluster (Fermi) layout, in a fixed
    /// order. For layout-aware iteration use
    /// [`DomainLayout::all`].
    pub const ALL: [DomainId; 6] = [
        DomainId::INT0,
        DomainId::INT1,
        DomainId::FP0,
        DomainId::FP1,
        DomainId::SFU,
        DomainId::LDST,
    ];

    /// The dense index of this domain in `0..NUM_DOMAINS`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// This domain's bit in a [`DomainMask`].
    #[must_use]
    pub const fn bit(self) -> DomainMask {
        1 << self.0
    }

    /// Builds a domain from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_DOMAINS`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        assert!(index < NUM_DOMAINS, "domain index {index} out of range");
        DomainId(index)
    }

    /// The integer domain of SP cluster `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= MAX_SP_CLUSTERS`.
    #[must_use]
    pub fn int(i: usize) -> Self {
        assert!(i < MAX_SP_CLUSTERS, "INT cluster {i} out of range");
        DomainId(i)
    }

    /// The floating point domain of SP cluster `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= MAX_SP_CLUSTERS`.
    #[must_use]
    pub fn fp(i: usize) -> Self {
        assert!(i < MAX_SP_CLUSTERS, "FP cluster {i} out of range");
        DomainId(MAX_SP_CLUSTERS + i)
    }

    /// The execution-unit type served by this domain (layout-free: the
    /// encoding is type-major).
    #[must_use]
    pub fn unit(self) -> UnitType {
        match self.0 {
            i if i < MAX_SP_CLUSTERS => UnitType::Int,
            i if i < 2 * MAX_SP_CLUSTERS => UnitType::Fp,
            SFU_INDEX => UnitType::Sfu,
            _ => UnitType::Ldst,
        }
    }

    /// The SP cluster index for INT/FP domains; `None` for SFU/LDST.
    #[must_use]
    pub fn sp_cluster(self) -> Option<usize> {
        match self.0 {
            i if i < MAX_SP_CLUSTERS => Some(i),
            i if i < 2 * MAX_SP_CLUSTERS => Some(i - MAX_SP_CLUSTERS),
            _ => None,
        }
    }

    /// The other cluster of the same unit type **in the default
    /// two-cluster layout**, if one exists. Multi-cluster policies use
    /// [`PolicyCtx::peers`](../warped_gating/struct.PolicyCtx.html)-style
    /// state lists instead.
    #[must_use]
    pub fn peer(self) -> Option<DomainId> {
        match self.sp_cluster() {
            Some(0) if self.unit() == UnitType::Int => Some(DomainId::INT1),
            Some(1) if self.unit() == UnitType::Int => Some(DomainId::INT0),
            Some(0) if self.unit() == UnitType::Fp => Some(DomainId::FP1),
            Some(1) if self.unit() == UnitType::Fp => Some(DomainId::FP0),
            _ => None,
        }
    }

    /// Whether this is one of the CUDA-core domains the paper's Blackout
    /// mechanisms target (an INT or FP cluster).
    #[must_use]
    pub fn is_cuda_core(self) -> bool {
        self.0 < 2 * MAX_SP_CLUSTERS
    }

    /// The domains that can execute instructions of `unit` **in the
    /// default two-cluster layout**, in a fixed order (cluster 0 first).
    /// Layout-aware callers use [`DomainLayout::domains_of`].
    #[must_use]
    pub fn domains_of(unit: UnitType) -> &'static [DomainId] {
        DomainLayout::fermi().domains_of(unit)
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            i if i < MAX_SP_CLUSTERS => write!(f, "INT{i}"),
            i if i < 2 * MAX_SP_CLUSTERS => write!(f, "FP{}", i - MAX_SP_CLUSTERS),
            SFU_INDEX => f.write_str("SFU"),
            _ => f.write_str("LDST"),
        }
    }
}

// ---------------------------------------------------------------------
// Static lookup tables, one per supported cluster count.

const fn int_table<const K: usize>() -> [DomainId; K] {
    let mut out = [DomainId(0); K];
    let mut i = 0;
    while i < K {
        out[i] = DomainId(i);
        i += 1;
    }
    out
}

const fn fp_table<const K: usize>() -> [DomainId; K] {
    let mut out = [DomainId(0); K];
    let mut i = 0;
    while i < K {
        out[i] = DomainId(MAX_SP_CLUSTERS + i);
        i += 1;
    }
    out
}

const fn all_table<const K: usize, const N: usize>() -> [DomainId; N] {
    let mut out = [DomainId(0); N];
    let mut i = 0;
    while i < K {
        out[i] = DomainId(i);
        out[K + i] = DomainId(MAX_SP_CLUSTERS + i);
        i += 1;
    }
    out[2 * K] = DomainId(SFU_INDEX);
    out[2 * K + 1] = DomainId(LDST_INDEX);
    out
}

macro_rules! layout_tables {
    ($k:literal) => {{
        const K: usize = $k;
        const INT: [DomainId; K] = int_table::<K>();
        const FP: [DomainId; K] = fp_table::<K>();
        const ALL: [DomainId; 2 * K + 2] = all_table::<K, { 2 * K + 2 }>();
        (
            &INT as &'static [DomainId],
            &FP as &'static [DomainId],
            &ALL as &'static [DomainId],
        )
    }};
}

fn tables(
    k: usize,
) -> (
    &'static [DomainId],
    &'static [DomainId],
    &'static [DomainId],
) {
    match k {
        1 => layout_tables!(1),
        2 => layout_tables!(2),
        3 => layout_tables!(3),
        4 => layout_tables!(4),
        5 => layout_tables!(5),
        6 => layout_tables!(6),
        _ => unreachable!("layout validated at construction"),
    }
}

/// The clustered-architecture shape of one SM: how many SP clusters its
/// CUDA cores are organised into.
///
/// Fermi (the paper's baseline): 2. AMD GCN: 4. Kepler: 6. All domain
/// lists are `'static` lookup tables, so copying and querying a layout
/// is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainLayout {
    sp_clusters: usize,
}

impl DomainLayout {
    /// Creates a layout with `sp_clusters` SP clusters.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= sp_clusters <= MAX_SP_CLUSTERS`.
    #[must_use]
    pub fn new(sp_clusters: usize) -> Self {
        assert!(
            (1..=MAX_SP_CLUSTERS).contains(&sp_clusters),
            "sp_clusters must be in 1..={MAX_SP_CLUSTERS}, got {sp_clusters}"
        );
        DomainLayout { sp_clusters }
    }

    /// The paper's baseline: Fermi's two SP clusters.
    #[must_use]
    pub fn fermi() -> Self {
        DomainLayout { sp_clusters: 2 }
    }

    /// Kepler-like: six SP clusters.
    #[must_use]
    pub fn kepler() -> Self {
        DomainLayout { sp_clusters: 6 }
    }

    /// AMD GCN-like: four SIMD clusters.
    #[must_use]
    pub fn gcn() -> Self {
        DomainLayout { sp_clusters: 4 }
    }

    /// Number of SP clusters.
    #[must_use]
    pub fn sp_clusters(self) -> usize {
        self.sp_clusters
    }

    /// Every active domain, INT clusters first, then FP, then SFU, LDST.
    #[must_use]
    pub fn all(self) -> &'static [DomainId] {
        tables(self.sp_clusters).2
    }

    /// The domains that can execute instructions of `unit`, cluster 0
    /// first.
    #[must_use]
    pub fn domains_of(self, unit: UnitType) -> &'static [DomainId] {
        let (int, fp, _) = tables(self.sp_clusters);
        match unit {
            UnitType::Int => int,
            UnitType::Fp => fp,
            UnitType::Sfu => std::slice::from_ref(&DomainId::ALL[4]),
            UnitType::Ldst => std::slice::from_ref(&DomainId::ALL[5]),
        }
    }

    /// Every active domain as a [`DomainMask`].
    #[must_use]
    pub fn mask(self) -> DomainMask {
        self.all().iter().fold(0, |m, d| m | d.bit())
    }

    /// The domains of `unit` as a [`DomainMask`].
    #[must_use]
    pub fn unit_mask(self, unit: UnitType) -> DomainMask {
        self.domains_of(unit).iter().fold(0, |m, d| m | d.bit())
    }

    /// Whether `domain` exists in this layout.
    #[must_use]
    pub fn contains(self, domain: DomainId) -> bool {
        match domain.sp_cluster() {
            Some(c) => c < self.sp_clusters,
            None => true,
        }
    }
}

impl Default for DomainLayout {
    fn default() -> Self {
        DomainLayout::fermi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_layout_matches_the_legacy_constants() {
        let l = DomainLayout::fermi();
        assert_eq!(l.all(), &DomainId::ALL);
        assert_eq!(
            l.domains_of(UnitType::Int),
            &[DomainId::INT0, DomainId::INT1]
        );
        assert_eq!(l.domains_of(UnitType::Fp), &[DomainId::FP0, DomainId::FP1]);
        assert_eq!(l.domains_of(UnitType::Sfu), &[DomainId::SFU]);
        assert_eq!(l.domains_of(UnitType::Ldst), &[DomainId::LDST]);
    }

    #[test]
    fn unit_mapping_is_layout_free() {
        assert_eq!(DomainId::INT0.unit(), UnitType::Int);
        assert_eq!(DomainId::int(5).unit(), UnitType::Int);
        assert_eq!(DomainId::FP0.unit(), UnitType::Fp);
        assert_eq!(DomainId::fp(5).unit(), UnitType::Fp);
        assert_eq!(DomainId::SFU.unit(), UnitType::Sfu);
        assert_eq!(DomainId::LDST.unit(), UnitType::Ldst);
    }

    #[test]
    fn kepler_layout_has_six_clusters_per_type() {
        let l = DomainLayout::kepler();
        assert_eq!(l.domains_of(UnitType::Int).len(), 6);
        assert_eq!(l.domains_of(UnitType::Fp).len(), 6);
        assert_eq!(l.all().len(), 14);
        for (i, d) in l.domains_of(UnitType::Fp).iter().enumerate() {
            assert_eq!(d.sp_cluster(), Some(i));
            assert_eq!(d.unit(), UnitType::Fp);
        }
    }

    #[test]
    fn every_layout_is_internally_consistent() {
        for k in 1..=MAX_SP_CLUSTERS {
            let l = DomainLayout::new(k);
            assert_eq!(l.all().len(), 2 * k + 2);
            for u in UnitType::ALL {
                for d in l.domains_of(u) {
                    assert_eq!(d.unit(), u);
                    assert!(l.contains(*d));
                }
            }
            // SFU/LDST always present; out-of-layout clusters absent.
            assert!(l.contains(DomainId::SFU));
            assert!(l.contains(DomainId::LDST));
            if k < MAX_SP_CLUSTERS {
                assert!(!l.contains(DomainId::int(k)));
            }
        }
    }

    #[test]
    fn peers_are_symmetric_for_the_fermi_clusters() {
        assert_eq!(DomainId::INT0.peer(), Some(DomainId::INT1));
        assert_eq!(DomainId::INT1.peer(), Some(DomainId::INT0));
        assert_eq!(DomainId::FP0.peer(), Some(DomainId::FP1));
        assert_eq!(DomainId::FP1.peer(), Some(DomainId::FP0));
        assert_eq!(DomainId::SFU.peer(), None);
        assert_eq!(DomainId::LDST.peer(), None);
    }

    #[test]
    fn display_names_follow_the_encoding() {
        assert_eq!(DomainId::INT0.to_string(), "INT0");
        assert_eq!(DomainId::int(5).to_string(), "INT5");
        assert_eq!(DomainId::fp(3).to_string(), "FP3");
        assert_eq!(DomainId::SFU.to_string(), "SFU");
        assert_eq!(DomainId::LDST.to_string(), "LDST");
    }

    #[test]
    fn cuda_core_predicate() {
        assert!(DomainId::INT0.is_cuda_core());
        assert!(DomainId::fp(5).is_cuda_core());
        assert!(!DomainId::SFU.is_cuda_core());
        assert!(!DomainId::LDST.is_cuda_core());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_rejects_out_of_range() {
        let _ = DomainId::from_index(NUM_DOMAINS);
    }

    #[test]
    #[should_panic(expected = "sp_clusters")]
    fn zero_cluster_layout_rejected() {
        let _ = DomainLayout::new(0);
    }

    #[test]
    fn masks_follow_the_index_encoding() {
        let l = DomainLayout::fermi();
        assert_eq!(DomainId::FP1.bit(), 1 << 7);
        assert_eq!(l.unit_mask(UnitType::Int), 0b11);
        assert_eq!(l.unit_mask(UnitType::Fp), 0b11 << MAX_SP_CLUSTERS);
        assert_eq!(l.mask(), 0b11_0000_1100_0011);
        assert_eq!(DomainLayout::kepler().mask().count_ones(), 14);
        for k in 1..=MAX_SP_CLUSTERS {
            let l = DomainLayout::new(k);
            let units = UnitType::ALL.iter().fold(0, |m, u| m | l.unit_mask(*u));
            assert_eq!(units, l.mask());
        }
    }

    #[test]
    fn flags_and_masks_round_trip() {
        let mut flags = [false; NUM_DOMAINS];
        flags[DomainId::INT1.index()] = true;
        flags[DomainId::LDST.index()] = true;
        let mask = mask_of(&flags);
        assert_eq!(mask, DomainId::INT1.bit() | DomainId::LDST.bit());
        assert_eq!(flags_of(mask), flags);
    }

    #[test]
    fn index_roundtrip() {
        for d in DomainLayout::kepler().all() {
            assert_eq!(DomainId::from_index(d.index()), *d);
        }
    }
}
