//! Symmetry-folded routing metadata for the TofuD torus.
//!
//! The dense [`RoutingTable`](crate::table::RoutingTable) stores 4 bytes
//! per *ordered node pair* — fast at CTE-Arm's 192 nodes, but ~100 GB at
//! Fugaku's 158,976. On a TofuD torus the table is massively redundant:
//! dimension-ordered minimal routing makes both `hops(a, b)` and
//! `sharing(a, b)` functions of the per-dimension **coordinate offset**
//! `b_i − a_i` alone, never of the absolute position. A [`FoldedTable`]
//! therefore stores one entry per *offset class* — `Π (2·ext_i − 1)`
//! entries, the product of the extents' signed-offset ranges — instead of
//! one per pair. Fugaku's `[24, 23, 24, 2, 3, 2]` shape folds from
//! 2.5 × 10¹⁰ pairs to 4,473,225 classes: under 10 MB.
//!
//! ## Carry-free decode
//!
//! Resolving a pair must not cost a coordinate decode (twelve integer
//! divisions), or the fold would lose to the dense table it replaces. The
//! trick is a mixed-radix *offset encoding* with radix `k_i = 2·ext_i − 1`
//! per dimension: each node gets a precomputed `u32`
//! `enc[x] = Σ x_i · stride_i` over those radices, and the class index of
//! `(a, b)` is
//!
//! ```text
//! class(a, b) = enc[b] − enc[a] + S,     S = Σ (ext_i − 1) · stride_i
//! ```
//!
//! Per dimension the digit of that sum is `b_i − a_i + (ext_i − 1)`, which
//! lies in `[0, 2·ext_i − 2]` — strictly below the radix — so **no digit
//! ever carries** and the flat integer arithmetic is exact: one add, one
//! subtract and two array loads resolve any pair. Torus wraps are folded
//! into the table *contents* at build time (each class stores the minimal
//! modular distance), not into the index.
//!
//! Each entry packs the hop count (13 bits) and the sharing-class palette
//! index (3 bits) into one `u16`, preserving the dense table's values
//! bit-for-bit: hop counts are the same integers and sharing factors come
//! from the same exact-`f64` palette. The dense builder remains as the
//! differential oracle (see `tests/folded_table.rs`).

use crate::tofu::{TofuD, DIMS};
use crate::topology::{check_node, id_runs, NodeId, NodeRuns, Topology};
use rayon::prelude::*;

/// Bits of each packed entry holding the hop count.
pub const HOPS_BITS: u32 = 13;
/// Mask extracting the hop count from a packed entry.
pub const HOPS_MASK: u16 = (1 << HOPS_BITS) - 1;

/// O(#offset-classes) fold of the all-pairs routing table on a TofuD
/// torus/mesh: `Π (2·ext − 1)` packed entries plus one `u32` encoding per
/// node, instead of 4 bytes per ordered pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedTable {
    n: usize,
    name: String,
    /// Per-node mixed-radix offset encodings (radix `2·ext − 1` per dim).
    enc: Vec<u32>,
    /// `S = Σ (ext_i − 1) · stride_i`: the all-zero-offset class index,
    /// also the largest value `enc` takes.
    shift: u32,
    /// One packed `hops | class << HOPS_BITS` entry per offset class.
    entries: Vec<u16>,
    palette: Vec<f64>,
    diameter: usize,
}

impl FoldedTable {
    /// Fold the routing metadata of a TofuD shape. `O(Π (2·ext − 1))`
    /// work, filled in parallel; independent of the node-pair count.
    ///
    /// # Panics
    /// Panics if the class space overflows 31-bit indexing (a shape far
    /// beyond any deployed torus) or a hop count exceeds the 13-bit entry
    /// field.
    pub fn build(topo: &TofuD) -> Self {
        let n = topo.nodes();
        let dims = topo.dims;
        let mut radix = [0usize; DIMS];
        for i in 0..DIMS {
            radix[i] = 2 * dims[i] - 1;
        }
        let mut cstride = [1usize; DIMS];
        for d in (0..DIMS - 1).rev() {
            cstride[d] = cstride[d + 1] * radix[d + 1];
        }
        let classes = cstride[0] * radix[0];
        // `enc[b] + S` must stay below 2³²; S < classes, enc ≤ S.
        assert!(
            classes < (1usize << 31),
            "folded class space ({classes}) overflows u32 offset arithmetic"
        );
        let shift: u32 = (0..DIMS).map(|i| ((dims[i] - 1) * cstride[i]) as u32).sum();

        // Per-node encodings, walked odometer-style in id order so the
        // fill never pays a mixed-radix decode.
        let mut enc = vec![0u32; n];
        let mut c = [0usize; DIMS];
        for e in enc.iter_mut() {
            *e = (0..DIMS).map(|i| (c[i] * cstride[i]) as u32).sum();
            topo.advance_coords(&mut c);
        }

        // Sharing palette: TofuD has exactly two classes — same-unit
        // (all X/Y/Z offsets zero) and cross-unit. Both factors are taken
        // from the topology itself so they stay exact f64s; a machine that
        // is a single unit wide (X = Y = Z = 1) only ever sees the first.
        let same = topo.sharing(NodeId(0), NodeId(0));
        let cross_rep = (0..3).find(|&d| dims[d] > 1).map(|d| {
            let node_stride: usize = dims[d + 1..].iter().product();
            topo.sharing(NodeId(0), NodeId(node_stride))
        });
        let palette: Vec<f64> = std::iter::once(same).chain(cross_rep).collect();

        // Fill the class entries in parallel. Blocks of the three inner
        // dimensions decode their leading digits once, then tick an
        // odometer — entries are position-independent, so the result does
        // not depend on the chunking.
        let mut entries = vec![0u16; classes];
        let block = radix[3] * radix[4] * radix[5];
        let periodic = topo.periodic;
        entries
            .par_chunks_mut(block)
            .enumerate()
            .for_each(|(bi, chunk)| {
                let mut g = [0usize; DIMS];
                let mut rem = bi * block;
                for i in (0..DIMS).rev() {
                    g[i] = rem % radix[i];
                    rem /= radix[i];
                }
                for e in chunk.iter_mut() {
                    let mut hops = 0usize;
                    let mut same_unit = true;
                    for i in 0..DIMS {
                        // Signed per-dimension offset of this class; the
                        // torus wrap is folded into the stored distance.
                        let off = g[i].abs_diff(dims[i] - 1);
                        let dist = if periodic[i] {
                            off.min(dims[i] - off)
                        } else {
                            off
                        };
                        hops += dist;
                        if i < 3 && off != 0 {
                            same_unit = false;
                        }
                    }
                    assert!(
                        hops <= HOPS_MASK as usize,
                        "hop count {hops} overflows the {HOPS_BITS}-bit folded entry"
                    );
                    debug_assert_eq!(hops, class_rep_hops(topo, &g), "folded hops diverge");
                    let class: u16 = u16::from(!same_unit);
                    *e = ((class) << HOPS_BITS) | hops as u16;
                    // Advance the class odometer.
                    for i in (0..DIMS).rev() {
                        g[i] += 1;
                        if g[i] < radix[i] {
                            break;
                        }
                        g[i] = 0;
                    }
                }
            });

        Self {
            n,
            name: format!("{} (folded)", topo.name()),
            enc,
            shift,
            entries,
            palette,
            diameter: topo.diameter(),
        }
    }

    /// Offset-class index of the ordered pair — carry-free mixed-radix
    /// arithmetic, no coordinate decode.
    #[inline]
    fn class_index(&self, a: NodeId, b: NodeId) -> usize {
        ((self.enc[b.index()] + self.shift) - self.enc[a.index()]) as usize
    }

    /// Hop count of the ordered pair: two array loads and an add.
    #[inline]
    pub fn hops(&self, a: NodeId, b: NodeId) -> usize {
        (self.entries[self.class_index(a, b)] & HOPS_MASK) as usize
    }

    /// Sharing factor of the ordered pair, from the exact-`f64` palette.
    #[inline]
    pub fn sharing(&self, a: NodeId, b: NodeId) -> f64 {
        self.palette[(self.entries[self.class_index(a, b)] >> HOPS_BITS) as usize]
    }

    /// Number of nodes the fold covers.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Number of distinct offset classes stored (`Π (2·ext − 1)`).
    pub fn offset_classes(&self) -> usize {
        self.entries.len()
    }

    /// The distinct sharing factors, same-unit first.
    pub fn sharing_classes(&self) -> &[f64] {
        &self.palette
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * 2 + self.enc.len() * 4 + self.palette.len() * 8
    }

    /// Resolve every ordered pair (self-pairs included) through the folded
    /// fast path and return a checksum of hops and sharing classes — the
    /// benchmark kernel behind the `folded_routes_per_sec` row, kept here
    /// so the timed loop is exactly the production lookup arithmetic.
    pub fn checksum_all_pairs(&self) -> u64 {
        let mut sink = 0u64;
        for a in 0..self.n {
            // Hoist the source term: `class = enc[b] + (S − enc[a])`.
            let base = self.shift - self.enc[a];
            for &eb in &self.enc {
                let e = self.entries[(eb + base) as usize];
                sink += (e & HOPS_MASK) as u64 + (((e >> HOPS_BITS) as u64) << 1);
            }
        }
        sink
    }
}

/// Debug-assert oracle: hop count of a representative pair realizing the
/// offset class `g`, priced through the topology's own `hops`. Only
/// invoked from `debug_assert_eq!`, so release builds optimize it away.
fn class_rep_hops(topo: &TofuD, g: &[usize; DIMS]) -> usize {
    let mut ca = [0usize; DIMS];
    let mut cb = [0usize; DIMS];
    for i in 0..DIMS {
        let o = g[i] as isize - (topo.dims[i] as isize - 1);
        if o < 0 {
            ca[i] = o.unsigned_abs();
        } else {
            cb[i] = o as usize;
        }
    }
    topo.hops(topo.node_at(ca), topo.node_at(cb))
}

impl Topology for FoldedTable {
    fn nodes(&self) -> usize {
        self.n
    }

    fn hops(&self, a: NodeId, b: NodeId) -> usize {
        check_node(self, a);
        check_node(self, b);
        FoldedTable::hops(self, a, b)
    }

    fn sharing(&self, a: NodeId, b: NodeId) -> f64 {
        check_node(self, a);
        check_node(self, b);
        FoldedTable::sharing(self, a, b)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn diameter(&self) -> usize {
        self.diameter
    }
}

/// Closed-form mean pairwise hop distance of a node set on a TofuD torus —
/// the per-dimension companion to the offset-class fold above. The set is
/// given as sorted ids; they are grouped into runs on the fly and scored by
/// [`runs_mean_hops`].
///
/// Returns `None` when the ids are not strictly ascending or fall outside
/// the topology — callers fall back to the dense walk (which preserves the
/// historical duplicate handling and out-of-range panics).
pub fn set_mean_hops(topo: &TofuD, nodes: &[NodeId]) -> Option<f64> {
    if nodes.len() < 2 {
        return Some(0.0);
    }
    if nodes.windows(2).any(|w| w[1] <= w[0]) {
        return None; // unsorted or duplicate ids: dense walk territory
    }
    fold_runs(topo, id_runs(nodes))
}

/// Closed-form mean pairwise hop distance of a node set given as id runs,
/// at a cost of O(runs + Σ ext) with no allocation.
///
/// Dimension-ordered routing makes `hops(a, b) = Σ_d dist_d(a_d, b_d)`, so
/// the total over all unordered pairs separates per dimension:
///
/// ```text
/// Σ_{i<j} hops(nᵢ, nⱼ) = Σ_d Σ_{x<y} h_d[x] · h_d[y] · dist_d(x, y)
/// ```
///
/// where `h_d` is the histogram of the set's coordinates along dimension
/// `d`. The prefix count `F_d(m, x) = #{ i < m : coordinate_d(i) = x }` is
/// a constant plus a step plus one partial bin, so a run `[s, e)` adds
/// `F_d(e, ·) − F_d(s, ·)` to a difference array with two updates per
/// endpoint and dimension (the constant is summed once per dimension),
/// after one division-free digit decode of the endpoint
/// (`EndpointDecoder`). The pair sum then takes one prefix-sum
/// pass per dimension (`dim_pair_hops`). Everything accumulates exactly
/// in `u64` (the dense walk's own accumulator width, with the same
/// headroom: the total is bounded by `pairs · max hops`) and the final
/// `total / pairs` division performs the same integer→`f64` conversions,
/// so the result is bit-identical to
/// [`mean_pairwise_hops_dense`](crate::placement::mean_pairwise_hops_dense).
///
/// Returns `None` when a run ends past the topology or a dimension is
/// wider than [`FOLD_MAX_EXTENT`]; callers fall back to the dense walk.
pub fn runs_mean_hops(topo: &TofuD, runs: &NodeRuns) -> Option<f64> {
    fold_runs(topo, runs.runs().iter().copied())
}

/// Widest dimension the closed-form fold handles in its fixed stack
/// buffers (Fugaku's widest is 24); wider shapes take the dense walk.
pub const FOLD_MAX_EXTENT: usize = 64;

/// One difference-array or prefix buffer per dimension, on the stack.
type DimBuf = [u64; FOLD_MAX_EXTENT + 1];

fn fold_runs(topo: &TofuD, runs: impl Iterator<Item = (usize, usize)>) -> Option<f64> {
    if topo.dims.iter().any(|&e| e > FOLD_MAX_EXTENT) {
        return None;
    }
    let n = topo.nodes();
    let decoder = EndpointDecoder::new(topo);
    let mut diff = [[0u64; FOLD_MAX_EXTENT + 1]; DIMS];
    let mut cycles = [0u64; DIMS];
    let mut k = 0u64;
    for (start, end) in runs {
        if end > n {
            return None; // out of range: let the dense walk panic with context
        }
        debug_assert!(start < end, "empty run");
        k += (end - start) as u64;
        decoder.add_run(&mut diff, &mut cycles, start, end);
    }
    if k < 2 {
        return Some(0.0);
    }
    for d in 0..DIMS {
        diff[d][0] = diff[d][0].wrapping_add(cycles[d] * decoder.stride[d]);
    }
    let mut count = [0u64; FOLD_MAX_EXTENT + 1];
    let mut weight = [0u64; FOLD_MAX_EXTENT + 1];
    let total: u64 = (0..DIMS)
        .map(|d| {
            dim_pair_hops(
                &diff[d],
                topo.dims[d],
                topo.periodic[d],
                &mut count,
                &mut weight,
            )
        })
        .sum();
    let pairs = k * (k - 1) / 2;
    Some(total as f64 / pairs as f64)
}

/// `Σ_{x<y} h[x] · h[y] · dist(x, y)` along one dimension of extent `e`,
/// with `h` the prefix sum of `diff`, in one O(e) pass. `count[j]` and
/// `weight[j]` are the running prefixes `Σ_{x<j} h[x]` and
/// `Σ_{x<j} x · h[x]`, so the pairs at distance `y − x` contribute
/// `y · count − weight`. On a torus the pairs more than `⌊e/2⌋` apart go
/// the other way round at distance `e − y + x`: that wrap-around term is
/// the same two prefixes taken at `y − ⌊e/2⌋`. Every difference taken is
/// non-negative, so the `u64` arithmetic is exact.
fn dim_pair_hops(
    diff: &DimBuf,
    e: usize,
    periodic: bool,
    count: &mut DimBuf,
    weight: &mut DimBuf,
) -> u64 {
    let reach = if periodic { e / 2 } else { e };
    let mut h = 0u64;
    let mut total = 0u64;
    count[0] = 0;
    weight[0] = 0;
    for y in 0..e {
        h = h.wrapping_add(diff[y]);
        let (yu, lo) = (y as u64, y.saturating_sub(reach));
        let near = yu * (count[y] - count[lo]) - (weight[y] - weight[lo]);
        let wrapped = (e - y) as u64 * count[lo] + weight[lo];
        total += h * (near + wrapped);
        count[y + 1] = count[y] + h;
        weight[y + 1] = weight[y] + yu * h;
    }
    total
}

/// Exact `m / d` for `m < 2³¹` by multiply and shift: `magic = ⌈2^s / d⌉`
/// with `s = 31 + ⌈log₂ d⌉`. Writing `magic · d = 2^s + e` with `e < d`,
/// `m · magic / 2^s` overshoots `m / d` by `m · e / (d · 2^s) < 2^−⌈log₂ d⌉
/// ≤ 1/d`, while `m / d` sits at least `1/d` below the next integer, so
/// the floor is exact; and `m · magic < 2⁶³` cannot overflow.
#[derive(Debug, Clone, Copy)]
struct Reciprocal {
    magic: u64,
    shift: u32,
}

impl Reciprocal {
    fn new(d: usize) -> Self {
        assert!(
            (1..1 << 31).contains(&d),
            "divisor {d} outside the 31-bit reciprocal range"
        );
        let shift = 31 + (usize::BITS - (d - 1).leading_zeros());
        Self {
            magic: (1u64 << shift).div_ceil(d as u64),
            shift,
        }
    }

    #[inline]
    fn div(self, m: u64) -> u64 {
        (m * self.magic) >> self.shift
    }
}

/// Division-free mixed-radix decode of run endpoints `m ∈ [0, n]` of one
/// TofuD shape. With `S_d` the id stride of dimension `d` and `Q_d =
/// m / S_d` (seven reciprocal multiplies, `Q_{−1} = m / n`), dimension `d`
/// sees `m` as `Q_{d−1}` whole cycles of `E_d · S_d` ids, then digit
/// `Q_d − E_d · Q_{d−1}`, then `m − Q_d · S_d` ids into that digit's block.
#[derive(Debug, Clone)]
struct EndpointDecoder {
    extent: [u64; DIMS],
    stride: [u64; DIMS],
    by_stride: [Reciprocal; DIMS],
    by_nodes: Reciprocal,
}

impl EndpointDecoder {
    fn new(topo: &TofuD) -> Self {
        let mut stride = [1u64; DIMS];
        for d in (0..DIMS - 1).rev() {
            stride[d] = stride[d + 1] * topo.dims[d + 1] as u64;
        }
        Self {
            extent: topo.dims.map(|e| e as u64),
            stride,
            by_stride: stride.map(|s| Reciprocal::new(s as usize)),
            by_nodes: Reciprocal::new(topo.nodes()),
        }
    }

    /// Per dimension: (whole cycles, digit, offset within the digit's
    /// block) of endpoint `m`.
    #[inline]
    fn decode(&self, m: usize) -> [(u64, usize, u64); DIMS] {
        let m = m as u64;
        let mut above = self.by_nodes.div(m);
        let mut out = [(0, 0, 0); DIMS];
        for (d, slot) in out.iter_mut().enumerate() {
            let q = self.by_stride[d].div(m);
            *slot = (
                above,
                (q - self.extent[d] * above) as usize,
                m - q * self.stride[d],
            );
            above = q;
        }
        out
    }

    /// The coordinates of id `m` (all zeros for the end sentinel `m = n`).
    #[cfg(test)]
    fn coords(&self, m: usize) -> [usize; DIMS] {
        self.decode(m).map(|(_, digit, _)| digit)
    }

    /// Add the histogram of the run `[start, end)` to every dimension's
    /// difference array, as `F_d(end, ·) − F_d(start, ·)`. `F_d(m, ·)` is
    /// `cycles · S` in every bin, a further `S` in the bins below the digit
    /// and the partial `offset` in the digit's own bin. The every-bin term
    /// is summed in `cycles[d]` (the `+S` of the two endpoints cancels) and
    /// applied once by the caller; the other two take one update per
    /// endpoint bin. Wrapping arithmetic keeps the transient negative
    /// entries exact; the prefix sums come out non-negative.
    #[inline]
    fn add_run(
        &self,
        diff: &mut [DimBuf; DIMS],
        cycles: &mut [u64; DIMS],
        start: usize,
        end: usize,
    ) {
        let (hi, lo) = (self.decode(end), self.decode(start));
        for d in 0..DIMS {
            let s = self.stride[d];
            let bins = &mut diff[d];
            let ((hi_cycles, hi_digit, hi_off), (lo_cycles, lo_digit, lo_off)) = (hi[d], lo[d]);
            cycles[d] += hi_cycles - lo_cycles;
            bins[hi_digit] = bins[hi_digit].wrapping_add(hi_off).wrapping_sub(s);
            bins[hi_digit + 1] = bins[hi_digit + 1].wrapping_sub(hi_off);
            bins[lo_digit] = bins[lo_digit].wrapping_sub(lo_off).wrapping_add(s);
            bins[lo_digit + 1] = bins[lo_digit + 1].wrapping_add(lo_off);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_agrees_with_direct_on_cte_arm() {
        let t = TofuD::cte_arm();
        let f = FoldedTable::build(&t);
        assert_eq!(f.nodes(), 192);
        for a in 0..192 {
            for b in 0..192 {
                let (a, b) = (NodeId(a), NodeId(b));
                assert_eq!(f.hops(a, b), t.hops(a, b), "hops ({a}, {b})");
                assert_eq!(
                    f.sharing(a, b).to_bits(),
                    t.sharing(a, b).to_bits(),
                    "sharing ({a}, {b})"
                );
            }
        }
        assert_eq!(Topology::diameter(&f), t.diameter());
        assert_eq!(f.sharing_classes(), &[1.0, 2.0]);
    }

    #[test]
    fn class_space_is_product_of_offset_ranges() {
        let t = TofuD::cte_arm();
        let f = FoldedTable::build(&t);
        // [4,2,2,2,3,2] → 7·3·3·3·5·3 = 2835 classes for 36 864 pairs.
        assert_eq!(f.offset_classes(), 2835);
        assert!(f.memory_bytes() < crate::table::RoutingTable::build(&t).memory_bytes());
    }

    #[test]
    fn single_unit_machine_has_one_sharing_class() {
        let t = TofuD::with_dims([1, 1, 1, 2, 3, 2], [true, true, true, false, true, false]);
        let f = FoldedTable::build(&t);
        assert_eq!(f.sharing_classes(), &[1.0]);
        for a in 0..t.nodes() {
            for b in 0..t.nodes() {
                assert_eq!(f.sharing(NodeId(a), NodeId(b)), 1.0);
            }
        }
    }

    #[test]
    fn checksum_matches_direct_enumeration() {
        let t = TofuD::with_dims([3, 2, 2, 2, 3, 2], [true, true, true, false, true, false]);
        let f = FoldedTable::build(&t);
        let mut want = 0u64;
        for a in 0..t.nodes() {
            for b in 0..t.nodes() {
                let (a, b) = (NodeId(a), NodeId(b));
                let class = u64::from(t.sharing(a, b) != 1.0);
                want += t.hops(a, b) as u64 + (class << 1);
            }
        }
        assert_eq!(f.checksum_all_pairs(), want);
    }

    #[test]
    fn is_a_topology_for_generic_sweeps() {
        let t = TofuD::cte_arm();
        let f = FoldedTable::build(&t);
        let nodes: Vec<NodeId> = (0..24).map(NodeId).collect();
        let direct = crate::placement::mean_pairwise_hops(&t, &nodes);
        let folded = crate::placement::mean_pairwise_hops(&f, &nodes);
        assert_eq!(direct.to_bits(), folded.to_bits());
        assert!(f.name().contains("folded"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn topology_impl_checks_bounds() {
        let f = FoldedTable::build(&TofuD::cte_arm());
        Topology::hops(&f, NodeId(0), NodeId(192));
    }

    #[test]
    fn set_mean_hops_matches_dense_on_assorted_sets() {
        use crate::placement::mean_pairwise_hops_dense;
        let shapes = [
            TofuD::cte_arm(),
            TofuD::with_dims([3, 2, 2, 2, 3, 2], [true, false, true, false, true, false]),
            TofuD::with_dims([5, 1, 3, 2, 3, 2], [true, true, true, false, true, false]),
        ];
        for t in &shapes {
            let n = t.nodes();
            let sets: Vec<Vec<NodeId>> = vec![
                (0..n.min(24)).map(NodeId).collect(),    // one prefix run
                (0..n).step_by(3).map(NodeId).collect(), // singleton runs
                (0..n - 6).step_by(7).chain(n - 5..n).map(NodeId).collect(),
                vec![NodeId(0), NodeId(n - 1)], // extremes
                (n / 3..n / 3 + n.min(30) / 2).map(NodeId).collect(),
            ];
            for nodes in &sets {
                let closed = set_mean_hops(t, nodes).expect("sorted set folds");
                let dense = mean_pairwise_hops_dense(t, nodes);
                assert_eq!(
                    closed.to_bits(),
                    dense.to_bits(),
                    "shape {:?} set {:?}",
                    t.dims,
                    &nodes[..nodes.len().min(8)]
                );
            }
        }
    }

    fn decoder_shapes() -> Vec<TofuD> {
        vec![
            TofuD::cte_arm(),
            TofuD::with_dims(
                [24, 23, 24, 2, 3, 2],
                [true, true, true, false, true, false],
            ),
            TofuD::with_dims([5, 1, 3, 2, 3, 2], [true, true, true, false, true, false]),
            TofuD::with_dims([1, 1, 1, 2, 3, 2], [true, true, true, false, true, false]),
            TofuD::with_dims([3, 2, 2, 2, 3, 2], [true, false, true, false, true, false]),
            TofuD::with_dims([1; DIMS], [false; DIMS]),
        ]
    }

    #[test]
    fn reciprocal_digit_decode_matches_div_and_mod_on_every_id() {
        for t in decoder_shapes() {
            let dec = EndpointDecoder::new(&t);
            let n = t.nodes();
            for id in 0..n {
                assert_eq!(dec.coords(id), t.coords(NodeId(id)), "{:?} id {id}", t.dims);
            }
            // The end sentinel `n` is one whole outer cycle, every digit 0.
            assert_eq!(dec.coords(n), [0; DIMS], "{:?} end sentinel", t.dims);
            let mut stride = 1;
            for d in (0..DIMS).rev() {
                for m in [0, 1, n / 2, n - 1, n] {
                    let (cycles, digit, offset) = dec.decode(m)[d];
                    let cycle = t.dims[d] * stride;
                    assert_eq!(cycles as usize, m / cycle, "{:?} m {m} d {d}", t.dims);
                    assert_eq!(digit, (m / stride) % t.dims[d]);
                    assert_eq!(offset as usize, m % stride);
                }
                stride *= t.dims[d];
            }
        }
    }

    #[test]
    fn reciprocal_is_exact_across_the_31_bit_range() {
        for d in [
            1usize,
            2,
            3,
            7,
            12,
            23,
            24,
            288,
            6624,
            158_976,
            (1 << 31) - 1,
        ] {
            let r = Reciprocal::new(d);
            for m in [
                0u64,
                1,
                d as u64 - 1,
                d as u64,
                d as u64 + 1,
                1 << 20,
                (1 << 31) - 1,
            ] {
                assert_eq!(r.div(m), m / d as u64, "{m} / {d}");
            }
        }
    }

    #[test]
    fn run_form_matches_the_id_form() {
        let t = TofuD::cte_arm();
        let mut runs = NodeRuns::new();
        for (s, e) in [(0, 5), (11, 12), (40, 97), (150, 192)] {
            runs.push(s, e);
        }
        let ids = runs.to_vec();
        assert_eq!(
            runs_mean_hops(&t, &runs).map(f64::to_bits),
            set_mean_hops(&t, &ids).map(f64::to_bits)
        );
        let mut outside = NodeRuns::new();
        outside.push(190, 193);
        assert!(runs_mean_hops(&t, &outside).is_none(), "out of range");
        let wide = TofuD::with_dims([FOLD_MAX_EXTENT + 1, 1, 1, 1, 1, 1], [true; DIMS]);
        assert!(runs_mean_hops(&wide, &runs).is_none(), "too wide to fold");
    }

    #[test]
    fn set_mean_hops_rejects_unfoldable_inputs() {
        let t = TofuD::cte_arm();
        assert!(
            set_mean_hops(&t, &[NodeId(5), NodeId(2)]).is_none(),
            "unsorted"
        );
        assert!(
            set_mean_hops(&t, &[NodeId(2), NodeId(2)]).is_none(),
            "duplicate"
        );
        assert!(
            set_mean_hops(&t, &[NodeId(0), NodeId(500)]).is_none(),
            "out of range"
        );
        assert_eq!(set_mean_hops(&t, &[NodeId(7)]), Some(0.0), "singleton");
        assert_eq!(set_mean_hops(&t, &[]), Some(0.0), "empty");
    }

    #[test]
    fn set_mean_hops_handles_fugaku_scale_sets() {
        // A 64k-node prefix plus a scattered tail at the full-Fugaku shape:
        // closed form answers in microseconds where the dense walk would
        // route 2×10⁹ pairs.
        let t = TofuD::with_dims(
            [24, 23, 24, 2, 3, 2],
            [true, true, true, false, true, false],
        );
        let nodes: Vec<NodeId> = (0..65_536)
            .chain((100_000..t.nodes()).step_by(97))
            .map(NodeId)
            .collect();
        let mean = set_mean_hops(&t, &nodes).expect("folds");
        let diam = t.diameter() as f64;
        assert!(mean > 0.0 && mean < diam, "mean {mean} within (0, {diam})");
    }
}
