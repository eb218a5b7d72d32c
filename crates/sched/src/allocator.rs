//! Node allocation over the torus.
//!
//! The production [`Allocator`] keeps the free pool as an incremental
//! **run index**: boundary-tag arrays record each maximal eligible-id
//! run's length at its first and last id (malloc-style, so coalescing on
//! release is O(1) per stretch), an eligibility bitmap gives first-fit its
//! id-order walk one 64-id word at a time, and a `(len, start)` index
//! (`RunsByLen`) lets `BestFitContiguous` find the smallest fitting run
//! without rescanning the id space. Free/failed populations are incremental
//! counters (debug-asserted against the scan).
//!
//! Allocations travel as [`NodeRuns`] — the `[start, end)` id runs they
//! are carved from — so allocate, release and compactness cost O(runs
//! touched) per job rather than O(nodes): each run is one slice fill, a
//! few word-wide bitmap masks and one index update or coalesce, and
//! compactness is scored from the run endpoints alone. The `Vec<NodeId>`
//! methods remain as thin adapters over that core. The original
//! scan-based allocator lives on as the differential oracle of the
//! integration tests, which pin the two to *identical node picks* on
//! every policy.

use interconnect::placement::{mean_pairwise_hops, runs_mean_pairwise_hops};
use interconnect::topology::{id_runs, NodeId, NodeRuns, Topology};
use simkit::rng::Pcg32;
use std::collections::BTreeSet;

/// How free nodes are chosen for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Smallest contiguous run of free node ids that fits (node ids are
    /// torus-curve ordered, so contiguity ≈ compactness) — the
    /// topology-aware behaviour of the Fujitsu scheduler.
    BestFitContiguous,
    /// First free nodes in id order, skipping holes (ignores topology).
    FirstFit,
    /// Uniformly random free nodes (fragmented worst case).
    Random,
}

/// The allocator surface the [`crate::Scheduler`] drives. Implemented by
/// the run-indexed [`Allocator`] and by the scan-based oracle of the
/// integration tests, so differential tests can replay one workload
/// through both and demand identical picks and stats.
pub trait NodePool {
    /// The topology nodes are drawn from.
    type Topo: Topology;

    /// The topology.
    fn topology(&self) -> &Self::Topo;

    /// Nodes currently allocatable (free and not failed).
    fn free_count(&self) -> usize;

    /// Nodes still alive (not drained), allocated or free.
    fn alive_count(&self) -> usize;

    /// Drain a node after a hard failure. Returns `true` when the node was
    /// allocated at the time (the scheduler must kill the holding job).
    fn fail_node(&mut self, node: NodeId) -> bool;

    /// Try to allocate `count` nodes; `None` if not enough are eligible.
    fn allocate(&mut self, count: usize) -> Option<NodeRuns>;

    /// Return an allocation's nodes to the free pool.
    fn release(&mut self, nodes: &NodeRuns);

    /// Compactness of an allocation: mean pairwise hop distance.
    fn compactness(&self, nodes: &NodeRuns) -> f64;
}

/// Tracks node occupancy and hands out allocations.
pub struct Allocator<T: Topology> {
    topo: T,
    free: Vec<bool>,
    /// Hard-failed (drained) nodes: never eligible for allocation, even
    /// when free. `free` keeps tracking occupancy independently so a node
    /// that fails mid-job is still released exactly once.
    failed: Vec<bool>,
    policy: AllocationPolicy,
    rng: Pcg32,
    /// Eligibility bitmap: bit `i` set ⟺ `free[i] && !failed[i]`. Gives
    /// first-fit and the random policy their ascending id walks 64 ids per
    /// word, and locates the run containing an interior id without a
    /// search tree.
    words: Vec<u64>,
    /// Bit `w` set ⟺ `words[w] != 0`: lets first-fit hop over fully
    /// allocated stretches 4096 ids per summary word.
    nonzero: Vec<u64>,
    /// Boundary tag: `len_at_start[s]` is the length of the maximal
    /// eligible run starting at `s`, 0 when `s` starts no run.
    len_at_start: Vec<u32>,
    /// Boundary tag: `len_at_end[e]` is the length of the maximal eligible
    /// run whose *last* id is `e`, 0 otherwise. Lets release coalesce with
    /// the left neighbour in O(1).
    len_at_end: Vec<u32>,
    /// The runs keyed `(len, start)`: best-fit takes the first entry
    /// at or above the request, so ties on length resolve to the lowest
    /// start — exactly the oracle's left-to-right scan order.
    by_len: RunsByLen,
    /// Incremental |eligible|, kept in lock-step by allocate/release/fail.
    eligible_count: usize,
    /// Incremental |not failed|.
    alive: usize,
    /// The random policy's eligible-id list, kept between calls so each
    /// draw reuses one buffer instead of allocating a machine-sized one.
    shuffle_buf: Vec<usize>,
}

impl<T: Topology> Allocator<T> {
    /// An empty cluster under a policy.
    pub fn new(topo: T, policy: AllocationPolicy, seed: u64) -> Self {
        let n = topo.nodes();
        let mut words = vec![!0u64; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            *words.last_mut().expect("n >= 1") = (1u64 << (n % 64)) - 1;
        }
        let mut nonzero = vec![!0u64; words.len().div_ceil(64)];
        if !words.len().is_multiple_of(64) {
            *nonzero.last_mut().expect("n >= 1") = (1u64 << (words.len() % 64)) - 1;
        }
        let mut a = Self {
            topo,
            free: vec![true; n],
            failed: vec![false; n],
            policy,
            rng: Pcg32::seeded(seed),
            words,
            nonzero,
            len_at_start: vec![0; n],
            len_at_end: vec![0; n],
            by_len: RunsByLen::new(n),
            eligible_count: n,
            alive: n,
            shuffle_buf: Vec::new(),
        };
        a.insert_run(0, n);
        a
    }

    /// Apply `f(word, mask)` to every bitmap word `[start, end)` covers,
    /// with `mask` selecting the covered bits of that word, and refresh
    /// those words' summary bits.
    fn for_masks(&mut self, start: usize, end: usize, f: impl Fn(&mut u64, u64)) {
        let (ws, we) = (start / 64, (end - 1) / 64);
        let lo = !0u64 << (start % 64);
        let hi = !0u64 >> (63 - (end - 1) % 64);
        if ws == we {
            f(&mut self.words[ws], lo & hi);
        } else {
            f(&mut self.words[ws], lo);
            for w in &mut self.words[ws + 1..we] {
                f(w, !0);
            }
            f(&mut self.words[we], hi);
        }
        for w in ws..=we {
            let bit = 1u64 << (w % 64);
            if self.words[w] != 0 {
                self.nonzero[w / 64] |= bit;
            } else {
                self.nonzero[w / 64] &= !bit;
            }
        }
    }

    /// Set every bit of `[start, end)` with word-wide masks.
    fn set_bits(&mut self, start: usize, end: usize) {
        self.for_masks(start, end, |w, m| *w |= m);
    }

    /// Clear every bit of `[start, end)` with word-wide masks.
    fn clear_bits(&mut self, start: usize, end: usize) {
        self.for_masks(start, end, |w, m| *w &= !m);
    }

    /// First set bit at or after `from`, which by the run invariant is
    /// always a run *start* when `from` sits at or past the previous run's
    /// end. `None` when no eligible id remains. Zero words are skipped 64
    /// at a time through the summary.
    fn next_run_start(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let word = self.words.get(w)? & (!0u64 << (from % 64));
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        let next = w + 1;
        let mut v = next / 64;
        let mut sum = self.nonzero.get(v)? & (!0u64 << (next % 64));
        while sum == 0 {
            v += 1;
            sum = *self.nonzero.get(v)?;
        }
        let w = v * 64 + sum.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// Start of the run containing eligible id `i`: one past the nearest
    /// zero bit below `i`. O(gap/64) bitmap words, no search tree.
    fn run_start_containing(&self, i: usize) -> usize {
        let mut w = i / 64;
        let mut inv = !self.words[w] & ((1u64 << (i % 64)) - 1);
        loop {
            if inv != 0 {
                return w * 64 + 64 - inv.leading_zeros() as usize;
            }
            if w == 0 {
                return 0;
            }
            w -= 1;
            inv = !self.words[w];
        }
    }

    /// Whether a node may be handed out: free and not drained.
    fn eligible(&self, i: usize) -> bool {
        self.free[i] && !self.failed[i]
    }

    /// Nodes currently allocatable (free and not failed). O(1): the count
    /// is maintained incrementally and debug-asserted against the scan.
    pub fn free_count(&self) -> usize {
        debug_assert_eq!(
            self.eligible_count,
            (0..self.free.len()).filter(|&i| self.eligible(i)).count(),
            "incremental eligible counter drifted from the scan"
        );
        self.eligible_count
    }

    /// Drain a node after a hard failure: it immediately stops being
    /// allocatable. Returns `true` when the node was allocated at the time
    /// (the scheduler must kill and requeue whatever job holds it).
    pub fn fail_node(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(i < self.failed.len(), "node out of range");
        if !self.failed[i] {
            self.failed[i] = true;
            self.alive -= 1;
            if self.free[i] {
                self.carve_containing(i, i + 1);
                self.eligible_count -= 1;
            }
        }
        !self.free[i]
    }

    /// Whether a node has been drained by [`Allocator::fail_node`].
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed[node.index()]
    }

    /// Nodes still alive (not drained), allocated or free. O(1).
    pub fn alive_count(&self) -> usize {
        debug_assert_eq!(
            self.alive,
            self.failed.iter().filter(|&&f| !f).count(),
            "incremental alive counter drifted from the scan"
        );
        self.alive
    }

    /// The topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The paper's usability restriction: users cannot pin specific nodes.
    /// Always refused, mirroring CTE-Arm's production configuration.
    pub fn allocate_specific(&mut self, _nodes: &[NodeId]) -> Result<Vec<NodeId>, &'static str> {
        Err("the scheduler does not allow allocating specific nodes")
    }

    /// Try to allocate `count` nodes as id runs; `None` if not enough are
    /// free. Each picked run costs one index update, a word-masked bitmap
    /// clear and one slice fill.
    pub fn allocate_runs(&mut self, count: usize) -> Option<NodeRuns> {
        assert!(count >= 1, "zero-node allocation");
        if self.free_count() < count {
            return None;
        }
        let picked = match self.policy {
            AllocationPolicy::BestFitContiguous => self.best_fit(count),
            AllocationPolicy::FirstFit => self.first_fit(count),
            AllocationPolicy::Random => self.random_fit(count),
        };
        for &(start, end) in picked.runs() {
            let run = &mut self.free[start..end];
            debug_assert!(run.iter().all(|&f| f), "double allocation");
            run.fill(false);
        }
        self.eligible_count -= count;
        Some(picked)
    }

    /// Return an allocation's runs to the free pool: per run one occupancy
    /// check and slice fill, a word-masked bitmap set and one coalesce.
    pub fn release_runs(&mut self, nodes: &NodeRuns) {
        for &(start, end) in nodes.runs() {
            self.release_run(start, end);
        }
    }

    /// Try to allocate `count` nodes; `None` if not enough are free. The
    /// node-list form of [`Allocator::allocate_runs`].
    pub fn allocate(&mut self, count: usize) -> Option<Vec<NodeId>> {
        self.allocate_runs(count).map(|runs| runs.to_vec())
    }

    /// Return an allocation's nodes to the free pool. The node-list form
    /// of [`Allocator::release_runs`]: each maximal stretch of consecutive
    /// ascending ids is released as one run.
    pub fn release(&mut self, nodes: &[NodeId]) {
        for (start, end) in id_runs(nodes) {
            self.release_run(start, end);
        }
    }

    /// Free `[start, end)`. Ids that failed while allocated stay out of the
    /// index; every stretch between them re-enters as one coalesced run —
    /// the same runs a node-by-node release would leave, because the
    /// interior of a released stretch cannot border an existing run.
    fn release_run(&mut self, start: usize, end: usize) {
        let run = &mut self.free[start..end];
        assert!(!run.contains(&true), "releasing a free node");
        run.fill(true);
        if self.alive == self.failed.len() {
            self.make_eligible(start, end);
            return;
        }
        let mut s = start;
        while s < end {
            let e = self.failed[s..end]
                .iter()
                .position(|&f| f)
                .map_or(end, |p| s + p);
            if e > s {
                self.make_eligible(s, e);
            }
            s = e + 1;
        }
    }

    fn make_eligible(&mut self, start: usize, end: usize) {
        self.set_bits(start, end);
        self.coalesce_stretch(start, end);
        self.eligible_count += end - start;
    }

    /// First eligible ids in ascending order, consumed off the front of
    /// each run. Walks run starts through the bitmap, so each consumed run
    /// costs one word-scan hop plus its index updates.
    fn first_fit(&mut self, count: usize) -> NodeRuns {
        let mut picked = NodeRuns::new();
        let mut need = count;
        let mut cursor = 0usize;
        while need > 0 {
            let start = self
                .next_run_start(cursor)
                .expect("free_count admitted an unfillable request");
            let len = self.len_at_start[start] as usize;
            debug_assert!(len > 0, "bitmap walk landed off a run boundary");
            let take = need.min(len);
            self.carve(start, len, start, start + take);
            picked.push(start, start + take);
            need -= take;
            cursor = start + len;
        }
        picked
    }

    /// Smallest free *run* of consecutive ids that fits; falls back to
    /// first-fit when no single run is large enough. One `(len, start)`
    /// index query.
    fn best_fit(&mut self, count: usize) -> NodeRuns {
        let Some((len, start)) = self.by_len.first_at_least(count) else {
            return self.first_fit(count);
        };
        self.carve(start, len, start, start + count);
        let mut picked = NodeRuns::new();
        picked.push(start, start + count);
        picked
    }

    /// Uniformly random eligible nodes. Materializes the same ascending
    /// eligible list and runs the same Fisher–Yates draws as the oracle,
    /// so both the picks and the RNG stream stay stream-identical; the
    /// sorted picks then leave the index one consecutive stretch at a time.
    fn random_fit(&mut self, count: usize) -> NodeRuns {
        let mut free = std::mem::take(&mut self.shuffle_buf);
        free.clear();
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                free.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.rng.shuffle(&mut free);
        free.truncate(count);
        free.sort_unstable();
        let mut picked = NodeRuns::new();
        for &i in &free {
            picked.push(i, i + 1);
        }
        self.shuffle_buf = free;
        for &(start, end) in picked.runs() {
            self.carve_containing(start, end);
        }
        picked
    }

    /// Compactness of an allocation given as runs: mean pairwise hop
    /// distance, scored from the run endpoints where the topology has a
    /// closed form (TofuD) and by the dense walk otherwise.
    pub fn runs_compactness(&self, nodes: &NodeRuns) -> f64
    where
        T: Sync,
    {
        runs_mean_pairwise_hops(&self.topo, nodes)
    }

    /// Compactness of an allocation: mean pairwise hop distance.
    /// (`Sync` because the dense-walk fallback fans out over the rayon
    /// pool; TofuD answers through the closed-form histogram fold.)
    pub fn compactness(&self, nodes: &[NodeId]) -> f64
    where
        T: Sync,
    {
        mean_pairwise_hops(&self.topo, nodes)
    }

    /// Fragmentation of the free pool: 1 − (largest free run / free count).
    /// 0 when all free nodes are one run; → 1 when fully scattered. O(1)
    /// from the run index.
    pub fn fragmentation(&self) -> f64 {
        if self.eligible_count == 0 {
            return 0.0;
        }
        let largest = self.by_len.largest().unwrap_or(0);
        1.0 - largest as f64 / self.eligible_count as f64
    }

    fn insert_run(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        debug_assert_eq!(self.len_at_start[start], 0, "overlapping runs");
        debug_assert_eq!(self.len_at_end[start + len - 1], 0, "overlapping runs");
        self.len_at_start[start] = len as u32;
        self.len_at_end[start + len - 1] = len as u32;
        self.by_len.insert(len, start);
    }

    fn remove_run(&mut self, start: usize, len: usize) {
        debug_assert_eq!(
            self.len_at_start[start] as usize, len,
            "run index out of sync"
        );
        self.len_at_start[start] = 0;
        self.len_at_end[start + len - 1] = 0;
        let was_present = self.by_len.remove(len, start);
        debug_assert!(was_present, "length index out of sync");
    }

    /// Take `[a, b)` out of the eligible run `[start, start + len)` that
    /// contains it, leaving the pieces on either side as runs, and clear
    /// its bitmap bits. O(log n) index updates plus O(len/64) masks.
    fn carve(&mut self, start: usize, len: usize, a: usize, b: usize) {
        debug_assert!(
            start <= a && a < b && b <= start + len,
            "carve outside its run"
        );
        self.remove_run(start, len);
        self.insert_run(start, a - start);
        self.insert_run(b, start + len - b);
        self.clear_bits(a, b);
    }

    /// [`Allocator::carve`] for an eligible stretch `[a, b)` whose run is
    /// located through the bitmap. Repeated carves (the random policy,
    /// failure drains) stay consistent because each clears its own bits.
    fn carve_containing(&mut self, a: usize, b: usize) {
        let start = self.run_start_containing(a);
        let len = self.len_at_start[start] as usize;
        debug_assert!(len > 0 && b <= start + len, "stretch missing from its run");
        self.carve(start, len, a, b);
    }

    /// Add the stretch `[start, end)` back, coalescing with the runs
    /// bordering it on either side — O(1) via the boundary tags.
    fn coalesce_stretch(&mut self, mut start: usize, end: usize) {
        let mut len = end - start;
        if start > 0 {
            let l = self.len_at_end[start - 1] as usize;
            if l > 0 {
                self.remove_run(start - l, l);
                start -= l;
                len += l;
            }
        }
        if end < self.len_at_start.len() {
            let r = self.len_at_start[end] as usize;
            if r > 0 {
                self.remove_run(end, r);
                len += r;
            }
        }
        self.insert_run(start, len);
    }
}

/// Runs of up to this many ids are indexed by bitmaps, longer ones by an
/// ordered set. In a fragmented full-Fugaku pool over nine in ten run
/// insertions and removals are below it.
const SHORT_RUN: usize = 64;

/// The free runs keyed `(len, start)`, answering best-fit's query: the
/// shortest run of at least `count` ids, lowest start among equals. Each
/// short length owns a start bitmap with a one-bit-per-word summary, so
/// inserting or removing a short run flips two bits at most and the
/// lowest start of a length is two `trailing_zeros` away after a summary
/// scan of `n / 4096` words. Long runs keep the `BTreeSet` with its
/// O(log R) updates. Every short length sorts below every long one, so
/// the combined order is exactly the single set's `(len, start)` order.
struct RunsByLen {
    /// Bitmap words per short length (`n / 64`, rounded up).
    words: usize,
    /// Summary words per short length (`words / 64`, rounded up).
    summary_words: usize,
    /// `starts[(len − 1) · words + w]` bit `b`: a run of `len` ids starts at
    /// `64 · w + b`.
    starts: Vec<u64>,
    /// `summary[(len − 1) · summary_words + v]` bit `b`: the starts word
    /// `64 · v + b` of `len` is non-zero.
    summary: Vec<u64>,
    /// Runs per short length.
    count: [u32; SHORT_RUN],
    /// Bit `len − 1` set ⟺ some run of `len` ids exists.
    present: u64,
    /// Runs longer than [`SHORT_RUN`].
    long: BTreeSet<(usize, usize)>,
}

impl RunsByLen {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        let summary_words = words.div_ceil(64);
        Self {
            words,
            summary_words,
            starts: vec![0; SHORT_RUN * words],
            summary: vec![0; SHORT_RUN * summary_words],
            count: [0; SHORT_RUN],
            present: 0,
            long: BTreeSet::new(),
        }
    }

    fn insert(&mut self, len: usize, start: usize) {
        if len > SHORT_RUN {
            self.long.insert((len, start));
            return;
        }
        let w = (len - 1) * self.words + start / 64;
        self.starts[w] |= 1 << (start % 64);
        let v = (len - 1) * self.summary_words + start / 4096;
        self.summary[v] |= 1 << (start / 64 % 64);
        self.count[len - 1] += 1;
        self.present |= 1 << (len - 1);
    }

    /// Remove a run; `false` when it was not indexed.
    fn remove(&mut self, len: usize, start: usize) -> bool {
        if len > SHORT_RUN {
            return self.long.remove(&(len, start));
        }
        let w = (len - 1) * self.words + start / 64;
        let bit = 1 << (start % 64);
        if self.starts[w] & bit == 0 {
            return false;
        }
        self.starts[w] &= !bit;
        if self.starts[w] == 0 {
            let v = (len - 1) * self.summary_words + start / 4096;
            self.summary[v] &= !(1 << (start / 64 % 64));
        }
        self.count[len - 1] -= 1;
        if self.count[len - 1] == 0 {
            self.present &= !(1 << (len - 1));
        }
        true
    }

    /// The first `(len, start)` with `len ≥ count`.
    fn first_at_least(&self, count: usize) -> Option<(usize, usize)> {
        if count <= SHORT_RUN {
            let fitting = self.present & (!0u64 << (count - 1));
            if fitting != 0 {
                let len = fitting.trailing_zeros() as usize + 1;
                return Some((len, self.lowest_start(len)));
            }
        }
        self.long
            .range((count.max(SHORT_RUN + 1), 0)..)
            .next()
            .copied()
    }

    /// Lowest start among the runs of short length `len` (which exist).
    fn lowest_start(&self, len: usize) -> usize {
        let base = (len - 1) * self.summary_words;
        let (v, sum) = self.summary[base..base + self.summary_words]
            .iter()
            .enumerate()
            .find(|&(_, &sum)| sum != 0)
            .expect("a present length has a start");
        let w = v * 64 + sum.trailing_zeros() as usize;
        let word = self.starts[(len - 1) * self.words + w];
        w * 64 + word.trailing_zeros() as usize
    }

    /// Length of the longest run, if any.
    fn largest(&self) -> Option<usize> {
        match self.long.last() {
            Some(&(len, _)) => Some(len),
            None if self.present != 0 => Some(64 - self.present.leading_zeros() as usize),
            None => None,
        }
    }
}

impl<T: Topology + Sync> NodePool for Allocator<T> {
    type Topo = T;

    fn topology(&self) -> &T {
        Allocator::topology(self)
    }

    fn free_count(&self) -> usize {
        Allocator::free_count(self)
    }

    fn alive_count(&self) -> usize {
        Allocator::alive_count(self)
    }

    fn fail_node(&mut self, node: NodeId) -> bool {
        Allocator::fail_node(self, node)
    }

    fn allocate(&mut self, count: usize) -> Option<NodeRuns> {
        Allocator::allocate_runs(self, count)
    }

    fn release(&mut self, nodes: &NodeRuns) {
        Allocator::release_runs(self, nodes)
    }

    fn compactness(&self, nodes: &NodeRuns) -> f64 {
        Allocator::runs_compactness(self, nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interconnect::tofu::TofuD;

    fn alloc(policy: AllocationPolicy) -> Allocator<TofuD> {
        Allocator::new(TofuD::cte_arm(), policy, 42)
    }

    #[test]
    fn empty_cluster_is_all_free() {
        let a = alloc(AllocationPolicy::BestFitContiguous);
        assert_eq!(a.free_count(), 192);
        assert_eq!(a.fragmentation(), 0.0);
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        let nodes = a.allocate(48).expect("fits");
        assert_eq!(nodes.len(), 48);
        assert_eq!(a.free_count(), 144);
        a.release(&nodes);
        assert_eq!(a.free_count(), 192);
    }

    #[test]
    fn over_allocation_returns_none() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        assert!(a.allocate(193).is_none());
        let _ = a.allocate(100).unwrap();
        assert!(a.allocate(93).is_none());
        assert!(a.allocate(92).is_some());
    }

    #[test]
    fn specific_node_requests_are_refused() {
        // The paper's Section-VI complaint, as behaviour.
        let mut a = alloc(AllocationPolicy::BestFitContiguous);
        let err = a.allocate_specific(&[NodeId(0), NodeId(5)]).unwrap_err();
        assert!(err.contains("does not allow"));
    }

    #[test]
    fn best_fit_prefers_the_smallest_hole() {
        let mut a = alloc(AllocationPolicy::BestFitContiguous);
        // Carve the cluster into a 12-node hole and a large tail:
        // allocate 0..50, free 20..32 (12-node hole).
        let first: Vec<NodeId> = a.allocate(50).unwrap();
        let hole: Vec<NodeId> = (20..32).map(NodeId).collect();
        a.release(&hole);
        let _ = first;
        // A 12-node job should land exactly in the hole, not the tail.
        let got = a.allocate(12).unwrap();
        assert_eq!(got, hole, "best fit picks the snug hole");
    }

    #[test]
    fn best_fit_breaks_length_ties_towards_low_ids() {
        let mut a = alloc(AllocationPolicy::BestFitContiguous);
        let all = a.allocate(192).unwrap();
        // Two equal 8-node holes at 40 and 120: the lower one must win,
        // like the oracle's left-to-right scan.
        a.release(&all[40..48]);
        a.release(&all[120..128]);
        let got = a.allocate(8).unwrap();
        assert_eq!(got[0], NodeId(40), "tie resolves to the lowest start");
    }

    #[test]
    fn release_coalesces_adjacent_runs() {
        let mut a = alloc(AllocationPolicy::BestFitContiguous);
        let all = a.allocate(192).unwrap();
        // Release three touching fragments out of order; they must fuse
        // into one 30-node run a single 30-node job can take.
        a.release(&all[10..20]);
        a.release(&all[30..40]);
        a.release(&all[20..30]);
        assert_eq!(a.free_count(), 30);
        assert_eq!(a.fragmentation(), 0.0, "one fused run");
        let got = a.allocate(30).unwrap();
        assert_eq!(got, (10..40).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn first_fit_runs_hop_over_allocated_stretches() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        let all = a.allocate_runs(192).expect("fits");
        assert_eq!(all.runs(), &[(0, 192)]);
        let mut holes = NodeRuns::new();
        for (s, e) in [(3, 5), (70, 75), (150, 190)] {
            holes.push(s, e);
        }
        a.release_runs(&holes);
        let got = a.allocate_runs(10).expect("fits");
        assert_eq!(got.runs(), &[(3, 5), (70, 75), (150, 153)]);
        assert_eq!(a.compactness(&got.to_vec()), a.runs_compactness(&got));
        assert_eq!(a.free_count(), 37);
        a.release_runs(&got);
        a.release_runs(&{
            let mut rest = NodeRuns::new();
            for (s, e) in [(0, 3), (5, 70), (75, 150), (190, 192)] {
                rest.push(s, e);
            }
            rest
        });
        assert_eq!(a.free_count(), 192);
        assert_eq!(a.fragmentation(), 0.0, "everything coalesced");
    }

    #[test]
    fn best_fit_orders_short_runs_below_long_ones() {
        // A 65-id hole (indexed as a long run) and a 64-id hole (the
        // longest short run): requests up to 64 take the short hole, 65
        // takes the long one.
        let mut a = alloc(AllocationPolicy::BestFitContiguous);
        let all = a.allocate(192).unwrap();
        a.release(&all[0..65]);
        a.release(&all[100..164]);
        assert_eq!(a.fragmentation(), 1.0 - 65.0 / 129.0);
        assert_eq!(a.allocate_runs(60).unwrap().runs(), &[(100, 160)]);
        assert_eq!(a.allocate_runs(65).unwrap().runs(), &[(0, 65)]);
        assert_eq!(a.allocate_runs(4).unwrap().runs(), &[(160, 164)]);
        assert_eq!(a.free_count(), 0);
        assert_eq!(a.fragmentation(), 0.0);
    }

    #[test]
    fn contiguous_beats_random_on_compactness() {
        let mut c = alloc(AllocationPolicy::BestFitContiguous);
        let mut r = alloc(AllocationPolicy::Random);
        let nc = c.allocate(24).unwrap();
        let nr = r.allocate(24).unwrap();
        assert!(c.compactness(&nc) < r.compactness(&nr));
    }

    #[test]
    fn fragmentation_rises_with_scattered_frees() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        let all = a.allocate(192).unwrap();
        // Free every third node: heavily fragmented pool.
        let scattered: Vec<NodeId> = all.iter().copied().step_by(3).collect();
        a.release(&scattered);
        assert!(a.fragmentation() > 0.9, "frag {}", a.fragmentation());
    }

    #[test]
    fn failed_nodes_are_drained_from_every_policy() {
        for policy in [
            AllocationPolicy::BestFitContiguous,
            AllocationPolicy::FirstFit,
            AllocationPolicy::Random,
        ] {
            let mut a = alloc(policy);
            assert!(!a.fail_node(NodeId(0)), "free node: no kill needed");
            assert!(a.is_failed(NodeId(0)));
            assert_eq!(a.free_count(), 191);
            assert_eq!(a.alive_count(), 191);
            let got = a.allocate(191).expect("all live nodes fit");
            assert!(
                !got.contains(&NodeId(0)),
                "{policy:?} must never hand out a failed node"
            );
            assert!(a.allocate(1).is_none(), "only the dead node remains");
        }
    }

    #[test]
    fn failing_an_allocated_node_reports_the_kill() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        let nodes = a.allocate(4).expect("fits");
        assert!(a.fail_node(nodes[2]), "node was allocated: job must die");
        // The release path still works once, and the node stays drained.
        a.release(&nodes);
        assert_eq!(a.free_count(), 191);
        assert_eq!(a.alive_count(), 191);
    }

    #[test]
    fn double_fail_keeps_counters_stable() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        assert!(!a.fail_node(NodeId(9)));
        assert!(!a.fail_node(NodeId(9)), "idempotent drain");
        assert_eq!(a.free_count(), 191);
        assert_eq!(a.alive_count(), 191);
    }

    #[test]
    fn fragmentation_ignores_failed_nodes() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        // One dead node in the middle splits the free run, but the metric
        // tracks *allocatable* space.
        let _ = a.fail_node(NodeId(96));
        assert!(a.fragmentation() > 0.0, "dead node splits the run");
        assert_eq!(a.free_count(), 191);
    }

    #[test]
    #[should_panic(expected = "releasing a free node")]
    fn double_release_detected() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        let nodes = a.allocate(4).unwrap();
        a.release(&nodes);
        a.release(&nodes);
    }
}
