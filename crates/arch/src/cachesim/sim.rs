//! The deterministic set-associative cache simulator.
//!
//! Determinism contract: the simulator is a pure sequential function of
//! `(HierarchyConfig, Trace)`. It allocates arrays at fixed line-aligned
//! base addresses, uses true-LRU replacement driven by a monotonic access
//! tick, and touches no global state — so results are bit-identical across
//! runs, thread counts, and platforms.
//!
//! Modelling notes:
//!
//! * Accesses are line-granular: a per-site "last line" memo collapses the
//!   spatial locality inside one cache line, so only line transitions
//!   probe the hierarchy (the classic spatial-locality register of
//!   sampling simulators).
//! * Fills are mostly-inclusive: a demand miss installs the line at every
//!   level it traversed. Dirty victims write back one level outward,
//!   allocating there without a fetch (a full line is being supplied).
//! * Store sites whose innermost stride equals the element size are
//!   *streaming stores* (`-Kzfill` / `DC ZVA` full-line allocates): a miss
//!   allocates the line dirty without fetching it, which is what removes
//!   the read-for-ownership traffic from STREAM-style kernels.
//! * A next-line prefetcher (innermost level) watches each site for
//!   ascending line streams and pulls `degree` lines ahead, clamped to
//!   the array's address range.
//! * At the end of a run all dirty lines are flushed outward so DRAM
//!   write counts equal steady-state traffic for streaming kernels.

use super::config::HierarchyConfig;
use super::trace::{Node, Trace};

/// Hit/miss/traffic counters of one cache level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Level name copied from the configuration.
    pub name: String,
    /// Line-granular lookups (demand only; writebacks and prefetches are
    /// counted separately so `hits + misses == accesses` always holds).
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines installed on demand misses.
    pub demand_fills: u64,
    /// Lines installed by the prefetcher.
    pub prefetch_fills: u64,
    /// Lines allocated by streaming stores without a fetch.
    pub zfill_allocs: u64,
    /// Dirty lines evicted (or flushed) to the next level.
    pub writebacks: u64,
    /// Fills broken down by sector tag.
    pub sector_fills: [u64; 2],
}

impl LevelStats {
    /// Demand hit rate in `[0, 1]` (1 when the level was never probed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Outcome of simulating one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Trace name.
    pub trace: String,
    /// Hierarchy configuration name.
    pub config: String,
    /// Shared line size in bytes.
    pub line_bytes: u64,
    /// Per-level counters, innermost first.
    pub levels: Vec<LevelStats>,
    /// Lines read from DRAM.
    pub dram_read_lines: u64,
    /// Lines written to DRAM (includes the end-of-run dirty flush).
    pub dram_write_lines: u64,
    /// Element-granular analytic byte count of the trace.
    pub nominal_bytes: u64,
    /// Line-transition probes issued by the core side.
    pub probes: u64,
}

impl SimResult {
    /// Bytes read from DRAM.
    pub fn dram_read_bytes(&self) -> u64 {
        self.dram_read_lines * self.line_bytes
    }

    /// Bytes written to DRAM.
    pub fn dram_write_bytes(&self) -> u64 {
        self.dram_write_lines * self.line_bytes
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes() + self.dram_write_bytes()
    }

    /// Counters of the level called `name`, if present.
    pub fn level(&self, name: &str) -> Option<&LevelStats> {
        self.levels.iter().find(|l| l.name == name)
    }

    /// Bytes a level pulled from the level below it (fills of every kind
    /// except zfill allocates, which synthesize the line core-side).
    pub fn fill_bytes(&self, level: usize) -> u64 {
        let l = &self.levels[level];
        (l.demand_fills + l.prefetch_fills) * self.line_bytes
    }

    /// Bytes a level pushed outward as writebacks.
    pub fn writeback_bytes(&self, level: usize) -> u64 {
        self.levels[level].writebacks * self.line_bytes
    }
}

/// One cache line slot.
#[derive(Clone, Copy, Default)]
struct Slot {
    tag: u64,
    valid: bool,
    dirty: bool,
    sector: u8,
    stamp: u64,
}

/// Compiled access site (flattened from the trace for site-id stability).
struct Site {
    array: usize,
    write: bool,
    base: i64,
    coefs: Vec<i64>,
    /// Streaming store: unit innermost stride ⇒ full-line allocate on miss.
    zfill: bool,
}

enum PNode {
    Loop {
        trips: u64,
        warmup_sample: Option<(u64, u64)>,
        body: Vec<PNode>,
    },
    Site(usize),
}

/// The simulator. Construct once per configuration, run many traces.
pub struct CacheSim {
    cfg: HierarchyConfig,
}

impl CacheSim {
    /// Build a simulator for `cfg` (panics if the configuration is
    /// structurally invalid).
    pub fn new(cfg: HierarchyConfig) -> Self {
        cfg.validate();
        Self { cfg }
    }

    /// Simulate `trace` (panics if the trace fails validation).
    pub fn run(&self, trace: &Trace) -> SimResult {
        if let Err(e) = trace.validate() {
            panic!("invalid trace: {e}");
        }
        let line_bytes = self.cfg.line_bytes();
        let line_shift = line_bytes.trailing_zeros();

        // Fixed line-aligned array bases with a skewed pad between arrays
        // so distinct arrays never share a line and do not start in
        // lock-step sets.
        let mut bases = Vec::with_capacity(trace.arrays.len());
        let mut next = line_bytes; // keep address 0 unused
        for (i, a) in trace.arrays.iter().enumerate() {
            bases.push(next);
            let padded = a.bytes.div_ceil(line_bytes) * line_bytes;
            next += padded + line_bytes * (7 * i as u64 + 3);
        }
        let array_last_line: Vec<u64> = trace
            .arrays
            .iter()
            .zip(&bases)
            .map(|(a, &b)| (b + a.bytes - 1) >> line_shift)
            .collect();
        let array_sector: Vec<u8> = trace.arrays.iter().map(|a| a.sector).collect();

        // Compile the body into site-id form.
        let mut sites = Vec::new();
        let program = compile(&trace.body, &mut sites);

        let mut r = Runner {
            cfg: &self.cfg,
            line_shift,
            slots: self
                .cfg
                .levels
                .iter()
                .map(|l| vec![Slot::default(); (l.sets * l.ways as u64) as usize])
                .collect(),
            stats: self
                .cfg
                .levels
                .iter()
                .map(|l| LevelStats {
                    name: l.name.clone(),
                    ..LevelStats::default()
                })
                .collect(),
            dram_read_lines: 0,
            dram_write_lines: 0,
            probes: 0,
            tick: 0,
            site_prev_line: vec![u64::MAX; sites.len()],
            sites,
            bases,
            array_last_line,
            array_sector,
            idx: Vec::new(),
        };
        r.exec(&program);
        r.flush();

        SimResult {
            trace: trace.name.clone(),
            config: self.cfg.name.clone(),
            line_bytes,
            levels: r.stats,
            dram_read_lines: r.dram_read_lines,
            dram_write_lines: r.dram_write_lines,
            nominal_bytes: trace.nominal_bytes(),
            probes: r.probes,
        }
    }
}

fn compile(nodes: &[Node], sites: &mut Vec<Site>) -> Vec<PNode> {
    nodes
        .iter()
        .map(|n| match n {
            Node::Loop(lp) => PNode::Loop {
                trips: lp.trips,
                warmup_sample: lp.window.map(|w| (w.warmup, w.sample)),
                body: compile(&lp.body, sites),
            },
            Node::Access(a) => {
                let zfill = a.write
                    && a.coefs
                        .last()
                        .is_some_and(|&c| c.unsigned_abs() == a.elem_bytes as u64);
                sites.push(Site {
                    array: a.array,
                    write: a.write,
                    base: a.base,
                    coefs: a.coefs.clone(),
                    zfill,
                });
                PNode::Site(sites.len() - 1)
            }
        })
        .collect()
}

struct Runner<'a> {
    cfg: &'a HierarchyConfig,
    line_shift: u32,
    slots: Vec<Vec<Slot>>,
    stats: Vec<LevelStats>,
    dram_read_lines: u64,
    dram_write_lines: u64,
    probes: u64,
    tick: u64,
    site_prev_line: Vec<u64>,
    sites: Vec<Site>,
    bases: Vec<u64>,
    array_last_line: Vec<u64>,
    array_sector: Vec<u8>,
    idx: Vec<u64>,
}

impl Runner<'_> {
    fn exec(&mut self, nodes: &[PNode]) {
        for n in nodes {
            match n {
                PNode::Site(s) => self.touch(*s),
                PNode::Loop {
                    trips,
                    warmup_sample,
                    body,
                } => {
                    self.idx.push(0);
                    match *warmup_sample {
                        None => {
                            for i in 0..*trips {
                                *self.idx.last_mut().unwrap() = i;
                                self.exec(body);
                            }
                        }
                        Some((warmup, sample)) => {
                            for i in 0..warmup {
                                *self.idx.last_mut().unwrap() = i;
                                self.exec(body);
                            }
                            let before = self.counters();
                            for i in warmup..warmup + sample {
                                *self.idx.last_mut().unwrap() = i;
                                self.exec(body);
                            }
                            // Scale the sampled steady-state deltas over
                            // the skipped trips; validation guarantees the
                            // factor is an exact integer.
                            let factor = (*trips - warmup - sample) / sample;
                            let after = self.counters();
                            self.add_scaled(&before, &after, factor);
                        }
                    }
                    self.idx.pop();
                }
            }
        }
    }

    /// All extrapolatable counters, in a fixed order.
    fn counters(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.stats.len() * 9 + 3);
        for s in &self.stats {
            v.extend_from_slice(&[
                s.accesses,
                s.hits,
                s.misses,
                s.demand_fills,
                s.prefetch_fills,
                s.zfill_allocs,
                s.writebacks,
                s.sector_fills[0],
                s.sector_fills[1],
            ]);
        }
        v.extend_from_slice(&[self.dram_read_lines, self.dram_write_lines, self.probes]);
        v
    }

    fn add_scaled(&mut self, before: &[u64], after: &[u64], factor: u64) {
        let mut it = before.iter().zip(after).map(|(b, a)| (a - b) * factor);
        for s in &mut self.stats {
            s.accesses += it.next().unwrap();
            s.hits += it.next().unwrap();
            s.misses += it.next().unwrap();
            s.demand_fills += it.next().unwrap();
            s.prefetch_fills += it.next().unwrap();
            s.zfill_allocs += it.next().unwrap();
            s.writebacks += it.next().unwrap();
            s.sector_fills[0] += it.next().unwrap();
            s.sector_fills[1] += it.next().unwrap();
        }
        self.dram_read_lines += it.next().unwrap();
        self.dram_write_lines += it.next().unwrap();
        self.probes += it.next().unwrap();
    }

    fn touch(&mut self, site: usize) {
        let s = &self.sites[site];
        let mut addr = self.bases[s.array] as i64 + s.base;
        for (d, &c) in s.coefs.iter().enumerate() {
            addr += c * self.idx[d] as i64;
        }
        let line = (addr as u64) >> self.line_shift;
        let prev = self.site_prev_line[site];
        if line == prev {
            return; // same line as this site's previous touch
        }
        self.site_prev_line[site] = line;
        self.probes += 1;
        let sector = self.array_sector[s.array];
        let (write, zfill, array) = (s.write, s.zfill, s.array);

        self.stats[0].accesses += 1;
        if self.lookup(0, line) {
            self.stats[0].hits += 1;
            if write {
                self.mark_dirty(0, line);
            }
            return;
        }
        self.stats[0].misses += 1;
        if write && zfill && self.cfg.levels[0].write_allocate {
            self.stats[0].zfill_allocs += 1;
            self.insert(0, line, sector, true);
            return;
        }
        if write && !self.cfg.levels[0].write_allocate {
            // Write-through/no-allocate: the store goes straight outward.
            self.write_outward(1, line, sector);
            return;
        }
        self.fetch(1, line, sector);
        self.stats[0].demand_fills += 1;
        self.insert(0, line, sector, write);

        // Next-line prefetch on a detected ascending stream.
        if let Some(pf) = self.cfg.levels[0].prefetch {
            if prev != u64::MAX && line == prev + 1 {
                let last = self.array_last_line[array];
                for d in 1..=pf.degree as u64 {
                    let pline = line + d;
                    if pline > last {
                        break;
                    }
                    if !self.lookup(0, pline) {
                        self.fetch(1, pline, sector);
                        self.stats[0].prefetch_fills += 1;
                        self.insert(0, pline, sector, false);
                    }
                }
            }
        }
    }

    /// Demand-fetch `line` into every level from `lvl` outward.
    fn fetch(&mut self, lvl: usize, line: u64, sector: u8) {
        if lvl == self.cfg.levels.len() {
            self.dram_read_lines += 1;
            return;
        }
        self.stats[lvl].accesses += 1;
        if self.lookup(lvl, line) {
            self.stats[lvl].hits += 1;
            return;
        }
        self.stats[lvl].misses += 1;
        self.fetch(lvl + 1, line, sector);
        self.stats[lvl].demand_fills += 1;
        self.insert(lvl, line, sector, false);
    }

    /// Deliver a full dirty line at `lvl` (writeback from the level
    /// below); allocates without fetching when absent.
    fn write_outward(&mut self, lvl: usize, line: u64, sector: u8) {
        if lvl == self.cfg.levels.len() {
            self.dram_write_lines += 1;
            return;
        }
        if self.lookup(lvl, line) {
            self.mark_dirty(lvl, line);
            return;
        }
        self.insert(lvl, line, sector, true);
    }

    fn set_range(&self, lvl: usize, line: u64) -> (usize, usize) {
        let l = &self.cfg.levels[lvl];
        let set = l
            .hash
            .set_of(line << self.line_shift, self.line_shift, l.sets);
        let start = (set * l.ways as u64) as usize;
        (start, start + l.ways as usize)
    }

    /// Probe for `line`; on hit, refresh its LRU stamp.
    fn lookup(&mut self, lvl: usize, line: u64) -> bool {
        let (start, end) = self.set_range(lvl, line);
        self.tick += 1;
        for slot in &mut self.slots[lvl][start..end] {
            if slot.valid && slot.tag == line {
                slot.stamp = self.tick;
                return true;
            }
        }
        false
    }

    fn mark_dirty(&mut self, lvl: usize, line: u64) {
        let (start, end) = self.set_range(lvl, line);
        for slot in &mut self.slots[lvl][start..end] {
            if slot.valid && slot.tag == line {
                slot.dirty = true;
                return;
            }
        }
    }

    /// Install `line`, evicting the LRU slot of its sector partition.
    fn insert(&mut self, lvl: usize, line: u64, sector: u8, dirty: bool) {
        let (start, end) = self.set_range(lvl, line);
        let l = &self.cfg.levels[lvl];
        // Sector partitioning restricts the victim choice to the sector's
        // ways; unpartitioned caches use the whole set.
        let (w0, w1) = match l.sector {
            Some(s) if sector == 0 => (0, s.ways[0] as usize),
            Some(s) => (s.ways[0] as usize, (s.ways[0] + s.ways[1]) as usize),
            None => (0, l.ways as usize),
        };
        let slots = &mut self.slots[lvl][start..end];
        let mut victim = w0;
        let mut best = u64::MAX;
        for (i, slot) in slots.iter().enumerate().take(w1).skip(w0) {
            if !slot.valid {
                victim = i;
                break;
            }
            if slot.stamp < best {
                best = slot.stamp;
                victim = i;
            }
        }
        let evicted = slots[victim];
        self.tick += 1;
        slots[victim] = Slot {
            tag: line,
            valid: true,
            dirty,
            sector,
            stamp: self.tick,
        };
        self.stats[lvl].sector_fills[sector.min(1) as usize] += 1;
        if evicted.valid && evicted.dirty {
            self.stats[lvl].writebacks += 1;
            self.write_outward(lvl + 1, evicted.tag, evicted.sector);
        }
    }

    /// Flush every dirty line outward so DRAM writes reflect steady-state
    /// traffic. Levels are drained innermost-first in slot order, which is
    /// deterministic by construction.
    fn flush(&mut self) {
        for lvl in 0..self.cfg.levels.len() {
            for i in 0..self.slots[lvl].len() {
                let slot = self.slots[lvl][i];
                if !slot.valid || !slot.dirty {
                    continue;
                }
                self.slots[lvl][i].dirty = false;
                self.stats[lvl].writebacks += 1;
                // Mark dirty in the nearest outer level holding the line,
                // else count a DRAM write directly.
                let mut placed = false;
                for outer in lvl + 1..self.cfg.levels.len() {
                    if self.lookup(outer, slot.tag) {
                        self.mark_dirty(outer, slot.tag);
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    self.dram_write_lines += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::config::HierarchyConfig;
    use super::super::trace::TraceBuilder;
    use super::*;

    fn triad(n: u64) -> crate::cachesim::Trace {
        let mut t = TraceBuilder::new("triad");
        let a = t.array("a", 8 * n);
        let b = t.array("b", 8 * n);
        let c = t.array("c", 8 * n);
        t.open(n);
        t.read(b, 0, &[8]);
        t.read(c, 0, &[8]);
        t.write(a, 0, &[8]);
        t.close();
        t.build()
    }

    #[test]
    fn streaming_triad_matches_stream_counting_exactly() {
        // 2^18 elements/array = 2 MiB streams ≫ the 64 KiB L1 but the
        // point is exactness: reads 16n, writes 8n, total 24n.
        let n = 1u64 << 18;
        let r = CacheSim::new(HierarchyConfig::a64fx_core()).run(&triad(n));
        assert_eq!(r.dram_read_bytes(), 16 * n);
        assert_eq!(r.dram_write_bytes(), 8 * n);
        assert_eq!(r.dram_bytes(), r.nominal_bytes);
    }

    #[test]
    fn window_extrapolation_is_exact_for_streams() {
        // Prefetcher off: its look-ahead phase at the window edges is the
        // one source of (bounded, few-line) extrapolation noise.
        let mut cfg = HierarchyConfig::a64fx_core();
        cfg.levels[0].prefetch = None;
        let n = 1u64 << 18;
        let full = CacheSim::new(cfg.clone()).run(&triad(n));
        let mut t = TraceBuilder::new("triad");
        let a = t.array("a", 8 * n);
        let b = t.array("b", 8 * n);
        let c = t.array("c", 8 * n);
        // Warmup must stream more than the whole hierarchy's capacity so
        // the sampled window sees eviction steady state: 2^16 elements ×
        // 3 arrays = 6144 lines > the 3584-line L2 slice.
        t.open_windowed(n, 1 << 16, 1 << 14);
        t.read(b, 0, &[8]);
        t.read(c, 0, &[8]);
        t.write(a, 0, &[8]);
        t.close();
        let windowed = CacheSim::new(cfg).run(&t.build());
        assert_eq!(windowed.dram_read_lines, full.dram_read_lines);
        assert_eq!(windowed.dram_write_lines, full.dram_write_lines);
        for (w, f) in windowed.levels.iter().zip(&full.levels) {
            assert_eq!(w.accesses, f.accesses);
            assert_eq!(w.hits + w.misses, w.accesses);
        }
    }

    #[test]
    fn resident_working_set_stops_missing() {
        // 16 KiB array re-read 8 times fits L1: misses only on pass 1.
        let n = 2048u64;
        let mut t = TraceBuilder::new("resident");
        let x = t.array("x", 8 * n);
        t.open(8);
        t.open(n);
        t.read(x, 0, &[0, 8]);
        t.close();
        t.close();
        let r = CacheSim::new(HierarchyConfig::a64fx_core()).run(&t.build());
        assert_eq!(r.dram_read_bytes(), 8 * n);
        assert_eq!(r.dram_write_bytes(), 0);
        let l1 = r.level("L1d").unwrap();
        // Every line enters L1 exactly once (demand or prefetch) on the
        // first pass; the other 7 passes hit.
        assert_eq!(l1.demand_fills + l1.prefetch_fills, n * 8 / 256);
        assert!(l1.hits >= 7 * (n * 8 / 256));
    }

    #[test]
    fn rmw_costs_a_read_and_a_write() {
        // y[i] += 1 style: read site then write site on the same line ⇒
        // one DRAM read + one DRAM write per line.
        let n = 1u64 << 16;
        let mut t = TraceBuilder::new("rmw");
        let y = t.array("y", 8 * n);
        t.open(n);
        t.read(y, 0, &[8]);
        t.write(y, 0, &[8]);
        t.close();
        let r = CacheSim::new(HierarchyConfig::a64fx_core()).run(&t.build());
        assert_eq!(r.dram_read_bytes(), 8 * n);
        assert_eq!(r.dram_write_bytes(), 8 * n);
    }

    #[test]
    fn non_streaming_store_pays_rfo() {
        // A strided store (every 2nd line skipped? stride 2 elements) is
        // not a zfill site: each missed line is fetched before dirtying.
        let n = 1u64 << 14;
        let mut t = TraceBuilder::new("strided-store");
        let y = t.array("y", 16 * n);
        t.open(n);
        t.access(y, true, false, 0, &[16], 8);
        t.close();
        let r = CacheSim::new(HierarchyConfig::a64fx_core()).run(&t.build());
        // Every line is read (RFO) and written back.
        assert_eq!(r.dram_read_bytes(), 16 * n);
        assert_eq!(r.dram_write_bytes(), 16 * n);
    }

    #[test]
    fn prefetch_never_reads_past_the_array() {
        let n = 96u64; // 3 lines of f64
        let mut t = TraceBuilder::new("tiny");
        let x = t.array("x", 8 * n);
        t.open(n);
        t.read(x, 0, &[8]);
        t.close();
        let r = CacheSim::new(HierarchyConfig::a64fx_core()).run(&t.build());
        assert_eq!(r.dram_read_bytes(), 8 * n);
    }

    #[test]
    fn determinism_bit_identical_across_runs() {
        let t = triad(1 << 16);
        let sim = CacheSim::new(HierarchyConfig::a64fx_core());
        assert_eq!(sim.run(&t), sim.run(&t));
    }

    #[test]
    fn sector_partition_conserves_traffic_on_streams() {
        let n = 1u64 << 16;
        let plain = CacheSim::new(HierarchyConfig::a64fx_core()).run(&triad(n));
        let mut t = TraceBuilder::new("triad");
        let a = t.array_in_sector("a", 8 * n, 1);
        let b = t.array("b", 8 * n);
        let c = t.array_in_sector("c", 8 * n, 1);
        t.open(n);
        t.read(b, 0, &[8]);
        t.read(c, 0, &[8]);
        t.write(a, 0, &[8]);
        t.close();
        let sectored = CacheSim::new(HierarchyConfig::a64fx_core_sectored(2)).run(&t.build());
        assert_eq!(sectored.dram_bytes(), plain.dram_bytes());
        let l2 = sectored.level("L2").unwrap();
        assert!(l2.sector_fills[0] > 0 && l2.sector_fills[1] > 0);
    }
}
