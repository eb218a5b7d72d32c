//! Compact symbolic access traces.
//!
//! A [`Trace`] is an affine nested-loop program: a set of named arrays plus
//! a tree of counted loops whose leaves are array accesses with byte
//! offsets of the form `base + Σ coef[d] · idx[d]` over the enclosing loop
//! indices. This is the "streams, strides, reuse loops" descriptor format:
//! it captures exactly the address structure a cache simulator needs while
//! staying a few hundred bytes even for HPCG-scale working sets.
//!
//! Loops may carry a steady-state [`Window`]: the simulator executes
//! `warmup` trips to reach steady state, measures `sample` trips, and
//! extrapolates the remaining `trips - warmup - sample` trips by an exact
//! integer factor. The window invariant `(trips - warmup - sample) %
//! sample == 0` keeps every counter identity (`hits + misses == accesses`)
//! intact under extrapolation.

/// Maximum loop nesting depth accepted by [`Trace::validate`].
pub const MAX_DEPTH: usize = 8;

/// One array (address stream) referenced by a trace.
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    /// Display name, e.g. `"x"` or `"apack"`.
    pub name: String,
    /// Extent in bytes. Every access must fall inside `[0, bytes)`.
    pub bytes: u64,
    /// Sector-cache tag (0 or 1) for way-partitioned hierarchies.
    pub sector: u8,
}

/// Opaque handle to an array declared on a [`TraceBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayId(pub usize);

/// Steady-state measurement window on a loop (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Trips executed before sampling starts.
    pub warmup: u64,
    /// Trips actually simulated and then scaled up.
    pub sample: u64,
}

/// A counted loop with a body of nested nodes.
#[derive(Debug, Clone)]
pub struct Loop {
    /// Trip count (≥ 1).
    pub trips: u64,
    /// Optional steady-state measurement window.
    pub window: Option<Window>,
    /// Loop body, executed once per trip.
    pub body: Vec<Node>,
}

/// One static memory access site.
#[derive(Debug, Clone)]
pub struct Access {
    /// Index into [`Trace::arrays`].
    pub array: usize,
    /// `true` for a store, `false` for a load.
    pub write: bool,
    /// `true` when the access is an indexed (gather/scatter) operation:
    /// the affine offsets approximate the address *footprint*, but the
    /// core issues element-granular indexed memory operations.
    pub gather: bool,
    /// Constant byte offset into the array.
    pub base: i64,
    /// Byte stride per enclosing loop, outermost first
    /// (`len() == nesting depth`).
    pub coefs: Vec<i64>,
    /// Element size in bytes (8 for f64).
    pub elem_bytes: u32,
}

/// A trace node: either a loop or a leaf access.
#[derive(Debug, Clone)]
pub enum Node {
    /// Nested counted loop.
    Loop(Loop),
    /// Leaf memory access.
    Access(Access),
}

/// Totals of core-issued memory operations, in elements, used by the
/// port/issue model to derive compute-side efficiency from the trace
/// instead of a hard-coded per-kernel constant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpMix {
    /// Unit-stride (vectorizable) load elements.
    pub unit_loads: f64,
    /// Indexed gather load elements (serialized on most cores).
    pub gather_loads: f64,
    /// Store elements.
    pub stores: f64,
}

impl OpMix {
    /// Fraction of loaded elements that are gathers (0 when nothing loads).
    pub fn gather_fraction(&self) -> f64 {
        let loads = self.unit_loads + self.gather_loads;
        if loads <= 0.0 {
            0.0
        } else {
            self.gather_loads / loads
        }
    }
}

/// A complete symbolic access trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Kernel name, e.g. `"stream_triad"`.
    pub name: String,
    /// Arrays referenced by the body.
    pub arrays: Vec<ArrayDecl>,
    /// Top-level nodes.
    pub body: Vec<Node>,
}

impl Trace {
    /// Check structural invariants: nesting depth, coefficient arity,
    /// array bounds at the loop-extreme corners, and window divisibility.
    pub fn validate(&self) -> Result<(), String> {
        fn walk(t: &Trace, nodes: &[Node], trips: &mut Vec<u64>) -> Result<(), String> {
            for n in nodes {
                match n {
                    Node::Loop(lp) => {
                        if lp.trips == 0 {
                            return Err(format!("{}: zero-trip loop", t.name));
                        }
                        if trips.len() >= MAX_DEPTH {
                            return Err(format!(
                                "{}: loops nested deeper than {MAX_DEPTH}",
                                t.name
                            ));
                        }
                        if let Some(w) = lp.window {
                            if w.sample == 0 {
                                return Err(format!("{}: window with zero sample", t.name));
                            }
                            if w.warmup + w.sample > lp.trips {
                                return Err(format!("{}: window longer than loop", t.name));
                            }
                            if (lp.trips - w.warmup - w.sample) % w.sample != 0 {
                                return Err(format!(
                                    "{}: window remainder not a multiple of sample",
                                    t.name
                                ));
                            }
                        }
                        trips.push(lp.trips);
                        walk(t, &lp.body, trips)?;
                        trips.pop();
                    }
                    Node::Access(a) => {
                        let arr = t
                            .arrays
                            .get(a.array)
                            .ok_or_else(|| format!("{}: access to undeclared array", t.name))?;
                        if a.coefs.len() != trips.len() {
                            return Err(format!(
                                "{}: access to {} has {} coefs at depth {}",
                                t.name,
                                arr.name,
                                a.coefs.len(),
                                trips.len()
                            ));
                        }
                        let (mut lo, mut hi) = (a.base, a.base);
                        for (d, &c) in a.coefs.iter().enumerate() {
                            let span = c * (trips[d] as i64 - 1);
                            if span < 0 {
                                lo += span;
                            } else {
                                hi += span;
                            }
                        }
                        if lo < 0 || hi + a.elem_bytes as i64 > arr.bytes as i64 {
                            return Err(format!(
                                "{}: access range [{lo}, {}] escapes array {} of {} bytes",
                                t.name,
                                hi + a.elem_bytes as i64,
                                arr.name,
                                arr.bytes
                            ));
                        }
                    }
                }
            }
            Ok(())
        }
        let mut trips = Vec::new();
        walk(self, &self.body, &mut trips)
    }

    /// Analytic element-granular byte count: every access contributes
    /// `elem_bytes` once per execution. This is the flat-roofline oracle
    /// the differential tests compare the simulator against.
    pub fn nominal_bytes(&self) -> u64 {
        self.fold(|a, execs| execs * a.elem_bytes as u64)
    }

    /// Total number of access executions (element granularity).
    pub fn nominal_accesses(&self) -> u64 {
        self.fold(|_, execs| execs)
    }

    /// Core-issued operation totals for the port/issue model.
    pub fn op_mix(&self) -> OpMix {
        let mut mix = OpMix::default();
        self.fold(|a, execs| {
            let e = execs as f64;
            if a.write {
                mix.stores += e;
            } else if a.gather {
                mix.gather_loads += e;
            } else {
                mix.unit_loads += e;
            }
            0
        });
        mix
    }

    fn fold<F: FnMut(&Access, u64) -> u64>(&self, mut f: F) -> u64 {
        fn walk<F: FnMut(&Access, u64) -> u64>(nodes: &[Node], execs: u64, f: &mut F) -> u64 {
            let mut total = 0u64;
            for n in nodes {
                match n {
                    Node::Loop(lp) => total += walk(&lp.body, execs * lp.trips, f),
                    Node::Access(a) => total += f(a, execs),
                }
            }
            total
        }
        walk(&self.body, 1, &mut f)
    }
}

/// Incremental [`Trace`] constructor; panics on structural misuse (an
/// invalid trace is a programming error in the kernel descriptor).
pub struct TraceBuilder {
    name: String,
    arrays: Vec<ArrayDecl>,
    /// Stack of open bodies; index 0 is the trace top level.
    stack: Vec<Vec<Node>>,
    /// `(trips, window)` of each open loop, innermost last.
    open: Vec<(u64, Option<Window>)>,
}

impl TraceBuilder {
    /// Start a trace called `name`.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            arrays: Vec::new(),
            stack: vec![Vec::new()],
            open: Vec::new(),
        }
    }

    /// Declare an array of `bytes` bytes in sector 0.
    pub fn array(&mut self, name: &str, bytes: u64) -> ArrayId {
        self.array_in_sector(name, bytes, 0)
    }

    /// Declare an array with an explicit sector-cache tag.
    pub fn array_in_sector(&mut self, name: &str, bytes: u64, sector: u8) -> ArrayId {
        assert!(sector < 2, "sector tag must be 0 or 1");
        assert!(bytes > 0, "empty array {name}");
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            bytes,
            sector,
        });
        ArrayId(self.arrays.len() - 1)
    }

    /// Open a counted loop.
    pub fn open(&mut self, trips: u64) {
        self.open.push((trips, None));
        self.stack.push(Vec::new());
    }

    /// Open a counted loop with a steady-state measurement window.
    pub fn open_windowed(&mut self, trips: u64, warmup: u64, sample: u64) {
        self.open.push((trips, Some(Window { warmup, sample })));
        self.stack.push(Vec::new());
    }

    /// Close the innermost open loop.
    pub fn close(&mut self) {
        let (trips, window) = self.open.pop().expect("close without open loop");
        let body = self.stack.pop().expect("builder stack underflow");
        self.stack
            .last_mut()
            .expect("builder stack underflow")
            .push(Node::Loop(Loop {
                trips,
                window,
                body,
            }));
    }

    /// Record an f64 load at `base + Σ coefs[d]·idx[d]`.
    pub fn read(&mut self, a: ArrayId, base: i64, coefs: &[i64]) {
        self.access(a, false, false, base, coefs, 8);
    }

    /// Record an f64 indexed gather load.
    pub fn read_gather(&mut self, a: ArrayId, base: i64, coefs: &[i64]) {
        self.access(a, false, true, base, coefs, 8);
    }

    /// Record an f64 store.
    pub fn write(&mut self, a: ArrayId, base: i64, coefs: &[i64]) {
        self.access(a, true, false, base, coefs, 8);
    }

    /// Record an access with full control over flags and element size.
    pub fn access(
        &mut self,
        a: ArrayId,
        write: bool,
        gather: bool,
        base: i64,
        coefs: &[i64],
        elem_bytes: u32,
    ) {
        assert_eq!(
            coefs.len(),
            self.open.len(),
            "access needs one coefficient per open loop"
        );
        self.stack
            .last_mut()
            .expect("builder stack underflow")
            .push(Node::Access(Access {
                array: a.0,
                write,
                gather,
                base,
                coefs: coefs.to_vec(),
                elem_bytes,
            }));
    }

    /// Finish and validate the trace.
    pub fn build(mut self) -> Trace {
        assert!(self.open.is_empty(), "unclosed loop in trace builder");
        let trace = Trace {
            name: self.name,
            arrays: self.arrays,
            body: self.stack.pop().expect("builder stack underflow"),
        };
        if let Err(e) = trace.validate() {
            panic!("invalid trace: {e}");
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triad(n: u64) -> Trace {
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
    fn nominal_counts_match_stream_convention() {
        let t = triad(1000);
        assert_eq!(t.nominal_bytes(), 24 * 1000);
        assert_eq!(t.nominal_accesses(), 3 * 1000);
    }

    #[test]
    fn op_mix_classifies_sites() {
        let mut b = TraceBuilder::new("mix");
        let x = b.array("x", 8 * 100);
        let y = b.array("y", 8 * 100);
        b.open(100);
        b.read(x, 0, &[8]);
        b.read_gather(x, 0, &[8]);
        b.write(y, 0, &[8]);
        b.close();
        let mix = b.build().op_mix();
        assert_eq!(mix.unit_loads, 100.0);
        assert_eq!(mix.gather_loads, 100.0);
        assert_eq!(mix.stores, 100.0);
        assert!((mix.gather_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let mut b = TraceBuilder::new("oob");
        let x = b.array("x", 80);
        b.open(11);
        b.read(x, 0, &[8]);
        b.close();
        let t = Trace {
            name: b.name.clone(),
            arrays: b.arrays.clone(),
            body: b.stack.pop().unwrap(),
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn window_divisibility_enforced() {
        let t = Trace {
            name: "w".into(),
            arrays: vec![ArrayDecl {
                name: "x".into(),
                bytes: 8 * 100,
                sector: 0,
            }],
            body: vec![Node::Loop(Loop {
                trips: 100,
                window: Some(Window {
                    warmup: 10,
                    sample: 7,
                }),
                body: vec![Node::Access(Access {
                    array: 0,
                    write: false,
                    gather: false,
                    base: 0,
                    coefs: vec![8],
                    elem_bytes: 8,
                })],
            })],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "one coefficient per open loop")]
    fn builder_checks_coef_arity() {
        let mut b = TraceBuilder::new("bad");
        let x = b.array("x", 800);
        b.open(10);
        b.read(x, 0, &[]);
    }
}
