//! `whatif`: a closed loop of one client sending what-if request lines
//! through `serve::respond` at [`WORKERS`] workers, against a context
//! backed by a store in a temporary directory. Halfway through, the
//! session drops the context and reopens the store (a restart).
//!
//! One unit is a whole session of [`SESSION_QUERIES`] queries from a cold
//! start on an empty store; every session of a run replays the same
//! seeded request script, so sessions are identical work and their
//! responses must be byte-identical to the first session's.
//!
//! Each request holds 1–4 queries. Four in five repeat an earlier query;
//! the rest are fresh draws over app × machine × node count (log-uniform
//! over the range that fits, at most 192) × io/version. A few fresh draws
//! are invalid on purpose (unknown app, node count out of range or below
//! fit). Checks: every repeated query's result bytes equal its first
//! answer, before and after the restart; exactly the invalid queries
//! answer `{"error":…}`.
//!
//! The draws are stratified so that every seed offers the same mix: each
//! block of [`BLOCK`] queries holds one fresh draw at a random position,
//! and fresh draws deal from a shuffled deck holding every app × machine ×
//! node-count stratum once plus [`INVALID_CARDS`] invalid queries. A
//! session deals [`DECKS`] whole decks. Miss costs span three orders of
//! magnitude (Alya on 192 nodes against HPL on one), so independent draws
//! would make a session's cost depend on the seed's luck.

use crate::trace::{self, Tracer};
use crate::{probes, repeat, Args, Checks, Metrics, Outcome, Stop, TempDir, PER_LAYER, WORKERS};
use apps::common::Cluster;
use cluster_eval::engine::{run_indexed, Ctx};
use cluster_eval::json;
use cluster_eval::serve::{self, Query};
use simkit::cache::{Cache, TierCounters};
use simkit::rng::Pcg32;
use simkit::store::Store;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Queries per block; one of them is a fresh draw, the rest repeat.
const BLOCK: u32 = 5;
/// Log-uniform node-count strata per app × machine in the deck.
const STRATA: usize = 4;
/// Invalid queries in each deck of fresh draws.
const INVALID_CARDS: usize = 2;
/// Whole decks a session deals.
const DECKS: usize = 4;
/// Largest node count a valid query asks for.
const MAX_NODES: usize = 192;
/// Most queries in one request.
const MAX_QUERIES: u32 = 4;
/// Cards in one deck: every app × machine × stratum, plus the invalid ones.
const DECK_CARDS: usize = APPS.len() * MACHINES.len() * STRATA + INVALID_CARDS;
/// Queries in one session; the restart comes before its middle request.
pub const SESSION_QUERIES: usize = BLOCK as usize * DECK_CARDS * DECKS;

const APPS: [&str; 7] = ["alya", "nemo", "wrf", "openifs", "gromacs", "hpl", "hpcg"];
const MACHINES: [(&str, Cluster); 2] =
    [("cte-arm", Cluster::CteArm), ("mn4", Cluster::MareNostrum4)];

/// One distinct query of the session.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The query object as sent.
    pub json: String,
    /// Invalid on purpose: the only queries allowed to answer an error.
    pub invalid: bool,
}

/// One request line and the distinct queries it carries, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request id (from 1).
    pub id: u64,
    /// The line sent to the server.
    pub line: String,
    /// Index of each query in [`Generator::query`] order.
    pub queries: Vec<usize>,
}

/// Seeded request stream. The same seed yields the same requests.
pub struct Generator {
    rng: Pcg32,
    /// Position in the current block, and where its fresh draw sits.
    slot: u32,
    fresh_slot: u32,
    /// Undealt cards of the current deck: `Some((app, machine, stratum))`
    /// or `None` for an invalid query.
    deck: Vec<Option<(usize, usize, usize)>>,
    pool: Vec<QuerySpec>,
    index: HashMap<String, usize>,
    next_id: u64,
    /// `[app][machine]` smallest node count the app fits on.
    min_nodes: [[usize; 2]; 7],
    /// `[machine]` node count of the machine.
    machine_nodes: [usize; 2],
}

impl Generator {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut min_nodes = [[1; 2]; 7];
        for (a, app) in APPS.iter().enumerate() {
            for (m, &(_, cluster)) in MACHINES.iter().enumerate() {
                min_nodes[a][m] = match *app {
                    "alya" => apps::alya::Alya::test_case_b().min_nodes(cluster),
                    "nemo" => apps::nemo::Nemo::bench_orca1().min_nodes(cluster),
                    "openifs" => apps::openifs::OpenIfs::tc0511l91().min_nodes(cluster),
                    _ => 1,
                };
            }
        }
        Self {
            rng: Pcg32::new(seed, 0x7768_6174_6966),
            slot: 0,
            fresh_slot: 0,
            deck: Vec::new(),
            pool: Vec::new(),
            index: HashMap::new(),
            next_id: 1,
            min_nodes,
            machine_nodes: MACHINES.map(|(_, c)| c.machine().nodes),
        }
    }

    /// The distinct query with index `i`.
    pub fn query(&self, i: usize) -> &QuerySpec {
        &self.pool[i]
    }

    /// Distinct queries drawn so far.
    pub fn distinct(&self) -> usize {
        self.pool.len()
    }

    /// The next request of the stream, holding at most `max_queries`.
    pub fn next_request(&mut self, max_queries: usize) -> Request {
        let n = (1 + self.rng.next_below(MAX_QUERIES) as usize).min(max_queries);
        let queries: Vec<usize> = (0..n).map(|_| self.next_query()).collect();
        let body: Vec<&str> = queries
            .iter()
            .map(|&q| self.pool[q].json.as_str())
            .collect();
        let id = self.next_id;
        self.next_id += 1;
        Request {
            id,
            line: format!("{{\"id\":{id},\"queries\":[{}]}}", body.join(",")),
            queries,
        }
    }

    fn next_query(&mut self) -> usize {
        if self.slot == 0 {
            // The very first query has nothing to repeat.
            self.fresh_slot = if self.pool.is_empty() {
                0
            } else {
                self.rng.next_below(BLOCK)
            };
        }
        let fresh = self.slot == self.fresh_slot;
        self.slot = (self.slot + 1) % BLOCK;
        if !fresh {
            return self.rng.next_below(self.pool.len() as u32) as usize;
        }
        if self.deck.is_empty() {
            self.deck = (0..APPS.len())
                .flat_map(|a| {
                    (0..MACHINES.len()).flat_map(move |m| (0..STRATA).map(move |q| Some((a, m, q))))
                })
                .chain(std::iter::repeat_n(None, INVALID_CARDS))
                .collect();
            self.rng.shuffle(&mut self.deck);
        }
        let spec = match self.deck.pop().expect("deck refilled above") {
            Some(card) => self.valid_draw(card),
            None => self.invalid_draw(),
        };
        // A fresh draw that equals an earlier query is that query again.
        if let Some(&i) = self.index.get(&spec.json) {
            return i;
        }
        self.index.insert(spec.json.clone(), self.pool.len());
        self.pool.push(spec);
        self.pool.len() - 1
    }

    fn valid_draw(&mut self, (a, m, q): (usize, usize, usize)) -> QuerySpec {
        let lo = (self.min_nodes[a][m] as f64).ln();
        let hi_nodes = MAX_NODES.min(self.machine_nodes[m]);
        let width = (((hi_nodes + 1) as f64).ln() - lo) / STRATA as f64;
        let x = self
            .rng
            .uniform(lo + width * q as f64, lo + width * (q + 1) as f64)
            .exp();
        let nodes = (x as usize).clamp(self.min_nodes[a][m], hi_nodes);
        let extra = match APPS[a] {
            "wrf" => format!(",\"io\":{}", self.rng.next_below(2) == 1),
            "hpcg" => {
                let v = if self.rng.next_below(2) == 1 {
                    "vanilla"
                } else {
                    "optimized"
                };
                format!(",\"version\":\"{v}\"")
            }
            _ => String::new(),
        };
        QuerySpec {
            json: format!(
                "{{\"app\":\"{}\",\"machine\":\"{}\",\"nodes\":{nodes}{extra}}}",
                APPS[a], MACHINES[m].0
            ),
            invalid: false,
        }
    }

    fn invalid_draw(&mut self) -> QuerySpec {
        let m = self.rng.next_below(MACHINES.len() as u32) as usize;
        let machine = MACHINES[m].0;
        let json = match self.rng.next_below(3) {
            0 => format!(
                "{{\"app\":\"lammps\",\"machine\":\"{machine}\",\"nodes\":{}}}",
                1 + self.rng.next_below(MAX_NODES as u32)
            ),
            1 => {
                let nodes = if self.rng.next_below(2) == 0 {
                    0
                } else {
                    self.machine_nodes[m] + 1 + self.rng.next_below(1000) as usize
                };
                format!("{{\"app\":\"hpl\",\"machine\":\"{machine}\",\"nodes\":{nodes}}}")
            }
            _ => {
                // Below fit: an app whose footprint needs more than one node.
                let fits: Vec<(usize, usize)> = (0..APPS.len())
                    .flat_map(|a| (0..MACHINES.len()).map(move |m| (a, m)))
                    .filter(|&(a, m)| self.min_nodes[a][m] > 1)
                    .collect();
                let &(a, m) = self.rng.choose(&fits);
                let nodes = 1 + self.rng.next_below(self.min_nodes[a][m] as u32 - 1);
                format!(
                    "{{\"app\":\"{}\",\"machine\":\"{}\",\"nodes\":{nodes}}}",
                    APPS[a], MACHINES[m].0
                )
            }
        };
        QuerySpec {
            json,
            invalid: true,
        }
    }
}

/// Split a response line `{"id":N,"results":[r0,r1,…]}` into its result
/// objects, or `None` when the line does not have that shape.
pub fn split_results(line: &str, id: u64) -> Option<Vec<&str>> {
    let body = line
        .strip_prefix(&format!("{{\"id\":{id},\"results\":["))?
        .strip_suffix("]}")?;
    let mut out = Vec::new();
    let (mut depth, mut in_str, mut escaped, mut start) = (0i32, false, false, 0usize);
    for (i, b) in body.bytes().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b',' if depth == 0 => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&body[start..]);
    (depth == 0 && !in_str && out.iter().all(|r| !r.is_empty())).then_some(out)
}

/// The request script every session of a run replays.
struct Script {
    requests: Vec<Request>,
    gen: Generator,
}

impl Script {
    fn new(seed: u64) -> Self {
        let mut gen = Generator::new(seed);
        let mut requests = Vec::new();
        let mut sent = 0;
        while sent < SESSION_QUERIES {
            let req = gen.next_request(SESSION_QUERIES - sent);
            sent += req.queries.len();
            requests.push(req);
        }
        Self { requests, gen }
    }

    fn queries(&self) -> usize {
        self.requests.iter().map(|r| r.queries.len()).sum()
    }
}

/// What one session did.
struct Session {
    /// Response lines in request order.
    lines: Vec<String>,
    /// Request latencies, seconds.
    latencies: Vec<f64>,
    /// Cache traffic over both halves.
    counters: TierCounters,
    /// Store records and segment bytes when the session ended.
    records: usize,
    segment_bytes: u64,
}

fn open_ctx(dir: &Path) -> Result<Ctx, String> {
    serve::open_store(dir)
        .map(Ctx::with_store)
        .map_err(|e| format!("store open in {} failed: {e}", dir.display()))
}

/// Queries the warm-up pass sends: every app on every machine at the
/// smallest node count it fits and at the largest the session asks for.
fn warmup_lines() -> Vec<String> {
    let gen = Generator::new(0);
    let mut queries = Vec::new();
    for (a, app) in APPS.iter().enumerate() {
        for (m, (machine, _)) in MACHINES.iter().enumerate() {
            for nodes in [gen.min_nodes[a][m], MAX_NODES.min(gen.machine_nodes[m])] {
                queries.push(format!(
                    "{{\"app\":\"{app}\",\"machine\":\"{machine}\",\"nodes\":{nodes}}}"
                ));
            }
        }
    }
    queries
        .chunks(MAX_QUERIES as usize)
        .enumerate()
        .map(|(i, q)| format!("{{\"id\":{},\"queries\":[{}]}}", i + 1, q.join(",")))
        .collect()
}

/// Generate the script, then warm up against a throwaway store.
fn setup(seed: u64) -> Result<Script, String> {
    let script = Script::new(seed);
    let scratch = TempDir::new("whatif-warmup")?;
    let warm = open_ctx(&scratch.0)?;
    for line in warmup_lines() {
        let first = serve::respond(&warm, &line, WORKERS);
        let again = serve::respond(&warm, &line, WORKERS);
        if first != again || first.contains("\"error\"") {
            return Err(format!("warm-up answers diverged or failed: {first}"));
        }
    }
    Ok(script)
}

/// Check one response against the request's queries and the first answer
/// of every query seen before in the session.
fn check(
    req: &Request,
    line: &str,
    gen: &Generator,
    first: &mut HashMap<usize, String>,
    checks: &mut Checks,
) {
    let results = match split_results(line, req.id) {
        Some(r) if r.len() == req.queries.len() => r,
        _ => {
            for _ in &req.queries {
                checks.record(Err(format!(
                    "request {}: malformed response {line}",
                    req.id
                )));
            }
            return;
        }
    };
    for (&q, result) in req.queries.iter().zip(results) {
        let spec = gen.query(q);
        let is_error = result.starts_with("{\"error\":");
        checks.record(if is_error != spec.invalid {
            Err(format!(
                "request {}: query {} answered {result}",
                req.id, spec.json
            ))
        } else {
            match first.get(&q) {
                Some(want) if want != result => Err(format!(
                    "request {}: query {} answered {result}, first answer was {want}",
                    req.id, spec.json
                )),
                Some(_) => Ok(()),
                None => {
                    first.insert(q, result.to_string());
                    Ok(())
                }
            }
        });
    }
}

/// `serve::respond` taken apart at its layer boundaries so each call can
/// carry a span: parse the line, validate each query, answer them on
/// [`WORKERS`] workers and assemble the response. The assembled line is
/// checked byte for byte against the untraced sessions' `respond` output.
fn traced_respond(ctx: &Ctx, req: &Request, tracer: &Tracer) -> String {
    let root = tracer.span("serve.request", 0, req.id);
    let parsed = {
        let _s = tracer.span("json.parse", root.id(), req.id);
        json::parse(&req.line)
    };
    let Ok(parsed) = parsed else {
        return format!("request {} did not parse", req.id);
    };
    let raw = parsed
        .get("queries")
        .and_then(json::Value::as_array)
        .unwrap_or_default();
    let queries: Vec<Result<Query, String>> = raw
        .iter()
        .map(|v| {
            let _s = tracer.span("serve.query_parse", root.id(), req.id);
            Query::parse(v)
        })
        .collect();
    let results = run_indexed(queries.len(), WORKERS, |i| match &queries[i] {
        Ok(q) => {
            Cache::reset_thread_counters();
            let start = Instant::now();
            let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.answer(ctx)))
                .unwrap_or_else(|_| {
                    format!("{{\"error\":\"query {i} panicked in the engine — see server log\"}}")
                });
            let end = Instant::now();
            let tier = Cache::thread_counters();
            let name = if tier.misses > 0 {
                "serve.answer_miss"
            } else if tier.disk_hits > 0 {
                "serve.answer_disk"
            } else {
                "serve.answer_mem"
            };
            tracer.record(name, root.id(), req.id, start, end);
            answer
        }
        Err(e) => format!("{{\"error\":\"{}\"}}", json::escape(e)),
    });
    format!("{{\"id\":{},\"results\":[{}]}}", req.id, results.join(","))
}

/// One session: a cold start on an empty store, the script with a restart
/// before its middle request, then the store's final size.
fn session(script: &Script, tracer: &Tracer) -> Result<Session, String> {
    let dir = TempDir::new("whatif")?;
    let mut ctx = open_ctx(&dir.0)?;
    let mut s = Session {
        lines: Vec::with_capacity(script.requests.len()),
        latencies: Vec::with_capacity(script.requests.len()),
        counters: TierCounters::default(),
        records: 0,
        segment_bytes: 0,
    };
    for (i, req) in script.requests.iter().enumerate() {
        if i == script.requests.len() / 2 {
            s.counters = add(s.counters, ctx.cache.counters());
            drop(ctx); // flushes the index, as a server shutdown would
            let _s = tracer.span("store.reopen", 0, 0);
            let (store, _) = Store::open_with_report(&dir.0, serve::model_code_hash())
                .map_err(|e| format!("store reopen failed: {e}"))?;
            ctx = Ctx::with_store(Arc::new(store));
        }
        let t0 = Instant::now();
        let line = if tracer.enabled() {
            traced_respond(&ctx, req, tracer)
        } else {
            serve::respond(&ctx, &req.line, WORKERS)
        };
        s.latencies.push(t0.elapsed().as_secs_f64());
        s.lines.push(line);
    }
    s.counters = add(s.counters, ctx.cache.counters());
    let store = ctx.cache.store().expect("session context has a store");
    s.records = store.records();
    s.segment_bytes = store.segment_bytes();
    Ok(s)
}

fn add(a: TierCounters, b: TierCounters) -> TierCounters {
    TierCounters {
        mem_hits: a.mem_hits + b.mem_hits,
        disk_hits: a.disk_hits + b.disk_hits,
        misses: a.misses + b.misses,
    }
}

/// A pass of sessions. Every session's responses are checked query by
/// query, and against the first session's (or `reference`'s) bytes.
/// Returns the unit walls, every request latency and the last session.
fn pass(
    script: &Script,
    stop: Stop,
    tracer: &Tracer,
    reference: Option<&[String]>,
    checks: &mut Checks,
) -> Result<(Vec<f64>, Vec<f64>, Session), String> {
    let mut latencies = Vec::new();
    let mut reference: Option<Vec<String>> = reference.map(<[String]>::to_vec);
    let mut last = None;
    let walls = repeat(
        stop,
        |_| session(script, tracer),
        |k, s: Session| {
            let mut first = HashMap::new();
            for (req, line) in script.requests.iter().zip(&s.lines) {
                check(req, line, &script.gen, &mut first, checks);
            }
            match &reference {
                None => reference = Some(s.lines.clone()),
                Some(want) => {
                    for (i, (w, got)) in want.iter().zip(&s.lines).enumerate() {
                        checks.record(if w == got {
                            Ok(())
                        } else {
                            Err(format!(
                                "session {k}, request {}: bytes differ from the reference session",
                                i + 1
                            ))
                        });
                    }
                }
            }
            latencies.extend_from_slice(&s.latencies);
            last = Some(s);
        },
    )?;
    Ok((walls, latencies, last.expect("at least one session")))
}

fn ms(p: Option<crate::stats::Percentile>) -> String {
    p.map_or("n/a (fewer than 10 samples beyond)".into(), |p| {
        format!(
            "{:.4} ms (n={}, {} beyond)",
            p.value * 1e3,
            p.samples,
            p.beyond
        )
    })
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let (script, setup_s) = crate::repeated_setup(crate::SETUPS, || setup(args.seed))?;
    let off = Tracer::new(false);
    let budget = if args.trace {
        args.budget() / 2
    } else {
        args.budget()
    };
    let (walls, latencies, last) = pass(&script, Stop::Budget(budget), &off, None, &mut checks)?;
    let c = last.counters;
    eprintln!(
        "whatif: sessions of {} requests / {} queries ({} distinct), {}; \
         request_p50_ms = {}, request_p99_ms = {}; cache per session (mem, disk, miss) = \
         ({}, {}, {}); error_rate = {}/{}",
        script.requests.len(),
        script.queries(),
        script.gen.distinct(),
        crate::describe_walls(&walls),
        ms(crate::stats::percentile(&latencies, 50.0)),
        ms(crate::stats::percentile(&latencies, 99.0)),
        c.mem_hits,
        c.disk_hits,
        c.misses,
        checks.failed,
        checks.attempted
    );
    if !args.trace {
        let metrics = crate::e2e_metrics(setup_s, &walls);
        return Ok(Outcome { checks, metrics });
    }

    // Traced pass: as many sessions, each compared with the untraced bytes.
    let tracer = Tracer::new(true);
    let (traced, _, t) = pass(
        &script,
        Stop::Count(walls.len()),
        &tracer,
        Some(&last.lines),
        &mut checks,
    )?;
    let spans = tracer.finish();

    let mut m = Metrics::new(PER_LAYER);
    m.set(
        "tracing_overhead",
        crate::best(&traced) / crate::best(&walls) - 1.0,
    );
    crate::report_spans(args, &spans, &mut m);
    let med = |name: &str, scale: f64| {
        crate::stats::median(&trace::durations(&spans, name)).map_or(0.0, |ns| ns * scale)
    };
    m.set("json.parse_us", med("json.parse", 1e-3));
    m.set("serve.query_parse_us", med("serve.query_parse", 1e-3));
    m.set("serve.answer_mem_us", med("serve.answer_mem", 1e-3));
    m.set("serve.answer_disk_us", med("serve.answer_disk", 1e-3));
    m.set("serve.answer_miss_ms", med("serve.answer_miss", 1e-6));
    m.set("store.reopen_ms", med("store.reopen", 1e-6));
    let c = t.counters;
    m.set("cache.whatif_mem_hits", c.mem_hits as f64);
    m.set("cache.whatif_disk_hits", c.disk_hits as f64);
    m.set("cache.whatif_misses", c.misses as f64);
    m.set("cache.whatif_lookups", c.total() as f64);
    m.set(
        "cache.whatif_hit_ratio",
        c.hits() as f64 / c.total().max(1) as f64,
    );
    m.set("store.records", t.records as f64);
    m.set("store.segment_bytes", t.segment_bytes as f64);
    probes::run_all(args, &mut m)?;
    Ok(Outcome { checks, metrics: m })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed_and_differs_across_seeds() {
        assert_eq!(Script::new(7).requests, Script::new(7).requests);
        assert_ne!(Script::new(7).requests, Script::new(8).requests);
    }

    #[test]
    fn sessions_mix_repeats_fresh_and_invalid_queries() {
        let script = Script::new(3);
        let g = &script.gen;
        assert_eq!(script.queries(), SESSION_QUERIES);
        assert!(script
            .requests
            .iter()
            .all(|r| (1..=4).contains(&r.queries.len())));
        // One in five is a fresh draw; a few fresh draws repeat by chance.
        let repeat_share = 1.0 - g.distinct() as f64 / SESSION_QUERIES as f64;
        assert!(
            (0.8..0.85).contains(&repeat_share),
            "repeat share {repeat_share}"
        );
        let invalid = (0..g.distinct()).filter(|&i| g.query(i).invalid).count();
        assert!(
            (1..=INVALID_CARDS * DECKS).contains(&invalid),
            "{invalid} invalid"
        );
        for r in &script.requests {
            json::parse(&r.line).expect("request lines are valid JSON");
        }
    }

    #[test]
    fn only_invalid_queries_fail_validation() {
        let script = Script::new(11);
        let g = &script.gen;
        for i in 0..g.distinct() {
            let q = g.query(i);
            let v = json::parse(&q.json).expect("query JSON");
            assert_eq!(Query::parse(&v).is_err(), q.invalid, "{}", q.json);
        }
    }

    #[test]
    fn split_results_respects_nesting_and_strings() {
        let line =
            r#"{"id":4,"results":[{"a":1,"p":{"x":2,"y":3}},{"error":"bad, \"very\" {bad}"}]}"#;
        let parts = split_results(line, 4).expect("well-formed");
        assert_eq!(
            parts,
            vec![
                r#"{"a":1,"p":{"x":2,"y":3}}"#,
                r#"{"error":"bad, \"very\" {bad}"}"#
            ]
        );
        assert!(split_results(line, 5).is_none());
        assert!(split_results(r#"{"id":4,"results":[{"a":1]}"#, 4).is_none());
    }
}
