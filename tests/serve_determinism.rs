//! The serve front end's contract, pinned as tests:
//!
//! * **Worker-count independence** — the canned 50-query batch produces
//!   byte-identical response lines at `--jobs` 1, 2 and 8, under rayon
//!   pools of 1, 2 and 8 threads.
//! * **Cold/warm equivalence** — a fresh store and a reopened warm store
//!   serve byte-identical responses; the warm pass never reaches the
//!   engine and is served from disk.
//! * **In-flight dedupe** — two identical queries in one parallel batch
//!   cost exactly one engine miss; the second is a memory hit.
//! * **Deterministic failure** — malformed requests and failing queries
//!   produce stable, in-order error lines, not dropped responses; a
//!   hostile line (200,000 nested `[`) is one of them, not a crash.

use cluster_eval::engine::Ctx;
use cluster_eval::serve::{open_store, respond, run_batch};
use std::path::Path;

mod common;
use common::{at, TempDir, THREAD_LADDER};

fn canned_batch() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/serve_batch_50.jsonl");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let lines: Vec<String> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(String::from)
        .collect();
    assert_eq!(
        lines.len(),
        10,
        "the canned batch is 10 requests of 5 queries"
    );
    lines
}

#[test]
fn responses_are_independent_of_jobs_and_pool_threads() {
    let batch = canned_batch();
    let reference = at(1, || run_batch(&Ctx::new(), &batch, 1));
    assert_eq!(
        reference.len(),
        batch.len(),
        "one response line per request"
    );
    for r in &reference {
        assert!(
            !r.contains("error"),
            "canned batch must be all-success: {r}"
        );
    }
    for pool in THREAD_LADDER {
        for jobs in THREAD_LADDER {
            let out = at(pool, || run_batch(&Ctx::new(), &batch, jobs));
            assert_eq!(
                out, reference,
                "responses changed at pool={pool} jobs={jobs}"
            );
        }
    }
}

#[test]
fn cold_and_warm_stores_serve_identical_bytes() {
    let batch = canned_batch();
    let dir = TempDir::new("serve-warm");

    let cold_ctx = Ctx::with_store(open_store(dir.path()).expect("open"));
    let cold = run_batch(&cold_ctx, &batch, 2);
    let cold_counters = cold_ctx.cache.counters();
    assert!(cold_counters.misses > 0, "cold pass must reach the engine");
    drop(cold_ctx); // server restart: flushes the index

    for jobs in THREAD_LADDER {
        let warm_ctx = Ctx::with_store(open_store(dir.path()).expect("reopen"));
        let warm = run_batch(&warm_ctx, &batch, jobs);
        assert_eq!(warm, cold, "warm replay at jobs={jobs} diverged from cold");
        let c = warm_ctx.cache.counters();
        assert_eq!(c.misses, 0, "warm replay reached the engine at jobs={jobs}");
        assert!(c.disk_hits > 0, "warm replay never touched the store");
    }
}

#[test]
fn identical_inflight_queries_cost_one_engine_miss() {
    // Two copies of the same query in one batch, evaluated on two worker
    // threads: the cache's per-key slot lock is a single-flight map, so
    // one thread computes (miss) and the other blocks on the slot and
    // reads the fresh value (memory hit).
    let line = r#"{"id": 1, "queries": [
        {"app": "hpl", "machine": "cte-arm", "nodes": 16},
        {"app": "hpl", "machine": "cte-arm", "nodes": 16}]}"#
        .replace('\n', " ");
    let ctx = Ctx::new();
    let response = at(2, || respond(&ctx, &line, 2));
    let c = ctx.cache.counters();
    assert_eq!(c.misses, 1, "dedupe failed: both in-flight copies computed");
    assert_eq!(c.mem_hits, 1, "the second copy must be a memory hit");
    // Both result slots hold the same bytes.
    let results = response.split("},{").count();
    assert_eq!(results, 2, "{response}");
    let body = response
        .strip_prefix("{\"id\":1,\"results\":[")
        .and_then(|r| r.strip_suffix("]}"))
        .expect("well-formed response");
    let split = body.find("},{").expect("two objects") + 1;
    assert_eq!(
        body[..split],
        body[split + 1..],
        "duplicate queries must answer identically"
    );
}

#[test]
fn dedupe_also_spans_requests_within_a_session() {
    // The canned batch repeats 5 of its 50 queries; a full serve session
    // must charge 45 misses and 5 memory hits, at every jobs level.
    let batch = canned_batch();
    for jobs in THREAD_LADDER {
        let ctx = Ctx::new();
        let _ = run_batch(&ctx, &batch, jobs);
        let c = ctx.cache.counters();
        assert_eq!(
            (c.misses, c.mem_hits, c.disk_hits),
            (45, 5, 0),
            "cache traffic shifted at jobs={jobs}"
        );
    }
}

#[test]
fn error_lines_are_deterministic_and_in_order() {
    let lines = vec![
        "this is not json".to_string(),
        r#"{"queries": []}"#.to_string(),
        r#"{"id": 7, "queries": [{"app": "alya", "machine": "cte-arm", "nodes": 1}]}"#.to_string(),
        r#"{"id": 8, "queries": [{"app": "hpl", "machine": "vax", "nodes": 4}]}"#.to_string(),
    ];
    let expected = [
        "{\"id\":null,\"error\":",
        "{\"id\":null,\"error\":\"request needs an integer 'id' field\"}",
        "{\"id\":7,\"results\":[{\"error\":\"alya does not fit on 1 nodes of CTE-Arm (needs >= 12)\"}]}",
        "{\"id\":8,\"results\":[{\"error\":\"unknown machine 'vax' (cte-arm | mn4)\"}]}",
    ];
    for jobs in THREAD_LADDER {
        let out = run_batch(&Ctx::new(), &lines, jobs);
        assert_eq!(out.len(), lines.len(), "every request gets a response line");
        for (got, want) in out.iter().zip(expected) {
            assert!(got.starts_with(want), "jobs={jobs}: {got} !~ {want}");
        }
    }
}

#[test]
fn serve_loop_streams_one_line_per_request() {
    // Drive the real reader/writer loop, not just run_batch.
    let batch = canned_batch();
    let input = batch.join("\n");
    let mut out = Vec::new();
    let mut log = Vec::new();
    let summary = cluster_eval::serve::serve(
        &Ctx::new(),
        std::io::BufReader::new(input.as_bytes()),
        &mut out,
        &mut log,
        2,
    )
    .expect("serve");
    assert_eq!(summary.requests, 10);
    assert_eq!(summary.queries, 50);
    let text = String::from_utf8(out).expect("utf8 responses");
    assert_eq!(text.lines().count(), 10);
    assert_eq!(run_batch(&Ctx::new(), &batch, 2).join("\n") + "\n", text);
}

#[test]
fn deeply_nested_line_is_an_error_line_and_serving_continues() {
    let valid = canned_batch().swap_remove(0);
    let input = format!("{}\n{valid}\n", "[".repeat(200_000));
    let mut out = Vec::new();
    let mut log = Vec::new();
    let summary = cluster_eval::serve::serve(
        &Ctx::new(),
        std::io::BufReader::new(input.as_bytes()),
        &mut out,
        &mut log,
        2,
    )
    .expect("serve");
    assert_eq!(summary.requests, 2);
    let text = String::from_utf8(out).expect("utf8 responses");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one error line, then the valid answer");
    assert!(
        lines[0].starts_with("{\"id\":null,\"error\":\"nesting deeper than 128"),
        "{}",
        &lines[0][..lines[0].len().min(120)]
    );
    assert_eq!(lines[1], run_batch(&Ctx::new(), &[valid], 2)[0]);
}
