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
//!   hostile line (200,000 nested `[`) is one of them, not a crash, and
//!   so are a line that is not UTF-8 and one longer than `MAX_LINE_BYTES`.
//! * **Pinned wire bytes** — the canned batch's responses equal the
//!   committed `tests/golden/serve/batch_50.jsonl`. After an intended
//!   model change, regenerate it and review the diff:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test serve_determinism
//! git diff tests/golden/serve/
//! ```

use cluster_eval::engine::Ctx;
use cluster_eval::serve::{open_store, respond, run_batch, MAX_LINE_BYTES};
use std::path::{Path, PathBuf};

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

fn updating() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn canned_batch_responses_match_the_golden_wire_bytes() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/serve/batch_50.jsonl");
    let got = run_batch(&Ctx::new(), &canned_batch(), 2).join("\n") + "\n";
    if updating() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(w, g, "response {} differs from the golden", i + 1);
    }
    assert_eq!(want, got, "response count or line endings differ");
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

/// Drive the real serve loop over raw input bytes and return its response
/// lines.
fn serve_bytes(input: impl std::io::Read) -> Vec<String> {
    let mut out = Vec::new();
    let summary = cluster_eval::serve::serve(
        &Ctx::new(),
        std::io::BufReader::new(input),
        &mut out,
        std::io::sink(),
        2,
    )
    .expect("serve");
    let text = String::from_utf8(out).expect("utf8 responses");
    let lines: Vec<String> = text.lines().map(String::from).collect();
    assert_eq!(summary.requests as usize, lines.len());
    lines
}

#[test]
fn non_utf8_line_is_an_error_line_and_serving_continues() {
    let valid = canned_batch().swap_remove(0);
    let mut input = b"{\"id\": 1, \"queries\": [\xff]}\n".to_vec();
    input.extend_from_slice(valid.as_bytes());
    input.push(b'\n');
    let lines = serve_bytes(&input[..]);
    assert_eq!(lines.len(), 2, "one error line, then the valid answer");
    assert_eq!(
        lines[0],
        "{\"id\":null,\"error\":\"request line is not valid UTF-8 (byte 22)\"}"
    );
    assert_eq!(lines[1], run_batch(&Ctx::new(), &[valid], 2)[0]);
}

#[test]
fn over_long_line_is_an_error_line_and_serving_continues() {
    use std::io::Read;
    let valid = canned_batch().swap_remove(0);
    // A line at the limit is still read; one byte more is not, and a line
    // many reader buffers long is skipped to its newline.
    let at_limit = format!("{valid}{}\n", " ".repeat(MAX_LINE_BYTES - valid.len()));
    let over = "x".repeat(MAX_LINE_BYTES + 1) + "\n";
    let input = std::io::repeat(b' ')
        .take(4 * MAX_LINE_BYTES as u64)
        .chain(b"\n".as_slice())
        .chain(over.as_bytes())
        .chain(at_limit.as_bytes())
        .chain(valid.as_bytes());
    let lines = serve_bytes(input);
    let too_long =
        format!("{{\"id\":null,\"error\":\"request line longer than {MAX_LINE_BYTES} bytes\"}}");
    let answer = run_batch(&Ctx::new(), std::slice::from_ref(&valid), 2).swap_remove(0);
    assert_eq!(lines, [too_long.clone(), too_long, answer.clone(), answer]);
}
