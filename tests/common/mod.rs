//! Helpers shared by the integration-test suites. Each `[[test]]` target
//! compiles this module independently and uses a different subset, so
//! dead-code warnings are expected and suppressed.

#![allow(dead_code)]

pub mod allocator_oracle;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Run `op` under a rayon pool fixed at `threads` workers — the standard
/// way the determinism suites pin the worker count regardless of the
/// machine or `RAYON_NUM_THREADS`.
pub fn at<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(op)
}

/// The worker counts every concurrency suite exercises: serial, the
/// smallest racy pool, and an oversubscribed one.
pub const THREAD_LADDER: [usize; 3] = [1, 2, 8];

/// A unique temporary directory, removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `…/cluster-eval-test-<tag>-<pid>-<n>`, fresh and empty.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "cluster-eval-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
