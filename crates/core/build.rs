//! Computes the model-code hash that versions the persistent result
//! store: an FNV-1a digest over every Rust source of the workspace's
//! model crates. Any source change yields a new hash, so `seg-<hash>.bin`
//! files written by an older model revision are simply never opened.
//! The binary codec the store encodes values with (`simkit::codec`) is
//! inside the hashed `crates/` tree, so a codec edit bumps the hash too.

use std::fs;
use std::path::{Path, PathBuf};

fn fnv1a64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    // crates/core/build.rs → the workspace's crates/ directory.
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates dir")
        .to_path_buf();
    let mut files = Vec::new();
    collect_rs(&crates_dir, &mut files);
    // Sort for a path-order-independent digest.
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        // Hash the path relative to crates/ so absolute build locations
        // don't perturb the digest, then the file contents.
        let rel = path.strip_prefix(&crates_dir).unwrap_or(path);
        fnv1a64(&mut h, rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = fs::read(path) {
            fnv1a64(&mut h, &bytes);
        }
        println!("cargo:rerun-if-changed={}", path.display());
    }
    println!("cargo:rerun-if-changed={}", crates_dir.display());
    println!("cargo:rustc-env=CLUSTER_EVAL_MODEL_HASH={h:016x}");
}
