//! Byte comparison of regenerated artifacts against `tests/golden/`.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The repository's paper-artifact snapshots, next to this package.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../tests/golden")
}

/// Load `<id>.csv` for every id, failing on the first unreadable file.
pub fn load(ids: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let dir = golden_dir();
    ids.iter()
        .map(|id| {
            let path = dir.join(format!("{id}.csv"));
            std::fs::read_to_string(&path)
                .map(|text| (id.to_string(), text))
                .map_err(|e| format!("cannot read golden {}: {e}", path.display()))
        })
        .collect()
}

/// Byte offset of the first difference between `want` and `got`, or
/// `None` when they are identical. A length difference counts as a
/// difference at the end of the shorter one.
pub fn first_diff(want: &str, got: &str) -> Option<usize> {
    let (w, g) = (want.as_bytes(), got.as_bytes());
    match w.iter().zip(g).position(|(a, b)| a != b) {
        Some(i) => Some(i),
        None if w.len() != g.len() => Some(w.len().min(g.len())),
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catches_a_one_byte_change() {
        let golden = load(&["fig1"]).expect("fig1 golden is committed");
        let want = &golden["fig1"];
        assert_eq!(first_diff(want, want), None);
        let mut bytes = want.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'0' { b'1' } else { b'0' };
        let changed = String::from_utf8(bytes).expect("ascii csv");
        assert_eq!(first_diff(want, &changed), Some(mid));
    }

    #[test]
    fn catches_a_truncation_and_an_extra_byte() {
        assert_eq!(first_diff("a,b\n", "a,b"), Some(3));
        assert_eq!(first_diff("a,b", "a,b\n"), Some(3));
    }
}
