//! Content-hash result cache for sweep jobs.
//!
//! Every expanded job has a canonical key (family + sorted parameters +
//! schema version); its rows are stored under
//! `<workspace-root>/target/sweep-cache/<fnv64(key)>.json`. Re-running a
//! grid after editing one axis therefore only recomputes the points
//! whose keys changed — unchanged points are byte-identical replays.
//!
//! The stored file carries the full key, so a hash collision (or a stale
//! schema) degrades to a cache miss, never to wrong rows.

use std::path::{Path, PathBuf};

use crate::json::{escape, Json};

/// Bump when a runner's output semantics change: invalidates every
/// cached row at once.
///
/// v2: the flat-event-core simulator rewrite (new RNG draw order and
/// ziggurat exponential sampling) changed every simulated cell, so
/// rows cached by the heap-based engine must not replay as if they
/// were produced by the current one.
///
/// v3: the batched-draw engine (block-refilled service/interarrival
/// buffers, block-reduced statistics) interleaves the RNG streams
/// differently and reduces sums in a different — still deterministic —
/// order, changing every simulated cell again.
///
/// v4: the `scaling` family's bound columns changed meaning — the O(1)
/// mean-field/M-M-1 sandwich was replaced by the exact lumped-QBD
/// lower/upper bounds (with a new `t` column), so every cached scaling
/// row describes a different quantity than the current runner emits.
///
/// v5: the `bounds` family routes `n > 12` through the occupancy-lumped
/// solvers (same quantities, but only equal to the dense path to solver
/// tolerance), and bound cells can now carry the `nonconverged` status
/// where an iterative solve exhausts its cap instead of silently
/// reporting its last iterate. Routing every `n` through the lumped
/// solvers later kept v5: their 4-decimal cells equal the dense path's
/// on the Fig. 10 panels, so cached rows still describe what the
/// runner emits.
pub const CACHE_SCHEMA: u32 = 5;

/// 64-bit FNV-1a — the workspace-standard small stable hash.
pub fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Walks up from `start` to the first directory containing `Cargo.lock`
/// — the workspace root, whichever crate directory a binary was spawned
/// in. Falls back to `start` itself when no lock file exists (e.g. an
/// installed binary far from any checkout).
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir;
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

/// The default cache directory: `target/sweep-cache` under the
/// workspace root resolved from the current directory — robust to
/// being invoked from a crate root instead of the workspace root (the
/// same discipline the criterion shim applies to `CRITERION_JSON`).
pub fn default_cache_dir() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    find_workspace_root(&cwd).join("target").join("sweep-cache")
}

/// The on-disk file holding `key`'s entry.
pub fn entry_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{:016x}.json", fnv64(key)))
}

/// Where a corrupt entry is quarantined (same name, `.bad` suffix).
pub fn quarantine_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{:016x}.bad", fnv64(key)))
}

/// Outcome of probing the disk for `key` — distinguishing a legitimate
/// miss (absent entry, or one written under another schema/key, which a
/// recompute will overwrite in place) from a *corrupt* entry (the file
/// is there but unparsable), which the store quarantines so it is not
/// re-parsed on every subsequent miss.
#[derive(Debug, PartialEq, Eq)]
pub enum Entry {
    /// A valid entry for this key under the current schema.
    Hit(Vec<Vec<String>>),
    /// No entry, or a stale-schema / different-key entry: recompute.
    Miss,
    /// The file exists but cannot be decoded (truncated write by a
    /// crashed process, bit rot, manual editing): quarantine it.
    Corrupt,
}

/// Probes the disk entry for `key`. See [`Entry`] for the outcomes.
pub fn load_entry(dir: &Path, key: &str) -> Entry {
    let path = entry_path(dir, key);
    let src = match std::fs::read_to_string(&path) {
        Ok(src) => src,
        // Absent is the common miss; any other read error (not UTF-8,
        // permissions) on an existing file means the entry is unusable.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Entry::Miss,
        Err(_) => return Entry::Corrupt,
    };
    let Ok(doc) = Json::parse(&src) else {
        return Entry::Corrupt;
    };
    // A structurally valid document with the wrong schema or key is a
    // clean miss (older engine, hash collision) — not corruption.
    let (Some(schema), Some(entry_key)) = (
        doc.get("schema").and_then(Json::as_f64),
        doc.get("key").and_then(Json::as_str),
    ) else {
        return Entry::Corrupt;
    };
    if schema != f64::from(CACHE_SCHEMA) || entry_key != key {
        return Entry::Miss;
    }
    let Some(raw_rows) = doc.get("rows").and_then(Json::as_arr) else {
        return Entry::Corrupt;
    };
    let mut rows = Vec::new();
    for row in raw_rows {
        let cells: Option<Vec<String>> = row
            .as_arr()
            .into_iter()
            .flatten()
            .map(|c| c.as_str().map(str::to_string))
            .collect();
        match (row.as_arr().is_some(), cells) {
            (true, Some(cells)) => rows.push(cells),
            _ => return Entry::Corrupt,
        }
    }
    Entry::Hit(rows)
}

/// Loads the cached rows for `key`, or `None` on miss / mismatch /
/// unreadable entry. (Thin wrapper over [`load_entry`] for callers
/// that do not care about quarantining.)
pub fn load(dir: &Path, key: &str) -> Option<Vec<Vec<String>>> {
    match load_entry(dir, key) {
        Entry::Hit(rows) => Some(rows),
        Entry::Miss | Entry::Corrupt => None,
    }
}

/// Stores `rows` under `key`, creating the cache directory on demand.
///
/// The entry is written to a uniquely named temporary file in the same
/// directory and atomically renamed into place, so a concurrent reader
/// (another sweep, a running `slb serve`) can never observe a torn
/// entry: it sees either the old file, the new file, or a miss.
///
/// # Errors
///
/// Propagates filesystem errors (callers treat a failed store as
/// non-fatal: the sweep result is already in hand).
pub fn store(dir: &Path, key: &str, rows: &[Vec<String>]) -> std::io::Result<()> {
    if slb_fault::fires("store.disk_write") {
        return Err(std::io::Error::other("injected: store.disk_write"));
    }
    std::fs::create_dir_all(dir)?;
    // Hand-rendered with one row per line: diffable, and the cache
    // entry doubles as a human-readable record of the job.
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":{CACHE_SCHEMA},\"key\":\"{}\",\"rows\":[\n",
        escape(key)
    ));
    for (i, row) in rows.iter().enumerate() {
        let cells: Vec<String> = row.iter().map(|c| format!("\"{}\"", escape(c))).collect();
        out.push_str(&format!(
            " [{}]{}\n",
            cells.join(","),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    let tmp = dir.join(format!(
        "{:016x}.tmp-{}-{}",
        fnv64(key),
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::write(&tmp, out)?;
    match std::fs::rename(&tmp, entry_path(dir, key)) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Disambiguates temp-file names when several threads of one process
/// store entries concurrently (the pid alone is not unique then).
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Pinned value: the cache file naming scheme must never drift.
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64("fig10"), fnv64("fig9"));
    }

    #[test]
    fn store_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("slb-exp-cache-{}", std::process::id()));
        let rows = vec![
            vec!["0.5".to_string(), "inf".to_string()],
            vec!["0.9".to_string(), "1.25\"x".to_string()],
        ];
        store(&dir, "k1", &rows).unwrap();
        assert_eq!(load(&dir, "k1"), Some(rows));
        assert_eq!(load(&dir, "k2"), None); // different key hashes elsewhere
                                            // A key whose file exists but holds a different key string is a miss.
        store(&dir, "k3", &[]).unwrap();
        assert_eq!(load(&dir, "k3"), Some(vec![]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workspace_root_detection() {
        // The test binary runs somewhere under the workspace; walking up
        // from the crate dir must find the root that holds Cargo.lock.
        let crate_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(&crate_dir);
        assert!(root.join("Cargo.lock").is_file());
        assert!(crate_dir.starts_with(&root));
    }
}
