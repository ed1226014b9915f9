//! Crash-resume checkpoint manifests for sweeps.
//!
//! A sweep over an expanded grid writes a small run manifest next to
//! its cache entries (`<cache-dir>/<spec-hash>.run.json`) recording
//! which job indices have completed and been published. The manifest is
//! updated with the same unique-temp-file + atomic-rename protocol as
//! the cache entries themselves, so a reader — or a crashed process's
//! successor — sees either the previous checkpoint or the new one,
//! never a torn file.
//!
//! The durable results live in the [`crate::store::CacheStore`]; the
//! manifest is the *bookkeeping* layer on top: it identifies an
//! interrupted run (a finished sweep deletes its manifest), lets
//! `slb sweep --resume` report how many points the previous run already
//! banked, and survives repeated interruptions by unioning the
//! completed sets. Replay correctness never depends on it — every
//! completed point is in the store and replays byte-identically — so a
//! lost manifest costs a log line, not a recompute.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::{escape, Json};

/// Bump when the manifest layout changes; a mismatched file is ignored
/// (treated as no checkpoint), never misread.
pub const MANIFEST_SCHEMA: u32 = 1;

/// How many completions may accumulate between checkpoint writes. A
/// crash loses at most this much *bookkeeping* (the results themselves
/// are already in the store), while a 100k-point sweep is not rewriting
/// its manifest on every job.
const FLUSH_EVERY: usize = 16;

/// The on-disk location of the manifest for a sweep whose expanded grid
/// hashes to `spec_hash`.
pub fn manifest_path(dir: &Path, spec_hash: u64) -> PathBuf {
    dir.join(format!("{spec_hash:016x}.run.json"))
}

struct State {
    completed: BTreeSet<usize>,
    /// Completions since the last persisted checkpoint.
    unflushed: usize,
}

/// One sweep run's checkpoint: identity (name, smoke flag, grid hash,
/// grid size) plus the set of completed job indices, persisted
/// atomically as workers finish jobs.
pub struct RunManifest {
    path: PathBuf,
    name: String,
    smoke: bool,
    total: usize,
    state: Mutex<State>,
}

impl std::fmt::Debug for RunManifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunManifest")
            .field("path", &self.path)
            .field("total", &self.total)
            .field("completed", &self.completed())
            .finish()
    }
}

impl RunManifest {
    /// Opens the manifest for one run. With `resume = true` an existing
    /// checkpoint for the *same* grid (schema, name, smoke flag and
    /// total all match) seeds the completed set; anything else — no
    /// file, a different grid, an unreadable file — starts empty.
    /// Returns the manifest and the number of points resumed from the
    /// previous run.
    pub fn open(
        dir: &Path,
        spec_hash: u64,
        name: &str,
        smoke: bool,
        total: usize,
        resume: bool,
    ) -> (RunManifest, usize) {
        let path = manifest_path(dir, spec_hash);
        let mut completed = BTreeSet::new();
        if resume {
            if let Some(prev) = load(&path, name, smoke, total) {
                completed = prev;
            }
        }
        let resumed = completed.len();
        (
            RunManifest {
                path,
                name: name.to_string(),
                smoke,
                total,
                state: Mutex::new(State {
                    completed,
                    unflushed: 0,
                }),
            },
            resumed,
        )
    }

    /// Records job `index` as completed-and-published, checkpointing to
    /// disk every `FLUSH_EVERY` (16) completions (and on the final one).
    pub fn complete(&self, index: usize) {
        let snapshot = {
            let mut state = self.state.lock().expect("manifest lock");
            if !state.completed.insert(index) {
                return; // resumed point replayed: already recorded
            }
            state.unflushed += 1;
            let due = state.unflushed >= FLUSH_EVERY || state.completed.len() == self.total;
            if !due {
                return;
            }
            state.unflushed = 0;
            state.completed.clone()
        };
        self.persist(&snapshot);
    }

    /// Number of completed points recorded so far.
    pub fn completed(&self) -> usize {
        self.state.lock().expect("manifest lock").completed.len()
    }

    /// Forces a checkpoint write (the interrupt path: in-flight results
    /// have drained and the process is about to exit).
    pub fn flush(&self) {
        let snapshot = {
            let mut state = self.state.lock().expect("manifest lock");
            state.unflushed = 0;
            state.completed.clone()
        };
        self.persist(&snapshot);
    }

    /// Retires the manifest after a fully successful sweep: no file
    /// means no interrupted run to resume.
    pub fn finish(&self) {
        let _ = std::fs::remove_file(&self.path);
    }

    fn persist(&self, completed: &BTreeSet<usize>) {
        if let Err(e) = self.write(completed) {
            // Non-fatal by design: the results are already in the
            // store; only the resume bookkeeping is degraded.
            eprintln!("warning: cannot write sweep manifest: {e}");
        }
    }

    fn write(&self, completed: &BTreeSet<usize>) -> std::io::Result<()> {
        let dir = self.path.parent().unwrap_or_else(|| Path::new("."));
        std::fs::create_dir_all(dir)?;
        let indices: Vec<String> = completed.iter().map(usize::to_string).collect();
        let body = format!(
            "{{\"schema\":{MANIFEST_SCHEMA},\"name\":\"{}\",\"smoke\":{},\"total\":{},\
             \"completed\":[{}]}}\n",
            escape(&self.name),
            self.smoke,
            self.total,
            indices.join(",")
        );
        let tmp = dir.join(format!(
            "{}.tmp-{}",
            self.path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            std::process::id()
        ));
        std::fs::write(&tmp, body)?;
        match std::fs::rename(&tmp, &self.path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// Reads a checkpoint, returning its completed set only when it
/// describes the same run (schema, name, smoke, total).
fn load(path: &Path, name: &str, smoke: bool, total: usize) -> Option<BTreeSet<usize>> {
    let src = std::fs::read_to_string(path).ok()?;
    let doc = Json::parse(&src).ok()?;
    if doc.get("schema").and_then(Json::as_f64) != Some(f64::from(MANIFEST_SCHEMA))
        || doc.get("name").and_then(Json::as_str) != Some(name)
        || doc.get("smoke") != Some(&Json::Bool(smoke))
        || doc.get("total").and_then(Json::as_f64) != Some(total as f64)
    {
        return None;
    }
    let completed: BTreeSet<usize> = doc
        .get("completed")?
        .as_arr()?
        .iter()
        .filter_map(|v| v.as_f64().map(|x| x as usize))
        .filter(|&i| i < total)
        .collect();
    Some(completed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slb-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_roundtrip_and_resume() {
        let dir = temp_dir("roundtrip");
        let (m, resumed) = RunManifest::open(&dir, 0xabcd, "demo", true, 40, false);
        assert_eq!(resumed, 0);
        for i in 0..20 {
            m.complete(i);
        }
        m.flush();
        // A resuming run over the same grid sees the checkpoint...
        let (m2, resumed) = RunManifest::open(&dir, 0xabcd, "demo", true, 40, true);
        assert_eq!(resumed, 20);
        assert_eq!(m2.completed(), 20);
        // ...and a second interruption unions the sets.
        m2.complete(25);
        m2.flush();
        let (_, resumed) = RunManifest::open(&dir, 0xabcd, "demo", true, 40, true);
        assert_eq!(resumed, 21);
        // A *different* grid (total changed) ignores the stale file.
        let (_, resumed) = RunManifest::open(&dir, 0xabcd, "demo", true, 41, true);
        assert_eq!(resumed, 0);
        // Without --resume the checkpoint is ignored too.
        let (_, resumed) = RunManifest::open(&dir, 0xabcd, "demo", true, 40, false);
        assert_eq!(resumed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_retires_the_checkpoint() {
        let dir = temp_dir("finish");
        let (m, _) = RunManifest::open(&dir, 0x1, "demo", false, 4, false);
        m.complete(0);
        m.flush();
        assert!(manifest_path(&dir, 0x1).is_file());
        m.finish();
        assert!(!manifest_path(&dir, 0x1).is_file());
        let (_, resumed) = RunManifest::open(&dir, 0x1, "demo", false, 4, true);
        assert_eq!(resumed, 0, "a finished run leaves nothing to resume");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_mismatched_manifest_is_ignored() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(manifest_path(&dir, 0x2), "{not json").unwrap();
        let (_, resumed) = RunManifest::open(&dir, 0x2, "demo", false, 4, true);
        assert_eq!(resumed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
