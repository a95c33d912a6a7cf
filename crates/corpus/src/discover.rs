//! Corpus discovery: find every `.ftrc` trace under a root directory.
//!
//! Discovery order is part of the determinism contract — job ids are
//! assigned in discovery order, so the walk sorts every directory's
//! entries and yields `/`-separated relative paths that compare the same
//! on every platform and filesystem.

#![warn(missing_docs)]

use futrace_util::crc32::crc32;
use std::io;
use std::path::{Path, PathBuf};

/// One discovered trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TraceEntry {
    /// Path relative to the corpus root, `/`-separated (stable key for
    /// manifests and reports).
    pub rel: String,
    /// Absolute (root-joined) path for reading.
    pub path: PathBuf,
    /// File size in bytes (manifest invalidation guard).
    pub len: u64,
    /// CRC-32 of the file contents (manifest invalidation guard: a
    /// same-length in-place edit still invalidates stale records).
    pub crc: u32,
}

/// Recursively collects every `*.ftrc` file under `root`, sorted by
/// relative path. Symlinked directories are not followed (a corpus with
/// a symlink cycle must not hang the run).
pub(crate) fn discover(root: &Path) -> io::Result<Vec<TraceEntry>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<TraceEntry>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let ftype = entry.file_type()?;
        if ftype.is_dir() {
            walk(root, &path, out)?;
        } else if ftype.is_file() && path.extension().is_some_and(|e| e == "ftrc") {
            let rel = path
                .strip_prefix(root)
                .expect("walked paths sit under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            // Hash the contents, not just the length: resume records are
            // keyed on what was actually analyzed, so a same-size rewrite
            // must invalidate them. len comes from the same read so the
            // two guards can never disagree about which bytes they saw.
            let data = std::fs::read(&path)?;
            let crc = crc32(&data);
            let len = data.len() as u64;
            out.push(TraceEntry {
                rel,
                path,
                len,
                crc,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "futrace_discover_{tag}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn finds_nested_traces_sorted_and_skips_other_files() {
        let root = scratch("nested");
        std::fs::create_dir_all(root.join("sub/deeper")).unwrap();
        std::fs::write(root.join("b.ftrc"), b"x").unwrap();
        std::fs::write(root.join("a.ftrc"), b"xy").unwrap();
        std::fs::write(root.join("sub/c.ftrc"), b"xyz").unwrap();
        std::fs::write(root.join("sub/deeper/d.ftrc"), b"").unwrap();
        std::fs::write(root.join("notes.txt"), b"ignored").unwrap();
        std::fs::write(root.join("sub/trace.ftrc.bak"), b"ignored").unwrap();

        let found = discover(&root).unwrap();
        let rels: Vec<_> = found.iter().map(|t| t.rel.as_str()).collect();
        assert_eq!(
            rels,
            vec!["a.ftrc", "b.ftrc", "sub/c.ftrc", "sub/deeper/d.ftrc"]
        );
        assert_eq!(found[0].len, 2);
        assert_eq!(found[3].len, 0);
        // Same length, different bytes → different content hash.
        assert_ne!(found[0].crc, crc32(b"zz"));
        assert_eq!(found[0].crc, crc32(b"xy"));
        assert_eq!(found[3].crc, crc32(b""));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_dir_is_empty_corpus() {
        let root = scratch("empty");
        assert!(discover(&root).unwrap().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_root_is_io_error() {
        let root = scratch("gone");
        std::fs::remove_dir_all(&root).unwrap();
        assert!(discover(&root).is_err());
    }
}
