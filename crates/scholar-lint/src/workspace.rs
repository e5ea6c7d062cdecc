//! Workspace discovery: find the Rust sources the rules judge and the
//! non-Rust documents some rules cross-check (DESIGN.md).
//!
//! The scan is deliberately narrow: `crates/*/src/**/*.rs`, the
//! production code. It does *not* descend into `crates/*/tests/`,
//! `target/`, or `examples/` — integration tests and examples are
//! allowed to unwrap freely, and fixture trees for this linter's own
//! tests live under `tests/` so the linter never lints its own bait.

use crate::source::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A loaded workspace: every file the rules look at.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute root the relative paths hang off.
    pub root: PathBuf,
    /// Lexed `.rs` files under `crates/*/src`.
    pub files: Vec<SourceFile>,
    /// `DESIGN.md` at the root, as lines, when present.
    pub design: Option<Vec<String>>,
}

impl Workspace {
    /// Load every relevant file under `root`. Files are ordered by
    /// path, so diagnostics come out stable run-to-run.
    pub fn load(root: &Path) -> io::Result<Self> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        for krate in sorted_dirs(&crates_dir)? {
            let dir = krate.join("src");
            if dir.is_dir() {
                for path in rust_files(&dir)? {
                    let rel = rel_path(root, &path);
                    let text = fs::read_to_string(&path)?;
                    files.push(SourceFile::parse(&rel, &text));
                }
            }
        }
        let design_path = root.join("DESIGN.md");
        let design = match fs::read_to_string(&design_path) {
            Ok(text) => Some(text.lines().map(str::to_string).collect()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        Ok(Workspace { root: root.to_path_buf(), files, design })
    }

    /// The file at this workspace-relative path, if it was scanned.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel)
    }
}

/// Immediate subdirectories of `dir`, sorted by name. An absent `dir`
/// yields an empty list (fixture trees may have no `crates/`).
fn sorted_dirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut out: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    out.sort();
    Ok(out)
}

/// All `.rs` files under `dir`, recursively, sorted by path.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// `path` relative to `root`, `/`-separated regardless of platform.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}
