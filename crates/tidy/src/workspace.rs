//! Workspace discovery: find the root, walk the crates, scan every
//! Rust source file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::scan::{FileKind, ScannedFile};

/// Locates the workspace root from this crate's manifest directory
/// (`<root>/crates/tidy` at build time).
#[must_use]
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(manifest)
        .to_path_buf()
}

/// Scans every first-party crate under `crates/` (src, tests and
/// benches trees) plus the vendored stand-ins under `vendor/`
/// (crate roots only — see [`FileKind::Vendor`]). Also scans the
/// repository-level `tests/` and `examples/` trees, which belong to
/// the `coserve` facade crate, and the benchmark's `perfbench/src`
/// (see [`FileKind::Benchmark`]).
///
/// # Errors
///
/// Propagates I/O failures with the offending path in the message.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<ScannedFile>> {
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        let base = root.join(dir);
        for entry in read_dir_sorted(&base)? {
            if !entry.is_dir() {
                continue;
            }
            let crate_name = file_name(&entry);
            let kind_of = |sub: &str| match (dir, sub) {
                ("vendor", _) => FileKind::Vendor,
                (_, "src") => FileKind::Src,
                _ => FileKind::TestDir,
            };
            for sub in ["src", "tests", "benches"] {
                let tree = entry.join(sub);
                if tree.is_dir() {
                    scan_tree(root, &tree, &crate_name, kind_of(sub), &mut files)?;
                }
            }
        }
    }
    // Root-level integration tests and examples are attached to the
    // `coserve` facade crate in its manifest.
    for dir in ["tests", "examples"] {
        let tree = root.join(dir);
        if tree.is_dir() {
            scan_tree(root, &tree, "coserve", FileKind::TestDir, &mut files)?;
        }
    }
    let benchmark = root.join("perfbench").join("src");
    if benchmark.is_dir() {
        scan_tree(
            root,
            &benchmark,
            "perfbench",
            FileKind::Benchmark,
            &mut files,
        )?;
    }
    Ok(files)
}

fn scan_tree(
    root: &Path,
    tree: &Path,
    crate_name: &str,
    kind: FileKind,
    out: &mut Vec<ScannedFile>,
) -> io::Result<()> {
    for entry in read_dir_sorted(tree)? {
        if entry.is_dir() {
            scan_tree(root, &entry, crate_name, kind, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            let content = fs::read_to_string(&entry)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", entry.display())))?;
            let rel = entry
                .strip_prefix(root)
                .unwrap_or(&entry)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(ScannedFile::parse(&rel, crate_name, kind, &content));
        }
    }
    Ok(())
}

/// Reads a directory in sorted order so diagnostics are stable across
/// filesystems (tidy holds itself to its own determinism bar).
fn read_dir_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", dir.display())))?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}
