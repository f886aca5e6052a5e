//! Hygiene checks: `#![forbid(unsafe_code)]` presence, leftover debug
//! macros, stdout/stderr discipline in libraries, and artifact-path
//! discipline.

use std::collections::BTreeSet;

use crate::check::{allowed, find_token, Check, Diagnostic};
use crate::scan::{FileKind, ScannedFile};

/// Every crate root must carry `#![forbid(unsafe_code)]` — the
/// workspace has zero `unsafe` and intends to keep it that way (the
/// `[workspace.lints]` table enforces it at build time; this check
/// keeps the attribute visible at the top of every crate).
#[derive(Debug)]
pub struct ForbidUnsafe;

/// Crate-root files: `src/lib.rs`, or `src/main.rs` for binary-only
/// crates.
fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs") || path.ends_with("src/main.rs")
}

impl Check for ForbidUnsafe {
    fn name(&self) -> &'static str {
        "forbid-unsafe"
    }

    fn run(&self, files: &[ScannedFile], out: &mut Vec<Diagnostic>) {
        // A crate with both lib.rs and main.rs only needs the
        // attribute in lib.rs (main.rs links against the lib).
        let has_lib: BTreeSet<&str> = files
            .iter()
            .filter(|f| f.path.ends_with("src/lib.rs"))
            .map(|f| f.crate_name.as_str())
            .collect();
        for file in files {
            if !is_crate_root(&file.path) {
                continue;
            }
            if file.path.ends_with("src/main.rs") && has_lib.contains(file.crate_name.as_str()) {
                continue;
            }
            let present = file
                .lines
                .iter()
                .any(|l| l.code.replace(' ', "").contains("#![forbid(unsafe_code)]"));
            if !present {
                out.push(Diagnostic {
                    check: self.name(),
                    file: file.path.clone(),
                    line: 0,
                    message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
                });
            }
        }
    }
}

/// No `dbg!`/`todo!`/`unimplemented!` anywhere — including tests:
/// they are leftovers, not API.
#[derive(Debug)]
pub struct NoDebugMacros;

impl Check for NoDebugMacros {
    fn name(&self) -> &'static str {
        "no-debug-macros"
    }

    fn run(&self, files: &[ScannedFile], out: &mut Vec<Diagnostic>) {
        for file in files {
            if file.kind == FileKind::Vendor {
                continue;
            }
            for (lineno, line) in file.numbered() {
                if allowed(line, self.name()) {
                    continue;
                }
                for pattern in ["dbg!", "todo!", "unimplemented!"] {
                    if find_token(&line.code, pattern).is_some() {
                        out.push(Diagnostic {
                            check: self.name(),
                            file: file.path.clone(),
                            line: lineno,
                            message: format!("leftover `{pattern}` — remove before committing"),
                        });
                    }
                }
            }
        }
    }
}

/// Library code must not print: now that the stack carries a real
/// tracing channel (`coserve-trace`) and the metrics crate renders
/// tables on demand, ad-hoc `println!`/`eprintln!` in a library is
/// either debug residue or output that belongs to a caller. Binaries
/// (`src/main.rs`, `src/bin/*`) own their stdout and are exempt, as is
/// test code.
#[derive(Debug)]
pub struct TraceHygiene;

/// Binary targets own their stdout/stderr.
fn is_binary(path: &str) -> bool {
    path.ends_with("src/main.rs") || path.contains("/src/bin/")
}

impl Check for TraceHygiene {
    fn name(&self) -> &'static str {
        "trace-hygiene"
    }

    fn run(&self, files: &[ScannedFile], out: &mut Vec<Diagnostic>) {
        for file in files {
            if file.kind != FileKind::Src || is_binary(&file.path) {
                continue;
            }
            for (lineno, line) in file.numbered() {
                if line.in_test || allowed(line, self.name()) {
                    continue;
                }
                for pattern in ["println!", "eprintln!"] {
                    if find_token(&line.code, pattern).is_some() {
                        out.push(Diagnostic {
                            check: self.name(),
                            file: file.path.clone(),
                            line: lineno,
                            message: format!(
                                "`{pattern}` in library code — emit a trace event or \
                                 return the text to the caller; printing is for binaries"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Artifact-path discipline: the `target/figures` fallback is decided
/// exactly once, in `coserve_metrics::output`.
#[derive(Debug)]
pub struct OutDir;

/// The single file allowed to name the default artifact directory.
const OUT_DIR_OWNER: &str = "crates/metrics/src/output.rs";

impl Check for OutDir {
    fn name(&self) -> &'static str {
        "out-dir"
    }

    fn run(&self, files: &[ScannedFile], out: &mut Vec<Diagnostic>) {
        for file in files {
            if file.kind == FileKind::Vendor {
                continue;
            }
            for (lineno, line) in file.numbered() {
                if line.in_test || allowed(line, self.name()) {
                    continue;
                }
                // The probe itself must name the forbidden path.
                // tidy:allow(out-dir)
                if file.path != OUT_DIR_OWNER && line.literals.contains("target/figures") {
                    out.push(Diagnostic {
                        check: self.name(),
                        file: file.path.clone(),
                        line: lineno,
                        // The diagnostic must name the path it forbids.
                        // tidy:allow(out-dir)
                        message: "hardcoded `target/figures` path — resolve it through \
                                  coserve_metrics::output::out_dir instead"
                            .to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_forbid_unsafe_is_flagged_at_file_level() {
        let file = ScannedFile::parse(
            "crates/core/src/lib.rs",
            "core",
            FileKind::Src,
            "//! docs\npub mod engine;\n",
        );
        let mut out = Vec::new();
        ForbidUnsafe.run(&[file], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 0);
    }

    #[test]
    fn present_forbid_unsafe_passes_and_main_defers_to_lib() {
        let lib = ScannedFile::parse(
            "crates/server/src/lib.rs",
            "server",
            FileKind::Src,
            "#![forbid(unsafe_code)]\npub mod server;\n",
        );
        let main = ScannedFile::parse(
            "crates/server/src/main.rs",
            "server",
            FileKind::Src,
            "fn main() {}\n",
        );
        let mut out = Vec::new();
        ForbidUnsafe.run(&[lib, main], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn debug_macros_are_flagged_even_in_tests() {
        let file = ScannedFile::parse(
            "crates/core/src/engine.rs",
            "core",
            FileKind::Src,
            "#[cfg(test)]\nmod tests { fn t() { dbg!(1); } }\n",
        );
        let mut out = Vec::new();
        NoDebugMacros.run(&[file], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn library_prints_are_flagged_but_binaries_and_tests_pass() {
        let lib = ScannedFile::parse(
            "crates/core/src/engine.rs",
            "core",
            FileKind::Src,
            "println!(\"debug\");\neprintln!(\"oops\");\n",
        );
        let mut out = Vec::new();
        TraceHygiene.run(&[lib], &mut out);
        assert_eq!(out.len(), 2);

        let exempt = [
            ScannedFile::parse(
                "crates/server/src/main.rs",
                "server",
                FileKind::Src,
                "println!(\"listening\");\n",
            ),
            ScannedFile::parse(
                "crates/bench/src/bin/fig01.rs",
                "bench",
                FileKind::Src,
                "println!(\"row\");\n",
            ),
            ScannedFile::parse(
                "crates/core/src/pool.rs",
                "core",
                FileKind::Src,
                "#[cfg(test)]\nmod tests { fn t() { println!(\"ok\"); } }\n",
            ),
            ScannedFile::parse(
                "crates/core/tests/e2e.rs",
                "core",
                FileKind::TestDir,
                "println!(\"ok\");\n",
            ),
        ];
        let mut out = Vec::new();
        TraceHygiene.run(&exempt, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn trace_hygiene_suppression_works() {
        let file = ScannedFile::parse(
            "crates/bench/src/lib.rs",
            "bench",
            FileKind::Src,
            "println!(\"[csv] {}\", p); // tidy:allow(trace-hygiene) harness output\n",
        );
        let mut out = Vec::new();
        TraceHygiene.run(&[file], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hardcoded_figures_path_is_flagged_outside_the_owner() {
        let rogue = ScannedFile::parse(
            "crates/bench/src/lib.rs",
            "bench",
            FileKind::Src,
            "let p = \"target/figures\";\n",
        );
        let owner = ScannedFile::parse(
            OUT_DIR_OWNER,
            "metrics",
            FileKind::Src,
            ".join(\"target/figures\")\n",
        );
        let mut out = Vec::new();
        OutDir.run(&[rogue, owner], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].file.contains("bench"));
    }
}
