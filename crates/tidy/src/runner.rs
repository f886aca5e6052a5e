//! The tidy run: execute every check, compare the panic ratchet
//! against the committed baseline, and collect diagnostics.

use crate::baseline::Baseline;
use crate::check::{Check, Diagnostic};
use crate::checks::api::TestOnlyApi;
use crate::checks::calendar::CalendarHygiene;
use crate::checks::determinism::Determinism;
use crate::checks::hygiene::{ForbidUnsafe, NoDebugMacros, OutDir, TraceHygiene};
use crate::checks::panic::{ratchet_counts, PanicPath, CLASSES};
use crate::scan::ScannedFile;

/// Every registered check, in reporting order.
#[must_use]
pub fn all_checks() -> Vec<Box<dyn Check>> {
    vec![
        Box::new(Determinism),
        Box::new(CalendarHygiene),
        Box::new(PanicPath),
        Box::new(ForbidUnsafe),
        Box::new(NoDebugMacros),
        Box::new(TraceHygiene),
        Box::new(OutDir),
        Box::new(TestOnlyApi),
    ]
}

/// The names every `tidy:allow(...)` directive may reference —
/// check names plus the ratchet's suppression key.
#[must_use]
pub fn known_allow_keys() -> Vec<&'static str> {
    let mut keys: Vec<&'static str> = all_checks().iter().map(|c| c.name()).collect();
    keys.push("panic-ratchet");
    keys
}

/// Outcome of a full tidy run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Every finding, in file order.
    pub diagnostics: Vec<Diagnostic>,
    /// The fresh panic-ratchet baseline computed from the tree (what
    /// `--bless` writes).
    pub fresh_baseline: Baseline,
}

impl RunOutcome {
    /// Whether the tree is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs every check over `files` against `baseline`.
///
/// `baseline` is `None` when `tidy_baseline.json` is missing — every
/// nonzero count then demands a bless, which is the right first-run
/// behavior.
#[must_use]
pub fn run(files: &[ScannedFile], baseline: Option<&Baseline>) -> RunOutcome {
    let mut diagnostics = Vec::new();
    for check in all_checks() {
        check.run(files, &mut diagnostics);
    }
    diagnostics.extend(files.iter().flat_map(|f| f.errors.iter().cloned()));
    validate_allow_keys(files, &mut diagnostics);

    let counts = ratchet_counts(files);
    let fresh_baseline = Baseline {
        crates: counts.clone(),
        // The request-path files are hard-forbidden above; the pinned
        // count is definitionally zero once PanicPath passes.
        server_request_path: 0,
    };
    compare_ratchet(&counts, baseline, &mut diagnostics);

    // Stable output: file order, then line, then check name.
    diagnostics.sort_by(|a, b| (&a.file, a.line, a.check).cmp(&(&b.file, b.line, b.check)));
    RunOutcome {
        diagnostics,
        fresh_baseline,
    }
}

/// Flags `tidy:allow(...)` directives naming a check that does not
/// exist — a typo there would silently disable nothing.
fn validate_allow_keys(files: &[ScannedFile], out: &mut Vec<Diagnostic>) {
    let known = known_allow_keys();
    for file in files {
        for (lineno, line) in file.numbered() {
            for key in &line.allows {
                if !known.contains(&key.as_str()) {
                    out.push(Diagnostic {
                        check: "tidy",
                        file: file.path.clone(),
                        line: lineno,
                        message: format!(
                            "unknown check `{key}` in tidy:allow(...); known: {}",
                            known.join(", ")
                        ),
                    });
                }
            }
        }
    }
}

fn compare_ratchet(
    counts: &std::collections::BTreeMap<String, crate::checks::panic::ClassCounts>,
    baseline: Option<&Baseline>,
    out: &mut Vec<Diagnostic>,
) {
    let Some(baseline) = baseline else {
        out.push(Diagnostic {
            check: "panic-ratchet",
            file: "tidy_baseline.json".to_string(),
            line: 0,
            message: "baseline file missing — run `cargo run -p coserve-tidy -- --bless` \
                      and commit the result"
                .to_string(),
        });
        return;
    };
    if baseline.server_request_path != 0 {
        out.push(Diagnostic {
            check: "panic-ratchet",
            file: "tidy_baseline.json".to_string(),
            line: 0,
            message: format!(
                "server_request_path pinned at {} — it must be 0",
                baseline.server_request_path
            ),
        });
    }
    let empty = crate::checks::panic::ClassCounts::new();
    let crate_names: std::collections::BTreeSet<&String> =
        counts.keys().chain(baseline.crates.keys()).collect();
    for name in crate_names {
        let fresh = counts.get(name).unwrap_or(&empty);
        let pinned = baseline.crates.get(name).unwrap_or(&empty);
        for class in CLASSES {
            let fresh_n = fresh.get(*class).copied().unwrap_or(0);
            let pinned_n = pinned.get(*class).copied().unwrap_or(0);
            if fresh_n > pinned_n {
                out.push(Diagnostic {
                    check: "panic-ratchet",
                    file: "tidy_baseline.json".to_string(),
                    line: 0,
                    message: format!(
                        "crate `{name}` has {fresh_n} `{class}` site(s), baseline pins \
                         {pinned_n}: remove the new site, justify it with a \
                         `// tidy:allow(panic-ratchet)` comment, or consciously re-bless \
                         with `cargo run -p coserve-tidy -- --bless`"
                    ),
                });
            } else if fresh_n < pinned_n {
                out.push(Diagnostic {
                    check: "panic-ratchet",
                    file: "tidy_baseline.json".to_string(),
                    line: 0,
                    message: format!(
                        "crate `{name}` is down to {fresh_n} `{class}` site(s) but the \
                         baseline still pins {pinned_n} — tighten the ratchet with \
                         `cargo run -p coserve-tidy -- --bless`"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileKind;

    fn clean_file() -> ScannedFile {
        ScannedFile::parse(
            "crates/model/src/lib.rs",
            "model",
            FileKind::Src,
            "#![forbid(unsafe_code)]\nfn f() -> u32 { 1 }\n",
        )
    }

    #[test]
    fn clean_tree_with_matching_baseline_passes() {
        let files = [clean_file()];
        let first = run(&files, None);
        assert!(!first.is_clean(), "missing baseline must fail");
        let second = run(&files, Some(&first.fresh_baseline));
        assert!(second.is_clean(), "{:?}", second.diagnostics);
    }

    #[test]
    fn new_panic_site_fails_against_stale_baseline() {
        let files = [clean_file()];
        let blessed = run(&files, None).fresh_baseline;
        let grown = [ScannedFile::parse(
            "crates/model/src/lib.rs",
            "model",
            FileKind::Src,
            "#![forbid(unsafe_code)]\npub fn f() -> u32 { x.unwrap() }\n",
        )];
        let outcome = run(&grown, Some(&blessed));
        assert!(outcome
            .diagnostics
            .iter()
            .any(|d| d.check == "panic-ratchet" && d.message.contains("1 `unwrap`")));
    }

    #[test]
    fn removed_panic_site_demands_a_tighter_baseline() {
        let files = [ScannedFile::parse(
            "crates/model/src/lib.rs",
            "model",
            FileKind::Src,
            "#![forbid(unsafe_code)]\npub fn f() -> u32 { x.unwrap() }\n",
        )];
        let blessed = run(&files, None).fresh_baseline;
        let shrunk = [clean_file()];
        let outcome = run(&shrunk, Some(&blessed));
        assert!(outcome
            .diagnostics
            .iter()
            .any(|d| d.check == "panic-ratchet" && d.message.contains("tighten the ratchet")));
    }

    #[test]
    fn scan_layout_errors_fail_the_run() {
        let files = [ScannedFile::parse(
            "crates/model/src/lib.rs",
            "model",
            FileKind::Src,
            "#![forbid(unsafe_code)]\n#[cfg(test)]\nfn helper() {}\npub fn f() {}\n",
        )];
        let blessed = run(&files, None).fresh_baseline;
        let outcome = run(&files, Some(&blessed));
        assert!(outcome
            .diagnostics
            .iter()
            .any(|d| d.check == "tidy" && d.line == 3 && d.message.contains("not a `mod`")));
    }

    #[test]
    fn unknown_allow_keys_are_reported() {
        let files = [ScannedFile::parse(
            "crates/model/src/lib.rs",
            "model",
            FileKind::Src,
            "#![forbid(unsafe_code)]\nlet x = 1; // tidy:allow(not-a-check)\n",
        )];
        let outcome = run(&files, None);
        assert!(outcome
            .diagnostics
            .iter()
            .any(|d| d.check == "tidy" && d.message.contains("not-a-check")));
    }
}
