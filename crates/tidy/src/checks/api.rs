//! Public API that only tests reach.

use std::collections::BTreeSet;

use crate::check::{allowed, Check, Diagnostic};
use crate::scan::{FileKind, Line, ScannedFile};

/// A `pub fn` of a library that no non-test code names is kept alive
/// only by its own tests, yet every later change must keep it
/// compiling, documented and tested. Each one either gains a real
/// caller or goes; a function kept on purpose says why with
/// `// tidy:allow(test-only-api)`.
///
/// Non-test code is library code outside its trailing test modules,
/// binaries (`src/main.rs`, `src/bin/`), `examples/`,
/// `crates/*/benches/` and the benchmark's `perfbench/src` outside its
/// test modules. A name counts as called when it appears there in call
/// position (`name(`, `name::<`) or as a path segment (`::name`), but
/// not in a `fn` definition or a `pub use` re-export; a field, a local
/// or a struct-literal key of the same name is no caller. Tests (`tests/`,
/// `crates/*/tests/`, trailing test modules) are not callers. The check
/// matches names, not types: a call to another type's method of the
/// same name still counts. The allow comment goes on the `pub fn` line
/// or above the item's attributes.
#[derive(Debug)]
pub struct TestOnlyApi;

impl Check for TestOnlyApi {
    fn name(&self) -> &'static str {
        "test-only-api"
    }

    fn run(&self, files: &[ScannedFile], out: &mut Vec<Diagnostic>) {
        let mut called: BTreeSet<&str> = BTreeSet::new();
        for file in files {
            let caller_file = is_example_or_bench(&file.path);
            if !caller_file && !matches!(file.kind, FileKind::Src | FileKind::Benchmark) {
                continue;
            }
            let mut in_pub_use = false;
            for line in &file.lines {
                if line.in_test && !caller_file {
                    continue;
                }
                let code = line.code.trim();
                in_pub_use |= is_pub_use(code);
                if !in_pub_use {
                    called.extend(called_names(code));
                }
                in_pub_use &= !code.contains(';');
            }
        }
        for file in files {
            if file.kind != FileKind::Src || is_binary(&file.path) {
                continue;
            }
            for (i, line) in file.lines.iter().enumerate() {
                let Some(name) = pub_fn_name(line) else {
                    continue;
                };
                // A floating allow lands on the item's first attribute.
                let mut attributes = file.lines.iter().take(i).rev().take_while(|l| {
                    let code = l.code.trim();
                    code.is_empty() || code.starts_with("#[")
                });
                let silenced =
                    allowed(line, self.name()) || attributes.any(|attr| allowed(attr, self.name()));
                if !called.contains(name) && !silenced {
                    out.push(Diagnostic {
                        check: self.name(),
                        file: file.path.clone(),
                        line: i + 1,
                        message: format!(
                            "`pub fn {name}` has no caller outside tests — give it one, \
                             move it into the trailing test module, or delete it"
                        ),
                    });
                }
            }
        }
    }
}

/// Files whose every line is a caller although the scan marks them as
/// test code: examples and criterion benches.
fn is_example_or_bench(path: &str) -> bool {
    path.starts_with("examples/") || (path.starts_with("crates/") && path.contains("/benches/"))
}

/// Binary targets define no library API.
fn is_binary(path: &str) -> bool {
    path.ends_with("src/main.rs") || path.contains("/src/bin/")
}

/// Whether a code line opens a `pub use` (or `pub(...) use`) item.
fn is_pub_use(code: &str) -> bool {
    let Some(rest) = code.strip_prefix("pub") else {
        return false;
    };
    let rest = match rest.strip_prefix('(') {
        Some(scoped) => scoped.split_once(')').map_or("", |(_, after)| after),
        None => rest,
    };
    rest.trim_start().starts_with("use ")
}

/// The name a non-test `pub fn` or `pub const fn` line defines.
fn pub_fn_name(line: &Line) -> Option<&str> {
    if line.in_test {
        return None;
    }
    let code = line.code.trim_start();
    let rest = code
        .strip_prefix("pub fn ")
        .or_else(|| code.strip_prefix("pub const fn "))?;
    let end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
    rest.get(..end).filter(|name| !name.is_empty())
}

/// Identifier tokens on a code line in call position (`name(`,
/// `name::<`) or after a path separator (`::name`), skipping the name
/// each `fn` keyword defines.
fn called_names(code: &str) -> impl Iterator<Item = &str> {
    let mut after_fn = false;
    code.split(|c: char| !is_ident_char(c))
        .filter(|token| !token.is_empty())
        .filter(move |&token| {
            let definition = std::mem::replace(&mut after_fn, token == "fn");
            // `split` yields subslices of `code`: a token's offset is
            // its distance from the start of the line.
            let start = token.as_ptr() as usize - code.as_ptr() as usize;
            let before = code.get(..start).unwrap_or_default();
            let after = code.get(start + token.len()..).unwrap_or_default();
            let called =
                before.ends_with("::") || after.starts_with('(') || after.starts_with("::<");
            called && !definition
        })
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(content: &str) -> ScannedFile {
        ScannedFile::parse("crates/core/src/lib.rs", "core", FileKind::Src, content)
    }

    fn findings(files: &[ScannedFile]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        TestOnlyApi.run(files, &mut out);
        out
    }

    #[test]
    fn a_function_only_tests_call_is_flagged() {
        let files = [
            lib(
                "pub fn used() {}\npub fn lonely() -> u32 { 1 }\nfn run() { used(); }\n\
                 #[cfg(test)]\nmod tests { fn t() { super::lonely(); } }\n",
            ),
            ScannedFile::parse(
                "tests/it.rs",
                "coserve",
                FileKind::TestDir,
                "fn t() { lonely(); }\n",
            ),
        ];
        let out = findings(&files);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 2);
        assert!(out[0].message.contains("lonely"));
    }

    #[test]
    fn a_caller_in_an_example_clears_it() {
        let example = ScannedFile::parse(
            "examples/demo.rs",
            "coserve",
            FileKind::TestDir,
            "fn main() { coserve_core::lonely(); }\n",
        );
        let bench = ScannedFile::parse(
            "crates/bench/benches/engine.rs",
            "bench",
            FileKind::TestDir,
            "fn bench() { coserve_core::other(); }\n",
        );
        let files = [
            lib("pub fn lonely() {}\npub const fn other() {}\n"),
            example,
            bench,
        ];
        assert!(findings(&files).is_empty());
    }

    #[test]
    fn only_calls_and_paths_count() {
        // A field, a struct-literal key and a local are no callers.
        let files = [
            lib("pub fn seed() -> u64 { 7 }\n"),
            ScannedFile::parse(
                "crates/workload/src/lib.rs",
                "workload",
                FileKind::Src,
                "struct O { seed: u64 }\nfn f(o: &O) -> u64 { let seed = o.seed; \
                 O { seed }.seed + seed }\n",
            ),
        ];
        let out = findings(&files);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`pub fn seed`"));
        // A method call, a turbofish call and a path each clear one.
        let files = [
            lib("pub fn a() {}\npub fn b<T>() {}\npub fn c() {}\n"),
            ScannedFile::parse(
                "crates/bench/src/lib.rs",
                "bench",
                FileKind::Src,
                "fn f(x: X) { x.a(); b::<u8>(); run(Lib::c); }\n",
            ),
        ];
        assert!(findings(&files).is_empty());
    }

    #[test]
    fn a_caller_in_the_benchmark_clears_it() {
        let benchmark = |content| {
            ScannedFile::parse(
                "perfbench/src/offline.rs",
                "perfbench",
                FileKind::Benchmark,
                content,
            )
        };
        let files = [
            lib("pub fn interval() -> u32 { 1 }\n"),
            benchmark("fn run(task: &Task) -> u32 { task.interval() }\n"),
        ];
        assert!(findings(&files).is_empty());
        // The benchmark's own test module is no caller, and its
        // `pub fn`s are not library API.
        let files = [
            lib("pub fn interval() -> u32 { 1 }\n"),
            benchmark("pub fn unused() {}\n#[cfg(test)]\nmod tests { fn t() { interval(); } }\n"),
        ];
        let out = findings(&files);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("interval"));
    }

    #[test]
    fn a_pub_use_alone_does_not_clear_it() {
        let facade = ScannedFile::parse(
            "crates/coserve/src/lib.rs",
            "coserve",
            FileKind::Src,
            "pub use coserve_core::lonely;\npub use coserve_core::{\n    lonely as alias,\n};\n",
        );
        let files = [lib("pub fn lonely() {}\n"), facade];
        let out = findings(&files);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("lonely"));
    }

    #[test]
    fn the_allow_comment_silences_it() {
        let files = [lib("// Kept for the next tracing change.\n\
             // tidy:allow(test-only-api)\npub fn lonely() {}\n\
             pub fn other() {} // tidy:allow(test-only-api) same-line form\n\
             /// Documented.\n// tidy:allow(test-only-api)\n#[must_use]\n\
             #[inline]\npub fn third() -> u32 { 3 }\n")];
        assert!(findings(&files).is_empty());
        // The allow covers only the item it sits on.
        let files = [lib(
            "// tidy:allow(test-only-api)\npub fn lonely() {}\n#[must_use]\npub fn next() {}\n",
        )];
        let out = findings(&files);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("next"));
    }
}
