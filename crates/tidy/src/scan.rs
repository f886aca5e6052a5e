//! The token-level Rust scanner.
//!
//! Checks must see *code*, not text: a doc comment mentioning
//! `HashMap`, a diagnostic string containing `.unwrap()`, or a test
//! fixture embedding `panic!` are all fine. The scanner walks a file
//! once and produces, per line, the source with comments removed and
//! string/char literal bodies blanked out (quotes are kept so token
//! shapes survive), plus the literal bodies separately for the few
//! checks that need them (e.g. the `target/figures` path-literal rule).
//!
//! It is not a full lexer — no token tree, no spans — but it handles
//! the lexical constructs that defeat grep: line comments, nested
//! block comments, cooked strings with escapes, raw strings with any
//! number of `#`s, byte/C-string prefixes, char literals, and the
//! char-literal-vs-lifetime ambiguity (`'a'` vs `<'a>`).
//!
//! Suppressions ride on line comments: `// tidy:allow(check-a,check-b)`
//! silences those checks on the same line, or — when the comment is
//! alone on its line — on the next line that carries code.
//!
//! Every line from a file's first `#[cfg(test)]` on counts as test
//! code, which the checks exempt. That is sound only while the file
//! ends in its test modules, so the scan also reports
//! [`ScannedFile::errors`] when the layout breaks it: a `#[cfg(test)]`
//! on an item that is not a `mod`, or non-test code after the test
//! tail.

use crate::check::Diagnostic;

/// Where a scanned file sits in the workspace, which decides the set
/// of checks that apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A `src/` file of a first-party crate: every check applies.
    Src,
    /// A `tests/` or `benches/` file: treated as all-test code.
    TestDir,
    /// A vendored stand-in crate: only the `forbid-unsafe` hygiene
    /// check applies.
    Vendor,
    /// A `src/` file of the repository benchmark (`perfbench/`), a
    /// workspace of its own that tidy does not police: only
    /// `test-only-api` reads it, to count its calls into the libraries.
    /// Its test tail is marked as in a `Src` file, without layout
    /// errors.
    Benchmark,
}

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line's code: comments stripped, literal bodies blanked.
    /// Quotes are preserved, so `"x"` scans as `""`-shaped code.
    pub code: String,
    /// Bodies of string/char literals that (partly) sit on this line.
    pub literals: String,
    /// Check names suppressed on this line via `tidy:allow(...)`.
    pub allows: Vec<String>,
    /// Whether the line is inside the file's `#[cfg(test)]` tail or a
    /// test-directory file.
    pub in_test: bool,
}

/// A scanned file, ready for checks.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Workspace-relative path, e.g. `crates/core/src/engine.rs`.
    pub path: String,
    /// The owning crate's short name, e.g. `core`.
    pub crate_name: String,
    /// Which rule set applies.
    pub kind: FileKind,
    /// Scanned lines, index 0 = line 1.
    pub lines: Vec<Line>,
    /// Layout errors that make the test-tail marking unsound (see the
    /// module docs). The runner reports them under the `tidy` key,
    /// which no `tidy:allow` can silence.
    pub errors: Vec<Diagnostic>,
}

impl ScannedFile {
    /// Scans `content` into per-line code/literal/suppression records.
    #[must_use]
    pub fn parse(path: &str, crate_name: &str, kind: FileKind, content: &str) -> ScannedFile {
        let mut lines = scan_lines(content);
        let layout = mark_test_tail(&mut lines, kind);
        float_comment_only_allows(&mut lines);
        let errors = layout
            .into_iter()
            .map(|(line, message)| Diagnostic {
                check: "tidy",
                file: path.to_string(),
                line,
                message: message.to_string(),
            })
            .collect();
        ScannedFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            lines,
            errors,
        }
    }

    /// Iterates `(1-based line number, line)` pairs.
    pub fn numbered(&self) -> impl Iterator<Item = (usize, &Line)> {
        self.lines.iter().enumerate().map(|(i, l)| (i + 1, l))
    }
}

/// Scanner state across newlines.
enum State {
    /// Plain code.
    Normal,
    /// Inside `/* ... */`, tracking nesting depth.
    BlockComment(u32),
    /// Inside a cooked string (`"`, `b"`, `c"`): escapes apply.
    Cooked,
    /// Inside a raw string with `n` `#`s (`r"`, `r#"`, `br##"`, ...).
    Raw(u32),
}

fn scan_lines(content: &str) -> Vec<Line> {
    let chars: Vec<char> = content.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = blank_line();
    let mut state = State::Normal;
    let mut i = 0usize;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            lines.push(std::mem::replace(&mut cur, blank_line()));
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    // Line comment: consume to EOL. Plain `//`
                    // comments are mined for a tidy:allow directive;
                    // doc comments (`///`, `//!`) are prose — they
                    // describe the syntax, they don't invoke it.
                    let is_doc = chars.get(i + 2) == Some(&'/') || chars.get(i + 2) == Some(&'!');
                    let start = i;
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                    if !is_doc {
                        let text: String = chars[start..i].iter().collect();
                        cur.allows.extend(parse_allows(&text));
                    }
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Cooked;
                    i += 1;
                } else if c == '\'' {
                    i = scan_quote(&chars, i, &mut cur);
                } else if c.is_alphabetic() || c == '_' {
                    // Read a full identifier so raw/byte string
                    // prefixes are recognized as literal openers.
                    let start = i;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    let ident: String = chars[start..i].iter().collect();
                    if matches!(ident.as_str(), "r" | "br" | "cr") {
                        let mut hashes = 0u32;
                        let mut j = i;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            cur.code.push('"');
                            state = State::Raw(hashes);
                            i = j + 1;
                            continue;
                        }
                    } else if matches!(ident.as_str(), "b" | "c") && chars.get(i) == Some(&'"') {
                        cur.code.push('"');
                        state = State::Cooked;
                        i += 1;
                        continue;
                    }
                    cur.code.push_str(&ident);
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::BlockComment(depth) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    i += 1;
                }
            }
            State::Cooked => {
                if c == '\\' {
                    // Keep the escape body out of `code` but in
                    // `literals`; `\"` must not close the string.
                    cur.literals.push(c);
                    if let Some(&next) = chars.get(i + 1) {
                        if next != '\n' {
                            cur.literals.push(next);
                        }
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Normal;
                    i += 1;
                } else {
                    cur.literals.push(c);
                    i += 1;
                }
            }
            State::Raw(hashes) => {
                if c == '"' {
                    let n = hashes as usize;
                    let closes = (0..n).all(|k| chars.get(i + 1 + k) == Some(&'#'));
                    if closes {
                        cur.code.push('"');
                        state = State::Normal;
                        i += 1 + n;
                        continue;
                    }
                }
                cur.literals.push(c);
                i += 1;
            }
        }
    }
    lines.push(cur);
    lines
}

/// Scans a `'` at `chars[i]` in code position: either a char literal
/// (blanked like strings) or a lifetime/label (kept as code). Returns
/// the index to resume at.
fn scan_quote(chars: &[char], i: usize, line: &mut Line) -> usize {
    // Char literal if the quote closes within a couple of tokens:
    //   '\n'  'x'  '\u{1F600}'
    // Lifetime/label otherwise: 'a , 'static , 'outer:
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char literal: consume to the closing quote.
            line.code.push('\'');
            let mut j = i + 2;
            while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                line.literals.push(chars[j]);
                j += 1;
            }
            line.code.push('\'');
            j + 1
        }
        Some(&c2) if chars.get(i + 2) == Some(&'\'') => {
            // 'x' — a plain one-char literal.
            line.code.push('\'');
            line.literals.push(c2);
            line.code.push('\'');
            i + 3
        }
        _ => {
            // A lifetime or loop label: plain code.
            line.code.push('\'');
            i + 1
        }
    }
}

fn blank_line() -> Line {
    Line {
        code: String::new(),
        literals: String::new(),
        allows: Vec::new(),
        in_test: false,
    }
}

/// Extracts check names from a `tidy:allow(a, b)` directive inside a
/// comment's text, if present.
fn parse_allows(comment: &str) -> Vec<String> {
    let Some(at) = comment.find("tidy:allow(") else {
        return Vec::new();
    };
    let rest = &comment[at + "tidy:allow(".len()..];
    let Some(end) = rest.find(')') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

const CFG_TEST: &str = "#[cfg(test)]";

/// Marks the `#[cfg(test)]` tail of a file as test code. The workspace
/// idiom keeps the test modules last in the file, so everything from
/// the first attribute onward is treated as tests. Files under
/// `tests/` or `benches/` are test code in full.
///
/// Returns the `(1-based line, message)` of each layout error in any
/// other file but a benchmark one: a `#[cfg(test)]` item that is not a
/// `mod`, and the first line of code that follows the closed test tail
/// without opening another `#[cfg(test)]` module.
fn mark_test_tail(lines: &mut [Line], kind: FileKind) -> Vec<(usize, &'static str)> {
    if kind == FileKind::TestDir {
        for line in lines.iter_mut() {
            line.in_test = true;
        }
        return Vec::new();
    }
    let mut errors = Vec::new();
    let mut in_test = false;
    // Inside the tail: whether the last `#[cfg(test)]` still waits for
    // the item it annotates, and the brace depth of the test items.
    let mut awaiting_item = false;
    let mut depth = 0usize;
    let mut trailing_code_reported = false;
    for (i, line) in lines.iter_mut().enumerate() {
        let compact: String = line.code.split_whitespace().collect();
        if compact.contains(CFG_TEST) {
            in_test = true;
            awaiting_item = true;
        }
        line.in_test = in_test;
        if !in_test {
            continue;
        }
        let item = strip_attributes(&line.code);
        if awaiting_item {
            if !item.is_empty() {
                awaiting_item = false;
                if !is_mod_item(item) {
                    errors.push((
                        i + 1,
                        "`#[cfg(test)]` on an item that is not a `mod`: the scan treats \
                         the rest of the file as tests; move the item into the trailing \
                         test module",
                    ));
                }
            }
        } else if depth == 0 && !item.is_empty() && !trailing_code_reported {
            trailing_code_reported = true;
            errors.push((
                i + 1,
                "code after the `#[cfg(test)]` tail is scanned as test code; move it \
                 above the first test module",
            ));
        }
        let opens = compact.matches('{').count();
        let closes = compact.matches('}').count();
        depth = (depth + opens).saturating_sub(closes);
    }
    if kind == FileKind::Benchmark {
        errors.clear();
    }
    errors
}

/// A code line without its leading `#[...]` attributes, trimmed; empty
/// when only attributes remain (or one continues on the next line).
/// Literal bodies are blanked, so the first `]` closes the attribute.
fn strip_attributes(mut code: &str) -> &str {
    loop {
        code = code.trim();
        let Some(rest) = code.strip_prefix("#[") else {
            return code;
        };
        match rest.find(']') {
            Some(end) => code = rest.get(end + 1..).unwrap_or_default(),
            None => return "",
        }
    }
}

/// Whether `item` declares a module: `mod`, optionally behind `pub` or
/// `pub(...)`.
fn is_mod_item(item: &str) -> bool {
    let item = match item.strip_prefix("pub") {
        Some(rest) if rest.trim_start().starts_with('(') => rest
            .find(')')
            .and_then(|close| rest.get(close + 1..))
            .unwrap_or(rest),
        Some(rest) => rest,
        None => item,
    };
    let item = item.trim_start();
    item.strip_prefix("mod")
        .is_some_and(|rest| rest.starts_with(char::is_whitespace))
}

/// Moves `tidy:allow` directives on comment-only lines down to the
/// next line that has code, so suppressions can sit above the site
/// they justify (the readable form, since each wants a why-comment).
fn float_comment_only_allows(lines: &mut [Line]) {
    let mut pending: Vec<String> = Vec::new();
    for line in lines.iter_mut() {
        if line.code.trim().is_empty() {
            pending.append(&mut line.allows);
        } else {
            line.allows.append(&mut pending);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(content: &str) -> ScannedFile {
        ScannedFile::parse("crates/x/src/lib.rs", "x", FileKind::Src, content)
    }

    #[test]
    fn line_comments_are_stripped() {
        let f = parse("let a = 1; // HashMap::new()\nlet b = 2;");
        assert_eq!(f.lines[0].code.trim(), "let a = 1;");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert_eq!(f.lines[1].code.trim(), "let b = 2;");
    }

    #[test]
    fn nested_block_comments_are_stripped() {
        let f = parse("a /* x /* y */ HashMap */ b\nc");
        assert_eq!(f.lines[0].code.replace(' ', ""), "ab");
        assert_eq!(f.lines[1].code, "c");
    }

    #[test]
    fn string_bodies_move_to_literals() {
        let f = parse(r#"let s = "uses .unwrap() freely";"#);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert_eq!(f.lines[0].code.trim(), r#"let s = "";"#);
        assert!(f.lines[0].literals.contains(".unwrap()"));
    }

    #[test]
    fn escaped_quotes_do_not_close_strings() {
        let f = parse(r#"let s = "she said \"panic!\" loudly"; x();"#);
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[0].code.contains("x()"));
        assert!(f.lines[0].literals.contains("panic!"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let f = parse(r###"let s = r#"embedded "quote" and HashMap"#; y();"###);
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].code.contains("y()"));
        assert!(f.lines[0].literals.contains("HashMap"));
    }

    #[test]
    fn byte_and_c_strings_are_literals() {
        let f = parse(r##"let a = b"panic!"; let b = br#"dbg!"# ; z();"##);
        assert!(!f.lines[0].code.contains("panic"));
        assert!(!f.lines[0].code.contains("dbg"));
        assert!(f.lines[0].code.contains("z()"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let f = parse("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let code = &f.lines[0].code;
        assert!(code.contains("<'a>"), "lifetime survives: {code}");
        assert!(code.contains("&'a str"), "lifetime survives: {code}");
        assert!(!code.contains("'x'"), "char body blanked: {code}");
        assert!(f.lines[0].literals.contains('x'));
    }

    #[test]
    fn multiline_strings_blank_every_line() {
        let f = parse("let s = \"line one\nline .unwrap() two\";\nafter();");
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[1].literals.contains(".unwrap()"));
        assert_eq!(f.lines[2].code, "after();");
    }

    #[test]
    fn allow_on_same_line() {
        let f = parse("let m = foo(); // tidy:allow(determinism) sanctioned\nbar();");
        assert_eq!(f.lines[0].allows, vec!["determinism"]);
        assert!(f.lines[1].allows.is_empty());
    }

    #[test]
    fn doc_comments_do_not_carry_directives() {
        let f = parse("/// like `// tidy:allow(determinism)` above the site\nlet m = foo();");
        assert!(f.lines[0].allows.is_empty());
        assert!(f.lines[1].allows.is_empty());
    }

    #[test]
    fn allow_on_comment_only_line_floats_to_next_code_line() {
        let f = parse(
            "// why: sanctioned site\n// tidy:allow(panic-ratchet, determinism)\n\nlet m = foo();",
        );
        assert!(f.lines[0].allows.is_empty());
        assert_eq!(f.lines[3].allows, vec!["panic-ratchet", "determinism"]);
    }

    #[test]
    fn cfg_test_tail_is_marked() {
        let f = parse("fn real() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}");
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
    }

    #[test]
    fn trailing_test_modules_are_a_valid_layout() {
        let f = parse(
            "fn real() {}\n#[cfg(test)]\nmod tests {\n fn t() { let s = \"}\"; }\n}\n\n\
             #[cfg(test)]\n#[allow(dead_code)]\npub(crate) mod proptests {\n}\n",
        );
        assert!(f.errors.is_empty(), "{:?}", f.errors);
        assert!(f.lines[6].in_test);
    }

    #[test]
    fn cfg_test_on_a_non_mod_item_is_an_error() {
        let f = parse("fn real() {}\n#[cfg(test)]\nfn helper() {}\n");
        assert_eq!(f.errors.len(), 1, "{:?}", f.errors);
        assert_eq!(f.errors[0].line, 3);
        assert_eq!(f.errors[0].check, "tidy");
        assert!(f.errors[0].message.contains("not a `mod`"));
        // Same-line attribute and item.
        let f = parse("#[cfg(test)] impl Foo { fn t() {} }\n");
        assert_eq!(f.errors.len(), 1, "{:?}", f.errors);
        assert_eq!(f.errors[0].line, 1);
    }

    #[test]
    fn code_after_the_test_tail_is_an_error() {
        let f = parse("fn real() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\nfn late() {\n}\nfn later() {}\n");
        assert_eq!(f.errors.len(), 1, "one report per file: {:?}", f.errors);
        assert_eq!(f.errors[0].line, 6);
        assert!(f.errors[0]
            .message
            .contains("after the `#[cfg(test)]` tail"));
    }

    #[test]
    fn test_dir_files_are_all_test() {
        let f = ScannedFile::parse("crates/x/tests/t.rs", "x", FileKind::TestDir, "a\nb");
        assert!(f.lines.iter().all(|l| l.in_test));
    }
}
