//! Keeps the public surface honest: every `pub fn` under `crates/*/src` is
//! named by the code of some other file — another module, a test, an
//! example or the benchmark — or is listed below with the reason it stays.
//! A name in a comment or a string literal is no use. A function only its
//! own file calls should not be `pub`; it fails here instead of waiting for
//! a hand count.

use std::path::{Path, PathBuf};

/// Where a reference counts, besides the defining crates' own sources.
const CALLERS: &[&str] = &["crates", "tests", "examples", "perfbench/src"];

/// `pub fn`s no other file names, and why each stays.
const KEPT_UNCALLED: &[(&str, &str)] = &[
    ("shard_count", "deleted by item 2"),
    ("take_profile", "deleted by item 2"),
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("a source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            if !path.ends_with("target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The name a line declares as `pub fn`, `pub const fn` or `pub unsafe fn`.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest
        .strip_prefix("const ")
        .or_else(|| rest.strip_prefix("unsafe "))
        .unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// The lines of `text` outside every `#[cfg(test)]` item. The gated item
/// runs to its closing brace, or, if it opens none, to the `;` or `,` that
/// ends it outside parentheses (a `use`, a field, a field initialiser).
fn non_test_lines(text: &str) -> Vec<&str> {
    const GATE: &str = "#[cfg(test)]";
    let mut out = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let Some(mut rest) = line.trim_start().strip_prefix(GATE) else {
            out.push(line);
            continue;
        };
        let (mut braces, mut parens, mut opened) = (0i32, 0i32, false);
        loop {
            for c in rest.chars() {
                match c {
                    '{' => (braces, opened) = (braces + 1, true),
                    '}' => braces -= 1,
                    '(' => parens += 1,
                    ')' => parens -= 1,
                    _ => {}
                }
            }
            let ended = if opened {
                braces <= 0
            } else {
                parens <= 0 && rest.trim_end().ends_with([';', ','])
            };
            if ended {
                break;
            }
            let Some(next) = lines.next() else { break };
            rest = next;
        }
    }
    out
}

/// `text` with every comment and every string, byte-string and char
/// literal blanked to spaces (line breaks kept), so that prose, a message
/// or a doc link naming a function is no use of it. Lifetimes and labels
/// stay.
fn code_only(text: &str) -> String {
    let src: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { c } else { ' ' });
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0;
    while i < src.len() {
        let c = src[i];
        let next = src.get(i + 1).copied();
        // The end (exclusive) of a comment or literal starting at `i`.
        let end = match c {
            '/' if next == Some('/') => (i..src.len())
                .find(|&j| src[j] == '\n')
                .unwrap_or(src.len()),
            '/' if next == Some('*') => {
                let (mut depth, mut j) = (0, i);
                while j < src.len() {
                    match (src[j], src.get(j + 1)) {
                        ('/', Some('*')) => (depth, j) = (depth + 1, j + 2),
                        ('*', Some('/')) => {
                            (depth, j) = (depth - 1, j + 2);
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => j += 1,
                    }
                }
                j.min(src.len())
            }
            '"' => {
                let mut j = i + 1;
                while j < src.len() && src[j] != '"' {
                    j += if src[j] == '\\' { 2 } else { 1 };
                }
                (j + 1).min(src.len())
            }
            // A raw string: `r` (or `br`) starting a token, hashes, a
            // quote, and the same hashes after the closing quote.
            'r' if {
                let before = |k: usize| i >= k && word(src[i - k]);
                !before(1) || (src[i - 1] == 'b' && !before(2))
            } =>
            {
                let hashes = src[i + 1..].iter().take_while(|&&h| h == '#').count();
                let close: Vec<char> = std::iter::once('"')
                    .chain(std::iter::repeat_n('#', hashes))
                    .collect();
                match src.get(i + 1 + hashes) {
                    Some('"') => (i + 2 + hashes..src.len())
                        .find(|&j| src[j..].starts_with(&close))
                        .map_or(src.len(), |j| j + close.len()),
                    _ => i,
                }
            }
            // A char literal (`'x'`, `'\''`, `'\u{..}'`); otherwise a
            // lifetime or a label, which is code.
            '\'' if next == Some('\\') => (i + 3..src.len())
                .find(|&j| src[j] == '\'')
                .map_or(src.len(), |j| j + 1),
            '\'' if src.get(i + 2) == Some(&'\'') => i + 3,
            _ => i,
        };
        if end == i {
            out.push(c);
            i += 1;
        } else {
            for &c in &src[i..end] {
                blank(&mut out, c);
            }
            i = end;
        }
    }
    out
}

/// True when `text` names `name` as a whole word that is no module and no
/// local: a word followed by `::` is a path segment, one after `mod `
/// declares a module, one after `let ` or `let mut ` binds a variable, and
/// one followed by `.` or `[` is a receiver or an indexed value, so none
/// calls a function of that name.
fn names_word(text: &str, name: &str) -> bool {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(name).any(|(at, _)| {
        let (before, after) = (&text[..at], &text[at + name.len()..]);
        !before.chars().next_back().is_some_and(word)
            && !after.starts_with(word)
            && !after.starts_with("::")
            && !after.trim_start().starts_with(['.', '['])
            && !["mod ", "let ", "let mut "]
                .iter()
                .any(|k| before.ends_with(k))
    })
}

#[test]
fn every_pub_fn_has_a_caller_elsewhere_or_is_listed_with_a_reason() {
    let mut files = Vec::new();
    for dir in CALLERS {
        rust_files(&repo().join(dir), &mut files);
    }
    // This file names its allow-list, which is no call.
    let me = repo().join(file!());
    let texts: Vec<(PathBuf, String, String)> = files
        .into_iter()
        .filter(|f| *f != me)
        .map(|f| {
            let text = std::fs::read_to_string(&f).expect("a readable source file");
            let code = code_only(&text);
            (f, text, code)
        })
        .collect();
    let crates = repo().join("crates");
    let mut uncalled = Vec::new();
    let mut kept_seen = Vec::new();
    for (file, text, _) in &texts {
        // Only `crates/<name>/src/**` defines the surface.
        let Ok(rel) = file.strip_prefix(&crates) else {
            continue;
        };
        if rel.iter().nth(1) != Some("src".as_ref()) {
            continue;
        }
        for name in non_test_lines(text).into_iter().filter_map(pub_fn_name) {
            let called = texts
                .iter()
                .any(|(other, _, code)| other != file && names_word(code, name));
            if called {
                continue;
            }
            if KEPT_UNCALLED.iter().any(|(k, _)| *k == name) {
                kept_seen.push(name.to_owned());
            } else {
                uncalled.push(format!("{}: {name}", rel.display()));
            }
        }
    }
    for (name, _) in KEPT_UNCALLED {
        assert!(
            kept_seen.iter().any(|k| k == name),
            "{name} is called from another file now, or gone: drop it from KEPT_UNCALLED"
        );
    }
    assert!(
        uncalled.is_empty(),
        "no other file names {uncalled:?}: make it private, delete it, or list it in \
         KEPT_UNCALLED with the reason it stays"
    );
}

#[test]
fn pub_fn_matcher_wants_a_pub_fn_and_whole_word_names() {
    assert_eq!(
        pub_fn_name("    pub fn top_exact(&self) {"),
        Some("top_exact")
    );
    assert_eq!(
        pub_fn_name("pub const fn from_secs(s: u64)"),
        Some("from_secs")
    );
    assert_eq!(pub_fn_name("  pub unsafe fn raw<T>()"), Some("raw"));
    assert_eq!(pub_fn_name("    pub(crate) fn hidden()"), None);
    assert_eq!(pub_fn_name("    fn private()"), None);
    assert_eq!(pub_fn_name("    pub struct Fn;"), None);
    assert!(names_word("tracker.top_exact(8)", "top_exact"));
    assert!(names_word("use x::{top_exact};", "top_exact"));
    assert!(!names_word("tracker.top_exactly(8)", "top_exact"));
    assert!(!names_word("my_top_exact", "top_exact"));
    assert!(!names_word("let mut detector = new();", "detector"));
    assert!(!names_word("detector\n    .poll(now);", "detector"));
    assert!(!names_word("let profile = p; profile[0]", "profile"));
    assert!(names_word("let d = host.detector();", "detector"));
}

#[test]
fn a_module_path_is_no_call_of_its_namesake() {
    let definer = "pub mod profiler;\npub fn profiler(&self) {}\npub fn run() {}\n";
    let caller = "use crate::profiler::EngineProfiler;\nmod profiler;\nrun();\n";
    let uncalled: Vec<&str> = non_test_lines(definer)
        .into_iter()
        .filter_map(pub_fn_name)
        .filter(|name| !names_word(caller, name))
        .collect();
    assert_eq!(uncalled, ["profiler"]);
}

#[test]
fn test_gate_hides_only_the_item_it_gates() {
    let source = "\
pub fn before() {}
#[cfg(test)]
impl Wheel {
    pub fn footprint(&self) -> usize {
        0
    }
}
impl Queue {
    pub fn push(&mut self) {}
    #[cfg(test)]
    pub fn probe(
        &self,
        depth: usize,
    ) -> usize {
        depth
    }
    pub const fn len(&self) -> usize {
        Self {
            #[cfg(test)]
            scans: 0,
            live: 1,
        }
        .live
    }
}
#[cfg(test)]
use std::fmt;
pub fn after_use() {}
#[cfg(test)]
mod tests {
    pub fn helper() {}
}
";
    let kept = non_test_lines(source);
    let names: Vec<&str> = kept.iter().copied().filter_map(pub_fn_name).collect();
    assert_eq!(names, ["before", "push", "len", "after_use"]);
    assert!(kept.contains(&"            live: 1,"));
    assert!(!kept.iter().any(|l| l.contains("scans")));
}

#[test]
fn a_name_in_a_comment_or_a_literal_is_no_use() {
    let caller = r##"
// profiler() in a line comment
/* profiler() in a /* nested */ block */
let s = "profiler() in a string, \" still in it";
let r = r#"profiler "quoted" in a raw string"#;
let b = (b"profiler", br"profiler");
let c = ['"', '\'', '\u{70}'];
fn run<'profile>(x: &'profile str) -> &'profile str { x }
run("");
"##;
    let code = code_only(caller);
    assert_eq!(code.lines().count(), caller.lines().count());
    assert!(!names_word(&code, "profiler"), "{code}");
    assert!(
        names_word(&code, "run"),
        "a char literal ends where it should"
    );
    assert!(names_word(&code, "profile"), "a lifetime is code: {code}");
}
