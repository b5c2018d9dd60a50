//! The rule catalogue. Each rule is a module with a
//! `check(&SourceFile) -> Vec<Diagnostic>` entry point (the dependency
//! rule checks manifests instead and exposes `check_workspace`).

pub mod cast_soundness;
pub mod dependency_policy;
pub mod doc_coverage;
pub mod error_policy;
pub mod kernel_purity;
pub mod panic_policy;
pub mod safety_comments;

use crate::SourceFile;

/// Per-line flags: `true` when the (1-based) line `i + 1` is inside a
/// `#[cfg(test)]` item (module or function). Computed by brace-matching
/// on the masked source, so braces inside strings or comments don't
/// confuse the span tracker.
pub fn cfg_test_lines(sf: &SourceFile) -> Vec<bool> {
    let masked = &sf.lexed.masked;
    let line_count = masked.lines().count();
    let mut flags = vec![false; line_count + 1];

    let bytes = masked.as_bytes();
    let mut search_from = 0usize;
    while let Some(pos) = find_from(masked, "#[cfg(test)]", search_from) {
        search_from = pos + 1;
        let after = pos + "#[cfg(test)]".len();
        // Find the item's opening brace; a `;` first means no body.
        let mut open = None;
        for (off, &b) in bytes[after..].iter().enumerate() {
            if b == b'{' {
                open = Some(after + off);
                break;
            }
            if b == b';' {
                break;
            }
        }
        let Some(open) = open else { continue };
        let mut depth = 0i32;
        let mut close = bytes.len();
        for (off, &b) in bytes[open..].iter().enumerate() {
            if b == b'{' {
                depth += 1;
            } else if b == b'}' {
                depth -= 1;
                if depth == 0 {
                    close = open + off;
                    break;
                }
            }
        }
        let start_line = line_of(masked, pos);
        let end_line = line_of(masked, close);
        flags[start_line..=end_line.min(line_count)].fill(true);
    }
    flags
}

/// 1-based line number of byte offset `pos`.
pub fn line_of(text: &str, pos: usize) -> usize {
    text.as_bytes()[..pos.min(text.len())].iter().filter(|&&b| b == b'\n').count() + 1
}

fn find_from(hay: &str, needle: &str, from: usize) -> Option<usize> {
    hay.get(from..)?.find(needle).map(|p| p + from)
}

/// Does `line` contain `word` with identifier boundaries on both sides?
pub fn contains_word(line: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(p) = line[start..].find(word) {
        let at = start + p;
        let before_ok = at == 0
            || !line[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = after >= line.len()
            || !line[after..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sf(src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from("crates/x/src/lib.rs"), src.to_string())
    }

    #[test]
    fn cfg_test_span_covers_module() {
        let f = sf("fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n");
        let flags = cfg_test_lines(&f);
        assert!(!flags[1]);
        assert!(flags[2] && flags[3] && flags[4] && flags[5]);
        assert!(!flags[6]);
    }

    #[test]
    fn cfg_test_ignores_braces_in_strings() {
        let f = sf("#[cfg(test)]\nmod t {\n  const S: &str = \"}\";\n  fn b() {}\n}\nfn c() {}\n");
        let flags = cfg_test_lines(&f);
        assert!(flags[4], "string brace must not close the span early");
        assert!(!flags[6]);
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("unsafe {", "unsafe"));
        assert!(!contains_word("unsafely(", "unsafe"));
        assert!(!contains_word("is_unsafe", "unsafe"));
    }
}
