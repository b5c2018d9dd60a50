//! `safety-comments`: every `unsafe` block, function, impl or trait must
//! be justified by a `// SAFETY:` comment (or a `/// # Safety` doc
//! section) on the same line or in the comment block directly above it.
//!
//! The justification discipline keeps every `unsafe` site auditable: it
//! states the one precondition it relies on next to the code (today the
//! FW kernel's AVX2 dispatch, whose precondition is the run-time CPU
//! feature check), and this rule keeps future edits honest.

use crate::{Diagnostic, SourceFile};

pub const RULE: &str = "safety-comments";

/// Does this comment text justify an unsafe site?
fn is_justification(text: &str) -> bool {
    text.contains("SAFETY:") || text.contains("# Safety")
}

pub fn check(sf: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let lines: Vec<&str> = sf.lexed.masked.lines().collect();
    let raw_lines: Vec<&str> = sf.raw.lines().collect();
    for (idx, masked_line) in lines.iter().enumerate() {
        let line_no = idx + 1;
        if !super::contains_word(masked_line, "unsafe") {
            continue;
        }
        if sf.waived(RULE, line_no) {
            continue;
        }
        // Same-line trailing comment.
        if sf.lexed.comments_on_line(line_no).any(|c| is_justification(&c.text)) {
            continue;
        }
        // Walk upward through the contiguous block of comments, attributes
        // and blank lines directly above the unsafe site.
        let mut ok = false;
        let mut up = idx;
        while up > 0 {
            up -= 1;
            let raw = raw_lines.get(up).map_or("", |l| l.trim_start());
            let is_comment = raw.starts_with("//");
            let is_glue = raw.is_empty() || raw.starts_with("#[") || raw.starts_with("#!");
            if is_comment {
                if sf.lexed.comments_on_line(up + 1).any(|c| is_justification(&c.text)) {
                    ok = true;
                    break;
                }
            } else if !is_glue {
                break;
            }
        }
        if !ok {
            diags.push(Diagnostic {
                path: sf.rel_path.clone(),
                line: line_no,
                rule: RULE,
                message: "`unsafe` without a `// SAFETY:` (or `/// # Safety`) justification \
                          directly above"
                    .to_string(),
            });
        }
    }
    diags
}
