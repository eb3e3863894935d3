//! Workspace maintenance tasks, invoked as `cargo run -p xtask -- <task>`.
//!
//! One task:
//!
//! * `lint` — the textual lints. Walks every `.rs` file under `crates/`
//!   and fails (exit 1) when
//!
//!   1. an `unsafe` block or `unsafe impl` has no justification: no
//!      `// SAFETY:` comment in the immediately preceding comment /
//!      attribute block (or trailing on the same line). `unsafe fn` items
//!      and fn-pointer types are exempt — their contract lives in the
//!      `# Safety` doc section of the trait / function, not at each impl —
//!      as are `#[cfg(test)]` modules (test-only code doesn't ship); or
//!   2. a type declared with `impl_smr_node!` is allocated with a raw
//!      `Box::new` instead of the node-heap recycle ABI
//!      (`recycle::alloc_node_raw` / `Magazine::alloc_node`). Mixing the
//!      global allocator into the node heap is how you get a
//!      `dealloc_node_raw` of a `Box` pointer; the three deliberate
//!      exceptions (the `HarrisList`/`LazyList` heads and the `DgtTree`
//!      root: owned by the structure, never retired, and freed by `Box`'s
//!      own drop) carry an explicit `lint:allow-box-node` waiver comment; or
//!   3. a scheme file — anything under `crates/{core,smr-baselines,smr-pop}/src`,
//!      outside `#[cfg(test)]` — names a piece of the reclaim pipeline that
//!      `smr_common::reclaim` owns exactly once ([`PIPELINE_ONLY`]): the
//!      limbo bag (`LimboBag`, or a `Vec<Retired>` of its own), the orphan
//!      pool, or one of the scan / adoption / watermark trace events. A
//!      scheme that needs one of those is growing its own copy of the
//!      pipeline back; it should call `ReclaimCore` instead; or
//!   4. a scheme file, outside `#[cfg(test)]`, declares a boxed atomic
//!      slice (`Box<[Atomic…`): per-thread protection slots go through
//!      `smr_common::SlotBlock`, the one line-aligned layout; or
//!   5. a node struct in a structure file — a type declared with
//!      `impl_smr_node!` under `crates/ds/src` — has an `AtomicBool` field:
//!      a node's deletion state lives in its lock word (`SeqLock`'s dead
//!      bit) or in its link's mark bit, never in a flag word of its own.
//!
//! The lint is textual by design: it has no type information, so it trades
//! a small amount of precision (waiver comments, per-file node-name scope)
//! for zero build-time cost and no extra dependencies.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("unknown task `{other}` (available: lint)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    files.sort();

    let mut findings = Vec::new();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask lint: cannot read {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = file.strip_prefix(&root).unwrap_or(file).to_path_buf();
        lint_file(&rel, &text, &mut findings);
    }

    if findings.is_empty() {
        println!(
            "xtask lint: OK ({} files, every unsafe site justified, node heap ABI respected, pipeline and slot layout written once, no node flag words)",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        let mut out = String::new();
        for f in &findings {
            let _ = writeln!(out, "{f}");
        }
        eprint!("{out}");
        eprintln!("xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Names only `smr_common::reclaim` may use ("pipeline written once"): a
/// scheme file mentioning one is re-implementing what `ReclaimCore` owns.
/// `TraceKind::Scan` is a prefix (`ScanBegin`, `ScanEnd`).
const PIPELINE_ONLY: [&str; 6] = [
    "LimboBag",
    "Vec<Retired>",
    "OrphanPool",
    "TraceKind::Scan",
    "TraceKind::OrphanAdopt",
    "TraceKind::LimboHigh",
];

/// Whether `rel` is a reclaimer's source file (lint rules 3 and 4's scope).
fn is_scheme_file(rel: &Path) -> bool {
    [
        "crates/core/src",
        "crates/smr-baselines/src",
        "crates/smr-pop/src",
    ]
    .iter()
    .any(|dir| rel.starts_with(dir))
}

fn workspace_root() -> PathBuf {
    // xtask is always run through cargo, which sets this to crates/xtask.
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::current_dir().expect("cwd"));
    manifest
        .ancestors()
        .find(|p| p.join("Cargo.toml").is_file() && p.join("crates").is_dir())
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Strips line comments and blanks out string-literal contents so keyword
/// scans don't fire inside them. Quote tracking is per-line (good enough:
/// the codebase has no multi-line or raw strings containing `unsafe` or
/// `Box::new`).
fn code_portion(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    let mut in_char = false;
    while let Some(c) = chars.next() {
        if in_str {
            if c == '\\' {
                chars.next();
                out.push_str("__");
            } else if c == '"' {
                in_str = false;
                out.push('"');
            } else {
                out.push('_');
            }
            continue;
        }
        if in_char {
            if c == '\\' {
                chars.next();
                out.push_str("__");
            } else if c == '\'' {
                in_char = false;
                out.push('\'');
            } else {
                out.push('_');
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => break,
            '"' => {
                in_str = true;
                out.push('"');
            }
            // Lifetime vs char literal: treat 'x' / '\n' as char only when
            // a closing quote follows within two chars; lifetimes ('a,
            // 'static) never do.
            '\'' => {
                let rest: String = chars.clone().take(3).collect();
                let is_char = rest.len() >= 2
                    && (rest.as_bytes().get(1) == Some(&b'\'')
                        || rest.as_bytes().first() == Some(&b'\\'));
                if is_char {
                    in_char = true;
                }
                out.push('\'');
            }
            _ => out.push(c),
        }
    }
    out
}

fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = end;
    }
    false
}

fn is_ident(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

fn is_comment_or_attr(trimmed: &str) -> bool {
    trimmed.starts_with("//")
        || trimmed.starts_with("#[")
        || trimmed.starts_with("#!")
        || trimmed.starts_with("*")
        || trimmed.starts_with("/*")
        || trimmed.ends_with("*/")
}

/// Is every `unsafe` on this line part of an `unsafe fn` item or an
/// `unsafe fn(..)` pointer type? Those are exempt: an `unsafe fn`'s contract
/// belongs in the trait's / function's `# Safety` doc section (and trait
/// *impls* inherit the trait's contract), while a fn-pointer type declares
/// no new obligation at all. What the lint wants justified is each site
/// that *discharges* an obligation: `unsafe` blocks and `unsafe impl`s.
fn is_unsafe_fn_item(code: &str) -> bool {
    let mut rest = code;
    let mut any = false;
    while let Some(pos) = rest.find("unsafe") {
        let at_word = (pos == 0 || !is_ident(rest.as_bytes()[pos - 1]))
            && !rest[pos + 6..]
                .bytes()
                .next()
                .map(is_ident)
                .unwrap_or(false);
        if at_word {
            any = true;
            if !rest[pos + 6..].trim_start().starts_with("fn") {
                return false;
            }
        }
        rest = &rest[pos + 6..];
    }
    any
}

/// Ends the preceding statement, i.e. the line after it starts a new one.
fn stmt_boundary(line: &str) -> bool {
    let trimmed = line.trim();
    if trimmed.is_empty() || is_comment_or_attr(trimmed) {
        return true;
    }
    let code = code_portion(line);
    let code = code.trim_end();
    code.ends_with(';') || code.ends_with('{') || code.ends_with('}') || code.ends_with(',')
}

/// Does a comment justify the unsafe site at `idx`? Accepted positions: a
/// `SAFETY:` anywhere in the enclosing statement's lines (trailing comments
/// included — multi-line expressions put `unsafe` below the statement's
/// first line), or in the comment / attribute block immediately above the
/// statement.
fn unsafe_justified(lines: &[&str], idx: usize) -> bool {
    let mut start = idx;
    while start > 0 && !stmt_boundary(lines[start - 1]) {
        start -= 1;
    }
    if lines[start..=idx].iter().any(|l| l.contains("SAFETY:")) {
        return true;
    }
    let mut j = start;
    while j > 0 {
        j -= 1;
        let trimmed = lines[j].trim_start();
        if !is_comment_or_attr(trimmed) {
            break;
        }
        if trimmed.contains("SAFETY:") || trimmed.contains("# Safety") {
            return true;
        }
    }
    false
}

fn lint_file(rel: &Path, text: &str, findings: &mut Vec<String>) {
    let lines: Vec<&str> = text.lines().collect();

    // Node types declared in this file. Scope is per-file: node structs are
    // module-private in this codebase, and a per-file scope cannot
    // false-positive on an unrelated `Node` in another crate.
    let mut node_types: Vec<String> = Vec::new();
    for line in &lines {
        let code = code_portion(line);
        if let Some(pos) = code.find("impl_smr_node!") {
            let rest = &code[pos + "impl_smr_node!".len()..];
            let name: String = rest
                .chars()
                .skip_while(|c| *c == '(' || c.is_whitespace())
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                node_types.push(name);
            }
        }
    }

    let is_recycle_abi = rel.ends_with("crates/smr-common/src/recycle.rs")
        || rel == Path::new("crates/smr-common/src/recycle.rs");
    let scheme_file = is_scheme_file(rel);
    let structure_file = rel.starts_with("crates/ds/src");
    // Brace depth inside a node struct's body (rule 5); 0 = outside.
    let mut node_struct_depth: i64 = 0;

    let mut in_block_comment = false;
    // `#[cfg(test)] mod … { … }` ranges are exempt: test-only unsafe (and
    // test-only Box allocations) don't ship, and justifying each one buries
    // the signal. Tracked by brace depth from the `mod` line.
    let mut test_mod_pending = false;
    let mut test_mod_depth: i64 = 0;
    let mut in_test_mod = false;
    for (i, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        if in_test_mod {
            let code = code_portion(raw);
            test_mod_depth += code.matches('{').count() as i64;
            test_mod_depth -= code.matches('}').count() as i64;
            if test_mod_depth <= 0 {
                in_test_mod = false;
            }
            continue;
        }
        if test_mod_pending {
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                test_mod_pending = false;
                let code = code_portion(raw);
                test_mod_depth =
                    code.matches('{').count() as i64 - code.matches('}').count() as i64;
                in_test_mod = test_mod_depth > 0;
                continue;
            }
            if !is_comment_or_attr(trimmed) && !trimmed.is_empty() {
                test_mod_pending = false;
            }
        }
        if trimmed.starts_with("#[cfg(") && trimmed.contains("test") {
            test_mod_pending = true;
        }
        if in_block_comment {
            if trimmed.contains("*/") {
                in_block_comment = false;
            }
            continue;
        }
        if trimmed.starts_with("/*") && !trimmed.contains("*/") {
            in_block_comment = true;
            continue;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        let code = code_portion(raw);

        if has_word(&code, "unsafe") && !is_unsafe_fn_item(&code) && !unsafe_justified(&lines, i) {
            findings.push(format!(
                "{}:{}: unsafe without a `// SAFETY:` justification \
                 (add one in the preceding comment block)",
                rel.display(),
                i + 1
            ));
        }

        if scheme_file {
            for name in PIPELINE_ONLY {
                if code.contains(name) {
                    findings.push(format!(
                        "{}:{}: `{name}` belongs to the reclaim pipeline \
                         (smr_common::reclaim owns it once); go through `ReclaimCore`",
                        rel.display(),
                        i + 1
                    ));
                }
            }
            if code.contains("Box<[Atomic") {
                findings.push(format!(
                    "{}:{}: a boxed atomic slot array in a scheme file; \
                     per-thread protection slots go through `smr_common::SlotBlock`",
                    rel.display(),
                    i + 1
                ));
            }
        }

        if structure_file {
            let declared = code.split_once("struct ").map(|(_, rest)| {
                rest.trim_start()
                    .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .next()
                    .unwrap_or_default()
            });
            let opens_node_struct = node_struct_depth == 0
                && declared.is_some_and(|name| node_types.iter().any(|ty| ty == name));
            if opens_node_struct || node_struct_depth > 0 {
                if has_word(&code, "AtomicBool") {
                    findings.push(format!(
                        "{}:{}: an `AtomicBool` in a node struct; a node's deletion \
                         state lives in its lock word (`SeqLock::mark_dead`) or its \
                         link's mark bit",
                        rel.display(),
                        i + 1
                    ));
                }
                node_struct_depth += code.matches('{').count() as i64;
                node_struct_depth -= code.matches('}').count() as i64;
                node_struct_depth = node_struct_depth.max(0);
            }
        }

        if !is_recycle_abi && code.contains("Box::new") {
            let waived = raw.contains("lint:allow-box-node") || {
                // Accept the waiver anywhere in the comment block above.
                let mut j = i;
                let mut found = false;
                while j > 0 {
                    j -= 1;
                    let t = lines[j].trim_start();
                    if !is_comment_or_attr(t) {
                        break;
                    }
                    if t.contains("lint:allow-box-node") {
                        found = true;
                        break;
                    }
                }
                found
            };
            for ty in &node_types {
                let needle = format!("Box::new({ty}");
                if let Some(pos) = code.find(&needle) {
                    let end = pos + needle.len();
                    let boundary_ok = !code
                        .as_bytes()
                        .get(end)
                        .map(|b| is_ident(*b))
                        .unwrap_or(false);
                    if boundary_ok && !waived {
                        findings.push(format!(
                            "{}:{}: `Box::new({ty} ...)` allocates an impl_smr_node! type \
                             outside the recycle ABI; use `recycle::alloc_node_raw` / \
                             `Magazine::alloc_node`, or waive a deliberate never-retired \
                             allocation with `// lint:allow-box-node — <why>`",
                            rel.display(),
                            i + 1
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<String> {
        let mut findings = Vec::new();
        lint_file(Path::new("crates/x/src/lib.rs"), src, &mut findings);
        findings
    }

    #[test]
    fn flags_bare_unsafe_block() {
        let f = run("fn f() {\n    unsafe { g() }\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains(":2:"));
    }

    #[test]
    fn accepts_safety_comment_above() {
        let f = run("fn f() {\n    // SAFETY: g is fine here.\n    unsafe { g() }\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn accepts_safety_comment_through_attributes() {
        let f = run("// SAFETY: q is static.\n#[allow(dead_code)]\nunsafe impl Send for X {}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_fn_items_and_fn_pointer_types_exempt() {
        let f = run(
            "pub unsafe fn f(p: *mut u8) {}\nstruct S { d: unsafe fn(*mut u8) }\nunsafe impl Send for S {}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains(":3:"), "{f:?}");
    }

    #[test]
    fn accepts_trailing_safety_comment() {
        let f = run("let x = unsafe { *p }; // SAFETY: p is valid per the invariant above.\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn ignores_unsafe_in_strings_and_comments() {
        let f = run("// this mentions unsafe\nlet s = \"unsafe\";\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn flags_box_new_of_node_type() {
        let f = run("smr_common::impl_smr_node!(Node);\nlet n = Box::new(Node::new(1));\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("recycle ABI"));
    }

    #[test]
    fn waiver_comment_accepted() {
        let f = run(
            "smr_common::impl_smr_node!(Node);\n// lint:allow-box-node — head sentinel, never retired\nlet n = Box::new(Node::new(1));\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_modules_exempt() {
        let f = run(
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() {\n        unsafe { h() }\n    }\n}\nfn i() {\n    unsafe { j() }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains(":9:"), "{f:?}");
    }

    fn run_in(path: &str, src: &str) -> Vec<String> {
        let mut findings = Vec::new();
        lint_file(Path::new(path), src, &mut findings);
        findings
    }

    #[test]
    fn flags_pipeline_pieces_in_scheme_files() {
        let src = "use smr_common::OrphanPool;\n\
                   struct Ctx {\n    bag: LimboBag,\n    epoch_bags: [Vec<Retired>; 3],\n}\n\
                   fn f() {\n    \
                   trace::emit(0, TraceKind::ScanBegin, 0, 0);\n    \
                   trace::emit(0, TraceKind::LimboHigh, 0, 0);\n    \
                   trace::emit(0, TraceKind::OrphanAdopt, 0, 0);\n}\n";
        for dir in ["core", "smr-baselines", "smr-pop"] {
            let f = run_in(&format!("crates/{dir}/src/x.rs"), src);
            assert_eq!(f.len(), 6, "{dir}: {f:?}");
            assert!(f.iter().all(|m| m.contains("reclaim pipeline")));
        }
        // The pipeline's own crate, the harness and the structures may.
        for path in [
            "crates/smr-common/src/reclaim.rs",
            "crates/harness/src/x.rs",
        ] {
            assert!(run_in(path, src).is_empty(), "{path}");
        }
    }

    #[test]
    fn pipeline_rule_spares_tests_comments_and_other_trace_kinds() {
        let src = "// OrphanPool is gone from here.\n\
                   fn f() {\n    trace::emit(0, TraceKind::EraAdvance, 1, 0);\n    \
                   trace::emit(0, TraceKind::Neutralized, 0, 0);\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn g(p: &OrphanPool) {\n        \
                   trace::emit(0, TraceKind::ScanBegin, 0, 0);\n    }\n}\n";
        let f = run_in("crates/smr-baselines/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn flags_boxed_atomic_slots_in_scheme_files_only() {
        let src =
            "struct S {\n    slots: Box<[AtomicUsize]>,\n    eras: Vec<Box<[AtomicU64]>>,\n    \
                   private: Box<[usize]>,\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn g(_: Box<[AtomicUsize]>) {}\n}\n";
        for dir in ["core", "smr-baselines", "smr-pop"] {
            let f = run_in(&format!("crates/{dir}/src/x.rs"), src);
            assert_eq!(f.len(), 2, "{dir}: {f:?}");
            assert!(f[0].contains(":2:") && f[1].contains(":3:"), "{f:?}");
            assert!(f.iter().all(|m| m.contains("SlotBlock")));
        }
        assert!(run_in("crates/smr-common/src/slots.rs", src).is_empty());
    }

    #[test]
    fn flags_atomic_bool_in_node_structs_of_structure_files_only() {
        let src = "pub struct Node {\n    key: u64,\n    removed: AtomicBool,\n}\n\
                   smr_common::impl_smr_node!(Node);\n\
                   pub struct NodeSet {\n    busy: AtomicBool,\n}\n\
                   struct Tree {\n    done: AtomicBool,\n}\n\
                   fn f() -> AtomicBool {\n    AtomicBool::new(false)\n}\n";
        let f = run_in("crates/ds/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains(":3:") && f[0].contains("lock word"), "{f:?}");
        assert!(run_in("crates/smr-common/src/x.rs", src).is_empty());
        assert!(run_in("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn box_new_of_other_types_ignored() {
        let f = run("smr_common::impl_smr_node!(Node);\nlet n = Box::new(NodeTable::new());\nlet m = Box::new(7u64);\n");
        assert!(f.is_empty(), "{f:?}");
    }
}
