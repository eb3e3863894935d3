//! The harness's advisory channel: structured `@note[kind]` lines.
//!
//! Every advisory the bins emit alongside their results (fault-plan banners,
//! "leaky never scans" caveats, replay hints) flows through this one shape,
//! so scripts can grep `@note\[` and filter by kind instead of parsing ad-hoc
//! prose.

/// Formats a structured harness note: `@note[kind] message`.
pub fn format_note(kind: &str, msg: &str) -> String {
    format!("@note[{kind}] {msg}")
}

/// Prints a structured note to stderr (results stay clean on stdout).
pub fn note(kind: &str, msg: &str) {
    eprintln!("{}", format_note(kind, msg));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_channel_shape_is_greppable() {
        let n = format_note("fault-plan", "seed=0x1 [t2@512:stall(1024)]");
        assert_eq!(n, "@note[fault-plan] seed=0x1 [t2@512:stall(1024)]");
        assert!(n.starts_with("@note["));
    }
}
