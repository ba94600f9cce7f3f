//! `dcl_lint` — the workspace's static-analysis tier (`DESIGN.md` §9).
//!
//! Every bit-identity claim this reproduction makes rests on source-level
//! discipline that the compiler does not enforce: no architecture
//! intrinsics anywhere, metered code never iterates a hash table, simulator
//! panics keep the wording the Budget-vs-Panic classifier in `dcl_runner`
//! keys on, and so forth. This crate checks those contracts mechanically,
//! in the style of rust-lang's `tidy`: **line/token-level** analysis over
//! the raw sources — no `syn`, no dependencies, std only.
//!
//! ## Rule families
//!
//! | rule | contract |
//! |------|----------|
//! | `std-arch-confined` | no `std::arch` / `core::arch` anywhere in the workspace |
//! | `safety-comment` | every `unsafe` block/fn/impl is preceded by `// SAFETY:` |
//! | `forbid-unsafe` | crate roots carry `#![forbid(unsafe_code)]`; the one unsafe crate (`dcl_par`) carries `#![deny(unsafe_op_in_unsafe_fn)]` instead |
//! | `no-hash-iter` | no `HashMap`/`HashSet` in deterministic (simulator/driver) crates |
//! | `no-wall-clock` | no `Instant`/`SystemTime` outside `dcl_bench` and the audited `dcl_sim::deadline` module |
//! | `no-print` | no `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in library code |
//! | `panic-wording` | panic messages containing the stem "exceed" classify unambiguously as Budget or safety-net under `run_protected`'s rules |
//!
//! ## Waivers
//!
//! Any diagnostic except `waiver-syntax` can be waived per line:
//!
//! ```text
//! // dcl-lint: allow(no-hash-iter) — membership-only dedup set, never iterated
//! ```
//!
//! The comment waives the named rule(s) on its own line and on the line
//! directly below it (so it works both as a trailing comment and as a
//! preceding full-line comment). A reason after the closing parenthesis is
//! mandatory; a missing reason or an unknown rule name is itself reported
//! as a `waiver-syntax` violation.
//!
//! ## Entry points
//!
//! [`lint_source`] lints one file given its workspace-relative path (the
//! path determines which rules apply — fixture tests use this to lint
//! synthetic files "as if" they lived in a given crate). [`lint_workspace`]
//! walks a real tree (skipping `vendor/`, `target/` and `fixtures/`
//! directories) and is what the `dcl_lint` binary runs.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::Path;

/// One rule family, for `--list-rules` style documentation.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name as used in diagnostics and waivers.
    pub name: &'static str,
    /// One-line summary of the enforced contract.
    pub summary: &'static str,
}

/// The seven enforced rule families (plus the waiver well-formedness check,
/// which is not waivable and therefore not listed).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "std-arch-confined",
        summary: "no std::arch/core::arch intrinsics anywhere in the workspace",
    },
    RuleInfo {
        name: "safety-comment",
        summary: "every `unsafe` block/fn/impl is immediately preceded by a // SAFETY: comment",
    },
    RuleInfo {
        name: "forbid-unsafe",
        summary: "crate roots carry #![forbid(unsafe_code)] (dcl_par: \
                  #![deny(unsafe_op_in_unsafe_fn)])",
    },
    RuleInfo {
        name: "no-hash-iter",
        summary: "no HashMap/HashSet in deterministic crates (iteration order is nondeterministic)",
    },
    RuleInfo {
        name: "no-wall-clock",
        summary: "no Instant/SystemTime outside dcl_bench and dcl_sim::deadline",
    },
    RuleInfo {
        name: "no-print",
        summary: "no println!/eprintln!/print!/eprint!/dbg! in library code",
    },
    RuleInfo {
        name: "panic-wording",
        summary: "panic messages with the stem \"exceed\" must classify unambiguously \
                  under run_protected's Budget-vs-Panic rules",
    },
];

/// Name of the meta-rule reported for malformed waivers (not waivable).
pub const WAIVER_SYNTAX: &str = "waiver-syntax";

/// Returns true if `name` is one of the seven waivable rule families.
#[must_use]
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// A single `file:line` finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule family name (or [`WAIVER_SYNTAX`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Crates that are allowed to contain `unsafe` (and must instead carry
/// `#![deny(unsafe_op_in_unsafe_fn)]` at their root).
const UNSAFE_CRATES: &[&str] = &["par"];

/// Crates whose sources are metered / drive the deterministic pipeline:
/// hash-table types and ambiguous panic wordings are banned here. `"."` is
/// the root facade crate.
const DETERMINISM_CRATES: &[&str] = &[
    ".", "graphs", "congest", "clique", "mpc", "sim", "core", "decomp", "delta", "derand",
    "runner", "service",
];

/// Crates exempt from `no-wall-clock` (benchmarks time things by design).
const WALL_CLOCK_EXEMPT_CRATES: &[&str] = &["bench"];

/// The single audited wall-clock module: `dcl_sim::deadline` wraps
/// `Instant` behind the `Deadline` type that the transport and service
/// tiers use for liveness timeouts. Confining the raw clock reads to this
/// one reviewed file is what lets every other deterministic crate stay
/// clock-free without per-line waivers.
const WALL_CLOCK_MODULE: &str = "crates/sim/src/deadline.rs";

// ---------------------------------------------------------------------------
// Source model: comment/string-aware line decomposition.
// ---------------------------------------------------------------------------

/// One source line, decomposed for token-level checks.
#[derive(Debug, Default, Clone)]
struct Line {
    /// Code with comments removed and string/char literal contents blanked
    /// (the delimiting quotes are kept so tokenization stays sane).
    code: String,
    /// Concatenated comment text appearing on this line.
    comment: String,
    /// Contents of string literals *starting* on this line (a multi-line
    /// literal is attributed, whole, to its starting line).
    literals: Vec<String>,
    /// Inside a `#[cfg(test)] mod … { … }` block.
    in_test: bool,
}

#[derive(Debug)]
struct SourceModel {
    lines: Vec<Line>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u8),
    CharLit,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl SourceModel {
    fn parse(source: &str) -> Self {
        let chars: Vec<char> = source.chars().collect();
        let mut lines: Vec<Line> = Vec::new();
        let mut cur = Line::default();
        let mut state = ScanState::Code;
        let mut literal = String::new();
        let mut literal_start: usize = 0; // index into `lines` once pushed
        let mut i = 0usize;

        // Closes the current line at a '\n'.
        macro_rules! newline {
            () => {{
                lines.push(std::mem::take(&mut cur));
            }};
        }

        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                ScanState::Code => match c {
                    '\n' => {
                        newline!();
                        i += 1;
                    }
                    '/' if next == Some('/') => {
                        state = ScanState::LineComment;
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        state = ScanState::BlockComment(1);
                        i += 2;
                    }
                    '"' => {
                        cur.code.push('"');
                        state = ScanState::Str;
                        literal.clear();
                        literal_start = lines.len();
                        i += 1;
                    }
                    'r' | 'b' => {
                        // Possible raw / byte string prefix; only when `r`
                        // starts a fresh token.
                        let prev_ident = i > 0 && is_ident(chars[i - 1]);
                        let mut j = i;
                        // Accept the prefixes r", b", br", rb… conservatively.
                        while j < chars.len() && (chars[j] == 'r' || chars[j] == 'b') && j - i < 2 {
                            j += 1;
                        }
                        let mut hashes = 0u8;
                        let mut k = j;
                        while chars.get(k) == Some(&'#') {
                            hashes += 1;
                            k += 1;
                        }
                        let raw = j > i && chars[i..j].contains(&'r');
                        if !prev_ident && chars.get(k) == Some(&'"') && (raw || hashes == 0) {
                            if raw {
                                for &p in &chars[i..=k] {
                                    cur.code.push(p);
                                }
                                state = ScanState::RawStr(hashes);
                                literal.clear();
                                literal_start = lines.len();
                                i = k + 1;
                            } else if j == i + 1 && chars.get(j) == Some(&'"') {
                                // b"..." — ordinary escapes apply.
                                cur.code.push('b');
                                cur.code.push('"');
                                state = ScanState::Str;
                                literal.clear();
                                literal_start = lines.len();
                                i = j + 1;
                            } else {
                                cur.code.push(c);
                                i += 1;
                            }
                        } else if !prev_ident && c == 'b' && next == Some('\'') {
                            cur.code.push('b');
                            cur.code.push('\'');
                            state = ScanState::CharLit;
                            i += 2;
                        } else {
                            cur.code.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal vs lifetime: treat as a char literal
                        // only for `'\…'` or `'x'` shapes.
                        if next == Some('\\') || (next.is_some() && chars.get(i + 2) == Some(&'\''))
                        {
                            cur.code.push('\'');
                            state = ScanState::CharLit;
                            i += 1;
                        } else {
                            cur.code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        cur.code.push(c);
                        i += 1;
                    }
                },
                ScanState::LineComment => {
                    if c == '\n' {
                        newline!();
                        state = ScanState::Code;
                    } else {
                        cur.comment.push(c);
                    }
                    i += 1;
                }
                ScanState::BlockComment(depth) => {
                    if c == '\n' {
                        newline!();
                        i += 1;
                    } else if c == '/' && next == Some('*') {
                        state = ScanState::BlockComment(depth + 1);
                        i += 2;
                    } else if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            ScanState::Code
                        } else {
                            ScanState::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else {
                        cur.comment.push(c);
                        i += 1;
                    }
                }
                ScanState::Str => {
                    if c == '\\' {
                        literal.push(c);
                        if let Some(n) = next {
                            literal.push(n);
                        }
                        i += 2;
                    } else if c == '"' {
                        cur.code.push('"');
                        finish_literal(&mut lines, &mut cur, literal_start, &mut literal);
                        state = ScanState::Code;
                        i += 1;
                    } else {
                        if c == '\n' {
                            newline!();
                        }
                        literal.push(c);
                        i += 1;
                    }
                }
                ScanState::RawStr(hashes) => {
                    let closes = c == '"'
                        && (0..hashes as usize).all(|h| chars.get(i + 1 + h) == Some(&'#'));
                    if closes {
                        cur.code.push('"');
                        for _ in 0..hashes {
                            cur.code.push('#');
                        }
                        finish_literal(&mut lines, &mut cur, literal_start, &mut literal);
                        state = ScanState::Code;
                        i += 1 + hashes as usize;
                    } else {
                        if c == '\n' {
                            newline!();
                        }
                        literal.push(c);
                        i += 1;
                    }
                }
                ScanState::CharLit => {
                    if c == '\\' {
                        i += 2;
                    } else if c == '\'' {
                        cur.code.push('\'');
                        state = ScanState::Code;
                        i += 1;
                    } else if c == '\n' {
                        // Malformed; bail back to code to stay line-stable.
                        newline!();
                        state = ScanState::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        lines.push(cur);

        let mut model = SourceModel { lines };
        model.mark_cfg_test_blocks();
        model
    }

    /// Marks lines inside `#[cfg(test)] mod … { … }` blocks (the only shape
    /// this workspace uses; an attribute on a non-block item is skipped via
    /// the `;`-before-`{` check).
    fn mark_cfg_test_blocks(&mut self) {
        let n = self.lines.len();
        let mut i = 0;
        while i < n {
            if self.lines[i].code.contains("#[cfg(test)]") {
                // Find the opening brace of the annotated item.
                let mut j = i;
                let mut open: Option<(usize, usize)> = None; // (line, col)
                'search: while j < n {
                    let code = self.lines[j].code.clone();
                    for (col, ch) in code.char_indices() {
                        if j == i {
                            // Skip the attribute itself.
                            if col < code.find("#[cfg(test)]").unwrap_or(0) + "#[cfg(test)]".len() {
                                continue;
                            }
                        }
                        if ch == ';' {
                            break 'search; // non-block item
                        }
                        if ch == '{' {
                            open = Some((j, col));
                            break 'search;
                        }
                    }
                    j += 1;
                }
                if let Some((start, col)) = open {
                    let mut depth = 0i64;
                    let mut k = start;
                    'brace: while k < n {
                        let code = self.lines[k].code.clone();
                        for (c2, ch) in code.char_indices() {
                            if k == start && c2 < col {
                                continue;
                            }
                            match ch {
                                '{' => depth += 1,
                                '}' => {
                                    depth -= 1;
                                    if depth == 0 {
                                        for line in &mut self.lines[i..=k] {
                                            line.in_test = true;
                                        }
                                        i = k;
                                        break 'brace;
                                    }
                                }
                                _ => {}
                            }
                        }
                        k += 1;
                    }
                }
            }
            i += 1;
        }
    }
}

fn finish_literal(lines: &mut [Line], cur: &mut Line, start: usize, literal: &mut String) {
    let text = std::mem::take(literal);
    if start == lines.len() {
        cur.literals.push(text);
    } else if let Some(line) = lines.get_mut(start) {
        line.literals.push(text);
    }
}

/// True if `code` contains `word` as a standalone token (not as part of a
/// longer identifier).
fn has_token(code: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(code[..at].chars().next_back().unwrap());
        let after = code[at + word.len()..].chars().next();
        let after_ok = after.is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

// ---------------------------------------------------------------------------
// Waivers.
// ---------------------------------------------------------------------------

const WAIVER_MARKER: &str = "dcl-lint:";

#[derive(Debug, Default)]
struct Waivers {
    /// `by_line[i]` = rules waived for 0-based line `i`.
    by_line: Vec<Vec<&'static str>>,
    /// Malformed-waiver diagnostics (never waivable).
    errors: Vec<(usize, String)>,
}

fn parse_waivers(model: &SourceModel) -> Waivers {
    let mut w = Waivers {
        by_line: vec![Vec::new(); model.lines.len() + 1],
        ..Waivers::default()
    };
    for (idx, line) in model.lines.iter().enumerate() {
        let Some(pos) = line.comment.find(WAIVER_MARKER) else {
            continue;
        };
        let directive = line.comment[pos + WAIVER_MARKER.len()..].trim_start();
        let Some(rest) = directive.strip_prefix("allow(") else {
            w.errors.push((
                idx,
                "malformed waiver: expected `dcl-lint: allow(rule, …) — reason`".to_string(),
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            w.errors
                .push((idx, "malformed waiver: unclosed `allow(`".to_string()));
            continue;
        };
        let names: Vec<&str> = rest[..close]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', '–', ':'])
            .trim();
        let mut ok = true;
        if names.is_empty() {
            w.errors.push((
                idx,
                "malformed waiver: no rule named in `allow(…)`".to_string(),
            ));
            ok = false;
        }
        for name in &names {
            if !is_known_rule(name) {
                w.errors.push((
                    idx,
                    format!(
                        "unknown rule `{name}` in waiver (known rules: {})",
                        RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
                    ),
                ));
                ok = false;
            }
        }
        if reason.len() < 3 {
            w.errors.push((
                idx,
                "waiver is missing its reason: `dcl-lint: allow(rule) — reason`".to_string(),
            ));
            ok = false;
        }
        if ok {
            for name in names {
                let name = RULES
                    .iter()
                    .map(|r| r.name)
                    .find(|n| *n == name)
                    .expect("checked above");
                // A waiver covers its own line and the line directly below.
                w.by_line[idx].push(name);
                if idx + 1 < w.by_line.len() {
                    w.by_line[idx + 1].push(name);
                }
            }
        }
    }
    w
}

// ---------------------------------------------------------------------------
// Per-file context derived from the workspace-relative path.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct FileCtx {
    /// `crates/<name>` member name, or `"."` for the root facade.
    krate: String,
    /// Under a `tests/` directory (integration tests).
    test_file: bool,
    /// A binary/example target (`src/bin/`, `src/main.rs`, `examples/`).
    bin_file: bool,
    /// The crate-root file carrying inner attributes
    /// (`crates/<c>/src/lib.rs`, `crates/<c>/src/main.rs` or root `src/lib.rs`).
    crate_root: bool,
}

fn file_ctx(path: &str) -> FileCtx {
    let parts: Vec<&str> = path.split('/').collect();
    let (krate, rest): (String, &[&str]) = if parts.first() == Some(&"crates") && parts.len() > 2 {
        (parts[1].to_string(), &parts[2..])
    } else {
        (".".to_string(), &parts[..])
    };
    let test_file = rest.first() == Some(&"tests");
    let bin_file = rest.first() == Some(&"examples")
        || (rest.first() == Some(&"src") && rest.get(1) == Some(&"bin"))
        || rest == ["src", "main.rs"];
    let crate_root = rest == ["src", "lib.rs"] || rest == ["src", "main.rs"];
    FileCtx {
        krate,
        test_file,
        bin_file,
        crate_root,
    }
}

// ---------------------------------------------------------------------------
// panic-wording classification (mirrors dcl_runner::run_protected).
// ---------------------------------------------------------------------------

/// Removes `{…}` format-argument spans so that argument *names* (`{budget}`,
/// `{cap}`) cannot influence classification — at runtime they are replaced
/// by values.
fn strip_format_args(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut depth = 0usize;
    for c in s.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PanicClass {
    /// Classified as `RunError::Budget` by `run_protected`.
    Budget,
    /// Past-tense safety-net wording, classified as `RunError::Panic`.
    SafetyNet,
    /// Contains the stem "exceed" but matches neither canonical form.
    Ambiguous,
}

/// Classifies a panic-message literal. Returns `None` when the literal does
/// not contain the stem "exceed" (then the rule does not apply).
fn classify_panic_literal(lit: &str) -> Option<PanicClass> {
    let text = strip_format_args(lit).to_lowercase();
    if !text.contains("exceed") {
        return None;
    }
    let budget = text.contains("budget")
        || text.contains("exceeding its memory")
        || (text.contains("exceeds") && text.contains("cap"));
    if budget {
        return Some(PanicClass::Budget);
    }
    if text.contains("exceeded") && !text.contains("exceeds") {
        return Some(PanicClass::SafetyNet);
    }
    Some(PanicClass::Ambiguous)
}

// ---------------------------------------------------------------------------
// The lint pass.
// ---------------------------------------------------------------------------

/// Lints one file. `path` must be workspace-relative with `/` separators;
/// it determines crate attribution and therefore which rules apply.
#[must_use]
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let model = SourceModel::parse(source);
    let waivers = parse_waivers(&model);
    let ctx = file_ctx(path);
    let mut raw: Vec<Diagnostic> = Vec::new();

    let diag = |line: usize, rule: &'static str, message: String| Diagnostic {
        path: path.to_string(),
        line: line + 1,
        rule,
        message,
    };

    for (err_line, msg) in &waivers.errors {
        raw.push(diag(*err_line, WAIVER_SYNTAX, msg.clone()));
    }

    // forbid-unsafe: crate-root attribute audit.
    if ctx.crate_root {
        let has = |needle: &str| model.lines.iter().any(|l| l.code.contains(needle));
        let mut missing: Option<&str> = None;
        if UNSAFE_CRATES.contains(&ctx.krate.as_str()) {
            if !has("#![deny(unsafe_op_in_unsafe_fn)]") {
                missing = Some(
                    "unsafe-permitted crate must carry #![deny(unsafe_op_in_unsafe_fn)] at its root",
                );
            }
        } else if !has("#![forbid(unsafe_code)]") {
            missing = Some("crate root must carry #![forbid(unsafe_code)]");
        }
        if let Some(msg) = missing {
            if !waivers.by_line[0].contains(&"forbid-unsafe") {
                raw.push(diag(0, "forbid-unsafe", msg.to_string()));
            }
        }
    }

    let determinism_crate = DETERMINISM_CRATES.contains(&ctx.krate.as_str());
    let wall_clock_exempt =
        WALL_CLOCK_EXEMPT_CRATES.contains(&ctx.krate.as_str()) || path == WALL_CLOCK_MODULE;

    for (i, line) in model.lines.iter().enumerate() {
        let waived = |rule: &str| waivers.by_line[i].contains(&rule);
        let exempt_test = ctx.test_file || line.in_test;

        // std-arch-confined — applies everywhere, including tests: every
        // kernel has one safe, portable implementation.
        if (line.code.contains("std::arch") || line.code.contains("core::arch"))
            && !waived("std-arch-confined")
        {
            raw.push(diag(
                i,
                "std-arch-confined",
                "architecture intrinsics (`std::arch`/`core::arch`) are banned \
                 workspace-wide — write the kernel as portable safe code"
                    .to_string(),
            ));
        }

        // safety-comment — every `unsafe` token needs a contiguous
        // preceding (or same-line) `// SAFETY:` comment.
        if has_token(&line.code, "unsafe") && !waived("safety-comment") {
            let mut ok = line.comment.contains("SAFETY:");
            let mut j = i;
            while !ok && j > 0 {
                j -= 1;
                let above = &model.lines[j];
                if !above.code.trim().is_empty() {
                    break; // a code line interrupts the comment block
                }
                if above.comment.contains("SAFETY:") {
                    ok = true;
                }
                if above.comment.is_empty() && above.code.trim().is_empty() {
                    break; // blank line ends the block
                }
            }
            if !ok {
                raw.push(diag(
                    i,
                    "safety-comment",
                    "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
                ));
            }
        }

        // no-hash-iter — deterministic crates, non-test code only.
        if determinism_crate && !exempt_test && !waived("no-hash-iter") {
            for ty in ["HashMap", "HashSet"] {
                if has_token(&line.code, ty) {
                    raw.push(diag(
                        i,
                        "no-hash-iter",
                        format!(
                            "`{ty}` in a deterministic crate — iteration order is \
                             nondeterministic; use BTreeMap/BTreeSet or a sorted Vec \
                             (or waive if provably never iterated)"
                        ),
                    ));
                }
            }
        }

        // no-wall-clock — everywhere except dcl_bench; non-test code only.
        if !wall_clock_exempt && !exempt_test && !waived("no-wall-clock") {
            for ty in ["Instant", "SystemTime"] {
                if has_token(&line.code, ty) {
                    raw.push(diag(
                        i,
                        "no-wall-clock",
                        format!(
                            "`{ty}` outside dcl_bench — metered code must not read wall \
                             clocks (round/bit counters are the only time source); for \
                             liveness timeouts use dcl_sim::Deadline, the one audited \
                             clock module"
                        ),
                    ));
                }
            }
        }

        // no-print — library code only (bins, examples, tests exempt).
        if !ctx.bin_file && !exempt_test && !waived("no-print") {
            for mac in ["println", "eprintln", "print", "eprint", "dbg"] {
                let bang = format!("{mac}!");
                if line.code.contains(&bang) && has_token(&line.code, mac) {
                    raw.push(diag(
                        i,
                        "no-print",
                        format!(
                            "`{bang}` in library code — return data or use the bench/bin \
                             layer for output"
                        ),
                    ));
                    break;
                }
            }
        }

        // panic-wording — deterministic crates, non-test code only.
        if determinism_crate && !exempt_test && !waived("panic-wording") {
            for lit in &line.literals {
                if classify_panic_literal(lit) == Some(PanicClass::Ambiguous) {
                    raw.push(diag(
                        i,
                        "panic-wording",
                        format!(
                            "message {lit:?} contains the stem \"exceed\" but matches \
                             neither canonical wording: budget assertions must say \
                             \"budget\" / \"exceeding its memory\" / \"exceeds … cap\"; \
                             safety nets must use past-tense \"exceeded\" (see \
                             dcl_runner::run_protected)"
                        ),
                    ));
                }
            }
        }
    }

    raw
}

/// Walks a workspace tree and lints every `.rs` file under `src/`,
/// `crates/`, `tests/` and `examples/`, skipping `vendor/`, `target/` and
/// any `fixtures/` directory. Returns `(files_checked, diagnostics)` with
/// diagnostics sorted by path and line.
///
/// # Errors
///
/// Propagates I/O errors from directory walking or file reads.
pub fn lint_workspace(root: &Path) -> std::io::Result<(usize, Vec<Diagnostic>)> {
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for top in ["src", "crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut diagnostics = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        diagnostics.extend(lint_source(&rel, &source));
    }
    diagnostics.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok((files.len(), diagnostics))
}

const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git", "node_modules"];

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_stripped_from_code() {
        let m = SourceModel::parse(
            "let x = \"HashMap in a string\"; // HashMap in a comment\nuse std::collections::HashMap;\n",
        );
        assert!(!has_token(&m.lines[0].code, "HashMap"));
        assert!(m.lines[0].comment.contains("HashMap in a comment"));
        assert_eq!(m.lines[0].literals, vec!["HashMap in a string".to_string()]);
        assert!(has_token(&m.lines[1].code, "HashMap"));
    }

    #[test]
    fn raw_strings_and_chars_are_handled() {
        let m = SourceModel::parse(
            "let s = r#\"Instant \"quoted\" inside\"#;\nlet c = '\"'; let l: &'static str = \"x\";\n",
        );
        assert!(!m.lines[0].code.contains("Instant"));
        assert_eq!(m.lines[0].literals.len(), 1);
        // The '"' char literal must not open a string.
        assert_eq!(m.lines[1].literals, vec!["x".to_string()]);
    }

    #[test]
    fn multi_line_literal_attributes_to_start_line() {
        let m = SourceModel::parse("panic!(\n    \"line one\n     line two\"\n);\n");
        assert!(m.lines[1].literals[0].contains("line two"));
    }

    #[test]
    fn cfg_test_blocks_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    use super::*;\n    fn t() {}\n}\nfn after() {}\n";
        let m = SourceModel::parse(src);
        assert!(!m.lines[0].in_test);
        assert!(m.lines[1].in_test && m.lines[4].in_test && m.lines[5].in_test);
        assert!(!m.lines[6].in_test);
    }

    #[test]
    fn cfg_test_on_statement_does_not_swallow_following_block() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {\n    body();\n}\n";
        let m = SourceModel::parse(src);
        assert!(!m.lines[3].in_test);
    }

    #[test]
    fn format_args_do_not_leak_into_classification() {
        // `{budget}` must not make this read as budget wording.
        assert_eq!(
            classify_panic_literal("value {budget} exceed limit"),
            Some(PanicClass::Ambiguous)
        );
        assert_eq!(
            classify_panic_literal("machine 3 exceeded its send budget of 10 words"),
            Some(PanicClass::Budget)
        );
        assert_eq!(
            classify_panic_literal("message of 9 bits exceeds CONGEST cap of 8 bits"),
            Some(PanicClass::Budget)
        );
        assert_eq!(
            classify_panic_literal("machine 1 stores 99 words, exceeding its memory of 80"),
            Some(PanicClass::Budget)
        );
        assert_eq!(
            classify_panic_literal("iteration cap exceeded — progress bug"),
            Some(PanicClass::SafetyNet)
        );
        assert_eq!(classify_panic_literal("no stem here"), None);
    }

    #[test]
    fn waiver_requires_reason_and_known_rule() {
        let src = "// dcl-lint: allow(no-print)\nprintln!(\"x\");\n";
        let d = lint_source("crates/sim/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == WAIVER_SYNTAX));
        // The malformed waiver does not suppress the violation.
        assert!(d.iter().any(|d| d.rule == "no-print"));

        let src = "// dcl-lint: allow(no-such-rule) — because\n";
        let d = lint_source("crates/sim/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == WAIVER_SYNTAX));
    }

    #[test]
    fn trailing_and_preceding_waivers_cover_the_line() {
        let trailing =
            "use std::collections::HashMap; // dcl-lint: allow(no-hash-iter) — never iterated\n";
        assert!(lint_source("crates/sim/src/x.rs", trailing).is_empty());
        let preceding =
            "// dcl-lint: allow(no-hash-iter) — never iterated\nuse std::collections::HashMap;\n";
        assert!(lint_source("crates/sim/src/x.rs", preceding).is_empty());
    }
}
