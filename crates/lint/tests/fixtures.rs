//! Fixture-based tests for every `dcl_lint` rule family: one seeded
//! violation and one clean fixture per rule, plus the waiver-syntax
//! fixtures. Fixtures are plain text under `tests/fixtures/` (the
//! workspace walk skips `fixtures/` directories, so the seeded violations
//! never pollute a real `cargo lint` run); each is linted **as if** it
//! lived at a virtual workspace path, which is what decides rule scoping.

use dcl_lint::{lint_source, Diagnostic, WAIVER_SYNTAX};

/// Lints `source` under a virtual workspace-relative path.
fn lint(path: &str, source: &str) -> Vec<Diagnostic> {
    lint_source(path, source)
}

fn rules(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn std_arch_confined_flags_intrinsics_everywhere() {
    let bad = include_str!("fixtures/std_arch_bad.rs");
    // No crate is exempt: the kernels and the unsafe pool included.
    for path in [
        "crates/sim/src/fixture.rs",
        "crates/kernels/src/fixture.rs",
        "crates/par/src/fixture.rs",
        "crates/kernels/tests/fixture.rs",
    ] {
        let diags = lint(path, bad);
        assert_eq!(rules(&diags), ["std-arch-confined"], "{path}: {diags:?}");
        assert_eq!(diags[0].line, 4);
    }
}

#[test]
fn std_arch_confined_flags_core_arch_unless_waived() {
    let bad = "pub use core::arch::x86_64::_mm_add_pd;\n";
    let diags = lint("crates/kernels/src/fixture.rs", bad);
    assert_eq!(rules(&diags), ["std-arch-confined"], "{diags:?}");
    let waived = "// dcl-lint: allow(std-arch-confined) — fixture for the waiver path\n\
                  pub use core::arch::x86_64::_mm_add_pd;\n";
    assert!(lint("crates/kernels/src/fixture.rs", waived).is_empty());
}

#[test]
fn std_arch_confined_accepts_clean_code() {
    let ok = include_str!("fixtures/std_arch_ok.rs");
    assert!(lint("crates/sim/src/fixture.rs", ok).is_empty());
    assert!(lint("crates/kernels/src/fixture.rs", ok).is_empty());
}

#[test]
fn safety_comment_flags_bare_unsafe() {
    let bad = include_str!("fixtures/safety_comment_bad.rs");
    let diags = lint("crates/par/src/fixture.rs", bad);
    assert_eq!(rules(&diags), ["safety-comment"], "{diags:?}");
    assert_eq!(diags[0].line, 4);
}

#[test]
fn safety_comment_accepts_preceding_comment() {
    let ok = include_str!("fixtures/safety_comment_ok.rs");
    assert!(lint("crates/par/src/fixture.rs", ok).is_empty());
}

#[test]
fn forbid_unsafe_requires_root_attribute() {
    let bad = include_str!("fixtures/forbid_unsafe_bad.rs");
    let diags = lint("crates/sim/src/lib.rs", bad);
    assert_eq!(rules(&diags), ["forbid-unsafe"], "{diags:?}");
    assert_eq!(diags[0].line, 1);
    // The same file is NOT a crate root under a module path: no finding.
    assert!(lint("crates/sim/src/util.rs", bad).is_empty());
}

#[test]
fn forbid_unsafe_unsafe_crates_need_deny_unsafe_op() {
    // A plain #![forbid(unsafe_code)] root is wrong for dcl_par: it needs
    // #![deny(unsafe_op_in_unsafe_fn)].
    let forbid_root = include_str!("fixtures/forbid_unsafe_ok.rs");
    let diags = lint("crates/par/src/lib.rs", forbid_root);
    assert_eq!(rules(&diags), ["forbid-unsafe"], "{diags:?}");

    let deny_root = include_str!("fixtures/forbid_unsafe_unsafe_crate_ok.rs");
    assert!(lint("crates/par/src/lib.rs", deny_root).is_empty());
    // Every other crate, dcl_kernels included, must forbid unsafe code.
    let diags = lint("crates/kernels/src/lib.rs", deny_root);
    assert_eq!(rules(&diags), ["forbid-unsafe"], "{diags:?}");
    assert!(lint("crates/kernels/src/lib.rs", forbid_root).is_empty());
}

#[test]
fn forbid_unsafe_accepts_clean_root() {
    let ok = include_str!("fixtures/forbid_unsafe_ok.rs");
    assert!(lint("crates/sim/src/lib.rs", ok).is_empty());
    assert!(lint("src/lib.rs", ok).is_empty());
}

#[test]
fn no_hash_iter_flags_hash_types_in_deterministic_crates() {
    let bad = include_str!("fixtures/no_hash_iter_bad.rs");
    let diags = lint("crates/decomp/src/fixture.rs", bad);
    assert_eq!(
        rules(&diags),
        ["no-hash-iter", "no-hash-iter"],
        "use + construction: {diags:?}"
    );
    assert_eq!(diags[0].line, 3);
}

#[test]
fn no_hash_iter_exempts_ordered_maps_tests_and_non_metered_crates() {
    let ok = include_str!("fixtures/no_hash_iter_ok.rs");
    // BTreeMap everywhere, HashSet only inside #[cfg(test)]: clean.
    assert!(lint("crates/decomp/src/fixture.rs", ok).is_empty());
    // Hash types are fine in crates outside the deterministic set.
    let bad = include_str!("fixtures/no_hash_iter_bad.rs");
    assert!(lint("crates/bench/src/fixture.rs", bad).is_empty());
    // …and in integration tests of any crate.
    assert!(lint("crates/decomp/tests/fixture.rs", bad).is_empty());
}

#[test]
fn no_wall_clock_flags_instant_outside_bench() {
    let bad = include_str!("fixtures/no_wall_clock_bad.rs");
    let diags = lint("crates/sim/src/fixture.rs", bad);
    assert_eq!(
        rules(&diags),
        ["no-wall-clock", "no-wall-clock"],
        "{diags:?}"
    );
    assert_eq!(diags[0].line, 3);
}

#[test]
fn no_wall_clock_exempts_bench_and_duration_values() {
    let bad = include_str!("fixtures/no_wall_clock_bad.rs");
    assert!(lint("crates/bench/src/fixture.rs", bad).is_empty());
    let ok = include_str!("fixtures/no_wall_clock_ok.rs");
    assert!(lint("crates/sim/src/fixture.rs", ok).is_empty());
}

#[test]
fn no_wall_clock_exempts_the_audited_deadline_module_by_exact_path() {
    let bad = include_str!("fixtures/no_wall_clock_bad.rs");
    // The one audited clock module may hold `Instant` without waivers…
    assert!(lint("crates/sim/src/deadline.rs", bad).is_empty());
    // …but the exemption is the exact file, not a name: a `deadline.rs`
    // anywhere else in a deterministic crate is still flagged.
    assert!(!lint("crates/service/src/deadline.rs", bad).is_empty());
    assert!(!lint("crates/sim/src/deadline2.rs", bad).is_empty());
}

#[test]
fn service_crate_is_held_to_the_determinism_contract() {
    let bad = include_str!("fixtures/service_crate_bad.rs");
    // Library code in crates/service is metered-adjacent: the server must
    // produce byte-identical responses, so all three determinism rules
    // apply there.
    let diags = lint("crates/service/src/fixture.rs", bad);
    let mut seen = rules(&diags);
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen,
        ["no-hash-iter", "no-print", "no-wall-clock"],
        "{diags:?}"
    );
    // The server binary is operational, not metered: prints are fine
    // there, but clocks and hash tables are still banned.
    let bin = lint("crates/service/src/bin/dcl_serve.rs", bad);
    let mut seen = rules(&bin);
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen, ["no-hash-iter", "no-wall-clock"], "{bin:?}");
    // Integration tests of the service crate are exempt as everywhere.
    assert!(lint("crates/service/tests/fixture.rs", bad).is_empty());
}

#[test]
fn no_print_flags_library_prints() {
    let bad = include_str!("fixtures/no_print_bad.rs");
    let diags = lint("crates/runner/src/fixture.rs", bad);
    assert_eq!(rules(&diags), ["no-print"], "{diags:?}");
    assert_eq!(diags[0].line, 4);
}

#[test]
fn no_print_exempts_bins_examples_and_tests() {
    let bad = include_str!("fixtures/no_print_bad.rs");
    assert!(lint("crates/bench/src/bin/fixture.rs", bad).is_empty());
    assert!(lint("examples/fixture.rs", bad).is_empty());
    assert!(lint("crates/runner/tests/fixture.rs", bad).is_empty());
    let ok = include_str!("fixtures/no_print_ok.rs");
    assert!(lint("crates/runner/src/fixture.rs", ok).is_empty());
}

#[test]
fn panic_wording_flags_ambiguous_exceed_messages() {
    let bad = include_str!("fixtures/panic_wording_bad.rs");
    let diags = lint("crates/clique/src/fixture.rs", bad);
    assert_eq!(rules(&diags), ["panic-wording"], "{diags:?}");
    assert_eq!(diags[0].line, 6);
}

#[test]
fn panic_wording_accepts_both_canonical_forms() {
    let ok = include_str!("fixtures/panic_wording_ok.rs");
    assert!(lint("crates/clique/src/fixture.rs", ok).is_empty());
    // Outside the deterministic crates the wording is unconstrained.
    let bad = include_str!("fixtures/panic_wording_bad.rs");
    assert!(lint("crates/kernels/src/fixture.rs", bad).is_empty());
}

#[test]
fn waivers_suppress_findings_with_reason() {
    let ok = include_str!("fixtures/waiver_ok.rs");
    let diags = lint("crates/sim/src/fixture.rs", ok);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn malformed_waivers_are_violations_and_do_not_suppress() {
    let bad = include_str!("fixtures/waiver_bad.rs");
    let diags = lint("crates/sim/src/fixture.rs", bad);
    // Reason-less waiver: reported AND the HashSet finding stays.
    assert!(
        diags.iter().any(|d| d.rule == WAIVER_SYNTAX && d.line == 4),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "no-hash-iter" && d.line == 5),
        "{diags:?}"
    );
    // Unknown rule name: reported.
    assert!(
        diags.iter().any(|d| d.rule == WAIVER_SYNTAX && d.line == 7),
        "{diags:?}"
    );
}

#[test]
fn the_real_workspace_is_lint_clean() {
    // Integration tests run with cwd = crates/lint; the workspace root is
    // two levels up. This pins the acceptance criterion that `cargo lint`
    // exits 0 on the committed tree.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/lint has a workspace root two levels up");
    let (files, diags) = dcl_lint::lint_workspace(root).expect("workspace walk succeeds");
    assert!(
        files > 100,
        "expected to walk the whole workspace, saw {files} files"
    );
    assert!(
        diags.is_empty(),
        "workspace must be lint-clean:\n{}",
        diags
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
