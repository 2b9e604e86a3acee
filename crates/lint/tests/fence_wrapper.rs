//! Regression tests for the fence and pointer-wrapper audits.
//!
//! Two blind spots the site-pattern check (`.load(Ordering::..)`)
//! cannot see: standalone `fence(..)` calls, and helpers that wrap an
//! atomic access and hand the raw pointer to their callers. Each test
//! seeds a violation into an otherwise-clean hot-crate file (via the
//! in-memory override, never touching the checkout) and asserts the
//! audit catches it — plus one test proving the call-site annotations
//! on the real `backlink()` wrapper are load-bearing.

use std::path::PathBuf;

use lf_lint::{run_audit, WorkspaceFiles};

/// Workspace root, two levels above this crate's manifest.
fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).expect(rel)
}

/// The hot-crate file violations are appended to.
const HOT_FILE: &str = "crates/core/src/list/node.rs";

#[test]
fn seeded_unannotated_fence_is_caught() {
    let src = read(HOT_FILE)
        + "\npub(crate) fn seeded() { std::sync::atomic::fence(Ordering::SeqCst); }\n";
    let mut files = WorkspaceFiles::new(&root());
    files.override_file(HOT_FILE, src);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "missing-annotation"
                && f.file == HOT_FILE
                && f.message.contains("fence")),
        "unannotated fence must be flagged, got: {:#?}",
        audit.findings
    );
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "seqcst" && f.file == HOT_FILE),
        "SeqCst fence outside the allowlist must be flagged, got: {:#?}",
        audit.findings
    );
}

#[test]
fn seeded_annotated_fence_passes() {
    // An annotated fence whose ordering and id match a DESIGN.md §9
    // row audits clean — the fence check is about visibility, not a
    // blanket ban.
    let src = read(HOT_FILE)
        + "\npub(crate) fn seeded() {\n\
           // ord: Acquire — LIST.traverse: loaded pointer is the next hop\n\
           std::sync::atomic::fence(Ordering::Acquire);\n\
           }\n";
    let mut files = WorkspaceFiles::new(&root());
    files.override_file(HOT_FILE, src);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit.findings.is_empty(),
        "annotated fence must audit clean, got: {:#?}",
        audit.findings
    );
}

#[test]
fn seeded_wrapper_with_unannotated_call_site_is_caught() {
    // A new pointer-returning wrapper plus a bare call site: the
    // wrapper's own load is annotated, but the call site (where the
    // returned pointer will be dereferenced) is not.
    let src = read(HOT_FILE)
        + "\npub(crate) fn seeded_peek<K: Ord, V>(n: &Node<K, V>) -> *mut Node<K, V> {\n\
           // ord: Acquire — LIST.backlink-walk: predecessor is dereferenced\n\
           n.backlink.load(Ordering::Acquire)\n\
           }\n\
           pub(crate) fn seeded_caller<K: Ord, V>(n: &Node<K, V>) -> bool {\n\
           seeded_peek(n).is_null()\n\
           }\n";
    let mut files = WorkspaceFiles::new(&root());
    files.override_file(HOT_FILE, src);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "wrapper-unannotated"
                && f.file == HOT_FILE
                && f.message.contains("seeded_peek")),
        "bare wrapper call must be flagged, got: {:#?}",
        audit.findings
    );
}

#[test]
fn seeded_wrapper_call_with_wrong_ordering_is_caught() {
    // The call site IS annotated, but claims an ordering weaker than
    // what the wrapper hides.
    let src = read(HOT_FILE)
        + "\npub(crate) fn seeded_peek<K: Ord, V>(n: &Node<K, V>) -> *mut Node<K, V> {\n\
           // ord: Acquire — LIST.backlink-walk: predecessor is dereferenced\n\
           n.backlink.load(Ordering::Acquire)\n\
           }\n\
           pub(crate) fn seeded_caller<K: Ord, V>(n: &Node<K, V>) -> bool {\n\
           // ord: Relaxed — STAT.len: pure statistic\n\
           seeded_peek(n).is_null()\n\
           }\n";
    let mut files = WorkspaceFiles::new(&root());
    files.override_file(HOT_FILE, src);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "annotation-mismatch"
                && f.file == HOT_FILE
                && f.message.contains("seeded_peek")),
        "under-claiming wrapper call must be flagged, got: {:#?}",
        audit.findings
    );
}

#[test]
fn seeded_two_level_delegation_is_caught() {
    // The multi-level case: `seeded_inner` is a direct wrapper (atomic
    // load, pointer out), `seeded_mid` merely *delegates* to it — no
    // atomic of its own — and `seeded_outer` calls the delegator bare.
    // The registry fixpoint must promote `seeded_mid` and flag the
    // outer call site.
    let src = read(HOT_FILE)
        + "\npub(crate) fn seeded_inner<K: Ord, V>(n: &Node<K, V>) -> *mut Node<K, V> {\n\
           // ord: Acquire — LIST.backlink-walk: predecessor is dereferenced\n\
           n.backlink.load(Ordering::Acquire)\n\
           }\n\
           pub(crate) fn seeded_mid<K: Ord, V>(n: &Node<K, V>) -> *mut Node<K, V> {\n\
           // ord: Acquire — LIST.backlink-walk: delegated walk (wrapped load)\n\
           seeded_inner(n)\n\
           }\n\
           pub(crate) fn seeded_outer<K: Ord, V>(n: &Node<K, V>) -> bool {\n\
           seeded_mid(n).is_null()\n\
           }\n";
    let mut files = WorkspaceFiles::new(&root());
    files.override_file(HOT_FILE, src);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "wrapper-unannotated"
                && f.file == HOT_FILE
                && f.message.contains("seeded_mid")),
        "bare call to a delegating wrapper must be flagged, got: {:#?}",
        audit.findings
    );
}

#[test]
fn seeded_two_level_delegation_with_annotations_passes() {
    // Same chain, every hop annotated with the ordering the innermost
    // wrapper hides: audits clean, proving the delegator inherits its
    // callee's orderings (an annotation claiming Acquire satisfies the
    // Acquire the chain bottoms out in). The pointer-returning hops
    // also carry `// escape:` annotations for the SMR pass — the same
    // obligation the real accessors discharge.
    let src = read(HOT_FILE)
        + "\n// escape: ESC.node-accessor: valid while `n` is protected by the caller's guard\n\
           pub(crate) fn seeded_inner<K: Ord, V>(n: &Node<K, V>) -> *mut Node<K, V> {\n\
           // ord: Acquire — LIST.backlink-walk: predecessor is dereferenced\n\
           n.backlink.load(Ordering::Acquire)\n\
           }\n\
           // escape: ESC.node-accessor: valid while `n` is protected by the caller's guard\n\
           pub(crate) fn seeded_mid<K: Ord, V>(n: &Node<K, V>) -> *mut Node<K, V> {\n\
           // ord: Acquire — LIST.backlink-walk: delegated walk (wrapped load)\n\
           seeded_inner(n)\n\
           }\n\
           pub(crate) fn seeded_outer<K: Ord, V>(n: &Node<K, V>) -> bool {\n\
           // ord: Acquire — LIST.backlink-walk: two-level delegated walk\n\
           seeded_mid(n).is_null()\n\
           }\n";
    let mut files = WorkspaceFiles::new(&root());
    files.override_file(HOT_FILE, src);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit.findings.is_empty(),
        "fully annotated delegation chain must audit clean, got: {:#?}",
        audit.findings
    );
}

#[test]
fn stripping_a_search_call_annotation_fails_the_audit() {
    // The delegation fixpoint is live on the checked-in tree: the
    // paper's `SearchToLevel_SL` delegates (via `search_right`) to the
    // flagging C&S wrapper, so its call sites carry annotations —
    // removing one fails the audit.
    let rel = "crates/core/src/skiplist/insert.rs";
    let src = read(rel);
    let line =
        "// ord: Release/Acquire/Relaxed — LIST.flag-cas: descent helps flagged deletions (wrapped C&S)";
    assert!(src.contains(line), "expected call-site annotation in {rel}");
    let perturbed = src.replacen(line, "// (annotation removed)", 1);

    let mut files = WorkspaceFiles::new(&root());
    files.override_file(rel, perturbed);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "wrapper-unannotated"
                && f.file == rel
                && f.message.contains("search_to_level")),
        "stripping a delegated-search call annotation must produce a \
         wrapper-unannotated finding, got: {:#?}",
        audit.findings
    );
}

#[test]
fn stripping_a_backlink_call_annotation_fails_the_audit() {
    // The real wrapper check is live on the checked-in tree: the
    // recovery walks' `backlink()` calls carry annotations, and
    // removing one fails the audit.
    let rel = "crates/core/src/list/level.rs";
    let src = read(rel);
    let line = "// ord: Acquire — LIST.backlink-walk: recovered pred is dereferenced";
    assert!(src.contains(line), "expected call-site annotation in {rel}");
    let perturbed = src.replacen(line, "// (annotation removed)", 1);

    let mut files = WorkspaceFiles::new(&root());
    files.override_file(rel, perturbed);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "wrapper-unannotated" && f.file == rel),
        "stripping the call-site annotation must produce a \
         wrapper-unannotated finding, got: {:#?}",
        audit.findings
    );
}

#[test]
fn backlink_wrapper_is_in_the_registry() {
    let files = WorkspaceFiles::new(&root());
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit.wrapper_fns >= 1,
        "the `backlink()` helpers must register as wrappers"
    );
    assert!(
        audit.wrapper_calls >= 4,
        "the recovery walks' call sites must be collected, got {}",
        audit.wrapper_calls
    );
}
