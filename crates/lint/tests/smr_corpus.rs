//! Seeded known-bad corpus for the SMR dataflow pass: each test plants
//! a snippet embodying one violation class in a hot-crate file (via
//! `WorkspaceFiles::override_file` — the linter sees it, rustc never
//! does) and asserts the audit produces a finding naming the violated
//! rule and the originating guard binding. A final group perturbs the
//! DESIGN.md §9.8 obligations table to prove the cross-check is live
//! in both directions, mirroring `drift.rs` for the ordering tables.

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

/// Host path for seeded snippets: an existing file in a hot crate with
/// the SMR pass enabled (the override replaces its whole content).
const HOST: &str = "crates/core/src/list/node.rs";

/// Audit the workspace with `HOST` replaced by `snippet`.
fn audit_snippet(snippet: &str) -> lf_lint::Audit {
    let mut files = WorkspaceFiles::new(&root());
    files.override_file(HOST, snippet.to_string());
    run_audit(&files).expect("audit runs")
}

#[test]
fn corpus_guard_scope_deref_outside_block() {
    let audit = audit_snippet(
        "fn stale(h: &H) {\n\
             let p;\n\
             {\n\
                 let g = h.pin();\n\
                 p = self.head.load(Ordering::Acquire);\n\
             }\n\
             unsafe { (*p).next() };\n\
         }\n",
    );
    assert!(
        audit.findings.iter().any(|f| f.check == "smr-guard-scope"
            && f.file == HOST
            && f.message.contains("`p`")
            && f.message.contains("`g`")),
        "seeded guard-scope violation must be found, got: {:#?}",
        audit.findings
    );
}

#[test]
fn corpus_deref_after_guard_drop() {
    let audit = audit_snippet(
        "fn stale(h: &H) {\n\
             let guard = h.pin();\n\
             let p = self.head.load(Ordering::Acquire);\n\
             drop(guard);\n\
             unsafe { (*p).next() };\n\
         }\n",
    );
    assert!(
        audit.findings.iter().any(|f| f.check == "smr-guard-scope"
            && f.file == HOST
            && f.message.contains("`guard`")),
        "deref after drop(guard) must be found, got: {:#?}",
        audit.findings
    );
}

#[test]
fn corpus_escaping_return_without_annotation() {
    let audit = audit_snippet(
        "fn leak(h: &H) -> *mut Node {\n\
             let g = h.pin();\n\
             let p = self.head.load(Ordering::Acquire);\n\
             p\n\
         }\n",
    );
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "smr-escape" && f.file == HOST && f.message.contains("`leak`")),
        "unannotated pointer-returning escape must be found, got: {:#?}",
        audit.findings
    );
}

#[test]
fn corpus_pin_across_await() {
    let audit = audit_snippet(
        "async fn submit_all(h: &H) {\n\
             let guard = h.pin();\n\
             submit().await;\n\
             let _ = &guard;\n\
         }\n",
    );
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "smr-pin-across-await"
                && f.file == HOST
                && f.message.contains("`guard`")),
        "pin held across .await must be found, got: {:#?}",
        audit.findings
    );
}

#[test]
fn corpus_unvalidated_optimistic_deref() {
    let audit = audit_snippet(
        "fn try_read(&self) -> u64 {\n\
             let curr = self.head.load(Ordering::Acquire);\n\
             unsafe { (*curr).value }\n\
         }\n",
    );
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "smr-unvalidated-deref"
                && f.file == HOST
                && f.message.contains("`curr`")),
        "unvalidated optimistic deref must be found, got: {:#?}",
        audit.findings
    );
}

#[test]
fn corpus_retire_without_unlink() {
    let audit = audit_snippet(
        "fn remove(&self, g: &Guard, node: *mut Node) {\n\
             let addr = node as usize;\n\
             unsafe { g.defer_unchecked(move || free(addr)) };\n\
         }\n",
    );
    assert!(
        audit.findings.iter().any(|f| f.check == "smr-retire-unlink"
            && f.file == HOST
            && f.message.contains("defer_unchecked")),
        "retire without // unlink: must be found, got: {:#?}",
        audit.findings
    );
}

#[test]
fn corpus_escape_id_missing_from_table_is_drift() {
    let audit = audit_snippet(
        "// escape: ESC.phantom-id: not a row of the obligations table\n\
         fn leak(h: &H) -> *mut Node {\n\
             let g = h.pin();\n\
             let p = self.head.load(Ordering::Acquire);\n\
             p\n\
         }\n",
    );
    assert!(
        audit.findings.iter().any(|f| f.check == "obligation-drift"
            && f.file == HOST
            && f.message.contains("ESC.phantom-id")),
        "annotation with unknown id must be obligation-drift, got: {:#?}",
        audit.findings
    );
}

// --- bidirectional drift against the checked-in workspace ---

#[test]
fn stripping_an_unlink_annotation_fails_the_audit() {
    let rel = "crates/core/src/list/search.rs";
    let src = read(rel);
    let line = "// unlink: UNLINK.list-del: the type-4 C&S above made `del`";
    assert!(src.contains(line), "expected annotation in {rel}");
    let perturbed = src.replacen(line, "// (annotation removed)", 1);

    let mut files = WorkspaceFiles::new(&root());
    files.override_file(rel, perturbed);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "smr-retire-unlink" && f.file == rel),
        "stripping the unlink annotation must resurface the finding, \
         got: {:#?}",
        audit.findings
    );
}

#[test]
fn perturbing_an_obligation_row_kind_fails_the_audit() {
    let design = read("DESIGN.md");
    let row_fragment = "| `ESC.hp-protect` | escape |";
    assert!(design.contains(row_fragment), "expected §9.8 row");
    // Flip the row's kind out from under the code's `// escape:`
    // annotation: the annotation no longer matches its table row.
    let perturbed = design.replacen(row_fragment, "| `ESC.hp-protect` | validate |", 1);

    let mut files = WorkspaceFiles::new(&root());
    files.override_file("DESIGN.md", perturbed);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "obligation-drift" && f.message.contains("ESC.hp-protect")),
        "kind mismatch must be obligation-drift, got: {:#?}",
        audit.findings
    );
}

#[test]
fn unwitnessed_obligation_row_fails_the_audit() {
    let design = read("DESIGN.md");
    let marker = "| `ESC.node-search` | escape |";
    assert!(design.contains(marker), "expected §9.8 table");
    // Prepend a row no annotation anywhere discharges.
    let ghost = "| `ESC.ghost-row` | escape | nowhere | nothing |\n";
    let at = design.find(marker).unwrap();
    let mut perturbed = design.clone();
    perturbed.insert_str(at, ghost);

    let mut files = WorkspaceFiles::new(&root());
    files.override_file("DESIGN.md", perturbed);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "obligation-drift" && f.message.contains("ESC.ghost-row")),
        "a table row with no witnessing annotation must be \
         obligation-drift, got: {:#?}",
        audit.findings
    );
}

#[test]
fn deleting_an_obligation_row_fails_the_audit() {
    let design = read("DESIGN.md");
    let row_start = design
        .find("| `VAL.ring-slot` | validate |")
        .expect("expected §9.8 row");
    let row_end = design[row_start..].find('\n').unwrap() + row_start + 1;
    let mut perturbed = design.clone();
    perturbed.replace_range(row_start..row_end, "");

    let mut files = WorkspaceFiles::new(&root());
    files.override_file("DESIGN.md", perturbed);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "obligation-drift" && f.message.contains("VAL.ring-slot")),
        "deleting the row out from under its annotations must be \
         obligation-drift, got: {:#?}",
        audit.findings
    );
}
