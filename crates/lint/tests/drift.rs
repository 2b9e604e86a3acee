//! End-to-end drift self-test: the audit must pass on the checked-in
//! workspace, and must FAIL when either side of the DESIGN.md §9
//! contract is perturbed — an `// ord:` annotation stripped from the
//! code, or a table row's ordering changed out from under it. This
//! proves the cross-check is live in both directions, not vacuous.

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

#[test]
fn checked_in_workspace_is_clean() {
    let files = WorkspaceFiles::new(&root());
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit.findings.is_empty(),
        "checked-in workspace must audit clean, got: {:#?}",
        audit.findings
    );
    assert!(audit.sites_total > 100, "inventory looks implausibly small");
}

#[test]
fn stripping_an_ord_annotation_fails_the_audit() {
    let rel = "crates/core/src/list/level.rs";
    let src = read(rel);
    let line = "// ord: Acquire — LIST.traverse: loaded pointer is the next hop";
    assert!(src.contains(line), "expected annotation in {rel}");
    let perturbed = src.replacen(line, "// (annotation removed)", 1);

    let mut files = WorkspaceFiles::new(&root());
    files.override_file(rel, perturbed);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.check == "missing-annotation" && f.file == rel),
        "stripping the annotation must produce a missing-annotation \
         finding, got: {:#?}",
        audit.findings
    );
}

#[test]
fn perturbing_a_design_row_fails_the_audit() {
    let design = read("DESIGN.md");
    let row_fragment = "| `LIST.traverse` | `node.succ` |";
    assert!(design.contains(row_fragment), "expected §9 row");
    // Change the row's licensed ordering from Acquire to Relaxed: the
    // `// ord: Acquire — LIST.traverse` annotations in the code are no
    // longer covered by the table.
    let line_start = design.find(row_fragment).unwrap();
    let line_end = design[line_start..].find('\n').unwrap() + line_start;
    let row = &design[line_start..line_end];
    let new_row = row.replace("`Acquire`", "`Relaxed`");
    assert_ne!(row, new_row, "row must mention Acquire");
    let perturbed = design.replacen(row, &new_row, 1);

    let mut files = WorkspaceFiles::new(&root());
    files.override_file("DESIGN.md", perturbed);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit.findings.iter().any(|f| f.check == "design-drift"),
        "perturbing the DESIGN.md row must produce a design-drift \
         finding, got: {:#?}",
        audit.findings
    );
}

#[test]
fn deleting_a_design_row_fails_the_audit() {
    let design = read("DESIGN.md");
    let row_fragment = "| `LIST.traverse` | `node.succ` |";
    let line_start = design.find(row_fragment).expect("expected §9 row");
    let line_end = design[line_start..].find('\n').unwrap() + line_start + 1;
    let mut perturbed = String::with_capacity(design.len());
    perturbed.push_str(&design[..line_start]);
    perturbed.push_str(&design[line_end..]);

    let mut files = WorkspaceFiles::new(&root());
    files.override_file("DESIGN.md", perturbed);
    let audit = run_audit(&files).expect("audit runs");
    assert!(
        audit.findings.iter().any(|f| f.check == "design-drift"),
        "deleting the DESIGN.md row must orphan the code annotations \
         and produce a design-drift finding, got: {:#?}",
        audit.findings
    );
}
