//! Workspace audit: crate discovery, file walking, policy application,
//! and the DESIGN.md cross-check.
//!
//! All file contents can be overridden in memory (`overrides` maps
//! workspace-relative paths to replacement text), which is how the
//! drift self-tests perturb a file without touching the checkout.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::analyze::{scan_file, scan_file_with, AnnotationKind, BannedKind, FileScan};
use crate::design::parse_design;
use crate::policy::{CrateClass, Policy};

/// One reported problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable machine id of the check (`missing-annotation`, `seqcst`,
    /// `missing-safety`, `design-drift`, ...).
    pub check: &'static str,
    /// Crate the finding belongs to.
    pub krate: String,
    /// Workspace-relative path (DESIGN.md drift reports anchor there).
    pub file: String,
    /// 1-based line (0 for file-level findings).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Audit results: findings plus the atomic-site inventory.
#[derive(Debug, Default)]
pub struct Audit {
    /// Everything the checks flagged, in path order.
    pub findings: Vec<Finding>,
    /// crate -> ordering combination (e.g. `Release/Acquire`) -> count.
    pub inventory: BTreeMap<String, BTreeMap<String, usize>>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Total atomic sites inventoried.
    pub sites_total: usize,
    /// Total `unsafe` items seen.
    pub unsafe_total: usize,
    /// Pointer-returning atomic wrapper fns discovered (registry size).
    pub wrapper_fns: usize,
    /// Call sites of those wrappers, across all crate classes.
    pub wrapper_calls: usize,
    /// Guard/pin bindings seen by the SMR pass (audited crates only).
    pub smr_guards: usize,
    /// Deref events of guard-derived pointers the SMR pass checked.
    pub smr_derefs: usize,
    /// `retire`/`defer` call sites checked for `// unlink:` pairing.
    pub smr_defer_sites: usize,
    /// `// escape:` / `// validate:` / `// unlink:` annotations seen.
    pub smr_annotations: usize,
}

/// In-memory view of the workspace with optional content overrides.
pub struct WorkspaceFiles {
    root: PathBuf,
    overrides: BTreeMap<String, String>,
}

impl WorkspaceFiles {
    /// View the workspace rooted at `root` with no overrides.
    pub fn new(root: &Path) -> Self {
        WorkspaceFiles {
            root: root.to_path_buf(),
            overrides: BTreeMap::new(),
        }
    }

    /// Replace `rel_path`'s content for this audit only.
    pub fn override_file(&mut self, rel_path: &str, content: String) {
        self.overrides.insert(rel_path.to_string(), content);
    }

    fn read(&self, rel_path: &str) -> std::io::Result<String> {
        if let Some(text) = self.overrides.get(rel_path) {
            return Ok(text.clone());
        }
        fs::read_to_string(self.root.join(rel_path))
    }
}

/// A crate to scan: its package name and src root (workspace-relative).
#[derive(Debug, Clone)]
struct CrateDir {
    name: String,
    src: String,
}

/// Run the full audit.
///
/// # Errors
///
/// Returns a message if the policy file, DESIGN.md, or workspace layout
/// cannot be read/parsed — configuration problems, as opposed to
/// findings, which are reported in the [`Audit`].
pub fn run_audit(files: &WorkspaceFiles) -> Result<Audit, String> {
    let policy_text = files
        .read("lint-policy.toml")
        .map_err(|e| format!("cannot read lint-policy.toml: {e}"))?;
    let policy = Policy::parse(&policy_text)?;
    let design_text = files
        .read("DESIGN.md")
        .map_err(|e| format!("cannot read DESIGN.md: {e}"))?;
    // An empty §9.8 SMR-obligations table is not a config error: any
    // attached SMR annotation then flags obligation-drift, which is
    // exactly the bidirectional discipline working.
    let design_rows = parse_design(&design_text);
    if !design_rows.iter().any(|r| r.kind == AnnotationKind::Ord) {
        return Err("DESIGN.md §9 contains no ordering-table rows — \
                    the drift check would be vacuous"
            .into());
    }

    let crates = discover_crates(files)?;
    let mut audit = Audit::default();
    let mut sources: Vec<(String, String, String)> = Vec::new(); // (crate, file, text)
    let mut test_files: BTreeSet<String> = BTreeSet::new();

    for krate in &crates {
        let mut rs_files = Vec::new();
        walk_rs_files(&files.root.join(&krate.src), &mut rs_files);
        rs_files.sort();
        for abs in rs_files {
            let rel = abs
                .strip_prefix(&files.root)
                .unwrap_or(&abs)
                .to_string_lossy()
                .replace('\\', "/");
            if is_test_path(&rel) {
                continue;
            }
            let text = files
                .read(&rel)
                .map_err(|e| format!("cannot read {rel}: {e}"))?;
            sources.push((krate.name.clone(), rel, text));
        }
    }

    // Pass 1: scan every file to learn the test-submodule set and the
    // pointer-returning wrapper fns. The wrapper registry is
    // crate-scoped (name -> orderings hidden inside): the wrappers
    // this workspace grows are `pub(crate)` helpers, and cross-crate
    // name resolution would collide with unrelated fns.
    let mut pass1: Vec<FileScan> = Vec::new();
    for (_, rel, text) in &sources {
        let scan = scan_file(text);
        let dir = rel.rsplit_once('/').map(|(d, _)| d).unwrap_or("");
        for sub in &scan.test_submodules {
            test_files.insert(format!("{dir}/{sub}"));
        }
        pass1.push(scan);
    }
    let mut registry: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
    for (scan, (krate, rel, _)) in pass1.iter().zip(&sources) {
        if test_files.contains(rel) {
            continue;
        }
        for w in &scan.wrappers {
            let entry = registry
                .entry(krate.clone())
                .or_default()
                .entry(w.name.clone())
                .or_default();
            for o in &w.orderings {
                if !entry.contains(o) {
                    entry.push(o.clone());
                }
            }
        }
    }

    // Pass 2, run to a fixpoint: re-scan with each crate's wrapper
    // names so call sites are collected and their annotations
    // attached. A sweep may expose *delegating* wrappers —
    // pointer-returning fns whose bodies call a registered wrapper —
    // which join the registry with the union of their callees'
    // orderings, and the sweep repeats so the delegators' own call
    // sites are audited too (`outer -> mid -> try_flag` is caught at
    // `outer`). The registry only ever grows, so this terminates.
    // Crates with no wrappers keep their pass-1 scan.
    let mut scans: Vec<(String, String, FileScan)> = pass1
        .into_iter()
        .zip(&sources)
        .map(|(scan, (krate, rel, _))| (krate.clone(), rel.clone(), scan))
        .collect();
    loop {
        for (i, (krate, rel, text)) in sources.iter().enumerate() {
            let names: BTreeSet<String> = registry
                .get(krate)
                .map(|m| m.keys().cloned().collect())
                .unwrap_or_default();
            if !names.is_empty() {
                scans[i] = (krate.clone(), rel.clone(), scan_file_with(text, &names));
            }
        }
        let mut grew = false;
        for (krate, rel, scan) in &scans {
            if test_files.contains(rel) {
                continue;
            }
            for d in &scan.delegating {
                let crate_reg = registry.entry(krate.clone()).or_default();
                let inherited: Vec<String> = d
                    .callees
                    .iter()
                    .flat_map(|c| crate_reg.get(c).cloned().unwrap_or_default())
                    .collect();
                let entry = crate_reg.entry(d.name.clone()).or_default();
                for o in inherited {
                    if !entry.contains(&o) {
                        entry.push(o);
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    audit.wrapper_fns = registry.values().map(|m| m.len()).sum();

    // (drift check of the id's table, id) of every attached annotation.
    let mut witnessed: BTreeSet<(&'static str, String)> = BTreeSet::new();
    for (krate, file, scan) in &scans {
        if test_files.contains(file) {
            continue;
        }
        audit.files_scanned += 1;
        let cp = policy.for_crate(krate);
        let push = |audit: &mut Audit, check, line, message: String| {
            audit.findings.push(Finding {
                check,
                krate: krate.clone(),
                file: file.clone(),
                line,
                message,
            });
        };

        for bad in &scan.bad_annotations {
            push(&mut audit, "bad-annotation", bad.line, bad.message.clone());
        }

        for site in &scan.sites {
            audit.sites_total += 1;
            let combo = site.orderings.join("/");
            *audit
                .inventory
                .entry(krate.clone())
                .or_default()
                .entry(combo.clone())
                .or_default() += 1;

            if cp.class == CrateClass::Exempt {
                continue;
            }
            let ann = site.annotation.map(|ai| &scan.annotations[ai]);
            if cp.class == CrateClass::Hot {
                match ann {
                    None => push(
                        &mut audit,
                        "missing-annotation",
                        site.line,
                        format!(
                            "atomic `{}` ({}) in hot crate has no `// ord:` annotation",
                            site.method, combo
                        ),
                    ),
                    Some(a) => {
                        for o in &site.orderings {
                            if !a.orderings.contains(o) {
                                push(
                                    &mut audit,
                                    "annotation-mismatch",
                                    site.line,
                                    format!(
                                        "code uses Ordering::{o} but the `// ord:` comment \
                                         ({}, id {}) does not list it",
                                        a.orderings.join("/"),
                                        a.id
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            if site.orderings.iter().any(|o| o == "SeqCst") {
                let allowed = match cp.class {
                    CrateClass::Hot => ann
                        .map(|a| cp.seqcst_allow.contains(&a.id))
                        .unwrap_or(false),
                    CrateClass::Support | CrateClass::Exempt => true,
                };
                if !allowed {
                    push(
                        &mut audit,
                        "seqcst",
                        site.line,
                        format!(
                            "SeqCst on `{}` in hot crate {krate} is not covered by the \
                             policy allowlist (annotate with an id from `seqcst_allow` \
                             or downgrade)",
                            site.method
                        ),
                    );
                }
            }
        }

        for call in &scan.wrapper_calls {
            audit.wrapper_calls += 1;
            if cp.class != CrateClass::Hot {
                continue;
            }
            let hidden: Vec<String> = registry
                .get(krate)
                .and_then(|m| m.get(&call.callee))
                .cloned()
                .unwrap_or_default();
            match call.annotation.map(|ai| &scan.annotations[ai]) {
                None => push(
                    &mut audit,
                    "wrapper-unannotated",
                    call.line,
                    format!(
                        "call to pointer-returning atomic wrapper `{}` ({}) in hot \
                         crate has no `// ord:` annotation — the wrapper hides the \
                         ordering from this call site",
                        call.callee,
                        hidden.join("/")
                    ),
                ),
                Some(a) => {
                    for o in &hidden {
                        if !a.orderings.contains(o) {
                            push(
                                &mut audit,
                                "annotation-mismatch",
                                call.line,
                                format!(
                                    "wrapper `{}` performs a {o} atomic inside, but \
                                     the `// ord:` comment ({}, id {}) does not list \
                                     it",
                                    call.callee,
                                    a.orderings.join("/"),
                                    a.id
                                ),
                            );
                        }
                    }
                }
            }
        }

        for u in &scan.unsafes {
            audit.unsafe_total += 1;
            if !u.documented {
                push(
                    &mut audit,
                    "missing-safety",
                    u.line,
                    format!("{} without a `// SAFETY:` comment", u.kind),
                );
            }
        }

        // SMR guard-lifetime / pointer-escape pass (pillar three).
        if cp.smr_audit() {
            audit.smr_guards += scan.smr.guards;
            audit.smr_derefs += scan.smr.derefs;
            audit.smr_defer_sites += scan.smr.defer_sites;
            for v in &scan.smr.violations {
                push(&mut audit, v.rule, v.line, v.message.clone());
            }
        }

        // Forward drift: an attached annotation's id is a row of its
        // kind's table, and the row licenses what the annotation claims.
        for ann in &scan.annotations {
            if ann.kind != AnnotationKind::Ord {
                if !cp.smr_audit() {
                    continue;
                }
                audit.smr_annotations += 1;
            }
            if !ann.attached {
                push(
                    &mut audit,
                    "dangling-annotation",
                    ann.line,
                    format!(
                        "`// {}:` comment (id {}) is not attached to any {} — stale after \
                         a refactor?",
                        ann.kind.as_str(),
                        ann.id,
                        match ann.kind {
                            AnnotationKind::Ord => "atomic operation",
                            AnnotationKind::Escape => "escape site",
                            AnnotationKind::Validate => "guard-free deref site",
                            AnnotationKind::Unlink => "retire/defer site",
                        }
                    ),
                );
                continue;
            }
            let check = drift_check(ann.kind);
            witnessed.insert((check, ann.id.clone()));
            let row = design_rows
                .iter()
                .find(|r| drift_check(r.kind) == check && r.id == ann.id);
            let messages = match (ann.kind, row) {
                (AnnotationKind::Ord, None) => vec![format!(
                    "annotation id `{}` has no row in the DESIGN.md §9 ordering tables",
                    ann.id
                )],
                (AnnotationKind::Ord, Some(row)) => ann
                    .orderings
                    .iter()
                    .filter(|o| !row.orderings.contains(o))
                    .map(|o| {
                        format!(
                            "annotation `{}` claims {o} but DESIGN.md row `{}` (line {}) \
                             only licenses {}",
                            ann.id,
                            row.id,
                            row.line,
                            row.orderings.join("/")
                        )
                    })
                    .collect(),
                (kind, None) => vec![format!(
                    "annotation `// {}:` id `{}` has no row in the DESIGN.md §9.8 \
                     SMR-obligations table",
                    kind.as_str(),
                    ann.id
                )],
                (kind, Some(row)) if row.kind != kind => vec![format!(
                    "annotation `// {}:` id `{}` is registered in DESIGN.md §9.8 (line {}) \
                     as kind `{}` — kinds must match",
                    kind.as_str(),
                    ann.id,
                    row.line,
                    row.kind.as_str()
                )],
                (_, Some(_)) => Vec::new(),
            };
            for message in messages {
                push(&mut audit, check, ann.line, message);
            }
        }

        for b in &scan.banned {
            match b.what {
                BannedKind::Sleep if cp.class == CrateClass::Hot => push(
                    &mut audit,
                    "sleep",
                    b.line,
                    "thread::sleep in a hot-path crate (use Backoff / yield)".to_string(),
                ),
                BannedKind::TagArith if !cp.tag_arith => push(
                    &mut audit,
                    "tag-arith",
                    b.line,
                    "raw tag-bit arithmetic outside lf-tagged (use TaggedPtr \
                     accessors)"
                        .to_string(),
                ),
                _ => {}
            }
        }
    }

    // Reverse drift: every DESIGN row must be witnessed by at least one
    // attached annotation somewhere in the workspace.
    for row in &design_rows {
        let check = drift_check(row.kind);
        if witnessed.contains(&(check, row.id.clone())) {
            continue;
        }
        let message = match row.kind {
            AnnotationKind::Ord => format!(
                "ordering-table row `{}` matches no `// ord:` annotation in the code — \
                 table and code have drifted",
                row.id
            ),
            kind => format!(
                "SMR-obligations row `{}` matches no attached `// {}:` annotation in the \
                 code — table and code have drifted",
                row.id,
                kind.as_str()
            ),
        };
        audit.findings.push(Finding {
            check,
            krate: String::new(),
            file: "DESIGN.md".to_string(),
            line: row.line,
            message,
        });
    }

    audit.findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.check).cmp(&(b.file.as_str(), b.line, b.check))
    });
    Ok(audit)
}

/// The check that reports drift between an annotation kind and its
/// table: the §9 ordering tables for `ord:`, §9.8 for the rest.
fn drift_check(kind: AnnotationKind) -> &'static str {
    match kind {
        AnnotationKind::Ord => "design-drift",
        _ => "obligation-drift",
    }
}

/// `crates/*/src` plus the root package's `src/`.
fn discover_crates(files: &WorkspaceFiles) -> Result<Vec<CrateDir>, String> {
    let mut out = Vec::new();
    let root_manifest = files
        .read("Cargo.toml")
        .map_err(|e| format!("cannot read Cargo.toml: {e}"))?;
    if let Some(name) = manifest_package_name(&root_manifest) {
        out.push(CrateDir {
            name,
            src: "src".to_string(),
        });
    }
    let crates_dir = files.root.join("crates");
    let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read crates/: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for dir in entries {
        if !dir.is_dir() {
            continue;
        }
        let rel_manifest = format!(
            "crates/{}/Cargo.toml",
            dir.file_name().unwrap_or_default().to_string_lossy()
        );
        let Ok(manifest) = files.read(&rel_manifest) else {
            continue;
        };
        if let Some(name) = manifest_package_name(&manifest) {
            out.push(CrateDir {
                name,
                src: format!(
                    "crates/{}/src",
                    dir.file_name().unwrap_or_default().to_string_lossy()
                ),
            });
        }
    }
    Ok(out)
}

fn manifest_package_name(manifest: &str) -> Option<String> {
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(value) = rest.strip_prefix('=') {
                let v = value.trim().trim_matches('"');
                if !v.is_empty() {
                    return Some(v.to_string());
                }
            }
        }
    }
    None
}

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Paths excluded wholesale: integration tests, benches, and files
/// conventionally named `tests.rs`.
fn is_test_path(rel: &str) -> bool {
    rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.ends_with("/tests.rs")
        || rel == "tests.rs"
}
