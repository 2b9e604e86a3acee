//! `lf-lint` — the workspace's static-analysis auditor.
//!
//! Keeps the lock-free hot paths honest on four fronts:
//!
//! 1. **Atomic-ordering annotations.** Every atomic operation in a
//!    *hot* crate must carry a machine-readable comment
//!    `// ord: <Ordering>[/<Ordering>] — <invariant-id>: <rationale>`
//!    whose orderings match the code tokens, and whose invariant id is
//!    a row of the DESIGN.md §9 ordering tables. Drift in either
//!    direction (a table row no code witnesses, or an annotation the
//!    table does not license) fails the audit. This covers standalone
//!    `fence(..)` / `compiler_fence(..)` calls, and *pointer-returning
//!    atomic wrappers*: a fn that returns a raw pointer and performs
//!    an atomic op in its body hides the `Ordering` from its callers,
//!    so its call sites (crate-scoped, one wrapping level deep) must
//!    carry the same annotations as direct atomic sites.
//! 2. **`unsafe` hygiene.** Every `unsafe` block/fn/impl/trait in the
//!    workspace needs a `// SAFETY:` comment (or a `# Safety` doc
//!    section).
//! 3. **Banned patterns.** `SeqCst` outside the policy allowlist,
//!    `thread::sleep` in hot crates, and raw tag-bit arithmetic outside
//!    `lf-tagged`.
//! 4. **SMR lifetimes.** An intra-procedural dataflow pass (see
//!    [`dataflow`]) tracks raw pointers derived from guarded atomic
//!    loads and enforces the reclamation obligations of all three
//!    reclamation schemes (epochs, VBR, hazard pointers): derefs stay
//!    inside their guard's lexical scope, escapes carry `// escape:`
//!    annotations cross-checked bidirectionally against the DESIGN.md
//!    §9.8 obligations table, no guard is live across an `.await`,
//!    pin-free optimistic derefs (in an `unsafe fn` too) carry
//!    `// validate:` stamp-revalidation annotations, and every
//!    `retire`/`defer` call site carries an `// unlink:` annotation.
//!
//! Each job is done once. The lexer records every bracket's matching
//! closer, and the scanner indexes a file's fn items once for the
//! wrapper, delegation and SMR passes. All four annotation prefixes
//! share one grammar (`<id>: <rationale>`, after the orderings for
//! `ord:`), one collector and one attachment rule. [`design`] reads
//! every §9 table in one pass, and the audit checks every kind against
//! its table in one forward and one reverse drift loop.
//!
//! Per-crate strictness lives in `lint-policy.toml` at the workspace
//! root. The workspace is offline, so everything here — lexer, TOML
//! subset, markdown table parser — is hand-rolled with no dependencies.

pub mod analyze;
pub mod audit;
pub mod dataflow;
pub mod design;
pub mod lexer;
pub mod policy;
pub mod report;

pub use audit::{run_audit, Audit, Finding, WorkspaceFiles};
pub use policy::{CrateClass, CratePolicy, Policy};
