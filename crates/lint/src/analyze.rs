//! Per-file analysis: atomic-operation inventory, the annotation
//! grammar shared by `// ord:` and the SMR annotations, `unsafe`
//! hygiene, and banned-pattern detection.

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::SmrScan;
use crate::design::is_invariant_id;
use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};

/// Atomic methods whose `Ordering` arguments the auditor inventories.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Standalone fence functions audited like atomic sites: they take a
/// literal `Ordering` and order surrounding accesses without touching
/// a location, so hot crates must annotate them the same way.
const FENCE_FNS: &[&str] = &["fence", "compiler_fence"];

/// The five memory orderings.
pub const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One atomic operation with at least one literal `Ordering::` argument.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// 1-based source line of the atomic call.
    pub line: u32,
    /// Method name (`load`, `store`, `compare_exchange`, ...).
    pub method: String,
    /// Ordering tokens in argument order (1 for load/store, 2 for CAS).
    pub orderings: Vec<String>,
    /// Index into [`FileScan::annotations`] of the attached annotation.
    pub annotation: Option<usize>,
}

/// The four annotation kinds, named by their comment prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotationKind {
    /// `// ord:` — the orderings of an atomic site and the §9 ordering
    /// table row that licenses them.
    Ord,
    /// `// escape:` — a guard-derived pointer deliberately leaves the
    /// guard's lexical scope (wrapper return, field store, send).
    Escape,
    /// `// validate:` — a guard-free deref is proven by stamp
    /// re-validation (VBR seqlock protocol).
    Validate,
    /// `// unlink:` — a retire/defer is paired with the unlink CAS
    /// that removed the node from the structure.
    Unlink,
}

impl AnnotationKind {
    /// Every kind; all but [`Ord`](Self::Ord) are SMR obligations, whose
    /// ids are rows of the DESIGN.md §9.8 table.
    pub const ALL: [Self; 4] = [Self::Ord, Self::Escape, Self::Validate, Self::Unlink];

    /// The comment prefix (without the trailing `:`).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Ord => "ord",
            Self::Escape => "escape",
            Self::Validate => "validate",
            Self::Unlink => "unlink",
        }
    }
}

/// A parsed `// <kind>: <id>: <rationale>` comment; an `ord:` one
/// lists its orderings first: `// ord: <Orderings> — <id>: <rationale>`.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// 1-based source line of the comment (its last line).
    pub line: u32,
    /// Which comment prefix it carries.
    pub kind: AnnotationKind,
    /// Orderings an `ord:` annotation licenses (empty for the others).
    pub orderings: Vec<String>,
    /// Invariant id (`FAMILY.site`).
    pub id: String,
    /// Free-text rationale after the id.
    pub rationale: String,
    /// Set during attachment; unattached annotations are drift.
    pub attached: bool,
}

/// An `unsafe` block / fn / impl / trait and whether it carries a
/// `SAFETY:` (or `# Safety` doc) comment.
#[derive(Debug, Clone)]
pub struct UnsafeItem {
    /// 1-based source line of the `unsafe` keyword.
    pub line: u32,
    /// `"unsafe block"`, `"unsafe fn"`, `"unsafe impl"`, or
    /// `"unsafe trait"`.
    pub kind: &'static str,
    /// Whether a `SAFETY:` / `# Safety` comment covers it.
    pub documented: bool,
}

/// A banned-pattern occurrence, independent of policy (the audit layer
/// decides whether the crate is allowed to do this).
#[derive(Debug, Clone)]
pub struct BannedUse {
    /// 1-based source line of the occurrence.
    pub line: u32,
    /// Which banned pattern was seen.
    pub what: BannedKind,
}

/// The kinds of banned patterns the scanner recognizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BannedKind {
    /// `thread::sleep` (or any `::sleep(` path call).
    Sleep,
    /// Raw tag-bit arithmetic: binary literal or MARK/FLAG/TAG constant
    /// adjacent to `&`, `|`, or `!`.
    TagArith,
}

/// A fn that returns a raw pointer and performs an atomic operation in
/// its body — a "wrapper" that hands its callers a dereferenceable
/// pointer while keeping the `Ordering` out of the call site. Call
/// sites of such fns are audited like atomic sites (the wrapper's
/// orderings are what the call inherits). Detection follows
/// delegation: a pointer-returning helper that merely *calls* a known
/// wrapper is itself a wrapper (see [`DelegatingFn`]) — the audit
/// layer closes the registry over such chains to a fixpoint, so
/// `outer -> mid -> try_flag` is audited at `outer`'s call sites too.
#[derive(Debug, Clone)]
pub struct WrapperFn {
    /// 1-based source line of the `fn` keyword.
    pub line: u32,
    /// The fn's name (wrapper resolution is name-based, crate-scoped).
    pub name: String,
    /// Union of the orderings used by the atomic sites in the body.
    pub orderings: Vec<String>,
}

/// A pointer-returning fn whose body calls one or more *registered*
/// wrappers without performing a (new) atomic operation of its own —
/// the multi-level case. It inherits the union of its callees'
/// orderings; the audit layer promotes it into the wrapper registry
/// and re-scans until no new delegators appear.
#[derive(Debug, Clone)]
pub struct DelegatingFn {
    /// 1-based source line of the `fn` keyword.
    pub line: u32,
    /// The fn's name (registry resolution is name-based, crate-scoped).
    pub name: String,
    /// Names of the registered wrappers its body calls (deduped).
    pub callees: Vec<String>,
}

/// A call site of a known [`WrapperFn`] (the caller passes the
/// registry of names to [`scan_file_with`]).
#[derive(Debug, Clone)]
pub struct WrapperCall {
    /// 1-based source line of the call.
    pub line: u32,
    /// Name of the wrapper being called.
    pub callee: String,
    /// Index into [`FileScan::annotations`] of the attached annotation.
    pub annotation: Option<usize>,
}

/// A malformed annotation comment (wrong grammar, unknown ordering or
/// an id that is no `FAMILY.site`).
#[derive(Debug, Clone)]
pub struct BadAnnotation {
    /// 1-based source line of the comment.
    pub line: u32,
    /// What is wrong with it, naming the comment's prefix.
    pub message: String,
}

/// One fn item with a body (nested fns included).
pub(crate) struct FnItem {
    pub(crate) name: String,
    /// Token index of the `fn` keyword.
    pub(crate) fn_tok: usize,
    /// Whether the return type holds a raw pointer (see
    /// [`Scanner::scan_return_type`]).
    pub(crate) returns_raw_ptr: bool,
    pub(crate) param_open: usize,
    pub(crate) param_close: usize,
    pub(crate) body_open: usize,
    pub(crate) body_close: usize,
}

/// Everything the auditor learned about one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Atomic operations with literal `Ordering::` arguments.
    pub sites: Vec<AtomicSite>,
    /// Parsed `// ord:`, `// escape:`, `// validate:` and `// unlink:`
    /// annotations, in source order.
    pub annotations: Vec<Annotation>,
    /// `unsafe` blocks / fns / impls / traits.
    pub unsafes: Vec<UnsafeItem>,
    /// Banned-pattern occurrences (policy decides if they matter).
    pub banned: Vec<BannedUse>,
    /// Malformed annotation comments.
    pub bad_annotations: Vec<BadAnnotation>,
    /// Pointer-returning fns with atomic bodies (wrapper candidates).
    pub wrappers: Vec<WrapperFn>,
    /// Call sites of registry wrappers (only with [`scan_file_with`]).
    pub wrapper_calls: Vec<WrapperCall>,
    /// Pointer-returning fns that delegate to registry wrappers (only
    /// with [`scan_file_with`]; drives the audit's registry fixpoint).
    pub delegating: Vec<DelegatingFn>,
    /// Submodule files declared under `#[cfg(test)] mod name;` —
    /// relative names (`name.rs`, `name/mod.rs`) to exclude.
    pub test_submodules: Vec<String>,
    /// SMR guard-lifetime / pointer-escape dataflow results (pillar
    /// three; see [`crate::dataflow`]).
    pub smr: SmrScan,
}

/// Scan one file's source text.
pub fn scan_file(src: &str) -> FileScan {
    scan_file_with(src, &BTreeSet::new())
}

/// Scan with a registry of wrapper-fn names whose call sites should be
/// collected and annotation-checked (see [`WrapperFn`]). The registry
/// is crate-scoped by the audit layer: the wrappers this workspace
/// grows are `pub(crate)` helpers, and name-based resolution across
/// crates would collide with unrelated fns in the baselines.
pub fn scan_file_with(src: &str, wrapper_names: &BTreeSet<String>) -> FileScan {
    let lexed = lex(src);
    Scanner::new(&lexed, wrapper_names).run()
}

pub(crate) struct Scanner<'a> {
    pub(crate) toks: &'a [Token],
    comments: &'a [Comment],
    /// The lexer's bracket table ([`Lexed::close`]).
    pub(crate) close: &'a [usize],
    /// Wrapper-fn names whose call sites this scan collects.
    pub(crate) wrapper_names: &'a BTreeSet<String>,
    /// Token index of each collected site's method/fence ident
    /// (parallel to `out.sites`; used for wrapper-body membership).
    pub(crate) site_tok_indices: Vec<usize>,
    /// Token index of each collected wrapper call's callee ident
    /// (parallel to `out.wrapper_calls`; used for delegation-body
    /// membership).
    pub(crate) wrapper_call_tok_indices: Vec<usize>,
    /// Every fn item with a body, in source order: the one index the
    /// wrapper, delegation and SMR passes filter.
    pub(crate) fns: Vec<FnItem>,
    /// Names of the file's `type X<..> = ..;` aliases whose right-hand
    /// side holds a raw pointer: a return type naming one returns a
    /// raw pointer too.
    ptr_aliases: BTreeSet<String>,
    /// Token-index ranges excluded as test-only code.
    excluded: Vec<(usize, usize)>,
    /// Token-index ranges covered by `#[...]` / `#![...]` attributes.
    attr_spans: Vec<(usize, usize)>,
    /// Lines with at least one token outside attribute spans.
    code_lines: BTreeSet<u32>,
    /// Lines whose tokens are all within attribute spans.
    attr_lines: BTreeSet<u32>,
    /// line -> indices of comments ending on that line.
    comments_ending: BTreeMap<u32, Vec<usize>>,
    /// Lines covered by any comment.
    comment_lines: BTreeSet<u32>,
    pub(crate) out: FileScan,
}

impl<'a> Scanner<'a> {
    fn new(lexed: &'a Lexed, wrapper_names: &'a BTreeSet<String>) -> Self {
        let mut s = Scanner {
            toks: &lexed.tokens,
            comments: &lexed.comments,
            close: &lexed.close,
            wrapper_names,
            site_tok_indices: Vec::new(),
            wrapper_call_tok_indices: Vec::new(),
            fns: Vec::new(),
            ptr_aliases: BTreeSet::new(),
            excluded: Vec::new(),
            attr_spans: Vec::new(),
            code_lines: BTreeSet::new(),
            attr_lines: BTreeSet::new(),
            comments_ending: BTreeMap::new(),
            comment_lines: BTreeSet::new(),
            out: FileScan::default(),
        };
        s.index_attributes_and_tests();
        s.index_lines();
        s.collect_ptr_aliases();
        s.index_fn_items();
        s
    }

    fn run(mut self) -> FileScan {
        self.collect_annotations();
        self.collect_atomic_sites();
        self.collect_wrappers();
        self.collect_wrapper_calls();
        self.collect_delegating();
        self.collect_unsafe();
        self.collect_banned();
        // Last: the SMR dataflow needs the wrapper call sites above.
        self.collect_smr();
        self.out
    }

    pub(crate) fn ident_at(&self, i: usize) -> Option<&str> {
        match self.toks.get(i).map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn punct_at(&self, i: usize) -> Option<char> {
        match self.toks.get(i).map(|t| &t.kind) {
            Some(TokenKind::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    pub(crate) fn is_excluded(&self, tok_idx: usize) -> bool {
        self.excluded
            .iter()
            .any(|&(a, b)| tok_idx >= a && tok_idx <= b)
    }

    /// Whether the tokens at `i` spell a raw-pointer type: `*const` /
    /// `*mut`, or the name of a pointer alias.
    fn is_raw_ptr_at(&self, i: usize) -> bool {
        (self.punct_at(i) == Some('*')
            && matches!(self.ident_at(i + 1), Some("const") | Some("mut")))
            || self
                .ident_at(i)
                .is_some_and(|id| self.ptr_aliases.contains(id))
    }

    /// Scan the return type of a fn whose parameter list closes just
    /// before `k`: whether it holds a raw pointer (see
    /// [`is_raw_ptr_at`](Self::is_raw_ptr_at)), and the index of the
    /// token that ends it (the body `{`, a `;` or `where`).
    fn scan_return_type(&self, mut k: usize) -> (bool, usize) {
        let mut returns_raw_ptr = false;
        if self.punct_at(k) == Some('-') && self.punct_at(k + 1) == Some('>') {
            k += 2;
            while k < self.toks.len()
                && !matches!(self.punct_at(k), Some('{') | Some(';'))
                && self.ident_at(k) != Some("where")
            {
                returns_raw_ptr |= self.is_raw_ptr_at(k);
                k += 1;
            }
        }
        (returns_raw_ptr, k)
    }

    /// Record every non-test `type X<..> = ..;` whose right-hand side
    /// holds a raw pointer, so `-> X<..>` counts as pointer-returning.
    /// Aliases are file-scoped: a private alias is used in its own
    /// module.
    fn collect_ptr_aliases(&mut self) {
        for i in 0..self.toks.len() {
            if self.ident_at(i) != Some("type") || self.is_excluded(i) {
                continue;
            }
            let Some(name) = self.ident_at(i + 1) else {
                continue;
            };
            let mut k = i + 2;
            while k < self.toks.len() && !matches!(self.punct_at(k), Some('=') | Some(';')) {
                k += 1;
            }
            if self.punct_at(k) != Some('=') {
                continue;
            }
            while k < self.toks.len() && self.punct_at(k) != Some(';') {
                if self.is_raw_ptr_at(k) {
                    self.ptr_aliases.insert(name.to_owned());
                    break;
                }
                k += 1;
            }
        }
    }

    /// Find `#[..]` / `#![..]` spans; mark `#[cfg(test)] item` regions
    /// excluded and record `#[cfg(test)] mod x;` submodule files.
    fn index_attributes_and_tests(&mut self) {
        let mut i = 0;
        while i < self.toks.len() {
            if self.punct_at(i) != Some('#') {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if self.punct_at(j) == Some('!') {
                j += 1;
            }
            if self.punct_at(j) != Some('[') {
                i += 1;
                continue;
            }
            let end = self.close[j];
            self.attr_spans.push((i, end));
            let body: Vec<&str> = (j..=end).filter_map(|k| self.ident_at(k)).collect();
            let is_test =
                (body.contains(&"cfg") && body.contains(&"test") && !body.contains(&"not"))
                    || body == ["test"];
            if is_test {
                self.exclude_item_after(i, end + 1);
            }
            i = end + 1;
        }
    }

    /// Exclude the item following a test attribute: skip further
    /// attributes, then either a `mod name;` declaration (recorded as a
    /// test submodule file) or a braced/`;`-terminated item.
    fn exclude_item_after(&mut self, attr_start: usize, mut i: usize) {
        // Skip any further attributes on the same item.
        while self.punct_at(i) == Some('#') {
            let mut j = i + 1;
            if self.punct_at(j) == Some('!') {
                j += 1;
            }
            if self.punct_at(j) != Some('[') {
                break;
            }
            i = self.close[j] + 1;
        }
        if self.ident_at(i) == Some("mod") {
            if let Some(name) = self.ident_at(i + 1).map(str::to_owned) {
                if self.punct_at(i + 2) == Some(';') {
                    self.out.test_submodules.push(format!("{name}.rs"));
                    self.out.test_submodules.push(format!("{name}/mod.rs"));
                    self.excluded.push((attr_start, i + 2));
                    return;
                }
            }
        }
        // The item ends at its body's `}` or a terminating `;`, both
        // outside any `(..)` / `[..]` of its signature.
        let mut k = i;
        while k < self.toks.len() {
            match self.punct_at(k) {
                Some('(' | '[') => k = self.close[k],
                Some(';') => {
                    self.excluded.push((attr_start, k));
                    return;
                }
                Some('{') => {
                    self.excluded.push((attr_start, self.close[k]));
                    return;
                }
                _ => {}
            }
            k += 1;
        }
        self.excluded
            .push((attr_start, self.toks.len().saturating_sub(1)));
    }

    fn index_lines(&mut self) {
        let in_attr = |idx: usize| self.attr_spans.iter().any(|&(a, b)| idx >= a && idx <= b);
        let mut line_has_code: BTreeMap<u32, bool> = BTreeMap::new();
        for (idx, tok) in self.toks.iter().enumerate() {
            let e = line_has_code.entry(tok.line).or_insert(false);
            if !in_attr(idx) {
                *e = true;
            }
        }
        for (line, has_code) in line_has_code {
            if has_code {
                self.code_lines.insert(line);
            } else {
                self.attr_lines.insert(line);
            }
        }
        for (ci, c) in self.comments.iter().enumerate() {
            self.comments_ending.entry(c.end_line).or_default().push(ci);
            for l in c.line..=c.end_line {
                self.comment_lines.insert(l);
            }
        }
    }

    /// Parse every `ord:` / `escape:` / `validate:` / `unlink:` comment.
    fn collect_annotations(&mut self) {
        for c in self.comments {
            let Some((kind, body)) = AnnotationKind::ALL.into_iter().find_map(|kind| {
                let rest = c.text.strip_prefix(kind.as_str())?.strip_prefix(':')?;
                Some((kind, rest.trim()))
            }) else {
                continue;
            };
            match parse_annotation(kind, body) {
                Ok((orderings, id, rationale)) => self.out.annotations.push(Annotation {
                    line: c.end_line,
                    kind,
                    orderings,
                    id,
                    rationale,
                    attached: false,
                }),
                Err(e) => self.out.bad_annotations.push(BadAnnotation {
                    line: c.line,
                    message: format!("malformed `// {}:` comment: {e}", kind.as_str()),
                }),
            }
        }
    }

    /// Comments visible from a site spanning `start_line..=end_line`
    /// whose statement begins at `stmt_line`: trailing comments inside
    /// the span, plus the contiguous comment/attribute block directly
    /// above the span start and above the statement start.
    fn visible_comment_lines(&self, stmt_line: u32, start_line: u32, end_line: u32) -> Vec<u32> {
        let mut lines: Vec<u32> = (start_line..=end_line)
            .filter(|l| self.comment_lines.contains(l))
            .collect();
        for anchor in [start_line, stmt_line] {
            let mut l = anchor.saturating_sub(1);
            while l >= 1 {
                if self.comment_lines.contains(&l) && !self.code_lines.contains(&l) {
                    lines.push(l);
                } else if !self.attr_lines.contains(&l) {
                    break;
                }
                l -= 1;
            }
        }
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// The line where the statement containing token `idx` starts
    /// (first token after the previous `;`, `{`, or `}`).
    fn statement_start_line(&self, idx: usize) -> u32 {
        let mut i = idx;
        while i > 0 {
            if matches!(self.punct_at(i - 1), Some(';') | Some('{') | Some('}')) {
                break;
            }
            i -= 1;
        }
        self.toks[i].line
    }

    fn collect_atomic_sites(&mut self) {
        // First locate every site and its paren span.
        struct Raw {
            method_idx: usize,
            span_end: usize,
            orderings: Vec<(usize, String)>,
        }
        let mut raws: Vec<Raw> = Vec::new();
        let mut i = 0;
        while i < self.toks.len() {
            // `.method(` — an atomic method call; or `fence(` /
            // `compiler_fence(` — a standalone fence (plain or path
            // call). A fence ident preceded by `.` is some other
            // type's method, and one preceded by `fn` is a definition,
            // not a use; both are skipped.
            let found = if self.punct_at(i) == Some('.')
                && self
                    .ident_at(i + 1)
                    .is_some_and(|m| ATOMIC_METHODS.contains(&m))
                && self.punct_at(i + 2) == Some('(')
            {
                Some((i + 1, i + 2))
            } else if self.ident_at(i).is_some_and(|m| FENCE_FNS.contains(&m))
                && self.punct_at(i + 1) == Some('(')
                && self.punct_at(i.wrapping_sub(1)) != Some('.')
                && self.ident_at(i.wrapping_sub(1)) != Some("fn")
            {
                Some((i, i + 1))
            } else {
                None
            };
            let (method_idx, open) = match found {
                Some(f) if !self.is_excluded(i) => f,
                _ => {
                    i += 1;
                    continue;
                }
            };
            let span_end = self.close[open];
            let mut orderings = Vec::new();
            for k in open..span_end.min(self.toks.len()) {
                if self.ident_at(k) == Some("Ordering")
                    && self.punct_at(k + 1) == Some(':')
                    && self.punct_at(k + 2) == Some(':')
                {
                    if let Some(ord) = self.ident_at(k + 3) {
                        if ORDERINGS.contains(&ord) {
                            orderings.push((k + 3, ord.to_string()));
                        }
                    }
                }
            }
            if !orderings.is_empty() {
                raws.push(Raw {
                    method_idx,
                    span_end,
                    orderings,
                });
            }
            i += 1;
        }
        // Nested atomic calls: drop ordering tokens that belong to an
        // inner site from the outer site's list.
        let spans: Vec<(usize, usize)> = raws.iter().map(|r| (r.method_idx, r.span_end)).collect();
        for (ri, raw) in raws.iter_mut().enumerate() {
            raw.orderings.retain(|&(oidx, _)| {
                !spans
                    .iter()
                    .enumerate()
                    .any(|(si, &(a, b))| si != ri && a > raw.method_idx && oidx >= a && oidx <= b)
            });
        }
        for raw in raws {
            if raw.orderings.is_empty() {
                continue;
            }
            let annotation = self.attach(AnnotationKind::Ord, raw.method_idx, raw.span_end);
            self.site_tok_indices.push(raw.method_idx);
            self.out.sites.push(AtomicSite {
                line: self.toks[raw.method_idx].line,
                method: self
                    .ident_at(raw.method_idx)
                    .unwrap_or_default()
                    .to_string(),
                orderings: raw.orderings.into_iter().map(|(_, o)| o).collect(),
                annotation,
            });
        }
    }

    /// Index every fn item with a body, in source order. Nested fns are
    /// found too: the walk continues inside each body.
    fn index_fn_items(&mut self) {
        let mut i = 0;
        while i < self.toks.len() {
            if self.ident_at(i) != Some("fn") {
                i += 1;
                continue;
            }
            let Some(name) = self.ident_at(i + 1).map(str::to_owned) else {
                i += 1;
                continue;
            };
            // Optional generics (`>` preceded by `-` is a `->` inside
            // the bounds, e.g. `F: Fn(u32) -> u32`, not a closer).
            let mut j = i + 2;
            if self.punct_at(j) == Some('<') {
                let mut angle = 0i32;
                while j < self.toks.len() {
                    match self.punct_at(j) {
                        Some('<') => angle += 1,
                        Some('>') if self.punct_at(j.wrapping_sub(1)) != Some('-') => {
                            angle -= 1;
                            if angle == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            if self.punct_at(j) != Some('(') {
                i += 1;
                continue;
            }
            let param_close = self.close[j];
            let (returns_raw_ptr, mut k) = self.scan_return_type(param_close + 1);
            while k < self.toks.len() && !matches!(self.punct_at(k), Some('{' | ';')) {
                k += 1;
            }
            if self.punct_at(k) != Some('{') {
                // Trait/extern declaration without a body.
                i = k.max(i) + 1;
                continue;
            }
            self.fns.push(FnItem {
                name,
                fn_tok: i,
                returns_raw_ptr,
                param_open: j,
                param_close,
                body_open: k,
                body_close: self.close[k],
            });
            i = k + 1;
        }
    }

    /// Non-test fns that return a raw pointer (`*const` / `*mut`, or a
    /// pointer alias): the candidates for wrappers and delegators.
    fn ptr_fns(&self) -> impl Iterator<Item = &FnItem> {
        self.fns
            .iter()
            .filter(|f| f.returns_raw_ptr && !self.is_excluded(f.fn_tok))
    }

    /// Pointer-returning fns that perform an atomic operation in their
    /// body. Runs after `collect_atomic_sites` so body membership is a
    /// token-index range check against the collected sites.
    fn collect_wrappers(&mut self) {
        let mut wrappers = Vec::new();
        for f in self.ptr_fns() {
            let mut orderings: Vec<String> = Vec::new();
            for (si, &tok) in self.site_tok_indices.iter().enumerate() {
                if tok > f.body_open && tok < f.body_close {
                    for o in &self.out.sites[si].orderings {
                        if !orderings.contains(o) {
                            orderings.push(o.clone());
                        }
                    }
                }
            }
            if !orderings.is_empty() {
                wrappers.push(WrapperFn {
                    line: self.toks[f.fn_tok].line,
                    name: f.name.clone(),
                    orderings,
                });
            }
        }
        self.out.wrappers = wrappers;
    }

    /// With the caller-supplied registry of wrapper names, collect
    /// their call sites and attach `// ord:` annotations exactly as
    /// for direct atomic sites.
    fn collect_wrapper_calls(&mut self) {
        if self.wrapper_names.is_empty() {
            return;
        }
        for i in 0..self.toks.len() {
            let Some(name) = self.ident_at(i).map(str::to_owned) else {
                continue;
            };
            if !self.wrapper_names.contains(&name)
                || self.punct_at(i + 1) != Some('(')
                || self.ident_at(i.wrapping_sub(1)) == Some("fn")
                || self.is_excluded(i)
            {
                continue;
            }
            let annotation = self.attach(AnnotationKind::Ord, i, self.close[i + 1]);
            self.wrapper_call_tok_indices.push(i);
            self.out.wrapper_calls.push(WrapperCall {
                line: self.toks[i].line,
                callee: name,
                annotation,
            });
        }
    }

    /// Pointer-returning fns whose bodies call registered wrappers are
    /// themselves wrappers-by-delegation: the dereferenceable pointer
    /// they hand out was produced under the callee's orderings. Runs
    /// after `collect_wrapper_calls` so membership is a token-range
    /// check of the recorded call sites against the fn's body.
    /// Self-recursive calls are ignored — they add no orderings the fn
    /// does not already own.
    fn collect_delegating(&mut self) {
        if self.wrapper_names.is_empty() {
            return;
        }
        let mut delegating = Vec::new();
        for f in self.ptr_fns() {
            let mut callees: Vec<String> = Vec::new();
            for (ci, &tok) in self.wrapper_call_tok_indices.iter().enumerate() {
                if tok > f.body_open && tok < f.body_close {
                    let callee = &self.out.wrapper_calls[ci].callee;
                    if *callee != f.name && !callees.contains(callee) {
                        callees.push(callee.clone());
                    }
                }
            }
            if !callees.is_empty() {
                delegating.push(DelegatingFn {
                    line: self.toks[f.fn_tok].line,
                    name: f.name.clone(),
                    callees,
                });
            }
        }
        self.out.delegating = delegating;
    }

    /// Attach the nearest visible annotation of `kind` to the site that
    /// spans tokens `start..=end` (see
    /// [`visible_comment_lines`](Self::visible_comment_lines)), and
    /// return its index into [`FileScan::annotations`].
    pub(crate) fn attach(
        &mut self,
        kind: AnnotationKind,
        start: usize,
        end: usize,
    ) -> Option<usize> {
        let start_line = self.toks[start].line;
        let end_line = self.toks[end.min(self.toks.len() - 1)].line;
        let stmt_line = self.statement_start_line(start);
        // The nearest one below/at wins (last in line order).
        let ai = self
            .visible_comment_lines(stmt_line, start_line, end_line)
            .into_iter()
            .rev()
            .find_map(|l| {
                self.out
                    .annotations
                    .iter()
                    .position(|a| a.kind == kind && a.line == l)
            })?;
        self.out.annotations[ai].attached = true;
        Some(ai)
    }

    fn collect_unsafe(&mut self) {
        for i in 0..self.toks.len() {
            if self.ident_at(i) != Some("unsafe") || self.is_excluded(i) {
                continue;
            }
            let kind = match (self.ident_at(i + 1), self.punct_at(i + 1)) {
                (_, Some('{')) => "unsafe block",
                // `unsafe fn(..)` with no name is a function-pointer
                // *type* (e.g. a struct field), not an unsafe fn item.
                (Some("fn"), _) if self.punct_at(i + 2) == Some('(') => continue,
                (Some("fn"), _) => "unsafe fn",
                (Some("impl"), _) => "unsafe impl",
                (Some("trait"), _) => "unsafe trait",
                // `unsafe extern`, attribute args, etc. — skip.
                _ => continue,
            };
            let line = self.toks[i].line;
            let stmt_line = self.statement_start_line(i);
            let documented = self
                .visible_comment_lines(stmt_line, line, line)
                .iter()
                .flat_map(|l| self.comments_ending.get(l).into_iter().flatten())
                .any(|&ci| {
                    let t = &self.comments[ci].text;
                    t.contains("SAFETY:") || t.contains("# Safety") || t.contains("Safety:")
                });
            self.out.unsafes.push(UnsafeItem {
                line,
                kind,
                documented,
            });
        }
    }

    fn collect_banned(&mut self) {
        for i in 0..self.toks.len() {
            if self.is_excluded(i) {
                continue;
            }
            let line = self.toks[i].line;
            // `::sleep(` — a path call to a sleep function.
            if self.ident_at(i) == Some("sleep")
                && self.punct_at(i + 1) == Some('(')
                && i >= 2
                && self.punct_at(i - 1) == Some(':')
                && self.punct_at(i - 2) == Some(':')
            {
                self.out.banned.push(BannedUse {
                    line,
                    what: BannedKind::Sleep,
                });
            }
            // Raw tag-bit arithmetic: `0b..` literals or the tag
            // constants combined with bitwise operators.
            let is_tag_operand = match &self.toks[i].kind {
                TokenKind::Number(n) => n.starts_with("0b"),
                TokenKind::Ident(s) => {
                    matches!(s.as_str(), "MARK_BIT" | "FLAG_BIT" | "TAG_MASK")
                }
                _ => false,
            };
            if is_tag_operand {
                let neighbor_op = [i.wrapping_sub(1), i + 1]
                    .iter()
                    .any(|&j| matches!(self.punct_at(j), Some('&') | Some('|') | Some('!')));
                if neighbor_op {
                    self.out.banned.push(BannedUse {
                        line,
                        what: BannedKind::TagArith,
                    });
                }
            }
        }
    }
}

/// Parse an annotation body after its `<kind>:` prefix:
/// `<invariant-id>: <rationale>`, which an `ord:` annotation precedes
/// with `<Ordering>[/<Ordering>...] — ` (an em dash or `--`).
fn parse_annotation(
    kind: AnnotationKind,
    body: &str,
) -> Result<(Vec<String>, String, String), String> {
    let mut orderings = Vec::new();
    let mut rest = body;
    if kind == AnnotationKind::Ord {
        let (left, right) = body
            .split_once('—')
            .or_else(|| body.split_once("--"))
            .ok_or("missing `—` between orderings and invariant id")?;
        for part in left.split(['/', ',']) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if !ORDERINGS.contains(&part) {
                return Err(format!("unknown ordering {part:?}"));
            }
            orderings.push(part.to_string());
        }
        if orderings.is_empty() {
            return Err("no orderings listed".into());
        }
        rest = right;
    }
    let (id, rationale) = rest
        .trim()
        .split_once(':')
        .ok_or("missing `:` after invariant id")?;
    let id = id.trim();
    if !is_invariant_id(id) {
        return Err(format!(
            "invariant id {id:?} must look like FAMILY.site (e.g. LIST.traverse)"
        ));
    }
    let rationale = rationale.trim();
    if rationale.is_empty() {
        return Err("empty rationale".into());
    }
    Ok((orderings, id.to_string(), rationale.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_annotated_site_above() {
        let s = scan_file(
            "fn f(a: &A) {\n\
             // ord: Acquire — LIST.traverse: next hop is dereferenced\n\
             let x = a.succ.load(Ordering::Acquire);\n}\n",
        );
        assert_eq!(s.sites.len(), 1);
        assert_eq!(s.sites[0].orderings, ["Acquire"]);
        let ai = s.sites[0].annotation.expect("annotation attached");
        assert_eq!(s.annotations[ai].id, "LIST.traverse");
        assert!(s.annotations[ai].attached);
    }

    #[test]
    fn finds_trailing_annotation() {
        let s = scan_file(
            "fn f(a: &A) {\n\
             a.len.fetch_add(1, Ordering::Relaxed); // ord: Relaxed — STAT.len: statistic\n}\n",
        );
        assert_eq!(s.sites[0].annotation, Some(0));
    }

    #[test]
    fn multiline_call_walks_to_statement_start() {
        let s = scan_file(
            "fn f(a: &A) {\n\
             // ord: Release/Acquire — LIST.insert-cas: publish node\n\
             let r = a.succ\n\
                 .compare_exchange(x, y, Ordering::Release, Ordering::Acquire);\n}\n",
        );
        assert_eq!(s.sites[0].orderings, ["Release", "Acquire"]);
        assert!(s.sites[0].annotation.is_some());
    }

    #[test]
    fn unannotated_site_detected() {
        let s = scan_file("fn f(a: &A) { a.x.store(1, Ordering::Release); }\n");
        assert_eq!(s.sites.len(), 1);
        assert!(s.sites[0].annotation.is_none());
    }

    #[test]
    fn cfg_test_mod_is_excluded() {
        let s = scan_file(
            "fn f(a: &A) { a.x.store(1, Ordering::Release); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn g(a: &A) { a.x.store(1, Ordering::SeqCst); unsafe { boom() } }\n\
             }\n",
        );
        assert_eq!(s.sites.len(), 1);
        assert_eq!(s.sites[0].orderings, ["Release"]);
        assert!(s.unsafes.is_empty());
    }

    #[test]
    fn cfg_test_mod_declaration_records_submodule() {
        let s = scan_file("#[cfg(test)]\nmod tests;\n");
        assert!(s.test_submodules.contains(&"tests.rs".to_string()));
        assert!(s.test_submodules.contains(&"tests/mod.rs".to_string()));
    }

    #[test]
    fn cfg_not_test_is_not_excluded() {
        let s = scan_file("#[cfg(not(test))]\nfn f(a: &A) { a.x.store(1, Ordering::Release); }\n");
        assert_eq!(s.sites.len(), 1);
    }

    #[test]
    fn safety_comment_is_detected() {
        let s = scan_file(
            "fn f() {\n\
             // SAFETY: the guard pins the epoch.\n\
             unsafe { deref(p) };\n\
             unsafe { deref(q) };\n}\n",
        );
        assert_eq!(s.unsafes.len(), 2);
        assert!(s.unsafes[0].documented);
        assert!(!s.unsafes[1].documented);
    }

    #[test]
    fn safety_doc_heading_counts_for_unsafe_fn() {
        let s = scan_file(
            "/// Does things.\n///\n/// # Safety\n///\n/// Caller must pin.\n\
             pub unsafe fn f() {}\n",
        );
        assert_eq!(s.unsafes.len(), 1);
        assert!(s.unsafes[0].documented);
    }

    #[test]
    fn unsafe_impl_needs_comment() {
        let s = scan_file("unsafe impl Send for X {}\n");
        assert_eq!(s.unsafes[0].kind, "unsafe impl");
        assert!(!s.unsafes[0].documented);
    }

    #[test]
    fn unsafe_fn_pointer_type_is_not_an_item() {
        let s = scan_file("struct R {\n    drop_fn: unsafe fn(usize),\n}\n");
        assert!(s.unsafes.is_empty());
    }

    #[test]
    fn sleep_and_tag_arith_are_flagged() {
        let s = scan_file(
            "fn f(p: usize) -> usize {\n\
             std::thread::sleep(d);\n\
             p & !0b11\n}\n",
        );
        assert!(s.banned.iter().any(|b| b.what == BannedKind::Sleep));
        assert!(s.banned.iter().any(|b| b.what == BannedKind::TagArith));
    }

    #[test]
    fn annotation_grammar_errors_are_reported() {
        let s = scan_file(
            "// ord: Relaxed STAT.len: forgot the dash\n\
             // ord: Sloppy — STAT.len: unknown ordering\n\
             // ord: Relaxed — lowercase: bad id\n\
             // ord: Relaxed — Stat.len: family not uppercase\n\
             fn f() {}\n",
        );
        assert_eq!(s.bad_annotations.len(), 4);
    }

    #[test]
    fn annotation_ordering_mismatch_is_visible_to_caller() {
        let s = scan_file(
            "fn f(a: &A) {\n\
             // ord: Acquire — LIST.traverse: says acquire\n\
             a.x.store(1, Ordering::Release);\n}\n",
        );
        let ai = s.sites[0].annotation.unwrap();
        assert_eq!(s.annotations[ai].orderings, ["Acquire"]);
        assert_eq!(s.sites[0].orderings, ["Release"]);
    }

    #[test]
    fn ordering_in_string_is_not_a_site() {
        let s = scan_file("fn f() { println!(\"x.load(Ordering::SeqCst)\"); }\n");
        assert!(s.sites.is_empty());
    }

    #[test]
    fn fetch_update_collects_both_orderings() {
        let s = scan_file(
            "fn f(a: &A) {\n\
             // ord: AcqRel/Acquire — TOWER.release: rmw\n\
             a.x.fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| Some(v + 1));\n}\n",
        );
        assert_eq!(s.sites[0].orderings, ["AcqRel", "Acquire"]);
    }

    #[test]
    fn standalone_fence_is_a_site() {
        let s = scan_file(
            "fn f() {\n\
             // ord: Release — EPOCH.flip: writes drain before the flip\n\
             std::sync::atomic::fence(Ordering::Release);\n}\n",
        );
        assert_eq!(s.sites.len(), 1);
        assert_eq!(s.sites[0].method, "fence");
        assert_eq!(s.sites[0].orderings, ["Release"]);
        assert!(s.sites[0].annotation.is_some());
    }

    #[test]
    fn bare_fence_and_compiler_fence_are_sites() {
        let s =
            scan_file("fn f() { fence(Ordering::SeqCst); compiler_fence(Ordering::AcqRel); }\n");
        assert_eq!(s.sites.len(), 2);
        assert_eq!(s.sites[0].method, "fence");
        assert_eq!(s.sites[0].orderings, ["SeqCst"]);
        assert_eq!(s.sites[1].method, "compiler_fence");
        assert_eq!(s.sites[1].orderings, ["AcqRel"]);
    }

    #[test]
    fn fence_definition_and_foreign_method_are_not_sites() {
        let s = scan_file(
            "fn fence(o: Ordering) { consume(o); }\n\
             fn g(m: &M) { m.fence(Ordering::SeqCst); }\n",
        );
        assert!(s.sites.is_empty());
    }

    #[test]
    fn pointer_returning_fn_with_atomic_body_is_a_wrapper() {
        let s = scan_file(
            "impl N {\n\
             pub(crate) fn next(&self) -> *mut N {\n\
             // ord: Acquire — LIST.traverse: next hop\n\
             self.succ.load(Ordering::Acquire)\n}\n}\n",
        );
        assert_eq!(s.wrappers.len(), 1);
        assert_eq!(s.wrappers[0].name, "next");
        assert_eq!(s.wrappers[0].orderings, ["Acquire"]);
    }

    #[test]
    fn generic_wrapper_signature_is_parsed() {
        let s = scan_file(
            "fn peek<K: Ord, V>(n: &Node<K, V>) -> *mut Node<K, V> {\n\
             n.back.load(Ordering::Acquire)\n}\n",
        );
        assert_eq!(s.wrappers.len(), 1);
        assert_eq!(s.wrappers[0].name, "peek");
    }

    #[test]
    fn pointer_alias_return_is_a_wrapper() {
        let s = scan_file(
            "type Pair<N> = (*mut N, *mut N);\n\
             type Count = u64;\n\
             fn pair(n: &N) -> Pair<N> { (n.a.load(Ordering::Acquire), n.b) }\n\
             fn count(n: &N) -> Count { n.c.load(Ordering::Relaxed) }\n",
        );
        assert_eq!(s.wrappers.len(), 1);
        assert_eq!(s.wrappers[0].name, "pair");
    }

    #[test]
    fn non_pointer_or_non_atomic_fns_are_not_wrappers() {
        let s = scan_file(
            "fn a(x: &A) -> u64 { x.v.load(Ordering::Acquire) }\n\
             fn b() -> *mut u8 { std::ptr::null_mut() }\n",
        );
        assert!(s.wrappers.is_empty());
        assert_eq!(s.sites.len(), 1);
    }

    #[test]
    fn wrapper_call_sites_attach_annotations() {
        let names: BTreeSet<String> = ["next".to_string()].into_iter().collect();
        let s = scan_file_with(
            "fn g(n: &N) {\n\
             // ord: Acquire — LIST.traverse: wrapper hides the load\n\
             let p = n.next();\n\
             let q = n.next();\n}\n",
            &names,
        );
        assert_eq!(s.wrapper_calls.len(), 2);
        assert_eq!(s.wrapper_calls[0].callee, "next");
        assert!(s.wrapper_calls[0].annotation.is_some());
        assert!(s.wrapper_calls[1].annotation.is_none());
        assert!(s.annotations[0].attached);
    }

    #[test]
    fn wrapper_definition_is_not_its_own_call_site() {
        let names: BTreeSet<String> = ["next".to_string()].into_iter().collect();
        let s = scan_file_with(
            "fn next(n: &N) -> *mut N { n.succ.load(Ordering::Acquire) }\n",
            &names,
        );
        assert!(s.wrapper_calls.is_empty());
    }

    #[test]
    fn dangling_annotation_stays_unattached() {
        let s = scan_file(
            "// ord: Relaxed — STAT.len: floats free\n\
             fn f() { let x = 1; }\n",
        );
        assert_eq!(s.annotations.len(), 1);
        assert!(!s.annotations[0].attached);
    }
}
