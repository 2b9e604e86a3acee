//! Per-file analysis: atomic-operation inventory, `// ord:` annotation
//! attachment, `unsafe` hygiene, and banned-pattern detection.

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::SmrScan;
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

/// A parsed `// ord: <Orderings> — <id>: <rationale>` comment.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// 1-based source line of the comment.
    pub line: u32,
    /// Orderings the annotation licenses.
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

/// A malformed `// ord:` comment (wrong grammar / unknown ordering).
#[derive(Debug, Clone)]
pub struct BadAnnotation {
    /// 1-based source line of the comment.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

/// Everything the auditor learned about one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Atomic operations with literal `Ordering::` arguments.
    pub sites: Vec<AtomicSite>,
    /// Parsed `// ord:` annotations.
    pub annotations: Vec<Annotation>,
    /// `unsafe` blocks / fns / impls / traits.
    pub unsafes: Vec<UnsafeItem>,
    /// Banned-pattern occurrences (policy decides if they matter).
    pub banned: Vec<BannedUse>,
    /// Malformed `// ord:` comments.
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
    pub(crate) comments: &'a [Comment],
    /// Wrapper-fn names whose call sites this scan collects.
    pub(crate) wrapper_names: &'a BTreeSet<String>,
    /// Token index of each collected site's method/fence ident
    /// (parallel to `out.sites`; used for wrapper-body membership).
    pub(crate) site_tok_indices: Vec<usize>,
    /// Token index of each collected wrapper call's callee ident
    /// (parallel to `out.wrapper_calls`; used for delegation-body
    /// membership).
    pub(crate) wrapper_call_tok_indices: Vec<usize>,
    /// Every pointer-returning fn with a body, regardless of whether
    /// it contains atomic sites: (name, line, body `{` tok, body `}`
    /// tok). Delegation detection re-checks these against the wrapper
    /// calls collected later.
    ptr_fn_spans: Vec<(String, u32, usize, usize)>,
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
    pub(crate) comments_ending: BTreeMap<u32, Vec<usize>>,
    /// Lines covered by any comment.
    comment_lines: BTreeSet<u32>,
    pub(crate) out: FileScan,
}

impl<'a> Scanner<'a> {
    fn new(lexed: &'a Lexed, wrapper_names: &'a BTreeSet<String>) -> Self {
        let mut s = Scanner {
            toks: &lexed.tokens,
            comments: &lexed.comments,
            wrapper_names,
            site_tok_indices: Vec::new(),
            wrapper_call_tok_indices: Vec::new(),
            ptr_fn_spans: Vec::new(),
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
    pub(crate) fn scan_return_type(&self, mut k: usize) -> (bool, usize) {
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
            // Balance brackets to the attribute's end.
            let mut depth = 0i32;
            let mut end = j;
            while end < self.toks.len() {
                match self.punct_at(end) {
                    Some('[') => depth += 1,
                    Some(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                end += 1;
            }
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
            let mut depth = 0i32;
            while j < self.toks.len() {
                match self.punct_at(j) {
                    Some('[') => depth += 1,
                    Some(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j + 1;
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
        // Scan to the item's body `{` (at zero paren/bracket depth) or a
        // terminating `;`, then balance braces.
        let mut depth = 0i32;
        let mut k = i;
        while k < self.toks.len() {
            match self.punct_at(k) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some(';') if depth == 0 => {
                    self.excluded.push((attr_start, k));
                    return;
                }
                Some('{') if depth == 0 => {
                    let mut braces = 0i32;
                    while k < self.toks.len() {
                        match self.punct_at(k) {
                            Some('{') => braces += 1,
                            Some('}') => {
                                braces -= 1;
                                if braces == 0 {
                                    self.excluded.push((attr_start, k));
                                    return;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
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

    fn collect_annotations(&mut self) {
        for c in self.comments {
            let Some(rest) = c.text.strip_prefix("ord:") else {
                continue;
            };
            match parse_annotation(rest.trim()) {
                Ok((orderings, id, rationale)) => self.out.annotations.push(Annotation {
                    line: c.end_line,
                    orderings,
                    id,
                    rationale,
                    attached: false,
                }),
                Err(message) => self.out.bad_annotations.push(BadAnnotation {
                    line: c.line,
                    message,
                }),
            }
        }
    }

    /// Comments visible from a site spanning `start_line..=end_line`
    /// whose statement begins at `stmt_line`: trailing comments inside
    /// the span, plus the contiguous comment/attribute block directly
    /// above the span start and above the statement start.
    pub(crate) fn visible_comment_lines(
        &self,
        stmt_line: u32,
        start_line: u32,
        end_line: u32,
    ) -> Vec<u32> {
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
    pub(crate) fn statement_start_line(&self, idx: usize) -> u32 {
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
            let mut depth = 0i32;
            let mut k = open;
            let mut orderings = Vec::new();
            while k < self.toks.len() {
                match self.punct_at(k) {
                    Some('(') => depth += 1,
                    Some(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
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
                k += 1;
            }
            if !orderings.is_empty() {
                raws.push(Raw {
                    method_idx,
                    span_end: k,
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
            let start_line = self.toks[raw.method_idx].line;
            let end_line = self.toks[raw.span_end.min(self.toks.len() - 1)].line;
            let stmt_line = self.statement_start_line(raw.method_idx);
            let annotation = self.find_annotation(stmt_line, start_line, end_line);
            if let Some(ai) = annotation {
                self.out.annotations[ai].attached = true;
            }
            self.site_tok_indices.push(raw.method_idx);
            self.out.sites.push(AtomicSite {
                line: start_line,
                method: self
                    .ident_at(raw.method_idx)
                    .unwrap_or_default()
                    .to_string(),
                orderings: raw.orderings.into_iter().map(|(_, o)| o).collect(),
                annotation,
            });
        }
    }

    /// Find fn items that return a raw pointer (`*const` / `*mut`, or
    /// a pointer alias) and perform an atomic operation in their body.
    /// Runs after `collect_atomic_sites` so body membership is a
    /// token-index range check against the collected sites.
    fn collect_wrappers(&mut self) {
        let mut i = 0;
        while i < self.toks.len() {
            if self.ident_at(i) != Some("fn") || self.is_excluded(i) {
                i += 1;
                continue;
            }
            let Some(name) = self.ident_at(i + 1).map(str::to_owned) else {
                i += 1;
                continue;
            };
            // Optional generics between the name and the params. `>`
            // preceded by `-` is part of a `->` inside the generic
            // bounds (e.g. `F: Fn(u32) -> u32`), not a closer.
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
            // Parameter list.
            let mut depth = 0i32;
            while j < self.toks.len() {
                match self.punct_at(j) {
                    Some('(') => depth += 1,
                    Some(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let (returns_raw_ptr, mut k) = self.scan_return_type(j + 1);
            if !returns_raw_ptr {
                i += 1;
                continue;
            }
            // Body: brace-balance from the first `{`; a `;` first means
            // a trait/extern declaration with no body.
            while k < self.toks.len()
                && self.punct_at(k) != Some('{')
                && self.punct_at(k) != Some(';')
            {
                k += 1;
            }
            if self.punct_at(k) != Some('{') {
                i += 1;
                continue;
            }
            let mut braces = 0i32;
            let mut end = k;
            while end < self.toks.len() {
                match self.punct_at(end) {
                    Some('{') => braces += 1,
                    Some('}') => {
                        braces -= 1;
                        if braces == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                end += 1;
            }
            let mut orderings: Vec<String> = Vec::new();
            for (si, &tok) in self.site_tok_indices.iter().enumerate() {
                if tok > k && tok < end {
                    for o in &self.out.sites[si].orderings {
                        if !orderings.contains(o) {
                            orderings.push(o.clone());
                        }
                    }
                }
            }
            self.ptr_fn_spans
                .push((name.clone(), self.toks[i].line, k, end));
            if !orderings.is_empty() {
                self.out.wrappers.push(WrapperFn {
                    line: self.toks[i].line,
                    name,
                    orderings,
                });
            }
            i = k + 1;
        }
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
            let mut depth = 0i32;
            let mut k = i + 1;
            while k < self.toks.len() {
                match self.punct_at(k) {
                    Some('(') => depth += 1,
                    Some(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let start_line = self.toks[i].line;
            let end_line = self.toks[k.min(self.toks.len() - 1)].line;
            let stmt_line = self.statement_start_line(i);
            let annotation = self.find_annotation(stmt_line, start_line, end_line);
            if let Some(ai) = annotation {
                self.out.annotations[ai].attached = true;
            }
            self.wrapper_call_tok_indices.push(i);
            self.out.wrapper_calls.push(WrapperCall {
                line: start_line,
                callee: name,
                annotation,
            });
        }
    }

    /// Pointer-returning fns whose bodies call registered wrappers are
    /// themselves wrappers-by-delegation: the dereferenceable pointer
    /// they hand out was produced under the callee's orderings. Runs
    /// after `collect_wrapper_calls` so membership is a token-range
    /// check of the recorded call sites against the fn spans noted by
    /// `collect_wrappers`. Self-recursive calls are ignored — they add
    /// no orderings the fn does not already own.
    fn collect_delegating(&mut self) {
        if self.wrapper_names.is_empty() {
            return;
        }
        for (name, line, k, end) in &self.ptr_fn_spans {
            let mut callees: Vec<String> = Vec::new();
            for (ci, &tok) in self.wrapper_call_tok_indices.iter().enumerate() {
                if tok > *k && tok < *end {
                    let callee = &self.out.wrapper_calls[ci].callee;
                    if callee != name && !callees.contains(callee) {
                        callees.push(callee.clone());
                    }
                }
            }
            if !callees.is_empty() {
                self.out.delegating.push(DelegatingFn {
                    line: *line,
                    name: name.clone(),
                    callees,
                });
            }
        }
    }

    fn find_annotation(&self, stmt_line: u32, start_line: u32, end_line: u32) -> Option<usize> {
        let mut best: Option<usize> = None;
        for l in self.visible_comment_lines(stmt_line, start_line, end_line) {
            for &ci in self.comments_ending.get(&l).into_iter().flatten() {
                let c = &self.comments[ci];
                if let Some(ai) = self
                    .out
                    .annotations
                    .iter()
                    .position(|a| a.line == c.end_line && c.text.starts_with("ord:"))
                {
                    // Nearest annotation below/at wins (last in line order).
                    best = Some(ai);
                }
            }
        }
        best
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

/// Parse the body of an annotation after the `ord:` prefix:
/// `<Ordering>[/<Ordering>...] — <invariant-id>: <rationale>`.
/// The separator may be an em dash or `--`.
fn parse_annotation(body: &str) -> Result<(Vec<String>, String, String), String> {
    let (left, right) = body
        .split_once('—')
        .or_else(|| body.split_once("--"))
        .ok_or("missing `—` between orderings and invariant id")?;
    let mut orderings = Vec::new();
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
    let (id, rationale) = right
        .trim()
        .split_once(':')
        .ok_or("missing `:` after invariant id")?;
    let id = id.trim();
    let ok_id = !id.is_empty()
        && id.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && id.contains('.');
    if !ok_id {
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
             fn f() {}\n",
        );
        assert_eq!(s.bad_annotations.len(), 3);
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
