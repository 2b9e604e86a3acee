//! SMR guard-lifetime & pointer-escape dataflow — audit pillar three.
//!
//! The workspace carries three reclamation disciplines (DESIGN.md
//! §13): guard-scoped derefs for EBR, stamp re-validation before
//! trusting a pin-free VBR read, and the pin-per-poll rule in
//! `lf-async` (no guard live across an `.await`). This pass enforces them statically with an
//! intra-procedural dataflow over the lexer's token stream: it finds
//! guard/pin bindings, tracks raw-pointer bindings *derived from
//! guarded atomic loads* (`.load(`, `.ptr(`, or a registered
//! pointer-returning wrapper call), and checks five rules per fn:
//!
//! 1. **`smr-guard-scope`** — a deref of a guard-derived pointer
//!    outside the lexical scope of its originating guard (or after
//!    `drop(guard)`) is a finding.
//! 2. **`smr-escape`** — a guard-derived pointer escaping the fn (a
//!    pointer-returning fn whose body performs or delegates to a
//!    guarded atomic load, a field store, or a channel `send`) must
//!    carry a `// escape: <id>: <rationale>` annotation whose id is a
//!    row of the DESIGN.md §9.8 obligations table.
//! 3. **`smr-pin-across-await`** — a guard binding live across an
//!    `.await` token is a finding (the `pin_hygiene.rs` invariant,
//!    compile-gated).
//! 4. **`smr-unvalidated-deref`** — in a *safe* fn that holds no guard
//!    (the pin-free `try_read` shape), a deref of an optimistic-load-
//!    derived pointer must carry a `// validate: <id>` annotation
//!    naming the stamp re-validation that makes it sound.
//! 5. **`smr-retire-unlink`** — every `retire`/`defer` call site must
//!    carry an `// unlink: <id>` annotation pairing the retirement
//!    with the unlink CAS that made the node unreachable
//!    (retire-without-unlink is the classic double-free shape).
//!
//! Annotation ids are cross-checked bidirectionally against the §9.8
//! obligations table by the audit layer, with the same drift
//! discipline as the §9 ordering tables. The pass is intentionally
//! intra-procedural and name-based: like the rest of the auditor it
//! trades soundness-in-the-limit for zero dependencies and findings a
//! human can act on.

use std::collections::BTreeMap;

use crate::analyze::{BadAnnotation, Scanner};
use crate::design::is_invariant_id;
use crate::lexer::TokenKind;

/// The three SMR annotation kinds (comment prefixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SmrKind {
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

impl SmrKind {
    /// The comment prefix (without the trailing `:`).
    pub fn as_str(self) -> &'static str {
        match self {
            SmrKind::Escape => "escape",
            SmrKind::Validate => "validate",
            SmrKind::Unlink => "unlink",
        }
    }
}

/// A parsed `// escape|validate|unlink: <id>: <rationale>` comment.
#[derive(Debug, Clone)]
pub struct SmrAnnotation {
    /// 1-based source line of the comment (its last line).
    pub line: u32,
    /// Which obligation kind the comment discharges.
    pub kind: SmrKind,
    /// Invariant id (`FAMILY.site`), a §9.8 obligations-table row.
    pub id: String,
    /// Free-text rationale after the id.
    pub rationale: String,
    /// Set during attachment; unattached annotations are drift.
    pub attached: bool,
}

/// One rule violation, before the audit layer adds crate/file context.
#[derive(Debug, Clone)]
pub struct SmrViolation {
    /// 1-based source line.
    pub line: u32,
    /// The violated rule (`smr-guard-scope`, `smr-escape`,
    /// `smr-pin-across-await`, `smr-unvalidated-deref`,
    /// `smr-retire-unlink`).
    pub rule: &'static str,
    /// Human-readable description naming the originating binding.
    pub message: String,
}

/// Everything the SMR pass learned about one file.
#[derive(Debug, Default)]
pub struct SmrScan {
    /// Parsed `// escape:` / `// validate:` / `// unlink:` comments.
    pub annotations: Vec<SmrAnnotation>,
    /// Rule violations (the audit layer applies per-crate policy).
    pub violations: Vec<SmrViolation>,
    /// Guard/pin bindings (locals + guard-typed params) seen.
    pub guards: usize,
    /// Pointer bindings tracked as derived from guarded loads.
    pub tracked: usize,
    /// Deref events of tracked bindings that were checked.
    pub derefs: usize,
    /// `retire`/`defer` call sites checked for unlink annotations.
    pub defer_sites: usize,
}

/// Idents that introduce a deferred-reclamation call site (rule 5).
const DEFER_FNS: &[&str] = &["defer", "defer_unchecked", "defer_drop_box", "retire"];

/// Idents that count as a channel/queue escape sink (rule 2).
const SEND_FNS: &[&str] = &["send", "try_send"];

/// One fn item with a body.
struct FnItem {
    name: String,
    fn_tok: usize,
    is_unsafe: bool,
    returns_raw_ptr: bool,
    param_open: usize,
    param_close: usize,
    body_open: usize,
    body_close: usize,
}

/// A live guard/pin binding inside one fn.
struct GuardBind {
    name: String,
    line: u32,
    decl_tok: usize,
    /// Token index of the innermost enclosing block's `}`.
    scope_end: usize,
    /// Token index of a `drop(name)` call, if any.
    drop_tok: Option<usize>,
    /// Guard received as a parameter (live for the whole body; the
    /// caller owns its scope).
    param: bool,
}

/// A tracked pointer binding derived from a guarded atomic load.
#[derive(Clone)]
struct PtrBind {
    /// Index into the fn's guard list, or `None` when no guard was
    /// live at the binding site (the pin-free optimistic-read shape).
    guard: Option<usize>,
    line: u32,
}

impl<'a> Scanner<'a> {
    /// Run the SMR dataflow pass. Requires the wrapper registry (call
    /// sites already collected), so it runs last in [`Scanner::run`].
    pub(crate) fn collect_smr(&mut self) {
        self.collect_smr_annotations();
        let fns = self.collect_fn_items();
        for (i, f) in fns.iter().enumerate() {
            if self.is_excluded(f.fn_tok) {
                continue;
            }
            // Nested fn items are analyzed on their own; mask their
            // spans out of the enclosing fn's walk.
            let nested: Vec<(usize, usize)> = fns
                .iter()
                .enumerate()
                .filter(|(j, g)| *j != i && g.fn_tok > f.body_open && g.body_close < f.body_close)
                .map(|(_, g)| (g.fn_tok, g.body_close))
                .collect();
            self.smr_analyze_fn(f, &nested);
        }
        self.collect_defer_sites();
    }

    fn collect_smr_annotations(&mut self) {
        for c in self.comments {
            let parsed = [SmrKind::Escape, SmrKind::Validate, SmrKind::Unlink]
                .into_iter()
                .find_map(|kind| {
                    c.text
                        .strip_prefix(kind.as_str())
                        .and_then(|r| r.strip_prefix(':'))
                        .map(|rest| (kind, rest.trim()))
                });
            let Some((kind, body)) = parsed else { continue };
            match parse_smr_body(body) {
                Ok((id, rationale)) => self.out.smr.annotations.push(SmrAnnotation {
                    line: c.end_line,
                    kind,
                    id,
                    rationale,
                    attached: false,
                }),
                Err(message) => self.out.bad_annotations.push(BadAnnotation {
                    line: c.line,
                    message: format!("malformed `// {}:` comment: {message}", kind.as_str()),
                }),
            }
        }
    }

    /// Find every fn item with a body (not just pointer-returning
    /// ones), recording param/body spans and `unsafe`-ness.
    fn collect_fn_items(&self) -> Vec<FnItem> {
        let mut out = Vec::new();
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
            // Qualifiers before `fn`: `pub(crate) const unsafe extern "C"`.
            let mut is_unsafe = false;
            let mut b = i;
            while b > 0 {
                b -= 1;
                match &self.toks[b].kind {
                    TokenKind::Ident(s)
                        if matches!(
                            s.as_str(),
                            "pub"
                                | "crate"
                                | "super"
                                | "self"
                                | "in"
                                | "const"
                                | "async"
                                | "extern"
                                | "unsafe"
                                | "default"
                        ) =>
                    {
                        if s == "unsafe" {
                            is_unsafe = true;
                        }
                    }
                    TokenKind::Punct('(') | TokenKind::Punct(')') | TokenKind::Str => {}
                    _ => break,
                }
            }
            // Optional generics (`>` preceded by `-` is a `->` inside
            // the bounds, not a closer).
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
            let param_open = j;
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
            let param_close = j;
            let (returns_raw_ptr, mut k) = self.scan_return_type(j + 1);
            while k < self.toks.len()
                && self.punct_at(k) != Some('{')
                && self.punct_at(k) != Some(';')
            {
                k += 1;
            }
            if self.punct_at(k) != Some('{') {
                // Trait/extern declaration without a body.
                i = k.max(i) + 1;
                continue;
            }
            let body_open = k;
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
            out.push(FnItem {
                name,
                fn_tok: i,
                is_unsafe,
                returns_raw_ptr,
                param_open,
                param_close,
                body_open,
                body_close: end,
            });
            // Continue *inside* the body so nested fns are found too.
            i = body_open + 1;
        }
        out
    }

    /// Guard-typed / guard-named parameters of `f`.
    fn guard_params(&self, f: &FnItem) -> Vec<GuardBind> {
        let mut out = Vec::new();
        let mut seg_start = f.param_open + 1;
        let mut depth = 0i32;
        let mut t = seg_start;
        while t <= f.param_close {
            let end_of_seg = match self.punct_at(t) {
                Some('(') | Some('[') | Some('<') => {
                    depth += 1;
                    false
                }
                Some(')') | Some(']') | Some('>') => {
                    depth -= 1;
                    t == f.param_close
                }
                Some(',') if depth == 0 => true,
                _ => false,
            };
            if end_of_seg {
                let seg = seg_start..t;
                let mut name: Option<&str> = None;
                let mut is_guard_ty = false;
                for u in seg {
                    if let Some(id) = self.ident_at(u) {
                        if name.is_none() && !matches!(id, "mut" | "ref") {
                            name = Some(id);
                        }
                        if id.contains("Guard") {
                            is_guard_ty = true;
                        }
                    }
                }
                if let Some(n) = name {
                    if is_guard_ty || n == "guard" || n.ends_with("_guard") {
                        out.push(GuardBind {
                            name: n.to_string(),
                            line: self.toks[f.param_open].line,
                            decl_tok: f.body_open,
                            scope_end: f.body_close,
                            drop_tok: None,
                            param: true,
                        });
                    }
                }
                seg_start = t + 1;
            }
            t += 1;
        }
        out
    }

    /// Matched `{`/`}` pairs within the fn body, for innermost-scope
    /// lookups.
    fn block_spans(&self, f: &FnItem) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let mut stack = Vec::new();
        for t in f.body_open..=f.body_close {
            match self.punct_at(t) {
                Some('{') => stack.push(t),
                Some('}') => {
                    if let Some(open) = stack.pop() {
                        pairs.push((open, t));
                    }
                }
                _ => {}
            }
        }
        pairs
    }

    /// The `}` closing the innermost block containing token `t`.
    fn innermost_close(blocks: &[(usize, usize)], t: usize, default: usize) -> usize {
        blocks
            .iter()
            .filter(|&&(o, c)| o < t && t < c)
            .map(|&(o, c)| (o, c))
            .max_by_key(|&(o, _)| o)
            .map(|(_, c)| c)
            .unwrap_or(default)
    }

    /// Whether the init/RHS token range contains a tracked-pointer
    /// source: a guarded atomic `.load(`, a `.ptr(` tag unpack, a
    /// registered wrapper call, or a mention of an existing tracked
    /// binding. Returns the source description for messages.
    fn ptr_source_in(
        &self,
        range: std::ops::Range<usize>,
        tracked: &BTreeMap<String, PtrBind>,
    ) -> Option<&'static str> {
        let mut found: Option<&'static str> = None;
        for u in range {
            if self.punct_at(u) == Some('.')
                && matches!(self.ident_at(u + 1), Some("load") | Some("ptr"))
                && self.punct_at(u + 2) == Some('(')
            {
                return Some("an atomic load");
            }
            if let Some(id) = self.ident_at(u) {
                if self.wrapper_names.contains(id)
                    && self.punct_at(u + 1) == Some('(')
                    && self.ident_at(u.wrapping_sub(1)) != Some("fn")
                {
                    return Some("a pointer-returning wrapper");
                }
                if tracked.contains_key(id) {
                    found = Some("a tracked pointer");
                }
            }
        }
        found
    }

    /// Idents bound by a `let` pattern (tokens between `let` and `=`):
    /// lowercase idents outside type position, skipping `mut`/`ref`.
    fn pattern_idents(&self, range: std::ops::Range<usize>) -> Vec<String> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        for u in range {
            match self.punct_at(u) {
                Some('(') | Some('[') | Some('{') | Some('<') => depth += 1,
                Some(')') | Some(']') | Some('}') | Some('>') => depth -= 1,
                // A `:` at depth 0 starts the type ascription.
                Some(':') if depth == 0 => break,
                _ => {}
            }
            if let Some(id) = self.ident_at(u) {
                if !matches!(id, "mut" | "ref")
                    && id
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
                {
                    out.push(id.to_string());
                }
            }
        }
        out
    }

    /// Analyze one fn against rules 1–4.
    fn smr_analyze_fn(&mut self, f: &FnItem, nested: &[(usize, usize)]) {
        let in_nested = |t: usize| nested.iter().any(|&(a, b)| t >= a && t <= b);
        let blocks = self.block_spans(f);
        let mut guards: Vec<GuardBind> = self.guard_params(f);
        let has_guard_param = !guards.is_empty();
        self.out.smr.guards += guards.len();
        let mut tracked: BTreeMap<String, PtrBind> = BTreeMap::new();
        // Events that need annotations, resolved after the walk so the
        // borrow of `self` stays shared during scanning.
        // (line, stmt_tok, end_tok, kind, rule, message)
        let mut needs: Vec<(usize, usize, SmrKind, &'static str, String)> = Vec::new();
        let mut escapes_fn_level = false;

        let live_guard = |guards: &[GuardBind], t: usize| -> Option<usize> {
            guards
                .iter()
                .enumerate()
                .rev()
                .find(|(_, g)| {
                    g.param
                        || (g.decl_tok < t && t <= g.scope_end && g.drop_tok.is_none_or(|d| d > t))
                })
                .map(|(i, _)| i)
        };

        let mut t = f.body_open + 1;
        while t < f.body_close {
            if in_nested(t) {
                t += 1;
                continue;
            }
            // --- drop(guard) truncates the guard's liveness ---
            if self.ident_at(t) == Some("drop") && self.punct_at(t + 1) == Some('(') {
                if let Some(arg) = self.ident_at(t + 2) {
                    if self.punct_at(t + 3) == Some(')') {
                        for g in guards.iter_mut() {
                            if g.name == arg && g.drop_tok.is_none() && g.decl_tok < t {
                                g.drop_tok = Some(t);
                            }
                        }
                    }
                }
            }
            // --- let bindings ---
            if self.ident_at(t) == Some("let") {
                // Pattern up to `=` (or `;` for uninitialized lets).
                let mut eq = t + 1;
                let mut pd = 0i32;
                while eq < f.body_close {
                    match self.punct_at(eq) {
                        Some('(') | Some('[') | Some('{') | Some('<') => pd += 1,
                        Some(')') | Some(']') | Some('}') | Some('>') => pd -= 1,
                        Some('=') if pd == 0 && self.punct_at(eq + 1) != Some('=') => break,
                        Some(';') if pd == 0 => break,
                        _ => {}
                    }
                    eq += 1;
                }
                if self.punct_at(eq) == Some('=') {
                    // Init up to the terminating `;` at depth 0.
                    let mut semi = eq + 1;
                    let mut d = 0i32;
                    while semi < f.body_close {
                        match self.punct_at(semi) {
                            Some('(') | Some('[') | Some('{') => d += 1,
                            Some(')') | Some(']') | Some('}') => d -= 1,
                            Some(';') if d == 0 => break,
                            _ => {}
                        }
                        semi += 1;
                    }
                    let names = self.pattern_idents(t + 1..eq);
                    let init = eq + 1..semi;
                    let is_pin = init.clone().any(|u| {
                        self.ident_at(u) == Some("pin") && self.punct_at(u + 1) == Some('(')
                    });
                    if is_pin {
                        let scope_end = Self::innermost_close(&blocks, t, f.body_close);
                        for n in names {
                            guards.push(GuardBind {
                                name: n,
                                line: self.toks[t].line,
                                decl_tok: t,
                                scope_end,
                                drop_tok: None,
                                param: false,
                            });
                            self.out.smr.guards += 1;
                        }
                    } else if self.ptr_source_in(init.clone(), &tracked).is_some() {
                        let g = live_guard(&guards, t);
                        for n in names {
                            tracked.insert(
                                n,
                                PtrBind {
                                    guard: g,
                                    line: self.toks[t].line,
                                },
                            );
                            self.out.smr.tracked += 1;
                        }
                    } else {
                        // Shadowed by an untracked value.
                        for n in names {
                            tracked.remove(&n);
                        }
                    }
                }
            }
            // --- simple reassignment `name = rhs;` at statement start ---
            if let Some(name) = self.ident_at(t).map(str::to_owned) {
                let at_stmt_start =
                    t == 0 || matches!(self.punct_at(t - 1), Some(';') | Some('{') | Some('}'));
                if at_stmt_start
                    && self.punct_at(t + 1) == Some('=')
                    && self.punct_at(t + 2) != Some('=')
                {
                    let mut semi = t + 2;
                    let mut d = 0i32;
                    while semi < f.body_close {
                        match self.punct_at(semi) {
                            Some('(') | Some('[') | Some('{') => d += 1,
                            Some(')') | Some(']') | Some('}') => d -= 1,
                            Some(';') if d == 0 => break,
                            _ => {}
                        }
                        semi += 1;
                    }
                    if self.ptr_source_in(t + 2..semi, &tracked).is_some() {
                        let g = live_guard(&guards, t);
                        if !tracked.contains_key(&name) {
                            self.out.smr.tracked += 1;
                        }
                        tracked.insert(
                            name,
                            PtrBind {
                                guard: g,
                                line: self.toks[t].line,
                            },
                        );
                    } else {
                        tracked.remove(&name);
                    }
                }
            }
            // --- deref events: prefix `*` on a tracked binding ---
            if self.punct_at(t) == Some('*') {
                let prefix = match t.checked_sub(1).map(|p| &self.toks[p].kind) {
                    None => true,
                    Some(TokenKind::Ident(s)) => matches!(s.as_str(), "return" | "in" | "else"),
                    Some(TokenKind::Number(_))
                    | Some(TokenKind::Str)
                    | Some(TokenKind::Char)
                    | Some(TokenKind::Lifetime) => false,
                    Some(TokenKind::Punct(c)) => !matches!(c, ')' | ']'),
                };
                if prefix {
                    if let Some(name) = self.ident_at(t + 1).map(str::to_owned) {
                        if let Some(bind) = tracked.get(&name).cloned() {
                            self.out.smr.derefs += 1;
                            let line = self.toks[t].line;
                            match bind.guard.and_then(|gi| guards.get(gi)) {
                                Some(g) if !g.param => {
                                    let out_of_scope =
                                        t > g.scope_end || g.drop_tok.is_some_and(|d| d < t);
                                    if out_of_scope {
                                        self.out.smr.violations.push(SmrViolation {
                                            line,
                                            rule: "smr-guard-scope",
                                            message: format!(
                                                "deref of guard-derived pointer `{name}` \
                                                 (bound line {}) outside the scope of its \
                                                 originating guard `{}` (pinned line {})",
                                                bind.line, g.name, g.line
                                            ),
                                        });
                                    }
                                }
                                Some(_) => {} // caller's guard covers the body
                                None if !f.is_unsafe => {
                                    // Pin-free optimistic read: deref must
                                    // name its stamp re-validation.
                                    needs.push((
                                        t,
                                        t,
                                        SmrKind::Validate,
                                        "smr-unvalidated-deref",
                                        format!(
                                            "deref of `{name}` (derived from an optimistic \
                                             load line {}, no guard live) in fn `{}` has no \
                                             `// validate:` annotation naming the stamp \
                                             re-validation that covers it",
                                            bind.line, f.name
                                        ),
                                    ));
                                }
                                None => {} // unsafe fn: caller discharges it (SAFETY:)
                            }
                        }
                    }
                }
            }
            // --- rule 3: guard live across `.await` ---
            if self.punct_at(t) == Some('.') && self.ident_at(t + 1) == Some("await") {
                for g in &guards {
                    let live = g.param
                        || (g.decl_tok < t && t <= g.scope_end && g.drop_tok.is_none_or(|d| d > t));
                    if live {
                        self.out.smr.violations.push(SmrViolation {
                            line: self.toks[t].line,
                            rule: "smr-pin-across-await",
                            message: format!(
                                "guard `{}` (pinned line {}) is live across `.await` in \
                                 fn `{}` — pin-per-poll invariant (DESIGN.md §10) forbids \
                                 holding a pin over a suspension point",
                                g.name, g.line, f.name
                            ),
                        });
                    }
                }
            }
            // --- rule 2: statement-level escapes (field store / send) ---
            // A store into a field, or into an element of an array field
            // (`.f = ..` / `.f[i] = ..`).
            let field = self.punct_at(t) == Some('.') && self.ident_at(t + 1).is_some();
            let mut eq = t + 2;
            if field && self.punct_at(eq) == Some('[') {
                let mut d = 0i32;
                while eq < f.body_close {
                    match self.punct_at(eq) {
                        Some('[') => d += 1,
                        Some(']') => d -= 1,
                        _ => {}
                    }
                    eq += 1;
                    if d == 0 {
                        break;
                    }
                }
            }
            if field && self.punct_at(eq) == Some('=') && self.punct_at(eq + 1) != Some('=') {
                let mut semi = eq + 1;
                let mut d = 0i32;
                while semi < f.body_close {
                    match self.punct_at(semi) {
                        Some('(') | Some('[') | Some('{') => d += 1,
                        Some(')') | Some(']') | Some('}') => d -= 1,
                        Some(';') if d == 0 => break,
                        _ => {}
                    }
                    semi += 1;
                }
                if let Some(name) = self.guarded_mention(eq + 1..semi, &tracked, &guards) {
                    needs.push((
                        t,
                        semi,
                        SmrKind::Escape,
                        "smr-escape",
                        format!(
                            "guard-derived pointer `{name}` escapes via field store in fn \
                             `{}` — annotate with `// escape: <id>` registered in the \
                             DESIGN.md §9.8 obligations table",
                            f.name
                        ),
                    ));
                }
            }
            if let Some(send) = self.ident_at(t) {
                if SEND_FNS.contains(&send)
                    && self.punct_at(t + 1) == Some('(')
                    && self.ident_at(t.wrapping_sub(1)) != Some("fn")
                {
                    let mut close = t + 1;
                    let mut d = 0i32;
                    while close < f.body_close {
                        match self.punct_at(close) {
                            Some('(') => d += 1,
                            Some(')') => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        close += 1;
                    }
                    if let Some(name) = self.guarded_mention(t + 2..close, &tracked, &guards) {
                        needs.push((
                            t,
                            close,
                            SmrKind::Escape,
                            "smr-escape",
                            format!(
                                "guard-derived pointer `{name}` escapes via `{send}(..)` in \
                                 fn `{}` — annotate with `// escape: <id>` registered in \
                                 the DESIGN.md §9.8 obligations table",
                                f.name
                            ),
                        ));
                    }
                }
            }
            t += 1;
        }

        // --- rule 2, fn level: a pointer-returning fn whose body
        // performs (or delegates to) a guarded atomic load hands its
        // caller a guard-derived pointer — the escape is the return.
        if f.returns_raw_ptr {
            let body_has_site = self
                .site_tok_indices
                .iter()
                .chain(self.wrapper_call_tok_indices.iter())
                .any(|&s| s > f.body_open && s < f.body_close && !in_nested(s));
            let body_has_guarded = tracked.values().any(|b| b.guard.is_some());
            if body_has_site || body_has_guarded || has_guard_param {
                escapes_fn_level = true;
            }
        }
        if escapes_fn_level {
            needs.push((
                f.fn_tok,
                f.fn_tok,
                SmrKind::Escape,
                "smr-escape",
                format!(
                    "fn `{}` returns a raw pointer derived from a guarded atomic load — \
                     the pointer outlives this fn's view of the guard; annotate the fn \
                     with `// escape: <id>` registered in the DESIGN.md §9.8 obligations \
                     table",
                    f.name
                ),
            ));
        }

        for (start_tok, end_tok, kind, rule, message) in needs {
            let start_line = self.toks[start_tok].line;
            let end_line = self.toks[end_tok.min(self.toks.len() - 1)].line;
            let stmt_line = self.statement_start_line(start_tok);
            match self.find_smr_annotation(kind, stmt_line, start_line, end_line) {
                Some(ai) => self.out.smr.annotations[ai].attached = true,
                None => self.out.smr.violations.push(SmrViolation {
                    line: start_line,
                    rule,
                    message,
                }),
            }
        }
    }

    /// First tracked *guarded* binding mentioned in the range (for
    /// escape sinks).
    fn guarded_mention(
        &self,
        range: std::ops::Range<usize>,
        tracked: &BTreeMap<String, PtrBind>,
        guards: &[GuardBind],
    ) -> Option<String> {
        for u in range {
            if let Some(id) = self.ident_at(u) {
                if let Some(b) = tracked.get(id) {
                    if b.guard.and_then(|gi| guards.get(gi)).is_some() {
                        return Some(id.to_string());
                    }
                }
            }
        }
        None
    }

    /// Rule 5: every `retire`/`defer` call site pairs with an
    /// `// unlink:` annotation naming the unlink CAS.
    fn collect_defer_sites(&mut self) {
        let mut needs: Vec<(usize, usize, String)> = Vec::new();
        for t in 0..self.toks.len() {
            let Some(name) = self.ident_at(t).map(str::to_owned) else {
                continue;
            };
            if !DEFER_FNS.contains(&name.as_str())
                || self.punct_at(t + 1) != Some('(')
                || self.ident_at(t.wrapping_sub(1)) == Some("fn")
                || self.is_excluded(t)
            {
                continue;
            }
            let mut close = t + 1;
            let mut d = 0i32;
            while close < self.toks.len() {
                match self.punct_at(close) {
                    Some('(') => d += 1,
                    Some(')') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                close += 1;
            }
            self.out.smr.defer_sites += 1;
            needs.push((t, close, name));
        }
        for (t, close, name) in needs {
            let start_line = self.toks[t].line;
            let end_line = self.toks[close.min(self.toks.len() - 1)].line;
            let stmt_line = self.statement_start_line(t);
            match self.find_smr_annotation(SmrKind::Unlink, stmt_line, start_line, end_line) {
                Some(ai) => self.out.smr.annotations[ai].attached = true,
                None => self.out.smr.violations.push(SmrViolation {
                    line: start_line,
                    rule: "smr-retire-unlink",
                    message: format!(
                        "`{name}(..)` retires memory with no `// unlink: <id>` annotation \
                         pairing it with the unlink CAS that made the node unreachable \
                         (retire-without-unlink is the double-free shape)"
                    ),
                }),
            }
        }
    }

    /// Nearest visible SMR annotation of `kind` for a statement
    /// spanning `start_line..=end_line` (same attachment discipline as
    /// `// ord:` comments).
    fn find_smr_annotation(
        &self,
        kind: SmrKind,
        stmt_line: u32,
        start_line: u32,
        end_line: u32,
    ) -> Option<usize> {
        let mut best: Option<usize> = None;
        for l in self.visible_comment_lines(stmt_line, start_line, end_line) {
            for &ci in self.comments_ending.get(&l).into_iter().flatten() {
                let c = &self.comments[ci];
                if let Some(ai) = self
                    .out
                    .smr
                    .annotations
                    .iter()
                    .position(|a| a.line == c.end_line && a.kind == kind)
                {
                    best = Some(ai);
                }
            }
        }
        best
    }
}

/// Parse `<invariant-id>: <rationale>` after the kind prefix.
fn parse_smr_body(body: &str) -> Result<(String, String), String> {
    let (id, rationale) = body
        .split_once(':')
        .ok_or("missing `:` after invariant id")?;
    let id = id.trim();
    if !is_invariant_id(id) {
        return Err(format!(
            "invariant id {id:?} must look like FAMILY.site (e.g. ESC.node-right)"
        ));
    }
    let rationale = rationale.trim();
    if rationale.is_empty() {
        return Err("empty rationale".into());
    }
    Ok((id.to_string(), rationale.to_string()))
}

#[cfg(test)]
mod tests {
    use crate::analyze::scan_file;

    #[test]
    fn guard_scoped_deref_is_clean() {
        let s = scan_file(
            "fn f(h: &H) {\n\
                 let guard = R::pin(h);\n\
                 let p = self.head.load(Ordering::Acquire);\n\
                 unsafe { (*p).touch() };\n\
             }\n",
        );
        assert!(s.smr.violations.is_empty(), "{:?}", s.smr.violations);
        assert_eq!(s.smr.guards, 1);
        assert_eq!(s.smr.derefs, 1);
    }

    #[test]
    fn deref_outside_guard_block_is_flagged() {
        let s = scan_file(
            "fn f(h: &H) {\n\
                 let p;\n\
                 {\n\
                     let guard = R::pin(h);\n\
                     p = self.head.load(Ordering::Acquire);\n\
                 }\n\
                 unsafe { (*p).touch() };\n\
             }\n",
        );
        let v: Vec<_> = s
            .smr
            .violations
            .iter()
            .filter(|v| v.rule == "smr-guard-scope")
            .collect();
        assert_eq!(v.len(), 1, "{:?}", s.smr.violations);
        assert!(v[0].message.contains("`guard`"));
    }

    #[test]
    fn deref_after_drop_is_flagged() {
        let s = scan_file(
            "fn f(h: &H) {\n\
                 let guard = R::pin(h);\n\
                 let p = self.head.load(Ordering::Acquire);\n\
                 drop(guard);\n\
                 unsafe { (*p).touch() };\n\
             }\n",
        );
        assert!(s
            .smr
            .violations
            .iter()
            .any(|v| v.rule == "smr-guard-scope" && v.message.contains("`guard`")));
    }

    #[test]
    fn pin_across_await_is_flagged() {
        let s = scan_file(
            "async fn f(h: &H) {\n\
                 let guard = R::pin(h);\n\
                 submit().await;\n\
                 let _ = &guard;\n\
             }\n",
        );
        assert!(s
            .smr
            .violations
            .iter()
            .any(|v| v.rule == "smr-pin-across-await" && v.message.contains("`guard`")));
    }

    #[test]
    fn guard_dropped_before_await_is_clean() {
        let s = scan_file(
            "async fn f(h: &H) {\n\
                 {\n\
                     let guard = R::pin(h);\n\
                     let _ = &guard;\n\
                 }\n\
                 submit().await;\n\
             }\n",
        );
        assert!(s.smr.violations.is_empty(), "{:?}", s.smr.violations);
    }

    #[test]
    fn unvalidated_optimistic_deref_is_flagged() {
        let s = scan_file(
            "fn read(&self) -> u64 {\n\
                 let curr = self.head.load(Ordering::Acquire);\n\
                 unsafe { (*curr).value }\n\
             }\n",
        );
        assert!(s
            .smr
            .violations
            .iter()
            .any(|v| v.rule == "smr-unvalidated-deref" && v.message.contains("`curr`")));
    }

    #[test]
    fn validate_annotation_discharges_optimistic_deref() {
        let s = scan_file(
            "fn read(&self) -> u64 {\n\
                 let curr = self.head.load(Ordering::Acquire);\n\
                 // validate: VAL.list-read: birth stamp re-checked below\n\
                 unsafe { (*curr).value }\n\
             }\n",
        );
        assert!(s.smr.violations.is_empty(), "{:?}", s.smr.violations);
        assert!(s.smr.annotations[0].attached);
    }

    #[test]
    fn unsafe_fn_optimistic_deref_is_callers_problem() {
        let s = scan_file(
            "unsafe fn read(&self) -> u64 {\n\
                 let curr = self.head.load(Ordering::Acquire);\n\
                 unsafe { (*curr).value }\n\
             }\n",
        );
        assert!(s.smr.violations.is_empty(), "{:?}", s.smr.violations);
    }

    #[test]
    fn defer_without_unlink_is_flagged() {
        let s = scan_file("fn f() { R::defer(guard, destroy); }\n");
        assert!(s
            .smr
            .violations
            .iter()
            .any(|v| v.rule == "smr-retire-unlink"));
        assert_eq!(s.smr.defer_sites, 1);
    }

    #[test]
    fn unlink_annotation_discharges_defer() {
        let s = scan_file(
            "fn f() {\n\
                 // unlink: UNLINK.list-del: succ CAS marked+flagged before retire\n\
                 R::defer(guard, destroy);\n\
             }\n",
        );
        assert!(s.smr.violations.is_empty(), "{:?}", s.smr.violations);
    }

    #[test]
    fn fn_defer_definition_is_not_a_site() {
        let s = scan_file("unsafe fn defer(&self, f: F) { self.push(f); }\n");
        assert_eq!(s.smr.defer_sites, 0);
    }

    #[test]
    fn indexed_field_store_is_an_escape() {
        let src = |note: &str| {
            format!(
                "fn f(h: &H) {{\n\
                     let guard = R::pin(h);\n\
                     let p = self.head.load(Ordering::Acquire);\n\
                     {note}\
                     self.slots[i + 1] = (p, 0);\n\
                 }}\n"
            )
        };
        let s = scan_file(&src(""));
        assert!(s
            .smr
            .violations
            .iter()
            .any(|v| v.rule == "smr-escape" && v.message.contains("field store")));
        let s = scan_file(&src("// escape: ESC.search-path: outlived by the guard\n"));
        assert!(s.smr.violations.is_empty(), "{:?}", s.smr.violations);
        assert!(s.smr.annotations[0].attached);
    }

    #[test]
    fn indexed_read_is_not_a_store() {
        let s = scan_file(
            "fn f(h: &H) -> bool {\n\
                 let guard = R::pin(h);\n\
                 let p = self.head.load(Ordering::Acquire);\n\
                 self.slots[0] == p\n\
             }\n",
        );
        assert!(s.smr.violations.is_empty(), "{:?}", s.smr.violations);
    }

    #[test]
    fn malformed_escape_comment_is_reported() {
        let s = scan_file("// escape: lowercase: nope\nfn f() {}\n");
        assert_eq!(s.smr.annotations.len(), 0);
        assert!(!s.bad_annotations.is_empty());
    }

    #[test]
    fn multiplication_is_not_a_deref() {
        let s = scan_file(
            "fn f(&self) -> u64 {\n\
                 let p = self.head.load(Ordering::Relaxed);\n\
                 p * 2\n\
             }\n",
        );
        assert!(s.smr.violations.is_empty(), "{:?}", s.smr.violations);
        assert_eq!(s.smr.derefs, 0);
    }
}
