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
//! 4. **`smr-unvalidated-deref`** — in a fn that holds no guard (the
//!    pin-free `try_read` shape), a deref of an optimistic-load-derived
//!    pointer must carry a `// validate: <id>` annotation naming the
//!    stamp re-validation that makes it sound. An `unsafe fn` is no
//!    exception: a caller's `# Safety` contract cannot re-check a
//!    stamp the walk itself read.
//! 5. **`smr-retire-unlink`** — every `retire`/`defer` call site must
//!    carry an `// unlink: <id>` annotation pairing the retirement
//!    with the unlink CAS that made the node unreachable
//!    (retire-without-unlink is the classic double-free shape).
//!
//! The annotations share the `// ord:` grammar, collector and
//! attachment; their ids are cross-checked bidirectionally against the
//! §9.8 obligations table by the audit layer, in the same drift loop as
//! the §9 ordering tables. The pass is intentionally intra-procedural
//! and name-based: like the rest of the auditor it trades
//! soundness-in-the-limit for zero dependencies and findings a human
//! can act on.

use std::collections::BTreeMap;

use crate::analyze::{AnnotationKind, FnItem, Scanner};
use crate::lexer::TokenKind;

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

/// Everything the SMR pass learned about one file (its annotations
/// are in [`FileScan::annotations`](crate::analyze::FileScan::annotations)).
#[derive(Debug, Default)]
pub struct SmrScan {
    /// Rule violations (the audit layer applies per-crate policy).
    pub violations: Vec<SmrViolation>,
    /// Guard/pin bindings (locals + guard-typed params) seen.
    pub guards: usize,
    /// Deref events of tracked bindings that were checked.
    pub derefs: usize,
    /// `retire`/`defer` call sites checked for unlink annotations.
    pub defer_sites: usize,
}

/// Idents that introduce a deferred-reclamation call site (rule 5).
const DEFER_FNS: &[&str] = &["defer", "defer_unchecked", "defer_drop_box", "retire"];

/// Idents that count as a channel/queue escape sink (rule 2).
const SEND_FNS: &[&str] = &["send", "try_send"];

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

impl GuardBind {
    /// Whether the guard is live at token `t`.
    fn live_at(&self, t: usize) -> bool {
        self.param
            || (self.decl_tok < t && t <= self.scope_end && self.drop_tok.is_none_or(|d| d > t))
    }
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
    /// sites already collected), so it runs last in [`Scanner::run`]
    /// and may take the fn index.
    pub(crate) fn collect_smr(&mut self) {
        let fns = std::mem::take(&mut self.fns);
        for f in &fns {
            if self.is_excluded(f.fn_tok) {
                continue;
            }
            // Nested fn items are analyzed on their own; mask their
            // spans out of the enclosing fn's walk.
            let nested: Vec<(usize, usize)> = fns
                .iter()
                .filter(|g| g.fn_tok > f.body_open && g.body_close < f.body_close)
                .map(|g| (g.fn_tok, g.body_close))
                .collect();
            self.smr_analyze_fn(f, &nested);
        }
        self.collect_defer_sites();
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

    /// The `}` closing the innermost block of `f`'s body that contains
    /// token `t`.
    fn innermost_close(&self, f: &FnItem, t: usize) -> usize {
        (f.body_open..t)
            .rev()
            .find(|&o| self.punct_at(o) == Some('{') && self.close[o] > t)
            .map_or(f.body_close, |o| self.close[o])
    }

    /// The `;` ending the statement that continues at token `i`, stepping
    /// over bracketed groups; stops early at the closer of the group the
    /// statement sits in, or at `limit`.
    fn statement_end(&self, mut i: usize, limit: usize) -> usize {
        while i < limit {
            match self.punct_at(i) {
                Some('(' | '[' | '{') => i = self.close[i],
                Some(';' | ')' | ']' | '}') => break,
                _ => {}
            }
            i += 1;
        }
        i.min(limit)
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
        let mut guards: Vec<GuardBind> = self.guard_params(f);
        let has_guard_param = !guards.is_empty();
        self.out.smr.guards += guards.len();
        let mut tracked: BTreeMap<String, PtrBind> = BTreeMap::new();
        // Events that need annotations, resolved after the walk:
        // (start_tok, end_tok, kind, rule, message).
        let mut needs: Vec<(usize, usize, AnnotationKind, &'static str, String)> = Vec::new();

        let live_guard = |guards: &[GuardBind], t: usize| guards.iter().rposition(|g| g.live_at(t));

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
                    let semi = self.statement_end(eq + 1, f.body_close);
                    let names = self.pattern_idents(t + 1..eq);
                    let init = eq + 1..semi;
                    let is_pin = init.clone().any(|u| {
                        self.ident_at(u) == Some("pin") && self.punct_at(u + 1) == Some('(')
                    });
                    if is_pin {
                        let scope_end = self.innermost_close(f, t);
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
                    let semi = self.statement_end(t + 2, f.body_close);
                    if self.ptr_source_in(t + 2..semi, &tracked).is_some() {
                        let g = live_guard(&guards, t);
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
                                None => {
                                    // Pin-free optimistic read: deref must
                                    // name its stamp re-validation.
                                    needs.push((
                                        t,
                                        t,
                                        AnnotationKind::Validate,
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
                            }
                        }
                    }
                }
            }
            // --- rule 3: guard live across `.await` ---
            if self.punct_at(t) == Some('.') && self.ident_at(t + 1) == Some("await") {
                for g in &guards {
                    if g.live_at(t) {
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
                eq = self.close[eq].min(f.body_close) + 1;
            }
            if field && self.punct_at(eq) == Some('=') && self.punct_at(eq + 1) != Some('=') {
                let semi = self.statement_end(eq + 1, f.body_close);
                if let Some(name) = self.guarded_mention(eq + 1..semi, &tracked, &guards) {
                    needs.push((
                        t,
                        semi,
                        AnnotationKind::Escape,
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
                    let close = self.close[t + 1].min(f.body_close);
                    if let Some(name) = self.guarded_mention(t + 2..close, &tracked, &guards) {
                        needs.push((
                            t,
                            close,
                            AnnotationKind::Escape,
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
                needs.push((
                    f.fn_tok,
                    f.fn_tok,
                    AnnotationKind::Escape,
                    "smr-escape",
                    format!(
                        "fn `{}` returns a raw pointer derived from a guarded atomic load — \
                         the pointer outlives this fn's view of the guard; annotate the fn \
                         with `// escape: <id>` registered in the DESIGN.md §9.8 \
                         obligations table",
                        f.name
                    ),
                ));
            }
        }

        for (start_tok, end_tok, kind, rule, message) in needs {
            if self.attach(kind, start_tok, end_tok).is_none() {
                self.out.smr.violations.push(SmrViolation {
                    line: self.toks[start_tok].line,
                    rule,
                    message,
                });
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
            self.out.smr.defer_sites += 1;
            if self
                .attach(AnnotationKind::Unlink, t, self.close[t + 1])
                .is_none()
            {
                self.out.smr.violations.push(SmrViolation {
                    line: self.toks[t].line,
                    rule: "smr-retire-unlink",
                    message: format!(
                        "`{name}(..)` retires memory with no `// unlink: <id>` annotation \
                         pairing it with the unlink CAS that made the node unreachable \
                         (retire-without-unlink is the double-free shape)"
                    ),
                });
            }
        }
    }
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
        assert!(s.annotations[0].attached);
    }

    #[test]
    fn unsafe_fn_optimistic_deref_is_flagged() {
        // A caller's `# Safety` contract cannot re-check the stamp.
        let s = scan_file(
            "unsafe fn read(&self) -> u64 {\n\
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
    fn validate_annotation_attaches_inside_unsafe_fn() {
        let s = scan_file(
            "unsafe fn read_from(&self, start: *const C) -> u64 {\n\
                 let curr = (*start).next.load(Ordering::Acquire);\n\
                 // validate: VAL.tower-read: birth stamp re-checked below\n\
                 let v = unsafe { (*curr).value };\n\
                 v\n\
             }\n",
        );
        assert!(s.smr.violations.is_empty(), "{:?}", s.smr.violations);
        assert_eq!(s.smr.derefs, 1);
        assert!(s.annotations[0].attached);
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
        assert!(s.annotations[0].attached);
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
        assert_eq!(s.annotations.len(), 0);
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
