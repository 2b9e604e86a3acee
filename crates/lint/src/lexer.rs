//! A minimal hand-rolled Rust lexer.
//!
//! The workspace is fully offline (no `syn`, no `proc-macro2`), so the
//! auditor tokenizes source text itself. It does not aim to be a full
//! Rust lexer — only to be *sound for auditing*: comments, string/char
//! literals, and raw strings must never be confused with code, line
//! numbers must be exact, and nested block comments must terminate
//! correctly. Everything else (precise float grammar, exotic suffixes)
//! may be approximated.

/// One significant (non-comment, non-whitespace) token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

/// The token classes the auditor distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers, dequoted).
    Ident(String),
    /// Any numeric literal, with its source text (so `0b` prefixes are
    /// recoverable for the tag-arithmetic check).
    Number(String),
    /// String / raw-string / byte-string literal (contents dropped).
    Str,
    /// Character or byte literal.
    Char,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// A single punctuation character (`::` arrives as two `:`).
    Punct(char),
}

/// A comment, kept separate from the token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Text with the `//`/`/*` framing stripped, trimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (> `line` only for multi-line
    /// block comments).
    pub end_line: u32,
    /// `true` for `/* .. */`, `false` for `// ..`.
    pub block: bool,
}

/// Result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Significant tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
    /// Bracket table, parallel to `tokens`: the index of the `)`/`]`/`}`
    /// matching each `(`/`[`/`{` (`tokens.len()` when none does); every
    /// other token maps to its own index. Each bracket kind is matched
    /// on its own, so a stray closer of one kind never unmatches an
    /// opener of another.
    pub close: Vec<usize>,
}

/// Tokenize `src`. Never panics; on malformed input it degrades to
/// single-character punctuation tokens rather than guessing structure.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

/// Build the [`Lexed::close`] table.
fn match_brackets(tokens: &[Token]) -> Vec<usize> {
    let mut close: Vec<usize> = (0..tokens.len()).collect();
    let mut open: [Vec<usize>; 3] = Default::default();
    for (i, t) in tokens.iter().enumerate() {
        let TokenKind::Punct(c) = t.kind else {
            continue;
        };
        if let Some(kind) = "([{".find(c) {
            close[i] = tokens.len();
            open[kind].push(i);
        } else if let Some(opener) = ")]}".find(c).and_then(|kind| open[kind].pop()) {
            close[opener] = i;
        }
    }
    close
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' | b'c' if self.raw_or_byte_literal() => {}
                b'"' => self.string_literal(),
                b'\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident(),
                c => {
                    self.push(TokenKind::Punct(c as char));
                    self.pos += 1;
                }
            }
        }
        self.out.close = match_brackets(&self.out.tokens);
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind) {
        self.out.tokens.push(Token {
            kind,
            line: self.line,
        });
    }

    fn line_comment(&mut self) {
        let start = self.pos + 2;
        let mut end = start;
        while end < self.src.len() && self.src[end] != b'\n' {
            end += 1;
        }
        let mut text = String::from_utf8_lossy(&self.src[start..end]).into_owned();
        // Doc comments: strip the extra `/` or `!` so `/// # Safety`
        // yields `# Safety`.
        while text.starts_with('/') || text.starts_with('!') {
            text.remove(0);
        }
        self.out.comments.push(Comment {
            text: text.trim().to_string(),
            line: self.line,
            end_line: self.line,
            block: false,
        });
        self.pos = end;
    }

    fn block_comment(&mut self) {
        let start_line = self.line;
        let text_start = self.pos + 2;
        self.pos += 2;
        let mut depth = 1u32;
        let mut text_end = self.src.len();
        while self.pos < self.src.len() {
            match (self.src[self.pos], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    if depth == 0 {
                        text_end = self.pos;
                        self.pos += 2;
                        break;
                    }
                    self.pos += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        let text = String::from_utf8_lossy(&self.src[text_start..text_end.min(self.src.len())]);
        self.out.comments.push(Comment {
            text: text.trim().to_string(),
            line: start_line,
            end_line: self.line,
            block: true,
        });
    }

    /// Handle `r"..."`, `r#"..."#`, `r#ident`, `b"..."`, `br#"..."#`,
    /// `b'x'`, `c"..."`. Returns `false` (consuming nothing) when the
    /// leading letter is just an ordinary identifier start.
    fn raw_or_byte_literal(&mut self) -> bool {
        let c0 = self.src[self.pos];
        // br"..." / br#"..."#
        let (prefix_len, allow_hash) = match (c0, self.peek(1)) {
            (b'b', Some(b'r')) => (2, true),
            (b'r', _) => (1, true),
            (b'b', Some(b'\'')) => {
                // Byte char literal b'x' (possibly escaped).
                self.pos += 1; // consume `b`, delegate to char lexer
                self.char_or_lifetime();
                return true;
            }
            (b'b', Some(b'"')) | (b'c', Some(b'"')) => (1, false),
            _ => return false,
        };
        let mut p = self.pos + prefix_len;
        let mut hashes = 0usize;
        if allow_hash {
            while self.src.get(p) == Some(&b'#') {
                hashes += 1;
                p += 1;
            }
        }
        if self.src.get(p) != Some(&b'"') {
            // `r#ident` raw identifier, or plain ident starting with r/b/c.
            if c0 == b'r' && hashes == 1 {
                self.pos += 2; // strip `r#`
                self.ident();
                return true;
            }
            return false;
        }
        // Consume the raw/plain string body up to `"` + hashes.
        p += 1;
        loop {
            match self.src.get(p) {
                None => break,
                Some(b'\n') => {
                    self.line += 1;
                    p += 1;
                }
                Some(b'\\') if hashes == 0 && c0 != b'r' => p += 2, // escapes only in non-raw
                Some(b'"') => {
                    let mut q = p + 1;
                    let mut seen = 0usize;
                    while seen < hashes && self.src.get(q) == Some(&b'#') {
                        seen += 1;
                        q += 1;
                    }
                    if seen == hashes {
                        p = q;
                        break;
                    }
                    p += 1;
                }
                _ => p += 1,
            }
        }
        self.push(TokenKind::Str);
        self.pos = p;
        true
    }

    fn string_literal(&mut self) {
        self.push(TokenKind::Str);
        self.pos += 1;
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    return;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Disambiguate `'a'` (char) from `'a` (lifetime).
    fn char_or_lifetime(&mut self) {
        if self.peek(1) == Some(b'\\') {
            // Escaped char literal: consume to closing quote.
            self.push(TokenKind::Char);
            self.pos += 2;
            while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
                self.pos += if self.src[self.pos] == b'\\' { 2 } else { 1 };
            }
            self.pos += 1;
            return;
        }
        let is_char = matches!((self.peek(1), self.peek(2)), (Some(_), Some(b'\'')));
        if is_char {
            self.push(TokenKind::Char);
            self.pos += 3;
        } else {
            self.push(TokenKind::Lifetime);
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
        }
    }

    fn number(&mut self) {
        let start = self.pos;
        // Prefixed literals consume alphanumerics/underscores wholesale.
        if self.src[self.pos] == b'0'
            && matches!(self.peek(1), Some(b'b') | Some(b'o') | Some(b'x'))
        {
            self.pos += 2;
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
        } else {
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
            // Fractional part — but `1..x` is a range, not a float.
            if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
                while self
                    .peek(0)
                    .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
                {
                    self.pos += 1;
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Number(text));
    }

    fn ident(&mut self) {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Ident(text));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn code_in_strings_is_not_tokenized() {
        let l = lex(r#"let s = "unsafe { Ordering::SeqCst }";"#);
        assert!(idents(r#"let s = "unsafe { Ordering::SeqCst }";"#)
            .iter()
            .all(|i| i != "unsafe" && i != "Ordering"));
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            1
        );
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let src = r##"let s = r#"has "quotes" and // no comment"#; let x = 1;"##;
        let l = lex(src);
        assert!(l.comments.is_empty());
        assert!(idents(src).contains(&"x".to_string()));
    }

    #[test]
    fn raw_string_spanning_lines_keeps_line_numbers() {
        let src = "let s = r\"line\nline\nline\";\nlet y = 2;";
        let l = lex(src);
        let y = l
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Ident("y".into()))
            .unwrap();
        assert_eq!(y.line, 4);
    }

    #[test]
    fn nested_block_comments_terminate() {
        let src = "/* outer /* inner */ still outer */ let z = 3;";
        let l = lex(src);
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
        assert!(idents(src).contains(&"z".to_string()));
    }

    #[test]
    fn multiline_block_comment_records_span() {
        let src = "/* a\nb\nc */\nlet q = 1;";
        let l = lex(src);
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[0].end_line, 3);
        assert_eq!(l.tokens[0].line, 4);
    }

    #[test]
    fn doc_comment_framing_is_stripped() {
        let l = lex("/// # Safety\n//! inner\nfn f() {}");
        assert_eq!(l.comments[0].text, "# Safety");
        assert_eq!(l.comments[1].text, "inner");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'y' }";
        let l = lex(src);
        let lifetimes = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn escaped_char_literals() {
        let l = lex(r"let c = '\n'; let d = '\''; let e = 1;");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            2
        );
        assert!(idents(r"let c = '\n'; let d = '\''; let e = 1;").contains(&"e".to_string()));
    }

    #[test]
    fn binary_literals_keep_text() {
        let l = lex("let m = x & 0b11;");
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Number("0b11".into())));
    }

    #[test]
    fn line_comment_text_and_line() {
        let l = lex("let a = 1; // ord: Relaxed — STAT.len: counter\nlet b = 2;");
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.starts_with("ord:"));
        assert_eq!(l.comments[0].line, 1);
    }

    #[test]
    fn raw_identifiers() {
        assert!(idents("let r#type = 1;").contains(&"type".to_string()));
    }

    #[test]
    fn byte_and_c_strings() {
        let src = r##"let a = b"bytes"; let b = br#"raw"#; let c = b'x';"##;
        let l = lex(src);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            2
        );
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            1
        );
    }

    #[test]
    fn brackets_match_across_kinds() {
        // f ( a [ 0 ] , { b } ) ;
        let l = lex("f(a[0], {b});");
        assert_eq!(l.close.len(), l.tokens.len());
        assert_eq!(l.close[1], 10); // `(` .. `)`
        assert_eq!(l.close[3], 5); // `[` .. `]`
        assert_eq!(l.close[7], 9); // `{` .. `}`
        for i in [0, 2, 4, 5, 6, 8, 9, 10, 11] {
            assert_eq!(l.close[i], i, "token {i} is no opener");
        }
    }

    #[test]
    fn unmatched_opener_maps_past_the_end() {
        // { ( x ] }  — the stray `]` leaves `(` open and `{` matched.
        let l = lex("{(x]}");
        assert_eq!(l.close[0], 4);
        assert_eq!(l.close[1], l.tokens.len());
        let l = lex("fn f() { g(");
        assert_eq!(l.close[2], 3);
        assert_eq!(l.close[4], l.tokens.len());
        assert_eq!(l.close[6], l.tokens.len());
    }

    #[test]
    fn range_is_not_a_float() {
        let l = lex("for i in 0..10 {}");
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Number("0".into())));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Number("10".into())));
    }
}
