//! Item extraction: walks a file's token stream and records every `fn`
//! (free, inherent, or trait-impl), every `macro_rules!` definition, and
//! the scopes they live in — enough structure to build a workspace call
//! graph without a real AST.

use crate::lexer::{Token, TokenKind};

/// One function (or `macro_rules!` macro, treated as a callable) found
/// in a file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name (`decide`, `optimize_batched`, `counter!` for macros).
    pub name: String,
    /// Self type of the enclosing `impl` block, when there is one.
    pub impl_type: Option<String>,
    /// Index of the owning file in the workspace file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` (or `macro_rules`) keyword; the signature
    /// runs from here to `body.0`.
    pub start: usize,
    /// Token range of the body, including both braces. Empty for
    /// bodyless trait-method declarations.
    pub body: (usize, usize),
    /// Token ranges of nested `fn` bodies inside this body; call
    /// extraction skips them (they are separate [`FnDef`]s).
    pub nested: Vec<(usize, usize)>,
    /// True inside `#[cfg(test)]` scopes or under a `#[test]` attribute.
    pub is_test: bool,
    /// Signature text between `fn` and the body brace (return-type guard
    /// detection for lock-order analysis).
    pub signature: String,
}

impl FnDef {
    /// `Type::name` when inside an impl, else the bare name.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// True when the return type names a lock guard (`MutexGuard`,
    /// `RwLockReadGuard`, …) — callers of this fn acquire the lock.
    pub fn returns_guard(&self) -> bool {
        self.signature.contains("Guard")
    }
}

/// What the parser finds in one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every fn and `macro_rules!` definition, test code included.
    pub fns: Vec<FnDef>,
    /// Half-open token ranges of test-only code: each item under
    /// `#[cfg(test)]` or `#[test]` outside other test code, from the
    /// attribute's `#` through the item's closing `}` or `;`.
    pub tests: Vec<(usize, usize)>,
}

/// What kind of scope a `{` opened.
#[derive(Debug, Clone)]
enum Scope {
    /// `impl Type { … }` — holds the self-type name and test flag.
    Impl(String, bool),
    /// Any other block (`mod`, fn body, expression block, …) with its
    /// test flag.
    Block(bool),
}

impl Scope {
    fn is_test(&self) -> bool {
        matches!(self, Scope::Impl(_, true) | Scope::Block(true))
    }
}

/// Parses the token stream of one file into its function definitions
/// and test items. `file` is the caller's index for this file.
pub fn parse(tokens: &[Token], file: usize) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut scopes: Vec<Scope> = Vec::new();
    // Pending item context, applied when its `{` arrives, and the fn
    // (index into `out.fns`) whose body that `{` opens.
    let mut pending: Option<Scope> = None;
    let mut pending_fn: Option<usize> = None;
    // The `#` of a test attribute whose item has neither opened its
    // block nor ended. A `;` or `,` ends such an item, and so does the
    // `}` of the block around it (a test-only field or arm).
    let mut test_attr: Option<usize> = None;
    // Open test items and fn definitions waiting for their block to
    // close: (attribute `#` or fn index, scope depth at open).
    let mut open_tests: Vec<(usize, usize)> = Vec::new();
    let mut open_fns: Vec<(usize, usize)> = Vec::new();

    let sig_tokens = |toks: &[Token]| -> String {
        let mut s = String::new();
        for t in toks {
            if t.kind != TokenKind::Comment {
                s.push_str(&t.text);
                s.push(' ');
            }
        }
        s
    };

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        let in_test = test_attr.is_some() || scopes.iter().any(Scope::is_test);
        match t.kind {
            TokenKind::Punct if t.text == "#" => {
                // Attribute: `#[ … ]` (or inner `#![ … ]`). Scan the
                // bracket group and look for cfg(test) / test markers.
                // `cfg_attr(test, …)` only adds attributes under test, so
                // its item stays live.
                let mut j = i + 1;
                if j < tokens.len() && tokens[j].is_punct('!') {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].is_punct('[') {
                    let mut depth = 0usize;
                    let start = j;
                    while j < tokens.len() {
                        if tokens[j].is_punct('[') {
                            depth += 1;
                        } else if tokens[j].is_punct(']') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    let attr = sig_tokens(&tokens[start..=j.min(tokens.len() - 1)]);
                    if !in_test && (attr.contains("cfg ( test") || attr.contains("[ test ]")) {
                        test_attr = Some(i);
                    }
                    i = j;
                }
            }
            TokenKind::Ident => match t.text.as_str() {
                "impl" => {
                    // Capture the self type: tokens up to the `{`
                    // (or `;`), taking the path after `for` when
                    // present, else the first path after generics.
                    let mut j = i + 1;
                    let mut angle = 0i32;
                    let mut after_for: Option<usize> = None;
                    while j < tokens.len() {
                        let tj = &tokens[j];
                        if tj.is_punct('{') || tj.is_punct(';') {
                            break;
                        }
                        if tj.is_punct('<') {
                            angle += 1;
                        } else if tj.is_punct('>') {
                            angle -= 1;
                        } else if angle == 0 && tj.is_ident("for") {
                            after_for = Some(j + 1);
                        }
                        j += 1;
                    }
                    let ty_range = match after_for {
                        Some(s) => &tokens[s..j],
                        None => &tokens[i + 1..j],
                    };
                    pending = Some(Scope::Impl(self_type_name(ty_range), in_test));
                    i = j; // land on `{` or `;`
                    continue;
                }
                "mod" | "trait" => pending = Some(Scope::Block(in_test)),
                "fn" => {
                    if let Some(n) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                        // Scan the signature to the body `{` or a `;`
                        // (trait declaration). Braces cannot appear in
                        // the signatures this workspace writes.
                        let mut j = i + 2;
                        let mut paren = 0i32;
                        while j < tokens.len() {
                            let tj = &tokens[j];
                            if tj.is_punct('(') {
                                paren += 1;
                            } else if tj.is_punct(')') {
                                paren -= 1;
                            } else if paren == 0 && (tj.is_punct('{') || tj.is_punct(';')) {
                                break;
                            }
                            j += 1;
                        }
                        let impl_type = scopes.iter().rev().find_map(|s| match s {
                            Scope::Impl(ty, _) => Some(ty.clone()),
                            Scope::Block(_) => None,
                        });
                        // A bodyless declaration keeps an empty body
                        // (trait methods resolve to their impls anyway).
                        if tokens.get(j).is_some_and(|b| b.is_punct('{')) {
                            pending = Some(Scope::Block(in_test));
                            pending_fn = Some(out.fns.len());
                        }
                        out.fns.push(FnDef {
                            name: n.text.clone(),
                            impl_type,
                            file,
                            line: t.line,
                            start: i,
                            body: (j, j), // patched when the body closes
                            nested: Vec::new(),
                            is_test: in_test,
                            signature: sig_tokens(&tokens[i..j.min(tokens.len())]),
                        });
                        i = j; // land on the body `{` or the `;`
                        continue;
                    }
                }
                "macro_rules" => {
                    // `macro_rules! name { … }` — record as callable
                    // `name!` whose body is the rule block.
                    if let (Some(bang), Some(nm)) = (tokens.get(i + 1), tokens.get(i + 2)) {
                        if bang.is_punct('!') && nm.kind == TokenKind::Ident {
                            let mut j = i + 3;
                            while j < tokens.len() && !tokens[j].is_punct('{') {
                                j += 1;
                            }
                            pending = Some(Scope::Block(in_test));
                            pending_fn = Some(out.fns.len());
                            out.fns.push(FnDef {
                                name: format!("{}!", nm.text),
                                impl_type: None,
                                file,
                                line: t.line,
                                start: i,
                                body: (j, j),
                                nested: Vec::new(),
                                is_test: in_test,
                                signature: String::new(),
                            });
                            i = j;
                            continue;
                        }
                    }
                }
                _ => {}
            },
            TokenKind::Punct if t.text == "{" => {
                if let Some(fx) = pending_fn.take() {
                    open_fns.push((fx, scopes.len()));
                }
                if let Some(a) = test_attr.take() {
                    open_tests.push((a, scopes.len()));
                }
                scopes.push(pending.take().unwrap_or(Scope::Block(in_test)));
            }
            TokenKind::Punct if t.text == "}" => {
                if let Some(a) = test_attr.take() {
                    out.tests.push((a, i));
                }
                scopes.pop();
                // Close any fn whose body opened at this depth.
                if let Some(&(fx, depth)) = open_fns.last() {
                    if scopes.len() == depth {
                        open_fns.pop();
                        let (start, _) = out.fns[fx].body;
                        out.fns[fx].body = (start, i + 1);
                        // Record this span as nested inside the enclosing
                        // open fn, if any.
                        if let Some(&(outer, _)) = open_fns.last() {
                            out.fns[outer].nested.push((start, i + 1));
                        }
                    }
                }
                if let Some(&(a, depth)) = open_tests.last() {
                    if scopes.len() == depth {
                        open_tests.pop();
                        out.tests.push((a, i + 1));
                    }
                }
            }
            TokenKind::Punct if t.text == ";" || t.text == "," => {
                // `mod foo;` / `impl … ;` never materialize their scope.
                if t.text == ";" {
                    pending = None;
                }
                if let Some(a) = test_attr.take() {
                    out.tests.push((a, i + 1));
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Last meaningful path segment of a type: `Foo`, `sim::Testbed` ->
/// `Testbed`, `Vec<f64>` -> `Vec`, `&mut Supervisor` -> `Supervisor`.
fn self_type_name(tokens: &[Token]) -> String {
    let mut last = String::new();
    let mut angle = 0i32;
    for t in tokens {
        match t.kind {
            TokenKind::Punct if t.text == "<" => angle += 1,
            TokenKind::Punct if t.text == ">" => angle -= 1,
            TokenKind::Ident if angle == 0 && t.text != "dyn" && t.text != "mut" => {
                last = t.text.clone();
            }
            _ => {}
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        super::parse(&lex(src), 0)
    }

    fn parse(src: &str) -> Vec<FnDef> {
        parse_src(src).fns
    }

    #[test]
    fn free_fn_and_method() {
        let defs = parse(
            "fn free() { helper(); }\n\
             impl Foo { pub fn method(&self) -> u32 { 1 } }\n",
        );
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0].qualified(), "free");
        assert_eq!(defs[1].qualified(), "Foo::method");
        assert!(!defs[0].is_test);
    }

    #[test]
    fn trait_impl_binds_to_self_type() {
        let defs = parse("impl Controller for TeslaController { fn decide(&mut self) {} }");
        assert_eq!(defs[0].qualified(), "TeslaController::decide");
    }

    #[test]
    fn generic_impl_type() {
        let defs = parse("impl<T: Clone> Queue<T> { fn push(&self, t: T) {} }");
        assert_eq!(defs[0].qualified(), "Queue::push");
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let defs = parse(
            "fn live() {}\n\
             #[cfg(test)]\nmod tests { fn helper() {} #[test] fn case() {} }\n",
        );
        assert_eq!(defs.len(), 3);
        assert!(!defs[0].is_test);
        assert!(defs[1].is_test);
        assert!(defs[2].is_test);
    }

    #[test]
    fn cfg_test_on_a_semicolon_item_leaves_the_next_fn_live() {
        for item in ["use std::fmt;", "const K: u8 = 1;", "static S: u8 = 1;"] {
            let defs = parse(&format!(
                "#[cfg(test)]\n{item}\npub fn live() {{ x.unwrap(); }}"
            ));
            assert_eq!(defs.len(), 1);
            assert!(!defs[0].is_test, "after `{item}`");
        }
    }

    #[test]
    fn cfg_attr_test_is_not_test_only() {
        let defs = parse(
            "#[cfg_attr(test, derive(Debug))]\npub struct S;\n\
             impl S { pub fn live(&self) { x.unwrap(); } }",
        );
        assert_eq!(defs[0].qualified(), "S::live");
        assert!(!defs[0].is_test);
    }

    #[test]
    fn test_only_field_ends_at_its_comma_or_block() {
        let src = "struct S {\n    #[cfg(test)]\n    probes: usize,\n    live: u8,\n}\n\
                   fn make() -> S { S { live: 1, #[cfg(test)] probes: 0 } }\n\
                   fn live() {}";
        let parsed = parse_src(src);
        assert!(parsed.fns.iter().all(|f| !f.is_test));
        let toks = lex(src);
        let texts: Vec<String> = parsed
            .tests
            .iter()
            .map(|&(s, e)| toks[s..e].iter().map(|t| t.text.as_str()).collect())
            .collect();
        assert_eq!(texts, ["#[cfg(test)]probes:usize,", "#[cfg(test)]probes:0"]);
    }

    #[test]
    fn test_items_span_from_attribute_to_close() {
        let src = "fn a() {}\n#[cfg(test)]\n// note { brace\nmod tests {\n    #[test]\n    fn b() {}\n}\n\
                   #[cfg(test)]\nuse std::fmt;\nfn c() {}\n";
        let parsed = parse_src(src);
        let toks = lex(src);
        let lines: Vec<(u32, u32)> = parsed
            .tests
            .iter()
            .map(|&(s, e)| (toks[s].line, toks[e - 1].line))
            .collect();
        assert_eq!(lines, [(2, 7), (8, 9)]);
        let live: Vec<&str> = parsed
            .fns
            .iter()
            .filter(|f| !f.is_test)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(live, ["a", "c"]);
    }

    #[test]
    fn test_attr_marks_single_fn() {
        let defs = parse("#[test]\nfn case() {}\nfn live() {}");
        assert!(defs[0].is_test);
        assert!(!defs[1].is_test);
    }

    #[test]
    fn nested_fn_ranges_are_recorded() {
        let defs = parse("fn outer() { fn inner() { x(); } inner(); }");
        assert_eq!(defs.len(), 2);
        let outer = defs.iter().find(|d| d.name == "outer").unwrap();
        let inner = defs.iter().find(|d| d.name == "inner").unwrap();
        assert_eq!(outer.nested.len(), 1);
        assert_eq!(outer.nested[0], inner.body);
    }

    #[test]
    fn bodyless_trait_method() {
        let defs = parse("trait C { fn decide(&mut self) -> f64; }\nfn after() {}");
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0].body.0, defs[0].body.1);
        assert_eq!(defs[1].name, "after");
    }

    #[test]
    fn macro_rules_is_a_callable() {
        let defs = parse("macro_rules! counter { ($n:expr) => { reg().counter($n) }; }");
        assert_eq!(defs[0].name, "counter!");
        assert!(defs[0].body.1 > defs[0].body.0);
    }

    #[test]
    fn guard_returning_signature() {
        let defs =
            parse("impl S { fn lock_shard(&self) -> MutexGuard<'_, Shard> { self.m.lock() } }");
        assert!(defs[0].returns_guard());
    }

    #[test]
    fn where_clause_signature() {
        let defs = parse("fn go<F>(f: F) -> u32 where F: Fn(u32) -> u32 { f(1) }");
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].name, "go");
        assert!(defs[0].body.1 > defs[0].body.0);
    }
}
