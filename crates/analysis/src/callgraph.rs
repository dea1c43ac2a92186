//! Call-site extraction and workspace call-graph construction.
//!
//! Resolution is deliberately conservative: a method call resolves to
//! *every* workspace method with that name and arity (except a set of
//! generic names like `push`/`get` that would connect unrelated types),
//! a path call `Type::method` resolves to the matching impl when one
//! exists, and anything unresolved is kept as an *external site* that
//! the rules match against their pattern tables.

use crate::lexer::{Token, TokenKind};
use crate::parser::FnDef;
use std::collections::HashMap;

/// Rust keywords that can precede `(`/`[` without being calls/indexing.
const KEYWORDS: [&str; 22] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "fn", "impl", "use", "pub", "where", "unsafe", "dyn",
];

/// Method names too generic to resolve by name across the workspace —
/// resolving `.push(…)` to every `push` in the repo would connect
/// unrelated types and drown the graph in false edges. Calls to these
/// stay external sites, matched by the rule pattern tables instead.
pub const GENERIC_METHODS: [&str; 31] = [
    "new",
    "default",
    "clone",
    "push",
    "push_back",
    "push_front",
    "pop",
    "insert",
    "get",
    "len",
    "is_empty",
    "iter",
    "into_iter",
    "next",
    "read",
    "write",
    "lock",
    "flush",
    "sync",
    "recv",
    "send",
    "clear",
    "extend",
    "remove",
    "contains",
    "value",
    "min",
    "max",
    "last",
    "values",
    "keys",
];

/// How a call site is spelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `path::to::fn(…)` or `Type::method(…)`.
    Path,
    /// `.method(…)`.
    Method,
    /// `name!(…)` / `name![…]` / `name!{…}`.
    Macro,
    /// `expr[…]` indexing (a potential panic site, not a call).
    Index,
}

/// One call or indexing site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// Site spelling.
    pub kind: SiteKind,
    /// Last path segment / method name / macro name (with `!`).
    pub name: String,
    /// Full path segments for `Path` sites (`["Vec", "with_capacity"]`).
    pub segments: Vec<String>,
    /// Receiver text for `Method` sites (`self . shards [ h ]`).
    pub receiver: String,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the site's name token (site order within the fn).
    pub tok: usize,
}

/// Extracts calls/indexing from `def`'s body tokens, skipping nested fn
/// bodies and comments.
pub fn extract_sites(tokens: &[Token], def: &FnDef) -> Vec<Site> {
    let (start, end) = def.body;
    let mut out = Vec::new();
    if end <= start + 1 {
        return out;
    }
    let in_nested = |i: usize| def.nested.iter().any(|&(s, e)| i >= s && i < e);
    // Indices of non-comment tokens, for prev/next neighbor lookups.
    let idx: Vec<usize> = (start..end)
        .filter(|&i| tokens[i].kind != TokenKind::Comment)
        .collect();
    let tok = |k: Option<&usize>| -> Option<&Token> { k.map(|&i| &tokens[i]) };

    let mut p = 0usize;
    while p < idx.len() {
        let i = idx[p];
        if in_nested(i) {
            p += 1;
            continue;
        }
        let t = &tokens[i];
        let prev = if p > 0 { tok(idx.get(p - 1)) } else { None };

        // Indexing: `[` after an ident/number/`]`/`)`.
        if t.is_punct('[') {
            let indexable = match prev {
                Some(pt) => match pt.kind {
                    TokenKind::Ident => !KEYWORDS.contains(&pt.text.as_str()),
                    TokenKind::Number => true,
                    TokenKind::Punct => pt.text == "]" || pt.text == ")",
                    _ => false,
                },
                None => false,
            };
            if indexable {
                out.push(Site {
                    kind: SiteKind::Index,
                    name: "[]".to_string(),
                    segments: Vec::new(),
                    receiver: prev.map(|t| t.text.clone()).unwrap_or_default(),
                    line: t.line,
                    tok: i,
                });
            }
            p += 1;
            continue;
        }

        if t.kind != TokenKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
            p += 1;
            continue;
        }

        // Macro call: ident `!` ( `(` | `[` | `{` ).
        if tok(idx.get(p + 1)).is_some_and(|n| n.is_punct('!'))
            && tok(idx.get(p + 2))
                .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
        {
            out.push(Site {
                kind: SiteKind::Macro,
                name: format!("{}!", t.text),
                segments: Vec::new(),
                receiver: String::new(),
                line: t.line,
                tok: i,
            });
            p += 3;
            continue;
        }

        // Method call: `.` ident turbofish? `(`.
        if prev.is_some_and(|pt| pt.is_punct('.')) {
            let (after, _skipped) = skip_turbofish(&idx, p + 1, tokens);
            if tok(idx.get(after)).is_some_and(|n| n.is_punct('(')) {
                out.push(Site {
                    kind: SiteKind::Method,
                    name: t.text.clone(),
                    segments: Vec::new(),
                    receiver: receiver_text(&idx, p, tokens),
                    line: t.line,
                    tok: i,
                });
            }
            p += 1;
            continue;
        }

        // Path call: ident (`::` ident)* turbofish? `(`.
        let mut segments = vec![t.text.clone()];
        let mut q = p + 1;
        loop {
            if tok(idx.get(q)).is_some_and(|n| n.is_punct(':'))
                && tok(idx.get(q + 1)).is_some_and(|n| n.is_punct(':'))
            {
                if let Some(nt) = tok(idx.get(q + 2)) {
                    if nt.kind == TokenKind::Ident {
                        segments.push(nt.text.clone());
                        q += 3;
                        continue;
                    }
                    if nt.is_punct('<') {
                        // turbofish handled below
                        q += 2;
                        break;
                    }
                }
            }
            break;
        }
        let (after, _) = skip_angles(&idx, q, tokens);
        // `path::to::macro!(…)`: the macro name was consumed as the
        // last path segment.
        if tok(idx.get(after)).is_some_and(|n| n.is_punct('!'))
            && tok(idx.get(after + 1))
                .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
        {
            let name = segments.last().cloned().unwrap_or_default();
            out.push(Site {
                kind: SiteKind::Macro,
                name: format!("{name}!"),
                segments,
                receiver: String::new(),
                line: t.line,
                tok: i,
            });
            p = after + 2;
            continue;
        }
        if tok(idx.get(after)).is_some_and(|n| n.is_punct('(')) {
            // A bare CamelCase single segment is a tuple-struct or enum
            // constructor (`Some(`, `Ok(`), not a fn call — still pushed;
            // it simply resolves to nothing and matches no pattern.
            let name = segments.last().cloned().unwrap_or_default();
            out.push(Site {
                kind: SiteKind::Path,
                name,
                segments,
                receiver: String::new(),
                line: t.line,
                tok: i,
            });
        }
        // Advance past the whole path so inner segments are not
        // re-scanned as fresh sites.
        p = after.max(p + 1);
    }
    out
}

/// If `idx[p]` starts `::<…>`, returns the position after the closing
/// `>`; otherwise returns `p` unchanged.
fn skip_turbofish(idx: &[usize], p: usize, tokens: &[Token]) -> (usize, bool) {
    if idx.get(p).is_some_and(|&i| tokens[i].is_punct(':'))
        && idx.get(p + 1).is_some_and(|&i| tokens[i].is_punct(':'))
        && idx.get(p + 2).is_some_and(|&i| tokens[i].is_punct('<'))
    {
        let (after, ok) = skip_angles(idx, p + 2, tokens);
        return (after, ok);
    }
    (p, false)
}

/// If `idx[p]` is `<`, returns the position after its matching `>`.
fn skip_angles(idx: &[usize], p: usize, tokens: &[Token]) -> (usize, bool) {
    if !idx.get(p).is_some_and(|&i| tokens[i].is_punct('<')) {
        return (p, false);
    }
    let mut depth = 0i32;
    let mut q = p;
    while let Some(&i) = idx.get(q) {
        if tokens[i].is_punct('<') {
            depth += 1;
        } else if tokens[i].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return (q + 1, true);
            }
        } else if tokens[i].is_punct(';') || tokens[i].is_punct('{') {
            break; // not a generic-argument list after all
        }
        q += 1;
        if q > p + 64 {
            break;
        }
    }
    (p, false)
}

/// Up to eight tokens of receiver text before the `.` of a method call:
/// `self . shards [ h ] . lock` -> "self . shards [ h ]".
fn receiver_text(idx: &[usize], name_pos: usize, tokens: &[Token]) -> String {
    // name_pos is the method-name position in idx; idx[name_pos - 1] is `.`.
    let mut parts: Vec<&str> = Vec::new();
    let mut q = name_pos.wrapping_sub(1);
    let mut taken = 0;
    while q > 0 && taken < 8 {
        q -= 1;
        let t = &tokens[idx[q]];
        let keep = match t.kind {
            TokenKind::Ident => !KEYWORDS.contains(&t.text.as_str()),
            TokenKind::Number => true,
            TokenKind::Punct => matches!(t.text.as_str(), "." | "[" | "]" | ")" | "(" | ":"),
            _ => false,
        };
        if !keep {
            break;
        }
        parts.push(&t.text);
        taken += 1;
    }
    parts.reverse();
    parts.join(" ")
}

/// Number of arguments of the call whose name token is `tokens[name]`:
/// the non-empty, top-level comma-separated segments between its parens,
/// past an optional turbofish. Commas inside brackets, turbofish generics
/// and closure parameter lists do not count. `None` when the parens
/// cannot be matched.
fn call_arg_count(tokens: &[Token], name: usize) -> Option<usize> {
    let mut toks = tokens
        .get(name + 1..)?
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .peekable();
    if toks.peek().is_some_and(|t| t.is_punct(':')) {
        // Turbofish: `::<…>`.
        let mut angle = 0i32;
        for t in toks.by_ref() {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
                if angle == 0 {
                    break;
                }
            }
        }
    }
    if !toks.next()?.is_punct('(') {
        return None;
    }
    // Expected closers of the brackets open inside the argument list.
    let mut open: Vec<&str> = Vec::new();
    let mut args = 0usize;
    let mut arg_started = false;
    let mut closure_params = false;
    let (mut prev, mut prev2) = ("", "");
    for t in toks {
        let text = t.text.as_str();
        if closure_params {
            closure_params = text != "|";
        } else if t.kind == TokenKind::Punct {
            match text {
                "(" => open.push(")"),
                "[" => open.push("]"),
                "{" => open.push("}"),
                "<" if open.last() == Some(&">") || (prev == ":" && prev2 == ":") => open.push(">"),
                ">" if open.last() == Some(&">") && prev != "-" => {
                    open.pop();
                }
                ")" | "]" | "}" => match open.pop() {
                    Some(closer) if closer == text => {}
                    None if text == ")" => return Some(args + usize::from(arg_started)),
                    _ => return None,
                },
                "," if open.is_empty() => {
                    args += 1;
                    arg_started = false;
                    (prev2, prev) = (prev, text);
                    continue;
                }
                "|" if open.is_empty() && (!arg_started || matches!(prev, "move" | "&")) => {
                    closure_params = true;
                }
                _ => {}
            }
        }
        arg_started = true;
        (prev2, prev) = (prev, text);
    }
    None
}

/// Whether a fn takes `self`, and how many parameters it takes besides,
/// read from its [`FnDef::signature`] (`fn name <…> ( … ) …`, tokens
/// space-joined). `None` when there is no parameter list to read.
fn self_and_params(signature: &str) -> Option<(bool, usize)> {
    let toks: Vec<&str> = signature.split_whitespace().collect();
    let mut i = 2; // past `fn name`
    let mut depth = 0i32;
    if toks.get(i) == Some(&"<") {
        // Generic parameters, which may hold `Fn(…) -> T` bounds.
        loop {
            match *toks.get(i)? {
                "<" => depth += 1,
                ">" if toks[i - 1] != "-" => depth -= 1,
                _ => {}
            }
            i += 1;
            if depth == 0 {
                break;
            }
        }
    }
    if toks.get(i) != Some(&"(") {
        return None;
    }
    let mut params = 0usize;
    let mut param_started = false;
    let mut in_pattern = true;
    let mut takes_self = false;
    for k in i + 1..toks.len() {
        match toks[k] {
            "(" | "[" | "<" => depth += 1,
            ")" if depth == 0 => {
                let n = params + usize::from(param_started);
                return Some((takes_self, n - usize::from(takes_self)));
            }
            ")" | "]" => depth -= 1,
            ">" if toks[k - 1] != "-" => depth -= 1,
            "," if depth == 0 => {
                params += 1;
                param_started = false;
                in_pattern = false;
                continue;
            }
            ":" if depth == 0 => in_pattern = false,
            "self" if in_pattern => takes_self = true,
            _ => {}
        }
        param_started = true;
    }
    None
}

/// Scans a token stream for `analysis:resolve(Type::method)` comments.
/// A pin forces name resolution of a matching call site on its own
/// line (trailing comment) or the next line (comment above) to the
/// named workspace fn, bypassing the ambiguous by-name fallback.
fn resolution_pins(tokens: &[Token]) -> HashMap<u32, String> {
    let mut pins = HashMap::new();
    for t in tokens {
        if t.kind != TokenKind::Comment {
            continue;
        }
        if let Some(ix) = t.text.find("analysis:resolve(") {
            let rest = &t.text[ix + "analysis:resolve(".len()..];
            if let Some(end) = rest.find(')') {
                pins.insert(t.line, rest[..end].trim().to_string());
            }
        }
    }
    pins
}

/// A function node plus its extracted sites.
#[derive(Debug)]
pub struct FnNode {
    /// The parsed definition.
    pub def: FnDef,
    /// All call/index sites in the body.
    pub sites: Vec<Site>,
    /// Resolved workspace call edges: (site index, callee fn ids).
    pub edges: Vec<(usize, Vec<usize>)>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All non-test functions, indexed by fn id.
    pub fns: Vec<FnNode>,
    /// name -> fn ids (methods and free fns).
    pub by_name: HashMap<String, Vec<usize>>,
    /// "Type::name" -> fn ids.
    pub by_qualified: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from parsed files. `files[f]` is the token
    /// stream of file `f`; `defs` are all its fns.
    pub fn build(files: &[Vec<Token>], defs: Vec<FnDef>) -> CallGraph {
        let mut g = CallGraph::default();
        for def in defs {
            if def.is_test {
                continue;
            }
            let sites = extract_sites(&files[def.file], &def);
            let id = g.fns.len();
            g.by_name.entry(def.name.clone()).or_default().push(id);
            g.by_qualified.entry(def.qualified()).or_default().push(id);
            g.fns.push(FnNode {
                def,
                sites,
                edges: Vec::new(),
            });
        }
        // `analysis:resolve(Type::method)` pins, per file.
        let pins: Vec<HashMap<u32, String>> =
            files.iter().map(|toks| resolution_pins(toks)).collect();
        let arity: Vec<Option<(bool, usize)>> = g
            .fns
            .iter()
            .map(|f| self_and_params(&f.def.signature))
            .collect();
        // Resolve sites to edges.
        for fx in 0..g.fns.len() {
            let file = g.fns[fx].def.file;
            let mut edges = Vec::new();
            for (sx, site) in g.fns[fx].sites.iter().enumerate() {
                let callees = match g.pinned_target(&pins[file], site) {
                    Some(ids) => ids,
                    None => {
                        let mut ids = g.resolve(site);
                        // `.name(…)` can only call a method taking as many
                        // arguments; keep every candidate when either
                        // count is unreadable.
                        if site.kind == SiteKind::Method {
                            if let Some(args) = call_arg_count(&files[file], site.tok) {
                                ids.retain(|&id| {
                                    arity[id].is_none_or(|(takes_self, n)| takes_self && n == args)
                                });
                            }
                        }
                        ids
                    }
                };
                if !callees.is_empty() {
                    edges.push((sx, callees));
                }
            }
            g.fns[fx].edges = edges;
        }
        g
    }

    /// Resolves a site through an `analysis:resolve(...)` pin on the
    /// site's line or the line above, when the pinned name's final
    /// segment matches the site name. Returns `None` when no pin
    /// applies (fall back to normal resolution).
    fn pinned_target(&self, pins: &HashMap<u32, String>, site: &Site) -> Option<Vec<usize>> {
        let pin = pins
            .get(&site.line)
            .or_else(|| pins.get(&site.line.saturating_sub(1)))?;
        let last = pin.rsplit("::").next().unwrap_or(pin);
        if site.name.trim_end_matches('!') != last {
            return None;
        }
        Some(
            self.by_qualified
                .get(pin)
                .or_else(|| self.by_name.get(pin))
                .cloned()
                .unwrap_or_default(),
        )
    }

    /// Workspace fns a site may call (empty = external). Method sites
    /// resolve by name here; [`CallGraph::build`], which has the call's
    /// tokens, narrows them further to fns of matching arity.
    pub fn resolve(&self, site: &Site) -> Vec<usize> {
        match site.kind {
            SiteKind::Index => Vec::new(),
            SiteKind::Macro => self.by_name.get(&site.name).cloned().unwrap_or_default(),
            SiteKind::Method => {
                if GENERIC_METHODS.contains(&site.name.as_str()) {
                    return Vec::new();
                }
                self.by_name
                    .get(&site.name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&id| !self.fns[id].def.name.ends_with('!'))
                            .collect()
                    })
                    .unwrap_or_default()
            }
            SiteKind::Path => {
                if site.segments.len() >= 2 {
                    // `Type::method`: prefer the exact impl.
                    let ty = &site.segments[site.segments.len() - 2];
                    let qualified = format!("{ty}::{}", site.name);
                    if let Some(ids) = self.by_qualified.get(&qualified) {
                        return ids.clone();
                    }
                    // `module::free_fn` (or an unknown type's method):
                    // fall back to name lookup unless the name is generic.
                    if GENERIC_METHODS.contains(&site.name.as_str()) {
                        return Vec::new();
                    }
                    return self.by_name.get(&site.name).cloned().unwrap_or_default();
                }
                // Single segment: a free fn; skip constructors
                // (CamelCase) and generic names.
                let name = &site.name;
                if name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    || GENERIC_METHODS.contains(&name.as_str())
                {
                    return Vec::new();
                }
                self.by_name
                    .get(name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&id| self.fns[id].def.impl_type.is_none())
                            .collect()
                    })
                    .unwrap_or_default()
            }
        }
    }

    /// Fn ids matching a root spec: `Type::method` or a bare fn name.
    pub fn roots(&self, spec: &str) -> Vec<usize> {
        if let Some(ids) = self.by_qualified.get(spec) {
            return ids.clone();
        }
        self.by_name.get(spec).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn graph(src: &str) -> CallGraph {
        let tokens = lex(src);
        let defs = parse(&tokens, 0).fns;
        CallGraph::build(&[tokens], defs)
    }

    fn sites_of(src: &str) -> Vec<Site> {
        let tokens = lex(src);
        let defs = parse(&tokens, 0).fns;
        extract_sites(&tokens, &defs[0])
    }

    #[test]
    fn extracts_path_method_macro_index() {
        let sites = sites_of(
            "fn f(v: &[f64]) {\n\
                 helper();\n\
                 tesla_obs::counter!(\"x_total\").inc();\n\
                 let a = Vec::with_capacity(4);\n\
                 let b = v[0];\n\
                 s.push(1.0);\n\
             }",
        );
        let names: Vec<(&SiteKind, &str)> =
            sites.iter().map(|s| (&s.kind, s.name.as_str())).collect();
        assert!(names.contains(&(&SiteKind::Path, "helper")));
        assert!(names.contains(&(&SiteKind::Macro, "counter!")));
        assert!(names.contains(&(&SiteKind::Path, "with_capacity")));
        assert!(names.contains(&(&SiteKind::Index, "[]")));
        assert!(names.contains(&(&SiteKind::Method, "push")));
        let wc = sites.iter().find(|s| s.name == "with_capacity").unwrap();
        assert_eq!(wc.segments, vec!["Vec", "with_capacity"]);
    }

    #[test]
    fn keywords_are_not_calls_or_indexing() {
        let sites = sites_of("fn f(x: bool) { if (x) { return; } let [a, b] = [1, 2]; }");
        assert!(sites
            .iter()
            .all(|s| s.name != "if" && s.kind != SiteKind::Index));
    }

    #[test]
    fn turbofish_method_call() {
        let sites = sites_of("fn f(v: &[u8]) { let x = v.iter().collect::<Vec<_>>(); }");
        assert!(sites.iter().any(|s| s.name == "collect"));
    }

    #[test]
    fn attribute_bracket_is_not_indexing() {
        let tokens = lex("fn f() { #[allow(dead_code)] let x = 1; }");
        let defs = parse(&tokens, 0).fns;
        let sites = extract_sites(&tokens, &defs[0]);
        assert!(sites.iter().all(|s| s.kind != SiteKind::Index));
    }

    #[test]
    fn resolves_method_to_impl_and_skips_generic_names() {
        let g = graph(
            "impl Buffer { fn record(&mut self) {} fn push(&mut self) {} }\n\
             fn caller(b: &mut Buffer) { b.record(); b.push(); }",
        );
        let caller = g.roots("caller")[0];
        let record = g.roots("Buffer::record")[0];
        let resolved: Vec<usize> = g.fns[caller]
            .edges
            .iter()
            .flat_map(|(_, ids)| ids.clone())
            .collect();
        assert!(resolved.contains(&record));
        // `push` is generic: not resolved even though Buffer::push exists.
        let push = g.roots("Buffer::push")[0];
        assert!(!resolved.contains(&push));
    }

    #[test]
    fn resolution_pin_overrides_ambiguous_method_fallback() {
        // `.append(` matches both impls by name; the pin on the line
        // above forces the edge to InMemory::append only.
        let g = graph(
            "impl Wal { fn append(&mut self) {} }\n\
             impl InMemory { fn append(&mut self) {} }\n\
             fn caller(s: &mut InMemory) {\n\
                 // analysis:resolve(InMemory::append)\n\
                 s.append();\n\
             }",
        );
        let caller = g.roots("caller")[0];
        let resolved: Vec<usize> = g.fns[caller]
            .edges
            .iter()
            .flat_map(|(_, ids)| ids.clone())
            .collect();
        assert_eq!(resolved, g.roots("InMemory::append"));
        assert!(!resolved.contains(&g.roots("Wal::append")[0]));
    }

    #[test]
    fn resolution_pin_ignores_non_matching_names() {
        // A pin only applies to sites whose name matches its final
        // segment; other calls on the pinned line resolve normally.
        let g = graph(
            "impl Wal { fn append(&mut self) {} }\n\
             impl InMemory { fn append(&mut self) {} }\n\
             fn other() {}\n\
             fn caller(s: &mut InMemory) {\n\
                 // analysis:resolve(InMemory::append)\n\
                 s.append(other());\n\
             }",
        );
        let caller = g.roots("caller")[0];
        let resolved: Vec<usize> = g.fns[caller]
            .edges
            .iter()
            .flat_map(|(_, ids)| ids.clone())
            .collect();
        assert!(resolved.contains(&g.roots("InMemory::append")[0]));
        assert!(resolved.contains(&g.roots("other")[0]));
    }

    #[test]
    fn method_site_skips_associated_fn_without_self() {
        // `m.row(i)` cannot call an associated `fn row(n)` — only a
        // method taking `self` and one argument.
        let g = graph(
            "impl Topology { fn row(n: usize) -> Self { Topology } }\n\
             impl Matrix { fn row(&self, i: usize) -> f64 { 0.0 } }\n\
             fn caller(m: &Matrix) { m.row(1); }",
        );
        let caller = g.roots("caller")[0];
        let resolved: Vec<usize> = g.fns[caller]
            .edges
            .iter()
            .flat_map(|(_, ids)| ids.clone())
            .collect();
        assert_eq!(resolved, g.roots("Matrix::row"));
    }

    #[test]
    fn method_site_skips_method_with_other_parameter_count() {
        // Three arguments — commas inside the closure's parameters and
        // the turbofish do not count — so the two-parameter `run` is not
        // a candidate; the three-parameter one (generic `Fn` bound and
        // a comma in a parameter type) is.
        let g = graph(
            "impl Fleet { fn run(self, minutes: usize, sink: Option<u8>) {} }\n\
             impl Policy { fn run<F: Fn(u8, u8) -> u8>(&self, a: u8, f: F, m: Map<u8, u8>) {} }\n\
             fn caller(x: &Policy) { x.run(1, |p, q| p + q, Map::<u8, u8>::new()); }",
        );
        let caller = g.roots("caller")[0];
        let resolved: Vec<usize> = g.fns[caller]
            .edges
            .iter()
            .flat_map(|(_, ids)| ids.clone())
            .collect();
        assert_eq!(resolved, g.roots("Policy::run"));
        assert!(!resolved.contains(&g.roots("Fleet::run")[0]));
    }

    #[test]
    fn resolves_qualified_path_to_exact_impl() {
        let g = graph(
            "impl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\n\
             fn caller() { A::go(); }",
        );
        let caller = g.roots("caller")[0];
        let a_go = g.roots("A::go")[0];
        let b_go = g.roots("B::go")[0];
        let resolved: Vec<usize> = g.fns[caller]
            .edges
            .iter()
            .flat_map(|(_, ids)| ids.clone())
            .collect();
        assert!(resolved.contains(&a_go));
        assert!(!resolved.contains(&b_go));
    }

    #[test]
    fn macro_call_resolves_to_macro_rules_def() {
        let g = graph(
            "macro_rules! counter { ($n:expr) => { registry().counter($n) }; }\n\
             fn registry() {}\nfn f() { counter!(\"a_total\"); }",
        );
        let f = g.roots("f")[0];
        let mac = g.roots("counter!")[0];
        let resolved: Vec<usize> = g.fns[f]
            .edges
            .iter()
            .flat_map(|(_, ids)| ids.clone())
            .collect();
        assert!(resolved.contains(&mac));
    }

    #[test]
    fn test_fns_are_excluded() {
        let g = graph("#[cfg(test)]\nmod tests { fn helper() { x.unwrap(); } }\nfn live() {}");
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].def.name, "live");
    }
}
