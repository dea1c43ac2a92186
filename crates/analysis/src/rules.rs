//! Interprocedural rules over the workspace call graph.
//!
//! Every finding carries a *witness*: the shortest call chain from a
//! declared root to the offending site, with `file:line` for each hop,
//! so a reviewer can audit the path without re-running the engine.

use crate::callgraph::{CallGraph, Site, SiteKind};
use crate::lexer::{Token, TokenKind};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Panic sites reachable from control roots.
pub const RULE_PANIC: &str = "panic-free-control-path";
/// Heap allocation reachable from `decide()` outside setup fns.
pub const RULE_ALLOC: &str = "no-alloc-in-decide-steady-state";
/// Lock-order inversions and locks held across blocking I/O.
pub const RULE_LOCK: &str = "lock-order";
/// Blocking calls reachable inside the deadline-bounded decision path.
pub const RULE_BLOCKING: &str = "no-blocking-in-deadline-path";

/// A lock class: method sites named `lock`/`read`/`write` whose file
/// path contains `file_substr` and receiver text contains `recv_substr`.
#[derive(Debug, Clone)]
pub struct LockClass {
    /// Human-readable class name, e.g. `historian.shard`.
    pub name: String,
    /// Substring the source file path must contain.
    pub file_substr: String,
    /// Substring the receiver expression must contain.
    pub recv_substr: String,
}

/// Lock-order rule configuration.
#[derive(Debug, Clone, Default)]
pub struct LockOrderConfig {
    /// Known lock classes.
    pub classes: Vec<LockClass>,
    /// Declared global order, outermost first. Acquiring `order[j]`
    /// while holding `order[i]` is legal iff `i < j`.
    pub order: Vec<String>,
}

/// Full rule configuration, supplied by the driver.
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// Roots for [`RULE_PANIC`] (`Type::method` or bare fn names).
    pub panic_roots: Vec<String>,
    /// Roots for [`RULE_ALLOC`].
    pub alloc_roots: Vec<String>,
    /// Roots for [`RULE_BLOCKING`].
    pub blocking_roots: Vec<String>,
    /// Lock classes and declared order for [`RULE_LOCK`].
    pub lock: LockOrderConfig,
}

/// One finding of an analysis rule or of a `cargo xtask lint` rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name.
    pub rule: &'static str,
    /// Repo-relative file of the offending site.
    pub file: String,
    /// 1-based line of the offending site.
    pub line: u32,
    /// What was found.
    pub message: String,
    /// Root-to-site call chain with per-hop `file:line`; empty for a
    /// lint finding, which is local to its line.
    pub witness: String,
    /// Whether an allow annotation covers this finding.
    pub allowed: bool,
}

/// Returns a description if `site` can panic.
pub fn panic_site(site: &Site) -> Option<String> {
    match site.kind {
        SiteKind::Macro => match site.name.as_str() {
            "panic!" | "unreachable!" | "todo!" | "unimplemented!" => Some(site.name.clone()),
            _ => None,
        },
        SiteKind::Method => match site.name.as_str() {
            "unwrap" | "expect" => Some(format!(".{}()", site.name)),
            _ => None,
        },
        SiteKind::Index => Some(format!("indexing `{}[..]` without get()", site.receiver)),
        SiteKind::Path => None,
    }
}

/// Returns a description if `site` heap-allocates.
pub fn alloc_site(site: &Site) -> Option<String> {
    match site.kind {
        SiteKind::Macro => match site.name.as_str() {
            "vec!" | "format!" => Some(site.name.clone()),
            _ => None,
        },
        SiteKind::Method => match site.name.as_str() {
            "to_string" | "to_vec" | "to_owned" | "collect" | "push" | "push_back" | "insert"
            | "extend" => Some(format!(".{}() may allocate", site.name)),
            _ => None,
        },
        SiteKind::Path => {
            if site.segments.len() >= 2 {
                let ty = &site.segments[site.segments.len() - 2];
                let m = site.name.as_str();
                let hit = matches!(
                    (ty.as_str(), m),
                    ("Vec", "new")
                        | ("Vec", "with_capacity")
                        | ("Vec", "from")
                        | ("Box", "new")
                        | ("String", "new")
                        | ("String", "from")
                        | ("String", "with_capacity")
                        | ("HashMap", "new")
                        | ("HashMap", "with_capacity")
                        | ("VecDeque", "new")
                        | ("VecDeque", "with_capacity")
                        | ("BTreeMap", "new")
                );
                if hit {
                    return Some(format!("{ty}::{m}"));
                }
            }
            None
        }
        SiteKind::Index => None,
    }
}

/// Returns a description if `site` can block (filesystem, sync flush,
/// sleeps, unbounded channel receives, joins).
pub fn blocking_site(site: &Site) -> Option<String> {
    match site.kind {
        SiteKind::Method => match site.name.as_str() {
            "sync_all" | "sync_data" | "flush" | "sync" => {
                Some(format!(".{}() synchronous I/O", site.name))
            }
            "recv" => Some(".recv() unbounded blocking receive".to_string()),
            "wait" | "join" => Some(format!(".{}() blocks the caller", site.name)),
            "open" | "create" if site.receiver.contains("OpenOptions") => {
                Some(format!(".{}() filesystem call", site.name))
            }
            _ => None,
        },
        SiteKind::Path => {
            if site.segments.iter().any(|s| s == "fs") {
                return Some(format!("fs::{} filesystem call", site.name));
            }
            if site.segments.len() >= 2 {
                let ty = &site.segments[site.segments.len() - 2];
                let m = site.name.as_str();
                match (ty.as_str(), m) {
                    ("File", "open") | ("File", "create") | ("OpenOptions", "new") => {
                        return Some(format!("{ty}::{m} filesystem call"));
                    }
                    ("thread", "sleep") => return Some("thread::sleep".to_string()),
                    _ => {}
                }
            }
            None
        }
        _ => None,
    }
}

/// Predecessor link recorded during BFS: caller fn id plus the call
/// site's file index and line.
type Pred = (usize, usize, u32);

/// BFS over call edges from `roots`. Returns, for every reachable fn,
/// the predecessor hop (None for roots). `skip(fn_id)` prunes traversal
/// *into* a fn (it is not visited at all).
pub fn reach(
    graph: &CallGraph,
    roots: &[usize],
    skip: &dyn Fn(usize) -> bool,
) -> HashMap<usize, Option<Pred>> {
    let mut pred: HashMap<usize, Option<Pred>> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in roots {
        if !skip(r) && !pred.contains_key(&r) {
            pred.insert(r, None);
            queue.push_back(r);
        }
    }
    while let Some(f) = queue.pop_front() {
        for (sx, callees) in &graph.fns[f].edges {
            let site = &graph.fns[f].sites[*sx];
            for &c in callees {
                if c == f || pred.contains_key(&c) || skip(c) {
                    continue;
                }
                pred.insert(c, Some((f, graph.fns[f].def.file, site.line)));
                queue.push_back(c);
            }
        }
    }
    pred
}

/// Renders the witness chain `root -> … -> fn_id` using `paths[file]`
/// for hop locations (the terminal site is appended by the caller).
pub fn witness_chain(
    graph: &CallGraph,
    pred: &HashMap<usize, Option<Pred>>,
    fn_id: usize,
    paths: &[String],
) -> String {
    let mut hops: Vec<String> = Vec::new();
    let mut cur = fn_id;
    loop {
        match pred.get(&cur) {
            Some(Some((caller, file, line))) => {
                hops.push(format!(
                    "{} [{}:{}]",
                    graph.fns[cur].def.qualified(),
                    paths[*file],
                    line
                ));
                cur = *caller;
            }
            _ => {
                hops.push(graph.fns[cur].def.qualified());
                break;
            }
        }
    }
    hops.reverse();
    hops.join(" -> ")
}

/// Per-fn transitive summary used by the lock-order rule.
#[derive(Debug, Clone, Default, PartialEq)]
struct FnSummary {
    /// Lock classes this fn (or anything it calls) may acquire.
    locks: BTreeSet<usize>,
    /// Whether this fn (or anything it calls) may perform blocking I/O.
    io: bool,
}

/// A lock acquisition inside one fn body.
struct Acquisition {
    class: usize,
    line: u32,
    tok: usize,
    /// Token index (exclusive) up to which the guard is held.
    extent_end: usize,
}

/// Finds the token index (exclusive) up to which the guard acquired at
/// `site_tok` is held. Let-bound guards live to the end of the
/// enclosing block (or an explicit `drop(name)`); temporaries live to
/// the end of the statement.
fn guard_extent(tokens: &[Token], site_tok: usize, body_end: usize) -> usize {
    // Find the statement start: first token after the previous
    // `;`/`{`/`}` punct.
    let mut stmt_start = site_tok;
    let mut k = site_tok;
    while k > 0 {
        k -= 1;
        let t = &tokens[k];
        if t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        if t.kind != TokenKind::Comment {
            stmt_start = k;
        }
    }
    // `if let Ok(g) = x.read()` / `while let ...`: the guard is bound
    // inside the conditional's block(s) and cannot outlive the if/else
    // chain, so a read-then-write upgrade after the chain is legal.
    let head = &tokens[stmt_start];
    if head.kind == TokenKind::Ident
        && matches!(head.text.as_str(), "if" | "while")
        && tokens[stmt_start..site_tok]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "let")
    {
        return conditional_extent(tokens, site_tok, body_end);
    }
    let is_let = tokens[stmt_start].kind == TokenKind::Ident && tokens[stmt_start].text == "let";
    // Name bound by `let [mut] name`.
    let bound: Option<&str> = if is_let {
        let mut b = stmt_start + 1;
        if tokens.get(b).is_some_and(|t| t.text == "mut") {
            b += 1;
        }
        tokens
            .get(b)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
    } else {
        None
    };

    let mut depth = 0i32;
    let mut i = site_tok;
    while i < body_end {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return i; // enclosing block closed
                    }
                    if !is_let && depth == 0 && i > site_tok {
                        // conservative: a temporary's statement cannot
                        // outlive the block it appears in
                    }
                }
                ";" if !is_let && depth == 0 => return i,
                _ => {}
            }
        }
        // Explicit drop(name) releases a let-bound guard early.
        if let Some(name) = bound {
            if depth >= 0
                && t.kind == TokenKind::Ident
                && t.text == "drop"
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                && tokens.get(i + 2).is_some_and(|n| n.text == name)
                && tokens.get(i + 3).is_some_and(|n| n.is_punct(')'))
            {
                return i;
            }
        }
        i += 1;
    }
    body_end
}

/// Extent of a guard bound by `if let`/`while let`: the close of the
/// conditional's block chain (walking `else` / `else if` arms).
fn conditional_extent(tokens: &[Token], site_tok: usize, body_end: usize) -> usize {
    let mut i = site_tok;
    while i < body_end && !tokens[i].is_punct('{') {
        i += 1;
    }
    loop {
        let mut depth = 0i32;
        while i < body_end {
            if tokens[i].is_punct('{') {
                depth += 1;
            } else if tokens[i].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            i += 1;
        }
        let mut j = i + 1;
        while tokens.get(j).is_some_and(|t| t.kind == TokenKind::Comment) {
            j += 1;
        }
        if tokens
            .get(j)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == "else")
        {
            let mut k = j + 1;
            while k < body_end && !tokens[k].is_punct('{') {
                k += 1;
            }
            i = k;
            continue;
        }
        return i.min(body_end);
    }
}

/// Runs the lock-order rule over every non-test fn. `paths[f]` is the
/// repo-relative path of file `f`; `files[f]` its tokens.
pub fn lock_order_findings(
    graph: &CallGraph,
    cfg: &LockOrderConfig,
    paths: &[String],
    files: &[Vec<Token>],
) -> Vec<Finding> {
    let order_idx = |cls: usize| cfg.order.iter().position(|o| *o == cfg.classes[cls].name);
    let classify = |f: usize, site: &Site| -> Option<usize> {
        if site.kind != SiteKind::Method || !matches!(site.name.as_str(), "lock" | "read" | "write")
        {
            return None;
        }
        let path = &paths[graph.fns[f].def.file];
        cfg.classes
            .iter()
            .position(|c| path.contains(&c.file_substr) && site.receiver.contains(&c.recv_substr))
    };

    // Guard-returning fns acquire the class of their own lock site.
    let mut guard_fn_class: HashMap<usize, usize> = HashMap::new();
    for (f, node) in graph.fns.iter().enumerate() {
        if node.def.returns_guard() {
            if let Some(cls) = node.sites.iter().find_map(|s| classify(f, s)) {
                guard_fn_class.insert(f, cls);
            }
        }
    }

    // Fixpoint transitive summaries.
    let mut summaries: Vec<FnSummary> = graph
        .fns
        .iter()
        .enumerate()
        .map(|(f, node)| {
            let mut s = FnSummary::default();
            for site in &node.sites {
                if let Some(cls) = classify(f, site) {
                    s.locks.insert(cls);
                }
                if blocking_site(site).is_some() {
                    s.io = true;
                }
            }
            s
        })
        .collect();
    loop {
        let mut changed = false;
        for f in 0..graph.fns.len() {
            let mut s = summaries[f].clone();
            for (_, callees) in &graph.fns[f].edges {
                for &c in callees {
                    s.io |= summaries[c].io;
                    s.locks.extend(summaries[c].locks.iter().copied());
                }
            }
            if s != summaries[f] {
                summaries[f] = s;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out: Vec<Finding> = Vec::new();
    for (f, node) in graph.fns.iter().enumerate() {
        if node.def.returns_guard() {
            // A guard-returning accessor holds its lock at return by
            // design; its callers are where extents are analyzed.
            continue;
        }
        let file = node.def.file;
        let tokens = &files[file];
        let body_end = node.def.body.1;
        let fn_loc = format!(
            "{} [{}:{}]",
            node.def.qualified(),
            paths[file],
            node.def.line
        );

        let mut acqs: Vec<Acquisition> = Vec::new();
        for (sx, site) in node.sites.iter().enumerate() {
            let cls = classify(f, site).or_else(|| {
                node.edges
                    .iter()
                    .find(|(ex, _)| *ex == sx)
                    .and_then(|(_, callees)| {
                        callees.iter().find_map(|c| guard_fn_class.get(c).copied())
                    })
            });
            if let Some(class) = cls {
                acqs.push(Acquisition {
                    class,
                    line: site.line,
                    tok: site.tok,
                    extent_end: guard_extent(tokens, site.tok, body_end),
                });
            }
        }
        if acqs.is_empty() {
            continue;
        }

        for a in &acqs {
            let a_name = &cfg.classes[a.class].name;
            // Nested direct acquisitions within the extent.
            for b in &acqs {
                if b.tok <= a.tok || b.tok >= a.extent_end {
                    continue;
                }
                let b_name = &cfg.classes[b.class].name;
                if a.class == b.class {
                    out.push(Finding {
                        rule: RULE_LOCK,
                        file: paths[file].clone(),
                        line: b.line,
                        message: format!(
                            "lock class `{a_name}` acquired at line {} is still held while \
                             re-acquiring the same class",
                            a.line
                        ),
                        witness: format!(
                            "{fn_loc}: acquire {a_name} [{}:{}] -> acquire {b_name} [{}:{}]",
                            paths[file], a.line, paths[file], b.line
                        ),
                        allowed: false,
                    });
                } else if let (Some(ai), Some(bi)) = (order_idx(a.class), order_idx(b.class)) {
                    if ai > bi {
                        out.push(Finding {
                            rule: RULE_LOCK,
                            file: paths[file].clone(),
                            line: b.line,
                            message: format!(
                                "lock order inversion: `{b_name}` acquired while holding \
                                 `{a_name}` (declared order requires {b_name} before {a_name})"
                            ),
                            witness: format!(
                                "{fn_loc}: acquire {a_name} [{}:{}] -> acquire {b_name} [{}:{}]",
                                paths[file], a.line, paths[file], b.line
                            ),
                            allowed: false,
                        });
                    }
                }
            }
            // Blocking I/O and transitive lock/io calls within the extent.
            for (sx, site) in node.sites.iter().enumerate() {
                if site.tok <= a.tok || site.tok >= a.extent_end {
                    continue;
                }
                if let Some(desc) = blocking_site(site) {
                    out.push(Finding {
                        rule: RULE_LOCK,
                        file: paths[file].clone(),
                        line: site.line,
                        message: format!("lock class `{a_name}` held across {desc}"),
                        witness: format!(
                            "{fn_loc}: acquire {a_name} [{}:{}] -> {desc} [{}:{}]",
                            paths[file], a.line, paths[file], site.line
                        ),
                        allowed: false,
                    });
                    continue;
                }
                if let Some((_, callees)) = node.edges.iter().find(|(ex, _)| *ex == sx) {
                    for &c in callees {
                        if guard_fn_class.contains_key(&c) {
                            continue; // handled as an acquisition above
                        }
                        let callee_name = graph.fns[c].def.qualified();
                        if summaries[c].io {
                            out.push(Finding {
                                rule: RULE_LOCK,
                                file: paths[file].clone(),
                                line: site.line,
                                message: format!(
                                    "lock class `{a_name}` held across call to `{callee_name}` \
                                     which may perform blocking I/O"
                                ),
                                witness: format!(
                                    "{fn_loc}: acquire {a_name} [{}:{}] -> {callee_name} [{}:{}]",
                                    paths[file], a.line, paths[file], site.line
                                ),
                                allowed: false,
                            });
                        }
                        for &cls in &summaries[c].locks {
                            if cls == a.class {
                                continue; // recursion through helpers; direct nesting covered above
                            }
                            if let (Some(ai), Some(bi)) = (order_idx(a.class), order_idx(cls)) {
                                if ai > bi {
                                    let b_name = &cfg.classes[cls].name;
                                    out.push(Finding {
                                        rule: RULE_LOCK,
                                        file: paths[file].clone(),
                                        line: site.line,
                                        message: format!(
                                            "lock order inversion: call to `{callee_name}` may \
                                             acquire `{b_name}` while `{a_name}` is held"
                                        ),
                                        witness: format!(
                                            "{fn_loc}: acquire {a_name} [{}:{}] -> {callee_name} \
                                             [{}:{}] -> acquire {b_name}",
                                            paths[file], a.line, paths[file], site.line
                                        ),
                                        allowed: false,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn graph(src: &str) -> (CallGraph, Vec<Vec<Token>>) {
        let tokens = lex(src);
        let defs = parse(&tokens, 0).fns;
        let files = vec![tokens];
        let g = CallGraph::build(&files, defs);
        (g, files)
    }

    fn lock_cfg() -> LockOrderConfig {
        LockOrderConfig {
            classes: vec![
                LockClass {
                    name: "a.lock".into(),
                    file_substr: "".into(),
                    recv_substr: "a_mutex".into(),
                },
                LockClass {
                    name: "b.lock".into(),
                    file_substr: "".into(),
                    recv_substr: "b_mutex".into(),
                },
            ],
            order: vec!["a.lock".into(), "b.lock".into()],
        }
    }

    #[test]
    fn panic_reachable_from_root_with_witness() {
        let (g, _) = graph(
            "fn root() { middle(); }\n\
             fn middle() { leaf(); }\n\
             fn leaf(x: Option<u8>) { x.unwrap(); }",
        );
        let paths = vec!["src/a.rs".to_string()];
        let roots = g.roots("root");
        let pred = reach(&g, &roots, &|_| false);
        let leaf = g.roots("leaf")[0];
        assert!(pred.contains_key(&leaf));
        let site = g.fns[leaf]
            .sites
            .iter()
            .find(|s| panic_site(s).is_some())
            .unwrap();
        assert_eq!(site.name, "unwrap");
        let chain = witness_chain(&g, &pred, leaf, &paths);
        assert_eq!(chain, "root -> middle [src/a.rs:1] -> leaf [src/a.rs:2]");
    }

    #[test]
    fn unreachable_panic_not_in_reach_set() {
        let (g, _) =
            graph("fn root() { safe(); }\nfn safe() {}\nfn dead(x: Option<u8>) { x.unwrap(); }");
        let pred = reach(&g, &g.roots("root"), &|_| false);
        assert!(!pred.contains_key(&g.roots("dead")[0]));
    }

    #[test]
    fn skip_prunes_traversal() {
        let (g, _) =
            graph("fn root() { setup(); }\nfn setup() { helper(); }\nfn helper() { vec![1]; }");
        let setup = g.roots("setup")[0];
        let pred = reach(&g, &g.roots("root"), &|f| f == setup);
        assert!(!pred.contains_key(&g.roots("helper")[0]));
    }

    #[test]
    fn alloc_patterns_match() {
        let (g, _) =
            graph("fn f() { let v = Vec::with_capacity(8); let s = format!(\"x\"); q.push(1); }");
        let descs: Vec<String> = g.fns[0].sites.iter().filter_map(alloc_site).collect();
        assert!(descs.iter().any(|d| d == "Vec::with_capacity"));
        assert!(descs.iter().any(|d| d == "format!"));
        assert!(descs.iter().any(|d| d.contains("push")));
    }

    #[test]
    fn blocking_patterns_match_but_not_bounded_recv() {
        let (g, _) =
            graph("fn f() { std::fs::read(\"x\"); rx.recv(); rx.recv_timeout(d); w.flush(); }");
        let descs: Vec<String> = g.fns[0].sites.iter().filter_map(blocking_site).collect();
        assert!(descs.iter().any(|d| d.contains("fs::read")));
        assert!(descs.iter().any(|d| d.contains(".recv()")));
        assert!(descs.iter().any(|d| d.contains(".flush()")));
        assert_eq!(
            descs.iter().filter(|d| d.contains("recv")).count(),
            1,
            "recv_timeout is bounded and must not be flagged"
        );
    }

    #[test]
    fn lock_inversion_detected() {
        let (g, files) = graph(
            "fn bad() {\n\
                 let gb = b_mutex.lock();\n\
                 let ga = a_mutex.lock();\n\
             }",
        );
        let paths = vec!["src/locks.rs".to_string()];
        let f = lock_order_findings(&g, &lock_cfg(), &paths, &files);
        assert!(
            f.iter().any(|x| x.message.contains("inversion")),
            "expected inversion, got: {f:?}"
        );
    }

    #[test]
    fn declared_order_is_clean() {
        let (g, files) = graph(
            "fn good() {\n\
                 let ga = a_mutex.lock();\n\
                 let gb = b_mutex.lock();\n\
             }",
        );
        let paths = vec!["src/locks.rs".to_string()];
        let f = lock_order_findings(&g, &lock_cfg(), &paths, &files);
        assert!(f.is_empty(), "declared order must be clean, got: {f:?}");
    }

    #[test]
    fn drop_releases_guard_before_next_acquire() {
        let (g, files) = graph(
            "fn ok() {\n\
                 let gb = b_mutex.lock();\n\
                 drop(gb);\n\
                 let ga = a_mutex.lock();\n\
             }",
        );
        let paths = vec!["src/locks.rs".to_string()];
        let f = lock_order_findings(&g, &lock_cfg(), &paths, &files);
        assert!(f.is_empty(), "drop() must end the extent, got: {f:?}");
    }

    #[test]
    fn if_let_upgrade_pattern_is_legal() {
        // Read-then-write upgrade: the `if let` guard dies with the
        // conditional's block chain, so re-acquiring the same class
        // afterwards is not a nesting violation.
        let (g, files) = graph(
            "fn upgrade() {\n\
                 if let Ok(m) = a_mutex.read() {\n\
                     return;\n\
                 } else {\n\
                     noop();\n\
                 }\n\
                 let mut m = a_mutex.write();\n\
             }\n\
             fn noop() {}",
        );
        let paths = vec!["src/locks.rs".to_string()];
        let f = lock_order_findings(&g, &lock_cfg(), &paths, &files);
        assert!(
            f.is_empty(),
            "if-let guard must end with the chain, got: {f:?}"
        );
    }

    #[test]
    fn if_let_guard_held_inside_block_still_flagged() {
        // Inside the conditional's body the guard IS held: nesting the
        // other class in the wrong order there must still be caught.
        let (g, files) = graph(
            "fn bad() {\n\
                 if let Ok(m) = b_mutex.lock() {\n\
                     let ga = a_mutex.lock();\n\
                 }\n\
             }",
        );
        let paths = vec!["src/locks.rs".to_string()];
        let f = lock_order_findings(&g, &lock_cfg(), &paths, &files);
        assert!(
            f.iter().any(|x| x.message.contains("inversion")),
            "nested acquire inside if-let body must be flagged, got: {f:?}"
        );
    }

    #[test]
    fn block_scope_ends_guard() {
        let (g, files) = graph(
            "fn ok() {\n\
                 { let gb = b_mutex.lock(); }\n\
                 let ga = a_mutex.lock();\n\
             }",
        );
        let paths = vec!["src/locks.rs".to_string()];
        let f = lock_order_findings(&g, &lock_cfg(), &paths, &files);
        assert!(f.is_empty(), "block close must end the extent, got: {f:?}");
    }

    #[test]
    fn lock_held_across_io_detected() {
        let (g, files) = graph(
            "fn flushes() {\n\
                 let ga = a_mutex.lock();\n\
                 file.sync_all();\n\
             }",
        );
        let paths = vec!["src/locks.rs".to_string()];
        let f = lock_order_findings(&g, &lock_cfg(), &paths, &files);
        assert!(
            f.iter().any(|x| x.message.contains("held across")),
            "expected held-across-io, got: {f:?}"
        );
    }

    #[test]
    fn transitive_io_under_lock_detected() {
        let (g, files) = graph(
            "fn do_io() { std::fs::write(\"p\", b\"x\"); }\n\
             fn locks_then_calls() {\n\
                 let ga = a_mutex.lock();\n\
                 do_io();\n\
             }",
        );
        let paths = vec!["src/locks.rs".to_string()];
        let f = lock_order_findings(&g, &lock_cfg(), &paths, &files);
        assert!(
            f.iter().any(|x| x.message.contains("do_io")),
            "expected transitive io finding, got: {f:?}"
        );
    }

    #[test]
    fn same_class_nesting_detected() {
        let (g, files) = graph(
            "fn double() {\n\
                 let g1 = a_mutex.lock();\n\
                 let g2 = a_mutex.lock();\n\
             }",
        );
        let paths = vec!["src/locks.rs".to_string()];
        let f = lock_order_findings(&g, &lock_cfg(), &paths, &files);
        assert!(
            f.iter().any(|x| x.message.contains("same class")),
            "expected same-class nesting, got: {f:?}"
        );
    }
}
