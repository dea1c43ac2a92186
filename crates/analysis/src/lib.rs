//! Dependency-free call-graph static analysis for the TESLA workspace.
//!
//! The engine lexes every workspace source file into tokens
//! ([`lexer`]), parses function items and test-only items without
//! building a full AST ([`parser`]), resolves a conservative
//! workspace-wide call graph ([`callgraph`]), and runs interprocedural
//! rules ([`rules`]) that prove reachability properties from declared
//! roots: panic-freedom on the control path, no steady-state heap
//! allocation under `decide()`, a global lock acquisition order, and no
//! blocking calls inside the deadline-bounded decision path. The local
//! rules of `cargo xtask lint` read the same [`Workspace`] and allow
//! their findings by the same check ([`Workspace::allowed`]).
//!
//! ```
//! use tesla_analysis::{RuleConfig, Workspace, RULE_PANIC};
//!
//! let src = "fn decide() { helper(); }\n\
//!            fn helper(x: Option<u8>) { x.unwrap(); }\n";
//! let ws = Workspace::from_sources(vec![("src/lib.rs".to_string(), src.to_string())]);
//! let cfg = RuleConfig {
//!     panic_roots: vec!["decide".to_string()],
//!     ..RuleConfig::default()
//! };
//! let findings = ws.analyze(&cfg);
//! assert!(findings
//!     .iter()
//!     .any(|f| f.rule == RULE_PANIC && f.witness.contains("decide -> helper")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;

use callgraph::CallGraph;
use lexer::Token;
use parser::{FnDef, ParsedFile};
use std::collections::{BTreeMap, HashSet};

pub use rules::{
    Finding, LockClass, LockOrderConfig, RuleConfig, RULE_ALLOC, RULE_BLOCKING, RULE_LOCK,
    RULE_PANIC,
};

/// A scanned workspace: token streams, test items, and the resolved
/// call graph.
pub struct Workspace {
    /// Repo-relative path per file.
    pub paths: Vec<String>,
    /// Token stream per file.
    pub tokens: Vec<Vec<Token>>,
    /// Test-only token ranges per file (see [`ParsedFile::tests`]).
    pub tests: Vec<Vec<(usize, usize)>>,
    /// The resolved call graph over all non-test fns.
    pub graph: CallGraph,
}

/// Per-fn annotations harvested from the comment/attribute block above
/// the definition.
#[derive(Debug, Default, Clone)]
struct FnAnnotations {
    /// `// analysis:setup: reason` — excluded from the alloc traversal.
    setup: bool,
    /// Rules named by `// lint:allow(<rule>): reason` above the fn.
    allowed: Vec<String>,
}

/// The tokens of `tokens` that begin on `line`.
fn on_line(tokens: &[Token], line: u32) -> impl Iterator<Item = &Token> {
    let from = tokens.partition_point(|t| t.line < line);
    tokens[from..].iter().take_while(move |t| t.line == line)
}

impl Workspace {
    /// Lexes and parses `(path, content)` pairs — in parallel across
    /// files — and builds the call graph.
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let n = sources.len();
        let nthreads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(n.max(1));
        let chunk = n.div_ceil(nthreads.max(1)).max(1);

        let mut parsed: Vec<(Vec<Token>, ParsedFile)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (c, slice) in sources.chunks(chunk).enumerate() {
                let base = c * chunk;
                handles.push(scope.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(j, (_, content))| {
                            let tokens = lexer::lex(content);
                            let file = parser::parse(&tokens, base + j);
                            (tokens, file)
                        })
                        .collect::<Vec<_>>()
                }));
            }
            for h in handles {
                parsed.extend(h.join().expect("analysis worker thread panicked"));
            }
        });

        let paths: Vec<String> = sources.into_iter().map(|(p, _)| p).collect();
        let mut tokens = Vec::with_capacity(n);
        let mut tests = Vec::with_capacity(n);
        let mut defs = Vec::new();
        for (t, file) in parsed {
            tokens.push(t);
            tests.push(file.tests);
            defs.extend(file.fns);
        }
        let graph = CallGraph::build(&tokens, defs);
        Workspace {
            paths,
            tokens,
            tests,
            graph,
        }
    }

    /// Runs all four rules and returns deduplicated findings, sorted by
    /// rule, file, line. Allow annotations set `allowed` but never
    /// remove findings from the report.
    pub fn analyze(&self, cfg: &RuleConfig) -> Vec<Finding> {
        let annos: Vec<FnAnnotations> = (0..self.graph.fns.len())
            .map(|f| self.fn_annotations(&self.graph.fns[f].def))
            .collect();
        let setup: HashSet<usize> = annos
            .iter()
            .enumerate()
            .filter(|(_, a)| a.setup)
            .map(|(f, _)| f)
            .collect();

        let mut out: Vec<Finding> = Vec::new();
        out.extend(self.traversal_rule(
            RULE_PANIC,
            &cfg.panic_roots,
            &rules::panic_site,
            &|_| false,
            &annos,
        ));
        out.extend(self.traversal_rule(
            RULE_ALLOC,
            &cfg.alloc_roots,
            &rules::alloc_site,
            &|f| setup.contains(&f),
            &annos,
        ));
        out.extend(self.traversal_rule(
            RULE_BLOCKING,
            &cfg.blocking_roots,
            &rules::blocking_site,
            &|_| false,
            &annos,
        ));
        for mut f in rules::lock_order_findings(&self.graph, &cfg.lock, &self.paths, &self.tokens) {
            f.allowed = self.finding_allowed(&f, &annos);
            out.push(f);
        }

        // Dedup (multiple roots can reach the same site).
        let mut seen: HashSet<(String, String, u32, String)> = HashSet::new();
        out.retain(|f| {
            seen.insert((
                f.rule.to_string(),
                f.file.clone(),
                f.line,
                f.message.clone(),
            ))
        });
        out.sort_by(|a, b| {
            (a.rule, &a.file, a.line, &a.message).cmp(&(b.rule, &b.file, b.line, &b.message))
        });
        out
    }

    fn traversal_rule(
        &self,
        rule: &'static str,
        roots: &[String],
        matcher: &dyn Fn(&callgraph::Site) -> Option<String>,
        skip: &dyn Fn(usize) -> bool,
        annos: &[FnAnnotations],
    ) -> Vec<Finding> {
        let mut root_ids: Vec<usize> = Vec::new();
        for spec in roots {
            root_ids.extend(self.graph.roots(spec));
        }
        let pred = rules::reach(&self.graph, &root_ids, skip);
        let mut out = Vec::new();
        for (&f, _) in pred.iter() {
            let node = &self.graph.fns[f];
            let file = node.def.file;
            for site in &node.sites {
                let Some(desc) = matcher(site) else { continue };
                let chain = rules::witness_chain(&self.graph, &pred, f, &self.paths);
                let witness = format!("{chain} -> {desc} [{}:{}]", self.paths[file], site.line);
                let mut finding = Finding {
                    rule,
                    file: self.paths[file].clone(),
                    line: site.line,
                    message: desc,
                    witness,
                    allowed: false,
                };
                finding.allowed = self.allowed(file, site.line, rule)
                    || annos[f].allowed.iter().any(|r| r == rule)
                    || self.file_allows(file, rule);
                out.push(finding);
            }
        }
        out
    }

    /// Whether `lint:allow(<rule>)` covers `line` of `file`: in a comment
    /// on that line, or in a `//` comment that is the whole line above.
    /// The one allowlist check for every finding, lint and analysis alike.
    pub fn allowed(&self, file: usize, line: u32, rule: &str) -> bool {
        let marker = format!("lint:allow({rule})");
        let tokens = &self.tokens[file];
        let above = line > 1
            && on_line(tokens, line - 1)
                .next()
                .is_some_and(|t| t.text.starts_with("//") && t.text.contains(&marker));
        above
            || on_line(tokens, line)
                .any(|t| t.kind == lexer::TokenKind::Comment && t.text.contains(&marker))
    }

    /// How many files carry a file-level waiver for `rule`.
    pub fn file_waivers(&self, rule: &str) -> usize {
        (0..self.tokens.len())
            .filter(|&file| self.file_allows(file, rule))
            .count()
    }

    /// `// analysis:allow-file(<rule>): reason` in any `//` comment.
    fn file_allows(&self, file: usize, rule: &str) -> bool {
        let needle = format!("analysis:allow-file({rule})");
        self.tokens[file]
            .iter()
            .any(|t| t.text.starts_with("//") && t.text.contains(&needle))
    }

    /// Reads the `//` comment lines directly above a fn definition,
    /// through its attribute and `pub` lines, up to any other line.
    fn fn_annotations(&self, def: &FnDef) -> FnAnnotations {
        let mut out = FnAnnotations::default();
        let tokens = &self.tokens[def.file];
        for line in (1..def.line).rev() {
            let Some(first) = on_line(tokens, line).next() else {
                break;
            };
            if let Some(comment) = first.text.strip_prefix("//") {
                if comment.contains("analysis:setup") {
                    out.setup = true;
                }
                if let Some(pos) = comment.find("lint:allow(") {
                    let rest = &comment[pos + "lint:allow(".len()..];
                    if let Some(end) = rest.find(')') {
                        out.allowed.push(rest[..end].to_string());
                    }
                }
            } else if !(first.is_punct('#') || first.is_ident("pub")) {
                break;
            }
        }
        out
    }

    /// Allow status for a finding produced outside the traversal path
    /// (lock rule): site-level, enclosing-fn-level, or file-level.
    fn finding_allowed(&self, f: &Finding, annos: &[FnAnnotations]) -> bool {
        let Some(file) = self.paths.iter().position(|p| *p == f.file) else {
            return false;
        };
        if self.allowed(file, f.line, f.rule) || self.file_allows(file, f.rule) {
            return true;
        }
        // Enclosing fn: the definition with the greatest line <= finding
        // line in the same file.
        let mut best: Option<usize> = None;
        for (id, node) in self.graph.fns.iter().enumerate() {
            if node.def.file == file
                && node.def.line <= f.line
                && best.is_none_or(|b| self.graph.fns[b].def.line < node.def.line)
            {
                best = Some(id);
            }
        }
        best.is_some_and(|id| annos[id].allowed.iter().any(|r| r == f.rule))
    }

    /// Resolved qualified names for a root spec — used by drivers to
    /// report roots that fail to resolve (e.g. after a rename).
    pub fn resolve_root(&self, spec: &str) -> Vec<String> {
        self.graph
            .roots(spec)
            .into_iter()
            .map(|id| self.graph.fns[id].def.qualified())
            .collect()
    }
}

/// Active and allowlisted findings per rule.
#[derive(Debug, Default)]
pub struct RuleCounts {
    /// Active (non-allowed) findings per rule.
    pub active: BTreeMap<&'static str, usize>,
    /// Allowed findings per rule.
    pub allowed: BTreeMap<&'static str, usize>,
}

/// Tallies findings per rule into active/allowed counts. Every rule in
/// `rules` gets an entry, zero or not.
pub fn count_by_rule(rules: &[&'static str], findings: &[Finding]) -> RuleCounts {
    let zeros = || rules.iter().map(|&r| (r, 0)).collect();
    let mut c = RuleCounts {
        active: zeros(),
        allowed: zeros(),
    };
    for f in findings {
        let m = if f.allowed {
            &mut c.allowed
        } else {
            &mut c.active
        };
        *m.entry(f.rule).or_insert(0) += 1;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(p, c)| (p.to_string(), c.to_string()))
                .collect(),
        )
    }

    #[test]
    fn cross_file_witness_has_per_hop_locations() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "pub fn root() { crate::mid(); }\n"),
            ("crates/a/src/mid.rs", "pub fn mid() { other::leaf(9); }\n"),
            (
                "crates/b/src/lib.rs",
                "pub fn leaf(i: usize) { let v = [1, 2]; let _ = v[i]; }\n",
            ),
        ]);
        let cfg = RuleConfig {
            panic_roots: vec!["root".into()],
            ..RuleConfig::default()
        };
        let findings = w.analyze(&cfg);
        let f = findings
            .iter()
            .find(|f| f.rule == RULE_PANIC)
            .expect("index site reachable from root");
        assert!(f.witness.contains("root -> mid [crates/a/src/lib.rs:1]"));
        assert!(f.witness.contains("leaf [crates/a/src/mid.rs:1]"));
        assert!(f.witness.contains("crates/b/src/lib.rs:1"));
    }

    #[test]
    fn setup_annotation_prunes_alloc_traversal() {
        let w = ws(&[(
            "src/lib.rs",
            "pub fn decide() { warmup(); steady(); }\n\
             // analysis:setup: one-time model warmup, not steady state\n\
             fn warmup() { let v = Vec::with_capacity(64); }\n\
             fn steady() { let x = 1 + 1; }\n",
        )]);
        let cfg = RuleConfig {
            alloc_roots: vec!["decide".into()],
            ..RuleConfig::default()
        };
        let findings = w.analyze(&cfg);
        assert!(
            findings.iter().all(|f| f.rule != RULE_ALLOC),
            "setup fn must be pruned, got: {findings:?}"
        );
    }

    #[test]
    fn allow_annotations_mark_but_keep_findings() {
        let w = ws(&[(
            "src/lib.rs",
            "pub fn decide(x: Option<u8>) {\n\
                 // lint:allow(panic-free-control-path): invariant upheld by caller\n\
                 x.unwrap();\n\
             }\n",
        )]);
        let cfg = RuleConfig {
            panic_roots: vec!["decide".into()],
            ..RuleConfig::default()
        };
        let findings = w.analyze(&cfg);
        let f = findings.iter().find(|f| f.rule == RULE_PANIC).unwrap();
        assert!(f.allowed);
    }

    #[test]
    fn file_level_allow_covers_whole_file() {
        let w = ws(&[(
            "src/dense.rs",
            "// analysis:allow-file(panic-free-control-path): dense kernel, bounds proven\n\
             pub fn decide(v: &[f64]) { let _ = v[0]; }\n",
        )]);
        let cfg = RuleConfig {
            panic_roots: vec!["decide".into()],
            ..RuleConfig::default()
        };
        let findings = w.analyze(&cfg);
        assert!(findings.iter().all(|f| f.allowed), "got: {findings:?}");
        assert_eq!(w.file_waivers(RULE_PANIC), 1);
        assert_eq!(w.file_waivers(RULE_ALLOC), 0);
    }

    #[test]
    fn count_by_rule_splits_active_and_allowed() {
        let findings = vec![
            Finding {
                rule: RULE_PANIC,
                file: "a.rs".into(),
                line: 1,
                message: "x".into(),
                witness: "w".into(),
                allowed: false,
            },
            Finding {
                rule: RULE_PANIC,
                file: "a.rs".into(),
                line: 2,
                message: "y".into(),
                witness: "w".into(),
                allowed: true,
            },
        ];
        let c = count_by_rule(&[RULE_PANIC], &findings);
        assert_eq!(c.active.get(RULE_PANIC), Some(&1));
        assert_eq!(c.allowed.get(RULE_PANIC), Some(&1));
    }

    #[test]
    fn resolve_root_reports_qualified_names() {
        let w = ws(&[(
            "src/lib.rs",
            "struct C;\nimpl C { pub fn decide(&self) {} }\n",
        )]);
        assert_eq!(w.resolve_root("C::decide"), vec!["C::decide".to_string()]);
        assert!(w.resolve_root("C::step").is_empty());
    }
}
