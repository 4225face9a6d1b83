//! The determinism & hygiene rules and the engine that applies them.
//!
//! Simulation results must be a pure function of `(config, seed)`
//! (DESIGN.md §8): the golden fingerprint test pins runs bit-for-bit, and
//! these rules statically refuse the usual ways that property gets broken
//! — iteration over randomized-layout collections, wall-clock reads and
//! ambient RNG. The same bans are mirrored in `clippy.toml`
//! (`disallowed-types`/`disallowed-methods`) so `cargo clippy` and
//! `cargo xtask lint` always agree; this pass exists so the gate runs in
//! seconds, needs no type information, and covers things clippy's config
//! cannot express (required crate attributes, reduction heuristics,
//! reason-carrying allowlists).

use crate::scan::{contains_word, split_channels, Line};
use crate::source::expr_start;

/// A lint diagnostic pointing at one source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line number (0 for whole-file diagnostics).
    pub line: usize,
    /// Rule identifier (the name `det:allow(...)` takes).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// A pattern-based determinism rule.
struct Rule {
    /// Identifier used in diagnostics and `det:allow(<name>)` markers.
    name: &'static str,
    /// Word-boundary patterns that trigger the rule.
    patterns: &'static [&'static str],
    /// Why the construct is forbidden in sim-reachable code.
    why: &'static str,
}

/// The determinism rules applied to sim-reachable sources.
const RULES: &[Rule] = &[
    Rule {
        name: "hash-collections",
        patterns: &["HashMap", "HashSet", "hash_map", "hash_set", "DefaultHasher", "RandomState"],
        why: "randomized-layout collection: iteration order varies per process; \
              use BTreeMap/BTreeSet (or a dense Vec table) so seeded runs replay bit-for-bit",
    },
    Rule {
        name: "wall-clock",
        patterns: &["Instant", "SystemTime"],
        why: "wall-clock read: simulated time must come from the event queue (SimTime), \
              never from the host clock",
    },
    Rule {
        name: "ambient-rng",
        patterns: &["thread_rng", "ThreadRng", "from_entropy", "OsRng", "getrandom"],
        why: "ambient randomness: every draw must come from a SimRng forked from the run seed",
    },
    Rule {
        name: "thread-spawn",
        patterns: &["thread::spawn", "ThreadPool", "threadpool", "rayon"],
        why: "ambient threading: free-running threads and global pools make scheduling \
              nondeterministic and oversubscribe cores; use scoped threads (std::thread::scope) \
              drawing worker permits from aria_sim::pool, as the multi-seed runner does",
    },
    Rule {
        name: "io-purity",
        patterns: &[
            "tokio",
            "async_std",
            "std::net",
            "UdpSocket",
            "TcpStream",
            "TcpListener",
            "SocketAddr",
            "mio",
        ],
        why: "live I/O reachable from sans-io code: sockets and async runtimes belong \
              exclusively to crates/node (the exempt live layer); protocol code talks to \
              the world only through driver Inputs/Outputs, so the simulator and the live \
              node are guaranteed to replay the same decision kernels",
    },
    Rule {
        name: "float-ord",
        patterns: &["partial_cmp"],
        why: "partial float ordering: `partial_cmp(..).unwrap()` panics on NaN and silently \
              reorders under refactoring; use `total_cmp` or an integer sort key",
    },
];

/// The allowlist marker: `det:allow(<rule>): <reason>` in a comment on
/// the flagged line or the line directly above it.
const ALLOW_MARKER: &str = "det:allow(";

/// The attributes every workspace crate root must carry.
pub const REQUIRED_CRATE_ATTRS: &[&str] = &["#![forbid(unsafe_code)]", "#![deny(rust_2018_idioms)]"];

/// Whether `line` (or the one before it) carries an allow marker for
/// `rule`.
fn allowed(lines: &[Line], index: usize, rule: &str) -> bool {
    let marker = format!("{ALLOW_MARKER}{rule})");
    let here = &lines[index].comment;
    if here.contains(&marker) {
        return true;
    }
    index > 0 && lines[index - 1].comment.contains(&marker)
}

/// Applies the determinism rules to one sim-reachable source file.
pub fn check_determinism(path: &str, source: &str) -> Vec<Diagnostic> {
    let lines = split_channels(source);
    let mut diagnostics = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        for rule in RULES {
            let hit = rule.patterns.iter().find(|p| contains_word(&line.code, p));
            if let Some(pattern) = hit {
                if !allowed(&lines, i, rule.name) {
                    diagnostics.push(Diagnostic {
                        path: path.to_string(),
                        line: line.number,
                        rule: rule.name,
                        message: format!("`{pattern}` is forbidden here: {}", rule.why),
                    });
                }
            }
        }
        // Float reductions over unordered iterators: summing f32/f64 out
        // of a hash collection is order-dependent even when every element
        // is visited. The hash ban above already removes the source, but
        // an allowlisted map does NOT allowlist reducing over it — this
        // fires independently and needs its own `det:allow`.
        let reduces = ["sum", "product", "fold"].iter().any(|m| {
            line.code.contains(&format!(".{m}(")) || line.code.contains(&format!(".{m}::<"))
        });
        let floaty = line.code.contains("f64") || line.code.contains("f32");
        let unordered = ["HashMap", "HashSet"].iter().any(|p| contains_word(&line.code, p));
        if reduces && floaty && unordered && !allowed(&lines, i, "unordered-reduction") {
            diagnostics.push(Diagnostic {
                path: path.to_string(),
                line: line.number,
                rule: "unordered-reduction",
                message: "float reduction over an unordered iterator: the result depends on \
                          hash iteration order; collect and sort (or use an ordered map) first"
                    .to_string(),
            });
        }
        // Sorting on float keys: even NaN-free, a float sort key couples
        // the order (and therefore every downstream tie-break) to rounding
        // that changes under refactoring; require integer keys. Word-level
        // `f64`/`f32` on a sorting line is the heuristic.
        let sorts = ["sort_by", "sort_by_key", "sort_by_cached_key", "max_by_key", "min_by_key"]
            .iter()
            .any(|m| line.code.contains(&format!(".{m}(")));
        let float_words = contains_word(&line.code, "f64") || contains_word(&line.code, "f32");
        if sorts && float_words && !allowed(&lines, i, "float-ord") {
            diagnostics.push(Diagnostic {
                path: path.to_string(),
                line: line.number,
                rule: "float-ord",
                message: "float sort key: ordering ties to rounding behaviour; map to an \
                          integer key (e.g. millis) or use `total_cmp` deliberately"
                    .to_string(),
            });
        }
        // Lossy float→integer `as` casts: `as` saturates/truncates
        // silently, so a drifting float produces a silently different
        // integer — and therefore a different schedule — between runs of
        // refactored code. Sites that are genuinely safe (floor of a
        // bounded non-negative value, plot buckets) carry a reasoned
        // `det:allow(lossy-float-cast)`.
        if lossy_float_cast(&line.code) && !allowed(&lines, i, "lossy-float-cast") {
            diagnostics.push(Diagnostic {
                path: path.to_string(),
                line: line.number,
                rule: "lossy-float-cast",
                message: "float expression cast to an integer with `as`: truncation and \
                          saturation are silent; use `try_from` on a checked round, keep the \
                          value integral, or justify with `det:allow(lossy-float-cast)`"
                    .to_string(),
            });
        }
    }
    diagnostics
}

/// Integer types a float expression must not be `as`-cast into.
const INT_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Float methods whose presence marks the casted expression as float-valued.
const FLOAT_METHODS: &[&str] = &[
    ".ceil(", ".floor(", ".round(", ".trunc(", ".sqrt(", ".exp(", ".ln(", ".powf(", ".powi(",
];

/// Detects a lossy float→integer cast on one code line.
///
/// For every `as <int-type>` the expression to the left of the `as` is
/// recovered with [`expr_start`] (the shared backward scan balanced over
/// `()[]{}`, stopping at a top-level `;`, `,`, `=` or an unmatched
/// opening bracket). The cast is flagged when that expression shows
/// float evidence: an `f64`/`f32` token, a float literal (`2.0`), or a
/// float-typed method call. Pure integer casts (`len() as u64`,
/// `slack as u64`) never match.
fn lossy_float_cast(code: &str) -> bool {
    let mut search = 0;
    while let Some(pos) = code[search..].find(" as ") {
        let at = search + pos;
        search = at + 4;
        let rest = &code[at + 4..];
        let target: String =
            rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
        if !INT_TARGETS.contains(&target.as_str()) {
            continue;
        }
        let expr = &code[expr_start(code, at)..at];
        let literal = expr.as_bytes().windows(3).any(|w| {
            w[1] == b'.' && w[0].is_ascii_digit() && w[2].is_ascii_digit()
        });
        if contains_word(expr, "f64")
            || contains_word(expr, "f32")
            || literal
            || FLOAT_METHODS.iter().any(|m| expr.contains(m))
        {
            return true;
        }
    }
    false
}

/// Checks that a crate root source carries the required hygiene
/// attributes ([`REQUIRED_CRATE_ATTRS`]).
pub fn check_crate_attrs(path: &str, source: &str) -> Vec<Diagnostic> {
    let lines = split_channels(source);
    let code: String = lines.iter().map(|l| l.code.as_str()).collect::<Vec<_>>().join("\n");
    let compact: String = code.chars().filter(|c| !c.is_whitespace()).collect();
    REQUIRED_CRATE_ATTRS
        .iter()
        .filter(|attr| {
            let want: String = attr.chars().filter(|c| !c.is_whitespace()).collect();
            !compact.contains(&want)
        })
        .map(|attr| Diagnostic {
            path: path.to_string(),
            line: 1,
            rule: "crate-attrs",
            message: format!("crate root is missing `{attr}`"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(source: &str) -> Vec<&'static str> {
        check_determinism("test.rs", source).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn hash_collections_are_flagged_with_location() {
        let diags = check_determinism("a/b.rs", "use std::collections::HashMap;\nlet x = 1;\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "hash-collections");
        assert_eq!((diags[0].path.as_str(), diags[0].line), ("a/b.rs", 1));
        assert!(diags[0].to_string().starts_with("a/b.rs:1: [hash-collections]"));
    }

    #[test]
    fn wall_clock_and_rng_are_flagged() {
        assert_eq!(
            rules_hit("let t = Instant::now();\nlet r = thread_rng();\n"),
            ["wall-clock", "ambient-rng"]
        );
        assert_eq!(rules_hit("let t = SystemTime::now();"), ["wall-clock"]);
    }

    #[test]
    fn sim_types_do_not_trip_the_wall_clock_rule() {
        assert!(rules_hit("let t: SimTime = world.now(); let i = SimInstant::ZERO;").is_empty());
    }

    #[test]
    fn ambient_thread_spawns_are_flagged() {
        assert_eq!(rules_hit("let h = std::thread::spawn(move || work());"), ["thread-spawn"]);
        assert_eq!(rules_hit("let pool = ThreadPool::new(8);"), ["thread-spawn"]);
        assert_eq!(rules_hit("rayon::join(a, b);"), ["thread-spawn"]);
    }

    #[test]
    fn live_io_is_flagged_in_sans_io_code() {
        assert_eq!(rules_hit("use std::net::UdpSocket;"), ["io-purity"]);
        assert_eq!(rules_hit("let addr: SocketAddr = s.parse()?;"), ["io-purity"]);
        assert_eq!(rules_hit("tokio::spawn(async move { serve().await });"), ["io-purity"]);
        assert_eq!(rules_hit("let l = TcpListener::bind(addr)?;"), ["io-purity"]);
    }

    #[test]
    fn driver_vocabulary_does_not_trip_the_io_rule() {
        // The sans-io driver talks *about* the network without touching
        // it: message/peer vocabulary must stay lint-clean.
        let clean = "let out = driver.handle(now, Input::Msg { from, msg });\n\
                     let peers: Vec<NodeId> = overlay.neighbors(id);\n\
                     out.push(Output::Send { to, msg });\n";
        assert!(rules_hit(clean).is_empty());
    }

    #[test]
    fn scoped_threads_do_not_trip_the_spawn_rule() {
        let scoped = "std::thread::scope(|scope| {\n    let h = scope.spawn(move || work());\n});\n";
        assert!(rules_hit(scoped).is_empty());
        assert!(rules_hit("let threads = pool::reserve(want);").is_empty());
    }

    #[test]
    fn patterns_in_strings_and_comments_are_ignored() {
        let src = "// a HashMap would be wrong here\nlet s = \"HashMap\"; /* Instant */\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn allow_marker_on_same_or_previous_line_suppresses() {
        let same = "let m = HashMap::new(); // det:allow(hash-collections): build-time only\n";
        assert!(rules_hit(same).is_empty());
        let prev = "// det:allow(hash-collections): build-time only\nlet m = HashMap::new();\n";
        assert!(rules_hit(prev).is_empty());
        let wrong_rule = "// det:allow(wall-clock): nope\nlet m = HashMap::new();\n";
        assert_eq!(rules_hit(wrong_rule), ["hash-collections"]);
    }

    #[test]
    fn allow_does_not_leak_past_one_line() {
        let src = "// det:allow(hash-collections): first only\nlet a = HashMap::new();\nlet b = HashMap::new();\n";
        let diags = check_determinism("t.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn unordered_float_reduction_fires_independently_of_the_type_ban() {
        // Allowlisting the map does not allowlist reducing over it.
        let src = "// det:allow(hash-collections): cache\n\
                   let s: f64 = cache.iter().map(HashMap::len).sum::<f64>();\n";
        assert_eq!(rules_hit(src), ["unordered-reduction"]);
    }

    #[test]
    fn ordered_float_reductions_are_fine() {
        assert!(rules_hit("let s: f64 = xs.iter().sum();").is_empty());
    }

    #[test]
    fn partial_cmp_and_float_sort_keys_are_flagged() {
        assert_eq!(rules_hit("xs.sort_by(|a, b| a.partial_cmp(b).unwrap());"), ["float-ord"]);
        assert_eq!(rules_hit("xs.sort_by_key(|x| x.cost as f64 / x.n as f64);"), ["float-ord"]);
        assert!(rules_hit("let w = items.min_by_key(|i| i.weight);").is_empty());
    }

    #[test]
    fn integer_sort_keys_and_total_cmp_are_fine() {
        assert!(rules_hit("keyed.sort_by_key(|&(key, id)| (key, id));").is_empty());
        assert!(rules_hit("xs.sort_by(|a, b| a.total_cmp(b));").is_empty());
    }

    #[test]
    fn lossy_float_casts_are_flagged() {
        assert_eq!(rules_hit("let n = (x * 2.0).round() as u64;"), ["lossy-float-cast"]);
        assert_eq!(rules_hit("let r = (q * len as f64).ceil() as usize;"), ["lossy-float-cast"]);
        assert_eq!(rules_hit("let b = rng.f64_range(lo, hi).exp() as u32;"), ["lossy-float-cast"]);
    }

    #[test]
    fn integer_only_casts_are_fine() {
        for clean in [
            "let idx = (t.as_millis() / period.as_millis()) as usize;",
            "let wide = spec.min_memory_gb as u64 * GIB;",
            "self.bounded(len as u64) as usize",
            "let d = self.0 as i64 - other.0 as i64;",
            "let id = NodeId::new(rng.u64_range(0, topo.len() as u64) as u32);",
            "let f = count as f64 / total as f64;",
        ] {
            assert_eq!(rules_hit(clean), [] as [&str; 0], "false positive on: {clean}");
        }
    }

    #[test]
    fn lossy_cast_allow_marker_suppresses() {
        let src = "// det:allow(lossy-float-cast): floor of a bounded mean\n\
                   let n = plan.mean.floor() as u64;\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn crate_attr_check_reports_missing_attrs() {
        let missing = check_crate_attrs("crates/x/src/lib.rs", "//! docs\npub fn f() {}\n");
        assert_eq!(missing.len(), 2);
        assert!(missing.iter().all(|d| d.rule == "crate-attrs"));
        let present = "#![forbid(unsafe_code)]\n#![deny(rust_2018_idioms)]\npub fn f() {}\n";
        assert!(check_crate_attrs("x.rs", present).is_empty());
    }

    #[test]
    fn crate_attrs_in_comments_do_not_count() {
        let fake = "// #![forbid(unsafe_code)]\n/* #![deny(rust_2018_idioms)] */\n";
        assert_eq!(check_crate_attrs("x.rs", fake).len(), 2);
    }
}
