//! Workspace automation (`cargo xtask <command>`).
//!
//! Four commands:
//!
//! * `lint` — the determinism & protocol-hygiene gate described in
//!   DESIGN.md §8. It walks the sim-reachable sources with a
//!   dependency-free lexer (the build has no registry access, so no
//!   `syn`), applies the rules in [`rules`], checks every crate root for
//!   the mandatory hygiene attributes, and exits non-zero with
//!   `file:line` diagnostics on any violation.
//! * `explore` — bounded exhaustive exploration of the ARiA message
//!   state machine over every delivery ordering of a small world (see
//!   [`explore`] and `crates/model`).
//! * `probe` — run scenarios with the observability probe attached and
//!   inspect or diff the exported traces (see [`probe`] and
//!   `crates/probe`).
//! * `chaos` — randomized transport-fault schedules (loss, duplicates,
//!   jitter, partitions) under full invariant auditing plus a
//!   job-conservation oracle, shrinking any failing schedule to a
//!   minimal replayable fault list (see [`chaos`] and DESIGN.md §11).
//!
//! ```text
//! cargo xtask lint                  # gate the workspace
//! cargo xtask lint --self-check     # prove the gate still catches seeded violations
//! cargo xtask lint --list           # print the files the gate scans
//! cargo xtask explore --nodes 4     # enumerate a 4-node world's orderings
//! cargo xtask explore --self-check  # prove the checker still catches violations
//! cargo xtask probe run --scenario iMixed --scale 40 80 --out t.jsonl
//! cargo xtask probe diff a.jsonl b.jsonl
//! cargo xtask chaos --schedules 20  # randomized fault schedules, audited
//! cargo xtask chaos --self-check    # prove the shrinker on a planted violation
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

mod chaos;
mod explore;
mod probe;
mod rules;
mod scan;
mod source;

use rules::Diagnostic;
use source::{crate_roots, sim_reachable_sources, workspace_root};
use std::path::Path;
use std::process::ExitCode;

/// Printed alongside a clean lint run so the exemption story stays
/// visible (the authoritative list lives in [`source::EXEMPT_CRATES`]).
const EXEMPT_NOTE: &str = "crates/bench, crates/xtask, crates/node and vendor/* are exempt \
                           from determinism rules (wall-clock timing and live I/O are their \
                           job; crates/node is the sole holder of the io-purity surface)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            if args.iter().any(|a| a == "--self-check") {
                self_check_gate()
            } else if args.iter().any(|a| a == "--list") {
                list_scanned(&workspace_root())
            } else {
                lint(&workspace_root())
            }
        }
        Some("explore") => explore::run(&args[1..]),
        Some("probe") => probe::run(&args[1..]),
        Some("chaos") => chaos::run(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask <lint [--self-check|--list] \
                 | explore [flags] | probe <cmd> | chaos [flags]>"
            );
            ExitCode::FAILURE
        }
    }
}

/// Runs the full gate over the workspace at `root`.
fn lint(root: &Path) -> ExitCode {
    let mut diagnostics = Vec::new();
    let mut files = 0usize;

    // 1. Determinism rules over every sim-reachable source file.
    for source in sim_reachable_sources(root) {
        let rel = source.strip_prefix(root).unwrap_or(&source).display().to_string();
        let text = match std::fs::read_to_string(&source) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("xtask lint: cannot read {rel}: {err}");
                return ExitCode::FAILURE;
            }
        };
        files += 1;
        diagnostics.extend(rules::check_determinism(&rel, &text));
    }

    // 2. Mandatory hygiene attributes on every crate root (including the
    //    exempt crates: `forbid(unsafe_code)` is workspace-wide).
    let mut roots = 0usize;
    for crate_root in crate_roots(root) {
        let rel = crate_root.strip_prefix(root).unwrap_or(&crate_root).display().to_string();
        let text = std::fs::read_to_string(&crate_root).unwrap_or_default();
        roots += 1;
        diagnostics.extend(rules::check_crate_attrs(&rel, &text));
    }

    // 3. Crate-set coverage: every `crates/*` member must be either
    //    sim-reachable (scanned) or explicitly exempt — a new crate
    //    cannot silently land outside the gate.
    for member in source::workspace_crates(root) {
        if !source::SIM_REACHABLE_CRATES.contains(&member.as_str())
            && !source::EXEMPT_CRATES.contains(&member.as_str())
        {
            diagnostics.push(Diagnostic {
                path: format!("crates/{member}"),
                line: 0,
                rule: "crate-coverage",
                message: format!(
                    "crate `{member}` is neither sim-reachable nor exempt - categorize it in \
                     crates/xtask/src/source.rs"
                ),
            });
        }
    }

    report(&diagnostics);
    if diagnostics.is_empty() {
        println!(
            "xtask lint: clean — {files} sim-reachable files, {roots} crate roots checked \
             ({EXEMPT_NOTE})"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} violation(s)", diagnostics.len());
        ExitCode::FAILURE
    }
}

/// `lint --list` — prints every sim-reachable file the determinism
/// rules scan, one per line (workspace-relative). CI greps this to
/// assert that new crates (e.g. `crates/probe`) are inside the gate.
fn list_scanned(root: &Path) -> ExitCode {
    for source in sim_reachable_sources(root) {
        println!("{}", source.strip_prefix(root).unwrap_or(&source).display());
    }
    ExitCode::SUCCESS
}

fn report(diagnostics: &[Diagnostic]) {
    for d in diagnostics {
        eprintln!("{d}");
    }
}

/// Proves the gate still catches violations: runs the rule engine over
/// seeded-violation fixtures and fails if any rule has gone blind.
///
/// CI runs this next to the clean pass so a refactor of the lint itself
/// cannot silently disable a rule.
fn self_check_gate() -> ExitCode {
    // Each fixture seeds exactly one violation the named rule must catch.
    let seeded: &[(&str, &str)] = &[
        ("hash-collections", "use std::collections::HashMap;\n"),
        ("hash-collections", "let s: HashSet<u32> = HashSet::new();\n"),
        ("wall-clock", "let t = std::time::Instant::now();\n"),
        ("wall-clock", "let t = SystemTime::now();\n"),
        ("ambient-rng", "let mut rng = rand::thread_rng();\n"),
        ("thread-spawn", "let h = std::thread::spawn(move || work());\n"),
        ("thread-spawn", "let pool = ThreadPool::with_threads(8);\n"),
        ("io-purity", "use std::net::UdpSocket;\n"),
        ("io-purity", "let addr: SocketAddr = bind.parse().unwrap();\n"),
        ("io-purity", "tokio::spawn(async move { serve(listener).await });\n"),
        (
            "unordered-reduction",
            "// det:allow(hash-collections): seeded\nlet s: f64 = m.values().sum::<f64>(); let m: HashMap<u32, f64> = x;\n",
        ),
        ("float-ord", "costs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n"),
        ("float-ord", "nodes.sort_by_key(|n| n.load as f64 / n.capacity as f64);\n"),
        ("lossy-float-cast", "let n = (x * 2.0).round() as u64;\n"),
        ("lossy-float-cast", "let rank = (q * len as f64).ceil() as usize;\n"),
    ];
    let mut broken = 0;
    for (rule, fixture) in seeded {
        let diags = rules::check_determinism("<self-check>", fixture);
        if !diags.iter().any(|d| d.rule == *rule) {
            eprintln!("self-check: rule `{rule}` missed its seeded violation:\n{fixture}");
            broken += 1;
        }
    }
    // Allowlists must suppress — and only for the named rule.
    let allowed = "let m = HashMap::new(); // det:allow(hash-collections): fixture\n";
    if !rules::check_determinism("<self-check>", allowed).is_empty() {
        eprintln!("self-check: allow marker failed to suppress");
        broken += 1;
    }
    // Integer-only casts, integer sort keys and scoped worker threads
    // are fine: the float and spawn rules must not fire on them
    // (precision guard against over-matching).
    let clean = "let idx = (t.as_millis() / period.as_millis()) as usize;\n\
                 keyed.sort_by_key(|&(key, id)| (key, id));\n\
                 let wide = spec.min_memory_gb as u64 * GIB;\n\
                 std::thread::scope(|scope| { scope.spawn(move || drain(rx)); });\n";
    if !rules::check_determinism("<self-check>", clean).is_empty() {
        eprintln!("self-check: rules over-match integer-only or scoped-thread code");
        broken += 1;
    }
    // Line attribution must not drift past escaped char literals or
    // multiline string literals: a violation *after* them has to be
    // reported at its true line, and a violation *inside* a string must
    // not fire at all. (Regression fixture for the `'\\'` lexer bug that
    // left the scanner stuck in string mode.)
    let drift = "let sep = '\\\\';\nlet msg = \"multi\nline don't\nstring\";\nlet t = Instant::now();\n";
    let diags = rules::check_determinism("<self-check>", drift);
    if diags.len() != 1 || diags[0].rule != "wall-clock" || diags[0].line != 5 {
        eprintln!(
            "self-check: line attribution drifts past escaped literals / multiline strings \
             (want exactly one wall-clock violation at line 5, got {diags:?})"
        );
        broken += 1;
    }
    let raw = "let r = r#\"raw\nInstant::now()\nspan\"#;\nlet rng = rand::thread_rng();\n";
    let diags = rules::check_determinism("<self-check>", raw);
    if diags.len() != 1 || diags[0].rule != "ambient-rng" || diags[0].line != 4 {
        eprintln!(
            "self-check: raw-string contents leak into the scan or shift later lines \
             (want exactly one ambient-rng violation at line 4, got {diags:?})"
        );
        broken += 1;
    }
    // The attribute check must notice a bare crate root.
    if rules::check_crate_attrs("<self-check>", "pub fn f() {}\n").len()
        != rules::REQUIRED_CRATE_ATTRS.len()
    {
        eprintln!("self-check: crate-attrs rule missed a bare crate root");
        broken += 1;
    }
    if broken == 0 {
        println!("xtask lint --self-check: all rules catch their seeded violations");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
