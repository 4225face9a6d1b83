//! Source-walking and expression-scan machinery for the determinism
//! lint (`cargo xtask lint`, [`crate::rules`]): which files the gate
//! scans, and how it recovers the expression to the left of a cast.

use std::path::{Path, PathBuf};

/// Crates whose code runs inside (or builds the state of) the
/// discrete-event simulation: the determinism rules apply to their
/// sources, tests included.
pub const SIM_REACHABLE_CRATES: &[&str] = &[
    "sim", "overlay", "grid", "workload", "metrics", "jsdl", "trace", "core", "probe", "model",
    "scenarios", "codec",
];

/// Top-level directories compiled into sim-reachable test/example
/// targets (they live outside `crates/` but drive the same worlds).
pub const SIM_REACHABLE_DIRS: &[&str] = &["tests", "examples"];

/// Workspace crates exempt from the determinism rules (but not from the
/// attribute check): `bench` times wall-clock throughput by design,
/// `xtask` is this tool, and `node` is the live I/O layer — the one
/// crate whose whole job is the sockets and clocks the io-purity rule
/// bans everywhere else. `vendor/*` members (offline stand-ins for
/// external crates) are exempt wholesale.
pub const EXEMPT_CRATES: &[&str] = &["bench", "xtask", "node"];

/// Directory names never descended into while collecting sources:
/// build output and the vendored dependency stand-ins.
pub const SKIP_DIRS: &[&str] = &["target", "vendor"];

/// Locates the workspace root: the nearest ancestor of the current
/// directory (or of this crate's manifest) containing a top-level
/// `Cargo.toml` with a `[workspace]` table.
pub fn workspace_root() -> PathBuf {
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::current_dir().expect("current dir"));
    let mut dir = start.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).unwrap_or_default();
            if text.contains("[workspace]") {
                return dir.to_path_buf();
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => panic!("no workspace root above {}", start.display()),
        }
    }
}

/// Every `.rs` file the determinism rules apply to, in sorted order.
pub fn sim_reachable_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for name in SIM_REACHABLE_CRATES {
        collect_rs(&root.join("crates").join(name), &mut files);
    }
    for dir in SIM_REACHABLE_DIRS {
        collect_rs(&root.join(dir), &mut files);
    }
    files.sort();
    files
}

/// The crate-root source of every workspace member (crates/* and
/// vendor/*), plus every `crates/*/src/bin/*.rs` binary root, in
/// sorted order.
pub fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = Vec::new();
    for group in ["crates", "vendor"] {
        let Ok(entries) = std::fs::read_dir(root.join(group)) else { continue };
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            for candidate in [src.join("lib.rs"), src.join("main.rs")] {
                if candidate.is_file() {
                    roots.push(candidate);
                    break;
                }
            }
            if group == "crates" {
                let Ok(bins) = std::fs::read_dir(src.join("bin")) else { continue };
                roots.extend(
                    bins.flatten()
                        .map(|bin| bin.path())
                        .filter(|path| path.extension().is_some_and(|e| e == "rs")),
                );
            }
        }
    }
    roots.sort();
    roots
}

/// Recursively collects `.rs` files under `dir` (sorted traversal),
/// explicitly skipping [`SKIP_DIRS`] (`target/` build output and
/// `vendor/` stand-ins) at every level.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Recovers the start of the expression ending at byte offset `at` in a
/// code line by a backward scan balanced over `()[]{}`: the scan stops
/// at a top-level `;`, `,`, `=` or an unmatched opening bracket.
///
/// This is how the lossy-cast rule recovers `(q * len as f64).ceil()`
/// from `… as usize`.
pub fn expr_start(code: &str, at: usize) -> usize {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    let mut start = at;
    while start > 0 {
        let c = bytes[start - 1] as char;
        match c {
            ')' | ']' | '}' => depth += 1,
            '(' | '[' | '{' if depth == 0 => break,
            '(' | '[' | '{' => depth -= 1,
            ';' | ',' | '=' if depth == 0 => break,
            _ => {}
        }
        start -= 1;
    }
    start
}

/// The crate directories actually present under `crates/`, sorted —
/// i.e. the workspace members the root manifest's `crates/*` glob
/// expands to. Used by the coverage test below to prove the
/// sim-reachable set tracks the workspace exactly.
pub fn workspace_crates(root: &Path) -> Vec<String> {
    let mut names = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() && path.join("Cargo.toml").is_file() {
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    names.push(name.to_string());
                }
            }
        }
    }
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sim-reachable crate set plus the exempt crates must be
    /// exactly the workspace members the `crates/*` glob claims — a new
    /// crate cannot silently land outside both lists, and a deleted
    /// crate cannot haunt the scan. `vendor/*` stays out by
    /// construction ([`SKIP_DIRS`]).
    #[test]
    fn sim_reachable_set_matches_workspace_members() {
        let root = workspace_root();
        let members = workspace_crates(&root);
        assert!(!members.is_empty(), "no crates under {}", root.display());
        let mut covered: Vec<String> = SIM_REACHABLE_CRATES
            .iter()
            .chain(EXEMPT_CRATES)
            .map(|s| s.to_string())
            .collect();
        covered.sort();
        assert_eq!(
            covered, members,
            "SIM_REACHABLE_CRATES + EXEMPT_CRATES must equal the crates/* members; \
             update crates/xtask/src/source.rs when adding or removing a crate"
        );
    }

    /// The hygiene-attribute check reaches every crate: each `crates/*`
    /// member contributes at least one checked root, and binary roots
    /// under `src/bin/` are checked alongside `lib.rs`/`main.rs`.
    #[test]
    fn every_member_and_binary_root_is_attribute_checked() {
        let root = workspace_root();
        let roots = crate_roots(&root);
        for name in workspace_crates(&root) {
            assert!(
                roots.iter().any(|p| p.starts_with(root.join("crates").join(&name))),
                "crate `{name}` contributes no root to the attribute check"
            );
        }
        let node_bin = root.join("crates/node/src/bin/aria-node.rs");
        assert!(roots.contains(&node_bin), "{} is not checked", node_bin.display());
    }

    /// `lint --list` and the scan itself agree because both call
    /// [`sim_reachable_sources`]; this pins that no listed file comes
    /// from a skipped directory and every sim-reachable crate
    /// contributes at least its crate root.
    #[test]
    fn scanned_files_never_come_from_target_or_vendor() {
        let root = workspace_root();
        let sources = sim_reachable_sources(&root);
        assert!(!sources.is_empty());
        for path in &sources {
            let rel = path.strip_prefix(&root).unwrap_or(path);
            for part in rel.components() {
                let name = part.as_os_str().to_str().unwrap_or("");
                assert!(
                    !SKIP_DIRS.contains(&name),
                    "scanned file {} lives under a skipped directory",
                    rel.display()
                );
            }
        }
        for name in SIM_REACHABLE_CRATES {
            assert!(
                sources.iter().any(|p| p.starts_with(root.join("crates").join(name))),
                "crate `{name}` contributes no files to the scan"
            );
        }
    }

    #[test]
    fn expr_start_recovers_balanced_expressions() {
        let code = "let n = (x * 2.0).round() as u64;";
        let at = code.find(" as ").unwrap();
        assert_eq!(&code[expr_start(code, at)..at], " (x * 2.0).round()");
        let code = "f(a, (b + c).exp() as u32)";
        let at = code.find(" as ").unwrap();
        assert_eq!(&code[expr_start(code, at)..at], " (b + c).exp()");
    }
}
