//! Coverage of the determinism gate (DESIGN.md §8).
//!
//! The gate's rules live in `[workspace.lints]` and `clippy.toml`, and
//! `crates/lint-fixture` proves that each rule still fires. These tests
//! pin the two things the rules cannot see: that every member opts into
//! the lints, and that no ambient-RNG, thread-pool or async-runtime crate
//! is in the dependency graph at all.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The manifests of every `crates/*` and `vendor/*` member, sorted.
fn member_manifests(root: &Path) -> Vec<PathBuf> {
    let mut manifests = Vec::new();
    for group in ["crates", "vendor"] {
        let entries = std::fs::read_dir(root.join(group)).expect("member directory");
        manifests
            .extend(entries.flatten().map(|e| e.path().join("Cargo.toml")).filter(|p| p.is_file()));
    }
    manifests.sort();
    manifests
}

/// The lines of a TOML table, from its header to the next header.
fn table<'a>(manifest: &'a str, header: &str) -> Option<Vec<&'a str>> {
    let mut lines = manifest.lines().map(str::trim);
    lines.by_ref().find(|line| *line == header)?;
    Some(lines.take_while(|line| !line.starts_with('[')).collect())
}

/// A member without `[lints] workspace = true` builds outside every rule:
/// rustc and clippy would check it with their defaults only.
#[test]
fn every_member_opts_into_the_workspace_lints() {
    let root = workspace_root();
    let manifests = member_manifests(&root);
    for member in ["crates/core", "crates/node", "crates/lint-fixture", "vendor/proptest"] {
        assert!(
            manifests.contains(&root.join(member).join("Cargo.toml")),
            "{member} is missing from the member scan"
        );
    }
    for manifest in &manifests {
        let text = std::fs::read_to_string(manifest).expect("readable manifest");
        let lints = table(&text, "[lints]").unwrap_or_default();
        assert!(
            lints.contains(&"workspace = true"),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}

/// Crates whose presence alone breaks `(config, seed)` purity: ambient
/// random number generators, free-running thread pools and async
/// runtimes. A package whose name starts with any of these fails.
const BANNED_CRATES: &[&str] =
    &["rand", "getrandom", "fastrand", "rayon", "threadpool", "tokio", "async-std", "mio"];

#[test]
fn lockfile_names_no_ambient_rng_or_runtime_crate() {
    let lock = std::fs::read_to_string(workspace_root().join("Cargo.lock")).expect("Cargo.lock");
    let names: Vec<&str> = lock
        .lines()
        .filter_map(|line| line.strip_prefix("name = \""))
        .filter_map(|rest| rest.strip_suffix('"'))
        .collect();
    assert!(names.contains(&"aria-core"), "the lockfile scan found no packages");
    for name in names {
        assert!(
            !BANNED_CRATES.iter().any(|banned| name.starts_with(banned)),
            "Cargo.lock pulls in `{name}`; the simulation must draw randomness from SimRng \
             and threads from aria_sim::pool"
        );
    }
}
