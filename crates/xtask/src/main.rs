//! Workspace automation (`cargo xtask <command>`).
//!
//! Three commands:
//!
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
//! The determinism gate is not a command: it is the workspace lint
//! configuration (`[workspace.lints]` in the root manifest plus
//! `clippy.toml`), enforced by `cargo clippy` and DESIGN.md §8.
//!
//! ```text
//! cargo xtask explore --nodes 4     # enumerate a 4-node world's orderings
//! cargo xtask explore --self-check  # prove the checker still catches violations
//! cargo xtask probe run --scenario iMixed --scale 40 80 --out t.jsonl
//! cargo xtask probe diff a.jsonl b.jsonl
//! cargo xtask chaos --schedules 20  # randomized fault schedules, audited
//! cargo xtask chaos --self-check    # prove the shrinker on a planted violation
//! ```

mod chaos;
mod explore;
mod probe;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explore") => explore::run(&args[1..]),
        Some("probe") => probe::run(&args[1..]),
        Some("chaos") => chaos::run(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask <explore [flags] | probe <cmd> | chaos [flags]>");
            ExitCode::FAILURE
        }
    }
}

/// Parses the value that follows `flag` on the command line.
fn flag_value<T>(flag: &str, what: &str, value: Option<&String>) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag} {what}: {e}"))
}
