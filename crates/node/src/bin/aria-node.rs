//! `aria-node <config.toml>` — one live ARiA grid node.
//!
//! Binds the configured UDP socket, joins the static peer overlay and
//! runs the sans-io protocol driver until a `Shutdown` frame arrives,
//! then flushes its probe trace (JSONL) and prints a one-line report.

use aria_node::config::NodeConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: aria-node <config.toml>");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("aria-node: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let config = match NodeConfig::parse(&text) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("aria-node: {path}: {e}");
            std::process::exit(2);
        }
    };
    match aria_node::runtime::run(&config) {
        Ok(report) => {
            println!(
                "aria-node {}: completed={} abandoned={} lost={} injected_drops={} probe_events={}",
                config.id,
                report.completed,
                report.abandoned,
                report.lost,
                report.injected_drops,
                report.probe_events,
            );
        }
        Err(e) => {
            eprintln!("aria-node {}: {e}", config.id);
            std::process::exit(1);
        }
    }
}
