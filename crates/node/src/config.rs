//! Node runtime configuration: a strict TOML-subset parser (no external
//! dependency; the workspace builds offline) and the [`NodeConfig`] it
//! produces.
//!
//! The accepted grammar covers exactly what node config files need:
//! `[section]` headers, `key = value` pairs with quoted-string, integer,
//! float and boolean values, blank lines and `#` comments. Anything else
//! is a hard error — a config that silently half-parses is worse than
//! one that refuses to start a node.
//!
//! The `[timing]` section deserializes into the same
//! [`ProtocolTiming`] slice the simulator's `WorldConfig` sources, so a
//! live deployment and a simulation of it share one set of protocol
//! timing knobs by construction.

use aria_core::config::ProtocolTiming;
use aria_core::driver::{DriverConfig, MembershipConfig};
use aria_core::AriaConfig;
use aria_grid::{Architecture, NodeProfile, OperatingSystem, PerfIndex, Policy};
use aria_overlay::NodeId;
use aria_sim::SimDuration;
use std::collections::BTreeMap;
use std::fmt;

/// A parse or validation failure, with enough context to fix the file.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError(msg.into()))
}

/// One parsed TOML-subset value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

type Section = BTreeMap<String, Value>;

/// Parses the TOML subset into `section → key → value` maps. Keys
/// before any `[section]` header land in the `""` section.
fn parse_toml(text: &str) -> Result<BTreeMap<String, Section>, ConfigError> {
    let mut sections: BTreeMap<String, Section> = BTreeMap::new();
    let mut current = String::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let line = match line.find('#') {
            // A `#` inside a quoted string is content, not a comment.
            Some(pos) if line[..pos].matches('"').count() % 2 == 0 => line[..pos].trim_end(),
            _ => line,
        };
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        if let Some(name) = line.strip_prefix('[') {
            let Some(name) = name.strip_suffix(']') else {
                return err(format!("line {n}: unterminated section header"));
            };
            current = name.trim().to_string();
            sections.entry(current.clone()).or_default();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return err(format!("line {n}: expected `key = value`"));
        };
        let key = key.trim().to_string();
        let value = parse_value(value.trim()).ok_or_else(|| {
            ConfigError(format!("line {n}: unparseable value `{}`", value.trim()))
        })?;
        let section = sections.entry(current.clone()).or_default();
        if section.insert(key.clone(), value).is_some() {
            return err(format!("line {n}: duplicate key `{key}`"));
        }
    }
    Ok(sections)
}

fn parse_value(text: &str) -> Option<Value> {
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner.strip_suffix('"')?;
        if inner.contains('"') {
            return None; // no escapes in the subset — keep strings plain
        }
        return Some(Value::Str(inner.to_string()));
    }
    match text {
        "true" => return Some(Value::Bool(true)),
        "false" => return Some(Value::Bool(false)),
        _ => {}
    }
    if text.contains('.') {
        return text.parse().ok().map(Value::Float);
    }
    text.parse().ok().map(Value::Int)
}

/// A fully validated node runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// This node's overlay id.
    pub id: NodeId,
    /// UDP bind address, e.g. `127.0.0.1:17000`.
    pub bind: String,
    /// Where completion (`Done`) frames are reported, if anywhere.
    pub report: Option<String>,
    /// RNG seed for fanout sampling and loss injection.
    pub seed: u64,
    /// Local scheduling policy.
    pub policy: Policy,
    /// The node's resource profile.
    pub profile: NodeProfile,
    /// Protocol configuration handed to the driver.
    pub driver: DriverConfig,
    /// Static peer list: the full overlay membership with addresses.
    pub peers: Vec<(NodeId, String)>,
    /// Probe trace output path (JSONL), if tracing is on.
    pub trace: Option<String>,
    /// Injected inbound loss probability for protocol messages, applied
    /// at the codec boundary (`0.0` = lossless).
    pub loss: f64,
    /// Optional window (since node start) outside which `loss` does not
    /// apply: scheduled asymmetric loss approximates a partition on
    /// loopback (each side can be given a different window).
    pub loss_window: Option<(SimDuration, SimDuration)>,
    /// Deterministic fault knob: drop the first inbound ASSIGN once.
    pub drop_first_assign: bool,
}

impl NodeConfig {
    /// Parses and validates a config file's text.
    pub fn parse(text: &str) -> Result<NodeConfig, ConfigError> {
        let sections = parse_toml(text)?;
        for name in sections.keys() {
            if !matches!(name.as_str(), "node" | "timing" | "peers") {
                return err(format!("unknown section [{name}]"));
            }
        }
        let node = sections.get("node").ok_or(ConfigError("missing [node] section".into()))?;
        let empty = Section::new();
        let timing = sections.get("timing").unwrap_or(&empty);
        let peers = sections.get("peers").unwrap_or(&empty);

        let id = NodeId::new(
            get_int(node, "node", "id")?
                .try_into()
                .map_err(|_| ConfigError("node.id must fit in u32".into()))?,
        );
        let bind = get_str(node, "node", "bind")?;
        validate_addr("node.bind", &bind)?;
        let report = opt_str(node, "report");
        if let Some(report) = &report {
            validate_addr("node.report", report)?;
        }
        let seed = opt_u64(node, "node", "seed")?.unwrap_or(0);
        let policy = parse_policy(&opt_str(node, "policy").unwrap_or_else(|| "fcfs".into()))?;
        let profile = NodeProfile::new(
            parse_arch(&opt_str(node, "arch").unwrap_or_else(|| "amd64".into()))?,
            parse_os(&opt_str(node, "os").unwrap_or_else(|| "linux".into()))?,
            opt_u16(node, "node", "memory_gb")?.unwrap_or(64),
            opt_u16(node, "node", "disk_gb")?.unwrap_or(1000),
            PerfIndex::new(opt_float(node, "perf").unwrap_or(1.0))
                .map_err(|e| ConfigError(format!("node.perf: {e:?}")))?,
        );

        let defaults = ProtocolTiming::default();
        let slice = ProtocolTiming {
            accept_window: ms(timing, "accept_window_ms", defaults.accept_window)?,
            request_retry: ms(timing, "request_retry_ms", defaults.request_retry)?,
            max_request_rounds: opt_u32(timing, "timing", "max_request_rounds")?
                .unwrap_or(defaults.max_request_rounds),
            assign_ack_timeout: ms(timing, "assign_ack_timeout_ms", defaults.assign_ack_timeout)?,
            assign_max_retries: opt_u32(timing, "timing", "assign_max_retries")?
                .unwrap_or(defaults.assign_max_retries),
        };
        let mut aria = AriaConfig::default().with_timing(slice);
        let inform = ms(timing, "inform_period_ms", aria.inform_period)?;
        if inform.is_zero() {
            return err("timing.inform_period_ms must be positive");
        }
        aria.inform_period = inform;
        if let Some(Value::Bool(on)) = timing.get("rescheduling") {
            aria.rescheduling = *on;
        }
        let mdef = MembershipConfig::default();
        let membership = MembershipConfig {
            // ZERO disables the failure detector.
            heartbeat_period: ms(timing, "heartbeat_ms", mdef.heartbeat_period)?,
            suspect_misses: opt_u32(timing, "timing", "suspect_misses")?
                .unwrap_or(mdef.suspect_misses),
            dead_misses: opt_u32(timing, "timing", "dead_misses")?.unwrap_or(mdef.dead_misses),
        };
        if !membership.heartbeat_period.is_zero() {
            if membership.suspect_misses == 0 {
                return err("timing.suspect_misses must be at least 1");
            }
            if membership.dead_misses <= membership.suspect_misses {
                return err(format!(
                    "timing.dead_misses ({}) must exceed timing.suspect_misses ({})",
                    membership.dead_misses, membership.suspect_misses
                ));
            }
        }
        let driver = DriverConfig {
            aria,
            failsafe: true,
            failsafe_detection: ms(
                timing,
                "failsafe_detection_ms",
                DriverConfig::default().failsafe_detection,
            )?,
            membership,
        };

        let mut peer_list = Vec::new();
        for (key, value) in peers {
            let raw: u32 = key
                .parse()
                .map_err(|_| ConfigError(format!("peers key `{key}` is not a node id")))?;
            let Value::Str(addr) = value else {
                return err(format!("peers.{key} must be a \"host:port\" string"));
            };
            validate_addr(&format!("peers.{key}"), addr)?;
            peer_list.push((NodeId::new(raw), addr.clone()));
        }
        if !peer_list.iter().any(|(peer, _)| *peer == id) {
            return err(format!("peer list does not contain this node (id {})", id.raw()));
        }

        let loss = opt_float(node, "loss").unwrap_or(0.0);
        if !(0.0..1.0).contains(&loss) {
            return err(format!("node.loss {loss} must be in [0, 1)"));
        }
        let loss_window =
            match (opt_u64(node, "node", "loss_from_ms")?, opt_u64(node, "node", "loss_until_ms")?)
            {
                (None, None) => None,
                (Some(from), Some(until)) if until > from => {
                    Some((SimDuration::from_millis(from), SimDuration::from_millis(until)))
                }
                (Some(from), Some(until)) => {
                    return err(format!(
                        "node.loss_until_ms ({until}) must exceed node.loss_from_ms ({from})"
                    ))
                }
                _ => return err("node.loss_from_ms and node.loss_until_ms must be set together"),
            };

        Ok(NodeConfig {
            id,
            bind,
            report,
            seed,
            policy,
            profile,
            driver,
            peers: peer_list,
            trace: opt_str(node, "trace"),
            loss,
            loss_window,
            drop_first_assign: matches!(node.get("drop_first_assign"), Some(Value::Bool(true))),
        })
    }

    /// Renders this configuration back to the accepted file format (the
    /// cluster harness writes per-node files with this).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str("[node]\n");
        out.push_str(&format!("id = {}\n", self.id.raw()));
        out.push_str(&format!("bind = \"{}\"\n", self.bind));
        if let Some(report) = &self.report {
            out.push_str(&format!("report = \"{report}\"\n"));
        }
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!("policy = \"{}\"\n", policy_name(self.policy)));
        out.push_str(&format!("arch = \"{}\"\n", arch_name(self.profile.arch)));
        out.push_str(&format!("os = \"{}\"\n", os_name(self.profile.os)));
        out.push_str(&format!("memory_gb = {}\n", self.profile.memory_gb));
        out.push_str(&format!("disk_gb = {}\n", self.profile.disk_gb));
        out.push_str(&format!("perf = {:.3}\n", self.profile.performance.value()));
        if let Some(trace) = &self.trace {
            out.push_str(&format!("trace = \"{trace}\"\n"));
        }
        if self.loss > 0.0 {
            out.push_str(&format!("loss = {:.4}\n", self.loss));
        }
        if let Some((from, until)) = self.loss_window {
            out.push_str(&format!("loss_from_ms = {}\n", from.as_millis()));
            out.push_str(&format!("loss_until_ms = {}\n", until.as_millis()));
        }
        if self.drop_first_assign {
            out.push_str("drop_first_assign = true\n");
        }
        let t = self.driver.aria.timing;
        out.push_str("\n[timing]\n");
        out.push_str(&format!("accept_window_ms = {}\n", t.accept_window.as_millis()));
        out.push_str(&format!("request_retry_ms = {}\n", t.request_retry.as_millis()));
        out.push_str(&format!("max_request_rounds = {}\n", t.max_request_rounds));
        out.push_str(&format!("assign_ack_timeout_ms = {}\n", t.assign_ack_timeout.as_millis()));
        out.push_str(&format!("assign_max_retries = {}\n", t.assign_max_retries));
        out.push_str(&format!(
            "inform_period_ms = {}\n",
            self.driver.aria.inform_period.as_millis()
        ));
        out.push_str(&format!("rescheduling = {}\n", self.driver.aria.rescheduling));
        out.push_str(&format!(
            "failsafe_detection_ms = {}\n",
            self.driver.failsafe_detection.as_millis()
        ));
        let m = self.driver.membership;
        out.push_str(&format!("heartbeat_ms = {}\n", m.heartbeat_period.as_millis()));
        out.push_str(&format!("suspect_misses = {}\n", m.suspect_misses));
        out.push_str(&format!("dead_misses = {}\n", m.dead_misses));
        out.push_str("\n[peers]\n");
        for (peer, addr) in &self.peers {
            out.push_str(&format!("{} = \"{addr}\"\n", peer.raw()));
        }
        out
    }
}

fn get_str(section: &Section, name: &str, key: &str) -> Result<String, ConfigError> {
    match section.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(_) => err(format!("{name}.{key} must be a string")),
        None => err(format!("missing {name}.{key}")),
    }
}

fn opt_str(section: &Section, key: &str) -> Option<String> {
    match section.get(key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn get_int(section: &Section, name: &str, key: &str) -> Result<i64, ConfigError> {
    match section.get(key) {
        Some(Value::Int(v)) => Ok(*v),
        Some(_) => err(format!("{name}.{key} must be an integer")),
        None => err(format!("missing {name}.{key}")),
    }
}

/// Optional unsigned integer: present-but-negative, overflowing or
/// mistyped values are typed errors, never silent wraps or clamps.
fn opt_u64(section: &Section, name: &str, key: &str) -> Result<Option<u64>, ConfigError> {
    match section.get(key) {
        None => Ok(None),
        Some(Value::Int(v)) => u64::try_from(*v)
            .map(Some)
            .map_err(|_| ConfigError(format!("{name}.{key} must be non-negative (got {v})"))),
        Some(_) => err(format!("{name}.{key} must be an integer")),
    }
}

fn opt_u32(section: &Section, name: &str, key: &str) -> Result<Option<u32>, ConfigError> {
    match section.get(key) {
        None => Ok(None),
        Some(Value::Int(v)) => u32::try_from(*v).map(Some).map_err(|_| {
            ConfigError(format!("{name}.{key} must be a non-negative 32-bit integer (got {v})"))
        }),
        Some(_) => err(format!("{name}.{key} must be an integer")),
    }
}

fn opt_u16(section: &Section, name: &str, key: &str) -> Result<Option<u16>, ConfigError> {
    match section.get(key) {
        None => Ok(None),
        Some(Value::Int(v)) => u16::try_from(*v).map(Some).map_err(|_| {
            ConfigError(format!("{name}.{key} must be a non-negative 16-bit integer (got {v})"))
        }),
        Some(_) => err(format!("{name}.{key} must be an integer")),
    }
}

/// Validates a `host:port` socket address: non-empty host, 16-bit port.
fn validate_addr(what: &str, addr: &str) -> Result<(), ConfigError> {
    let Some((host, port)) = addr.rsplit_once(':') else {
        return err(format!("{what} `{addr}` must be `host:port`"));
    };
    if host.is_empty() {
        return err(format!("{what} `{addr}` has an empty host"));
    }
    if port.parse::<u16>().is_err() {
        return err(format!("{what} `{addr}` has an invalid port `{port}`"));
    }
    Ok(())
}

fn opt_float(section: &Section, key: &str) -> Option<f64> {
    match section.get(key) {
        Some(Value::Float(v)) => Some(*v),
        Some(Value::Int(v)) => Some(*v as f64),
        _ => None,
    }
}

fn ms(section: &Section, key: &str, default: SimDuration) -> Result<SimDuration, ConfigError> {
    match section.get(key) {
        None => Ok(default),
        Some(Value::Int(v)) if *v >= 0 => Ok(SimDuration::from_millis(v.unsigned_abs())),
        Some(_) => err(format!("timing.{key} must be a non-negative integer (milliseconds)")),
    }
}

fn parse_policy(name: &str) -> Result<Policy, ConfigError> {
    Ok(match name {
        "fcfs" => Policy::Fcfs,
        "sjf" => Policy::Sjf,
        "ljf" => Policy::Ljf,
        "backfill" => Policy::Backfill,
        "priority" => Policy::Priority,
        "edf" => Policy::Edf,
        other => return err(format!("unknown policy `{other}`")),
    })
}

fn policy_name(policy: Policy) -> &'static str {
    match policy {
        Policy::Fcfs => "fcfs",
        Policy::Sjf => "sjf",
        Policy::Ljf => "ljf",
        Policy::Backfill => "backfill",
        Policy::Priority => "priority",
        Policy::Edf => "edf",
    }
}

fn parse_arch(name: &str) -> Result<Architecture, ConfigError> {
    Ok(match name {
        "amd64" => Architecture::Amd64,
        "power" => Architecture::Power,
        "ia64" => Architecture::Ia64,
        "sparc" => Architecture::Sparc,
        "mips" => Architecture::Mips,
        "nec" => Architecture::Nec,
        other => return err(format!("unknown architecture `{other}`")),
    })
}

fn arch_name(arch: Architecture) -> &'static str {
    match arch {
        Architecture::Amd64 => "amd64",
        Architecture::Power => "power",
        Architecture::Ia64 => "ia64",
        Architecture::Sparc => "sparc",
        Architecture::Mips => "mips",
        Architecture::Nec => "nec",
    }
}

fn parse_os(name: &str) -> Result<OperatingSystem, ConfigError> {
    Ok(match name {
        "linux" => OperatingSystem::Linux,
        "solaris" => OperatingSystem::Solaris,
        "unix" => OperatingSystem::Unix,
        "windows" => OperatingSystem::Windows,
        "bsd" => OperatingSystem::Bsd,
        other => return err(format!("unknown operating system `{other}`")),
    })
}

fn os_name(os: OperatingSystem) -> &'static str {
    match os {
        OperatingSystem::Linux => "linux",
        OperatingSystem::Solaris => "solaris",
        OperatingSystem::Unix => "unix",
        OperatingSystem::Windows => "windows",
        OperatingSystem::Bsd => "bsd",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# A two-node loopback deployment.
[node]
id = 0
bind = "127.0.0.1:17000"
report = "127.0.0.1:16999"
seed = 7
policy = "sjf"
memory_gb = 32
disk_gb = 500
perf = 1.5
trace = "/tmp/aria-node-0.jsonl"
loss = 0.05
drop_first_assign = true

[timing]
accept_window_ms = 300
assign_ack_timeout_ms = 200
inform_period_ms = 2000

[peers]
0 = "127.0.0.1:17000"
1 = "127.0.0.1:17001"
"#;

    #[test]
    fn sample_parses_and_round_trips() {
        let config = NodeConfig::parse(SAMPLE).expect("sample parses");
        assert_eq!(config.id, NodeId::new(0));
        assert_eq!(config.policy, Policy::Sjf);
        assert_eq!(config.profile.memory_gb, 32);
        assert_eq!(config.peers.len(), 2);
        assert!(config.drop_first_assign);
        assert!((config.loss - 0.05).abs() < 1e-9);
        // Overridden timing lands; untouched knobs keep their defaults.
        let t = config.driver.aria.timing;
        assert_eq!(t.accept_window, SimDuration::from_millis(300));
        assert_eq!(t.assign_ack_timeout, SimDuration::from_millis(200));
        assert_eq!(t.request_retry, ProtocolTiming::default().request_retry);
        assert_eq!(config.driver.aria.inform_period, SimDuration::from_secs(2));
        // to_toml → parse is the identity on the validated struct.
        let again = NodeConfig::parse(&config.to_toml()).expect("rendered config parses");
        assert_eq!(again, config);
    }

    #[test]
    fn strictness_rejects_bad_inputs() {
        assert!(NodeConfig::parse("").is_err(), "missing [node]");
        assert!(NodeConfig::parse("[node]\nid = 0\n").is_err(), "missing bind");
        assert!(NodeConfig::parse("[node\nid = 0\n").is_err(), "unterminated section header");
        assert!(
            NodeConfig::parse("[node]\nid = 0\nid = 1\nbind = \"a\"\n[peers]\n0 = \"a\"").is_err(),
            "duplicate key"
        );
        assert!(
            NodeConfig::parse("[node]\nid = 0\nbind = \"a\"\n[typo]\n[peers]\n0 = \"a\"").is_err(),
            "unknown section"
        );
        assert!(
            NodeConfig::parse("[node]\nid = 0\nbind = \"a\"\nloss = 1.5\n[peers]\n0 = \"a\"")
                .is_err(),
            "loss out of range"
        );
        assert!(
            NodeConfig::parse("[node]\nid = 0\nbind = \"a\"\n[peers]\n1 = \"b\"").is_err(),
            "peer list must include self"
        );
    }

    #[test]
    fn comments_and_quoted_hashes_are_handled() {
        let text = "[node]\nid = 0 # trailing comment\nbind = \"127.0.0.1:12\"\ntrace = \"/tmp/a#b.jsonl\"\n[peers]\n0 = \"127.0.0.1:12\"\n";
        let config = NodeConfig::parse(text).expect("parses");
        assert_eq!(config.trace.as_deref(), Some("/tmp/a#b.jsonl"));
    }

    /// Every malformed input yields a typed [`ConfigError`] naming the
    /// offending key — never a panic, wrap or silent clamp.
    #[test]
    fn error_paths_are_typed() {
        fn parse_err(text: &str) -> ConfigError {
            NodeConfig::parse(text).expect_err("must be rejected")
        }
        fn with_peer(node_extra: &str, timing: &str) -> String {
            format!(
                "[node]\nid = 0\nbind = \"127.0.0.1:17000\"\n{node_extra}\n[timing]\n{timing}\n[peers]\n0 = \"127.0.0.1:17000\"\n"
            )
        }

        // Malformed peer addresses.
        let e = parse_err(
            "[node]\nid = 0\nbind = \"127.0.0.1:17000\"\n[peers]\n0 = \"127.0.0.1:17000\"\n1 = \"no-port-here\"\n",
        );
        assert!(e.0.contains("peers.1"), "peer error names the key: {e}");
        let e = parse_err(
            "[node]\nid = 0\nbind = \"127.0.0.1:17000\"\n[peers]\n0 = \"127.0.0.1:17000\"\n1 = \"host:99999\"\n",
        );
        assert!(e.0.contains("invalid port"), "overflowing port is typed: {e}");
        let e = parse_err("[node]\nid = 0\nbind = \"127.0.0.1:17000\"\n[peers]\n0 = 17000\n");
        assert!(e.0.contains("peers.0"), "non-string peer value: {e}");

        // Negative and overflowing timing values.
        let e = parse_err(&with_peer("", "accept_window_ms = -5"));
        assert!(e.0.contains("accept_window_ms"), "{e}");
        let e = parse_err(&with_peer("", "max_request_rounds = -1"));
        assert!(e.0.contains("max_request_rounds"), "{e}");
        let e = parse_err(&with_peer("", "assign_max_retries = 4294967296"));
        assert!(e.0.contains("assign_max_retries"), "{e}");
        let e = parse_err(&with_peer("", "inform_period_ms = 0"));
        assert!(e.0.contains("inform_period_ms"), "{e}");
        let e = parse_err(&with_peer("", "heartbeat_ms = -100"));
        assert!(e.0.contains("heartbeat_ms"), "{e}");
        let e = parse_err(&with_peer("", "suspect_misses = 0"));
        assert!(e.0.contains("suspect_misses"), "{e}");
        let e = parse_err(&with_peer("", "suspect_misses = 5\ndead_misses = 5"));
        assert!(e.0.contains("dead_misses"), "{e}");

        // Negative/overflow node values that were previously clamped.
        let e = parse_err(&with_peer("seed = -3", ""));
        assert!(e.0.contains("seed"), "{e}");
        let e = parse_err(&with_peer("memory_gb = 70000", ""));
        assert!(e.0.contains("memory_gb"), "{e}");
        let e = parse_err(&with_peer("disk_gb = -1", ""));
        assert!(e.0.contains("disk_gb"), "{e}");

        // Loss windows must be well-formed pairs.
        let e = parse_err(&with_peer("loss = 0.5\nloss_from_ms = 100", ""));
        assert!(e.0.contains("loss_from_ms"), "{e}");
        let e = parse_err(&with_peer("loss = 0.5\nloss_from_ms = 200\nloss_until_ms = 100", ""));
        assert!(e.0.contains("loss_until_ms"), "{e}");

        // Unknown section stays a hard error.
        let e = parse_err(
            "[node]\nid = 0\nbind = \"127.0.0.1:17000\"\n[chaos]\nx = 1\n[peers]\n0 = \"127.0.0.1:17000\"\n",
        );
        assert!(e.0.contains("[chaos]"), "{e}");
    }

    #[test]
    fn membership_and_loss_window_round_trip() {
        let text = "[node]\nid = 0\nbind = \"127.0.0.1:17000\"\nloss = 0.25\nloss_from_ms = 2000\nloss_until_ms = 6000\n[timing]\nheartbeat_ms = 500\nsuspect_misses = 2\ndead_misses = 6\n[peers]\n0 = \"127.0.0.1:17000\"\n";
        let config = NodeConfig::parse(text).expect("parses");
        let m = config.driver.membership;
        assert_eq!(m.heartbeat_period, SimDuration::from_millis(500));
        assert_eq!(m.suspect_misses, 2);
        assert_eq!(m.dead_misses, 6);
        assert_eq!(
            config.loss_window,
            Some((SimDuration::from_secs(2), SimDuration::from_secs(6)))
        );
        let again = NodeConfig::parse(&config.to_toml()).expect("rendered config parses");
        assert_eq!(again, config);
        // heartbeat_ms = 0 disables the detector and skips the
        // misses-ordering validation.
        let off = "[node]\nid = 0\nbind = \"127.0.0.1:17000\"\n[timing]\nheartbeat_ms = 0\nsuspect_misses = 9\ndead_misses = 1\n[peers]\n0 = \"127.0.0.1:17000\"\n";
        let config = NodeConfig::parse(off).expect("disabled detector parses");
        assert!(config.driver.membership.heartbeat_period.is_zero());
    }
}
