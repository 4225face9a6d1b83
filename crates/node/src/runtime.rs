//! The live node event loop: one UDP socket, one timer wheel, one
//! sans-io [`NodeDriver`].
//!
//! The loop is deliberately primitive — blocking receives with a
//! deadline-derived timeout, no async runtime, no threads. A node's
//! steady-state traffic is a handful of datagrams per second; what
//! matters is that every protocol *decision* stays inside the driver
//! (and through it the shared `aria_core::logic` kernels), leaving this
//! file nothing but mechanical effect execution:
//!
//! * `Send` outputs are encoded with `aria-codec` and written to the
//!   socket;
//! * `StartTimer` outputs are armed on the [`TimerWheel`] against the
//!   monotonic clock (an [`Instant`] anchor mapped to [`SimTime`]
//!   milliseconds — never wall-clock time, which can step);
//! * `Probe` outputs are appended to the node's `aria-probe-trace` JSONL
//!   stream, so `cargo xtask probe` reads live traces and simulator
//!   traces identically.
//!
//! Inbound datagrams cross the codec boundary, then an optional fault
//! stage (probabilistic loss — optionally confined to a scheduled
//! window, approximating an asymmetric partition — and the
//! deterministic `drop_first_assign` knob, the live counterparts of the
//! simulator's `FaultPlan`), and only then reach the driver. Loss
//! applies strictly to protocol messages; harness control frames
//! (`Submit`, `Shutdown`) are never dropped.
//!
//! When tracing is on, every probe event is appended (and flushed) to
//! `<trace>.part` as it happens, so a SIGKILLed node still leaves its
//! events on disk for the chaos harness. That stream is the node's only
//! record: a clean shutdown writes the final `<trace>` as the header
//! line followed by the streamed lines, and removes the partial.

use crate::config::NodeConfig;
use crate::timer::TimerWheel;
use aria_core::driver::{Input, LiveMsg, NodeDriver, Output};
use aria_grid::JobId;
use aria_probe::schema;
use aria_probe::{ProbeEvent, TraceEntry, TraceMeta};
use aria_sim::{SimRng, SimTime};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

/// What a finished node run observed, for callers embedding the runtime
/// (the binary prints it; tests assert on it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Jobs that finished executing on this node.
    pub completed: u64,
    /// Jobs this node initiated and abandoned (retry budget exhausted).
    pub abandoned: u64,
    /// Jobs lost for good.
    pub lost: u64,
    /// Inbound protocol messages dropped by the fault stage.
    pub injected_drops: u64,
    /// Probe events recorded.
    pub probe_events: u64,
}

/// Maximum blocking-receive timeout; also the idle tick when no timer
/// is armed, keeping the loop responsive to shutdown.
const MAX_POLL_MS: u64 = 50;
const MAX_POLL: Duration = Duration::from_millis(MAX_POLL_MS);

/// Runs a node until a `Shutdown` frame arrives. Returns the report
/// after flushing the probe trace (if configured).
pub fn run(config: &NodeConfig) -> io::Result<RunReport> {
    let socket = UdpSocket::bind(&config.bind)?;
    let mut addr_of: BTreeMap<_, SocketAddr> = BTreeMap::new();
    let mut node_at: BTreeMap<SocketAddr, _> = BTreeMap::new();
    for (peer, addr) in &config.peers {
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable peer"))?;
        addr_of.insert(*peer, resolved);
        node_at.insert(resolved, *peer);
    }
    let report_addr = match &config.report {
        Some(addr) => Some(addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "unresolvable report address")
        })?),
        None => None,
    };

    let peers: Vec<_> = config.peers.iter().map(|(peer, _)| *peer).collect();
    let mut driver = NodeDriver::new(
        config.id,
        config.profile,
        config.policy,
        config.driver,
        config.seed,
        peers.clone(),
        peers,
    );
    let mut faults = SimRng::seed_from(config.seed ^ 0xFA01_7157_AC5E_0001);
    let mut wheel = TimerWheel::new();
    let mut tracer = Tracer::open(config.trace.as_deref())?;
    let mut report = RunReport::default();
    let mut armed_first_assign_drop = config.drop_first_assign;

    let epoch = Instant::now();
    let now_sim = |epoch: &Instant| {
        SimTime::from_millis(u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX))
    };

    let mut now = now_sim(&epoch);
    let startup = driver.start(now);
    execute(
        &mut driver,
        &socket,
        &addr_of,
        report_addr,
        &mut wheel,
        &mut tracer,
        &mut report,
        now,
        startup,
    )?;

    let mut buf = vec![0u8; 64 * 1024];
    loop {
        now = now_sim(&epoch);
        while let Some(timer) = wheel.pop_due(now) {
            let outputs = driver.handle(now, Input::Timer(timer));
            execute(
                &mut driver,
                &socket,
                &addr_of,
                report_addr,
                &mut wheel,
                &mut tracer,
                &mut report,
                now,
                outputs,
            )?;
        }

        let timeout = match wheel.next_deadline() {
            Some(at) => {
                let wait = at.saturating_since(now).as_millis();
                Duration::from_millis(wait.clamp(1, MAX_POLL_MS))
            }
            None => MAX_POLL,
        };
        socket.set_read_timeout(Some(timeout))?;
        let (len, src) = match socket.recv_from(&mut buf) {
            Ok(got) => got,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue;
            }
            Err(e) => return Err(e),
        };
        now = now_sim(&epoch);
        let Ok(msg) = aria_codec::decode(&buf[..len]) else {
            continue; // undecodable datagrams are dropped, never fatal
        };
        if matches!(msg, LiveMsg::Shutdown) {
            break;
        }
        // Control frames from outside the overlay are fine (the harness
        // submits jobs); protocol messages from unknown senders are not.
        let from = match node_at.get(&src) {
            Some(&peer) => peer,
            None if msg.is_protocol() => continue,
            None => config.id,
        };
        if msg.is_protocol() {
            let lossy = config.loss > 0.0
                && config.loss_window.is_none_or(|(from, until)| {
                    now.as_millis() >= from.as_millis() && now.as_millis() < until.as_millis()
                });
            let drop_this = if armed_first_assign_drop && matches!(msg, LiveMsg::Assign { .. }) {
                armed_first_assign_drop = false;
                true
            } else {
                lossy && faults.chance(config.loss)
            };
            if drop_this {
                report.injected_drops += 1;
                if let Some(job) = msg_job(&msg) {
                    tracer.record(
                        now,
                        ProbeEvent::MessageDropped { kind: msg.kind(), job, to: config.id },
                    );
                }
                continue;
            }
        }
        let outputs = driver.handle(now, Input::Msg { from, msg });
        execute(
            &mut driver,
            &socket,
            &addr_of,
            report_addr,
            &mut wheel,
            &mut tracer,
            &mut report,
            now,
            outputs,
        )?;
    }

    report.probe_events = tracer.seq;
    tracer.finish(&TraceMeta {
        scenario: "live-node".to_string(),
        seed: config.seed,
        nodes: config.peers.len() as u64,
        jobs: report.completed,
    })?;
    Ok(report)
}

/// Counts probe events and, when tracing is on, streams each one
/// (flushed per line) to `<trace>.part` so a SIGKILL still leaves the
/// node's history on disk for the chaos harness.
struct Tracer {
    /// The final trace path and the open `.part` stream beside it.
    stream: Option<(String, File)>,
    seq: u64,
}

impl Tracer {
    fn open(trace: Option<&str>) -> io::Result<Tracer> {
        let stream = match trace {
            Some(path) => Some((path.to_string(), File::create(format!("{path}.part"))?)),
            None => None,
        };
        Ok(Tracer { stream, seq: 0 })
    }

    fn record(&mut self, now: SimTime, event: ProbeEvent) {
        if let Some((_, file)) = &mut self.stream {
            let entry = TraceEntry { seq: self.seq, at: now, event };
            // Flushed per line: a buffered partial would lose exactly
            // the pre-kill events the chaos harness needs.
            let line = schema::entry_line(&entry);
            let _ = writeln!(file, "{line}");
            let _ = file.flush();
        }
        self.seq += 1;
    }

    /// Writes the final trace — the header, then the streamed lines
    /// as they are — and removes the `.part` stream.
    fn finish(self, meta: &TraceMeta) -> io::Result<()> {
        let Some((path, stream)) = self.stream else { return Ok(()) };
        drop(stream);
        let part = format!("{path}.part");
        let mut out = io::BufWriter::new(File::create(&path)?);
        writeln!(out, "{}", schema::header_line(meta, self.seq, 0))?;
        io::copy(&mut File::open(&part)?, &mut out)?;
        out.flush()?;
        std::fs::remove_file(part)
    }
}

/// Executes one batch of driver outputs against the real transport,
/// wheel and trace.
#[allow(clippy::too_many_arguments, reason = "one call site threads the whole loop state")]
fn execute(
    driver: &mut NodeDriver,
    socket: &UdpSocket,
    addr_of: &BTreeMap<aria_overlay::NodeId, SocketAddr>,
    report_addr: Option<SocketAddr>,
    wheel: &mut TimerWheel,
    tracer: &mut Tracer,
    report: &mut RunReport,
    now: SimTime,
    outputs: Vec<Output>,
) -> io::Result<()> {
    for output in outputs {
        match output {
            Output::Send { to, msg } => {
                if let Some(addr) = addr_of.get(&to) {
                    // Unreachable peers surface as protocol timeouts, so
                    // a failed send must not kill the loop.
                    let _ = socket.send_to(&aria_codec::encode(&msg), addr);
                }
            }
            Output::StartTimer { after, timer } => wheel.arm(now + after, timer),
            Output::Probe(event) => tracer.record(now, event),
            Output::Completed { job } => {
                report.completed += 1;
                if let Some(addr) = report_addr {
                    let done = LiveMsg::Done { job, node: driver.id() };
                    let _ = socket.send_to(&aria_codec::encode(&done), addr);
                }
            }
            Output::Abandoned { .. } => report.abandoned += 1,
            Output::Lost { .. } => report.lost += 1,
        }
    }
    Ok(())
}

/// The job a protocol message concerns, for drop telemetry.
fn msg_job(msg: &LiveMsg) -> Option<JobId> {
    match msg {
        LiveMsg::Request { spec, .. }
        | LiveMsg::Inform { spec, .. }
        | LiveMsg::Assign { spec, .. }
        | LiveMsg::Submit { spec } => Some(spec.id),
        LiveMsg::Accept { job, .. }
        | LiveMsg::Ack { job, .. }
        | LiveMsg::Done { job, .. }
        | LiveMsg::Holding { job, .. } => Some(*job),
        LiveMsg::Join { .. }
        | LiveMsg::Leave { .. }
        | LiveMsg::Heartbeat { .. }
        | LiveMsg::Shutdown => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_trace_is_the_streamed_lines_under_a_header() {
        let dir = std::env::temp_dir().join(format!("aria-node-tracer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node.jsonl").to_string_lossy().into_owned();
        let mut tracer = Tracer::open(Some(&path)).unwrap();
        // More events than any fixed-size ring would keep.
        let events = 70_000u64;
        for i in 0..events {
            tracer.record(SimTime::from_millis(i / 3), ProbeEvent::JobLost { job: JobId::new(i) });
        }
        let streamed = std::fs::read_to_string(format!("{path}.part")).unwrap();
        let meta = TraceMeta { scenario: "live-node".to_string(), seed: 9, nodes: 4, jobs: 0 };
        tracer.finish(&meta).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!std::path::Path::new(&format!("{path}.part")).exists(), "the partial is removed");
        let trace = schema::from_jsonl(&text).expect("the final trace is schema-valid");
        assert_eq!((trace.recorded(), trace.dropped), (events, 0));
        let lines: Vec<&str> = streamed.lines().collect();
        assert_eq!(lines.len(), trace.entries.len());
        for (line, entry) in lines.iter().zip(&trace.entries) {
            assert_eq!(*line, schema::entry_line(entry), "entry {} differs", entry.seq);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
