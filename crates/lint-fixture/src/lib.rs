//! Planted violations of the determinism gate (DESIGN.md §8).
//!
//! The default build is empty and passes `cargo clippy -- -D warnings`.
//! Each `plant-*` feature compiles one violation the gate must reject:
//!
//! ```text
//! cargo clippy -p lint-fixture --features plant-hash-map -- -D warnings   # must fail
//! ```
//!
//! CI builds every feature and requires the failure to name the rule's
//! lint, so a rule that goes blind (a `clippy.toml` entry or a
//! `[workspace.lints]` level dropped) fails the build.

/// `hash-collections`: iteration order is randomized per process.
#[cfg(feature = "plant-hash-map")]
pub fn hash_map() -> std::collections::HashMap<u32, u32> {
    std::collections::HashMap::new()
}

/// `wall-clock`: a real clock read inside deterministic code.
#[cfg(feature = "plant-instant-now")]
pub fn instant_now() -> std::time::Duration {
    std::time::Instant::now().elapsed()
}

/// `thread-spawn`: a free-running thread outside `aria_sim::pool`.
#[cfg(feature = "plant-thread-spawn")]
pub fn thread_spawn() {
    let _ = std::thread::spawn(|| ()).join();
}

/// `io-purity`: a live socket outside `crates/node`.
#[cfg(feature = "plant-udp-socket")]
pub fn udp_socket() -> std::io::Result<std::net::UdpSocket> {
    std::net::UdpSocket::bind("127.0.0.1:0")
}

/// `float-ord`: partial float ordering.
#[cfg(feature = "plant-partial-cmp")]
pub fn partial_cmp(a: f64, b: f64) -> Option<std::cmp::Ordering> {
    a.partial_cmp(&b)
}

/// `lossy-float-cast`: a float truncated to an integer with `as`.
#[cfg(feature = "plant-float-cast")]
pub fn float_cast(x: f64) -> u64 {
    x as u64
}

/// `unsafe_code`: forbidden in every member.
#[cfg(feature = "plant-unsafe")]
pub fn unsafe_block() {
    unsafe {}
}

/// `rust_2018_idioms`: a lifetime elided in a path.
#[cfg(feature = "plant-elided-lifetime")]
pub fn elided_lifetime(text: &str) -> std::str::Chars {
    text.chars()
}

/// `allow_attributes_without_reason`: an escape hatch that says nothing.
#[cfg(feature = "plant-reasonless-allow")]
#[allow(dead_code)]
fn reasonless_allow() {}
