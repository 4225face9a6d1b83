//! Cross-validation between the model checker and the event-queue driver.
//!
//! The checker and the production driver share `World::handle` but walk it
//! through different machinery (`step()` over a search frontier vs.
//! `EventQueue::pop`). These tests pin that the two machineries agree:
//! the driver's run is one of the interleavings the checker enumerates,
//! and replaying the driver's own delivery order through the checker's
//! `step()` path lands on a bit-for-bit identical terminal state and
//! statistics record.

use aria_model::{Explorer, ModelConfig};

#[test]
fn event_queue_driver_lands_inside_the_explored_terminal_set() {
    // Full enumeration (no reduction) so the terminal set is the complete
    // reachable one.
    let config = ModelConfig { por: false, ..ModelConfig::default() };
    let explorer = Explorer::new(config.clone());
    let (stats, violation) = explorer.run();
    assert!(violation.is_none(), "unexpected violation:\n{}", violation.unwrap());
    assert!(!stats.truncated, "the crosscheck world must be exhaustible");

    let mut driver = config.build_world();
    driver.run();
    assert!(
        stats.terminal_fingerprints.contains(&driver.fingerprint()),
        "the driver's terminal state {:#x} is not among the {} explored terminals",
        driver.fingerprint(),
        stats.terminal_fingerprints.len()
    );
}

#[test]
fn queue_order_replay_is_bit_for_bit_identical_to_the_driver() {
    let config = ModelConfig::default();

    // Record the event queue's own delivery order as an action trace.
    let mut stepped = config.build_world();
    let mut trace = Vec::new();
    while let Some(action) = stepped.next_queued_action() {
        trace.push(action);
        stepped.step(action);
    }

    // The production driver over the same initial world.
    let mut driver = config.build_world();
    driver.run();

    // The checker's replay of that trace, property-checked at every step.
    let explorer = Explorer::new(config);
    let (replayed, violation) = explorer.replay(&trace);
    assert_eq!(violation, None, "the driver ordering violated a property");

    assert_eq!(replayed.canonical_state(), driver.canonical_state());
    assert_eq!(replayed.fingerprint(), driver.fingerprint());
    // The statistics fingerprint must match too: the collector's full
    // per-job records and counters are identical, not just the topology.
    assert_eq!(format!("{:?}", replayed.metrics()), format!("{:?}", driver.metrics()));
}
