//! The network model: every nondeterministic choice point of the
//! protocol's transport, behind one dispatch enum.
//!
//! The [`crate::World`] handlers never touch the RNG for transport
//! decisions directly; they ask the configured [`NetModel`] instead.
//! This is the seam the bounded model checker (`aria-model`) relies on:
//!
//! * [`NetModel::Sampled`] reproduces the paper's simulation bit-for-bit
//!   — random initiator placement, random fanout subsets and sampled
//!   link/reply latencies, drawing from the world RNG in exactly the
//!   call sequence the pre-refactor code used. The event queue's
//!   `(time, seq)` order then fixes one delivery ordering per seed.
//! * [`NetModel::Lockstep`] makes every choice a pure function of the
//!   state and zeroes all transport latencies, so a world stepped under
//!   it consumes **no RNG during delivery**. All remaining
//!   nondeterminism is the *order* in which pending messages and timers
//!   are acted on — which is exactly the axis the checker enumerates —
//!   and two independent deliveries commute at state level.

use aria_grid::JobId;
use aria_overlay::{LatencyModel, NodeId};
use aria_sim::{SimDuration, SimRng};

/// Which network model resolves the protocol's transport choice points
/// (initiator placement, flood fanout sampling, latencies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetModel {
    /// The paper-faithful randomized transport (default everywhere).
    #[default]
    Sampled,
    /// Deterministic, zero-latency transport for exhaustive exploration:
    /// the initiator is `job id mod alive-count`, fanout picks the first
    /// `k` candidates, and every message is deliverable the instant it is
    /// sent.
    Lockstep,
}

impl NetModel {
    /// Picks the node a submitted job lands on, out of the alive
    /// candidates (non-empty, in ascending node order).
    pub(crate) fn pick_initiator(
        self,
        rng: &mut SimRng,
        candidates: &[NodeId],
        job: JobId,
    ) -> NodeId {
        match self {
            NetModel::Sampled => *rng.choose(candidates),
            #[expect(clippy::cast_possible_truncation, reason = "the remainder is in range")]
            NetModel::Lockstep => candidates[(job.raw() % candidates.len() as u64) as usize],
        }
    }

    /// Fills `picked` with up to `fanout` flood targets drawn from
    /// `candidates`.
    pub(crate) fn pick_targets(
        self,
        rng: &mut SimRng,
        candidates: &[NodeId],
        fanout: usize,
        picked: &mut Vec<NodeId>,
    ) {
        match self {
            NetModel::Sampled => rng.choose_multiple_into(candidates, fanout, picked),
            NetModel::Lockstep => {
                picked.clear();
                picked.extend_from_slice(&candidates[..fanout.min(candidates.len())]);
            }
        }
    }

    /// One-way latency of a flood hop along an overlay link whose
    /// modelled latency is `link`.
    pub(crate) fn flood_latency(self, link: SimDuration) -> SimDuration {
        match self {
            NetModel::Sampled => link,
            NetModel::Lockstep => SimDuration::ZERO,
        }
    }

    /// Latency of a routed point-to-point reply (ACCEPT/ASSIGN), timed
    /// as `reply_hops` sampled link traversals under [`NetModel::Sampled`].
    pub(crate) fn reply_latency(
        self,
        rng: &mut SimRng,
        latency: &LatencyModel,
        reply_hops: u32,
    ) -> SimDuration {
        match self {
            NetModel::Sampled => {
                let mut total = SimDuration::ZERO;
                for _ in 0..reply_hops {
                    total += latency.sample(rng);
                }
                total
            }
            NetModel::Lockstep => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn lockstep_draws_no_rng_and_is_a_pure_function() {
        let net = NetModel::Lockstep;
        let mut rng = SimRng::seed_from(1);
        let before = format!("{rng:?}");
        let candidates = nodes(5);

        assert_eq!(net.pick_initiator(&mut rng, &candidates, JobId::new(7)), NodeId::new(2));
        let mut picked = Vec::new();
        net.pick_targets(&mut rng, &candidates, 3, &mut picked);
        assert_eq!(picked, nodes(3));
        net.pick_targets(&mut rng, &candidates, 9, &mut picked);
        assert_eq!(picked, candidates, "fanout beyond the candidate count takes them all");
        assert_eq!(net.flood_latency(SimDuration::from_secs(3)), SimDuration::ZERO);
        assert_eq!(net.reply_latency(&mut rng, &LatencyModel::default(), 4), SimDuration::ZERO);
        assert_eq!(format!("{rng:?}"), before, "lockstep must not consume RNG");
    }

    #[test]
    fn sampled_matches_the_direct_rng_calls() {
        let net = NetModel::Sampled;
        let candidates = nodes(12);
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        assert_eq!(net.pick_initiator(&mut a, &candidates, JobId::new(0)), *b.choose(&candidates));
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        net.pick_targets(&mut a, &candidates, 4, &mut pa);
        b.choose_multiple_into(&candidates, 4, &mut pb);
        assert_eq!(pa, pb);
        assert_eq!(net.flood_latency(SimDuration::from_millis(40)), SimDuration::from_millis(40));
        let model = LatencyModel::default();
        let lat = net.reply_latency(&mut a, &model, 4);
        let mut expect = SimDuration::ZERO;
        for _ in 0..4 {
            expect += model.sample(&mut b);
        }
        assert_eq!(lat, expect);
    }
}
