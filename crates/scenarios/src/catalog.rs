//! The 26 evaluation scenarios of Table II.

use aria_core::{AriaConfig, PolicyMix, WorldConfig};
use aria_grid::Policy;
use aria_sim::SimDuration;
use aria_workload::{ArtModel, JobGeneratorConfig, SubmissionSchedule};
use std::fmt;

/// One of the paper's 26 evaluation scenarios (Table II).
///
/// By the paper's naming convention, scenarios whose name starts with `i`
/// have dynamic rescheduling enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "the variants are the paper's scenario names")]
pub enum Scenario {
    Fcfs,
    Sjf,
    Mixed,
    Deadline,
    LowLoad,
    HighLoad,
    DeadlineH,
    Expanding,
    Precise,
    Accuracy25,
    AccuracyBad,
    IFcfs,
    ISjf,
    IMixed,
    IDeadline,
    ILowLoad,
    IHighLoad,
    IDeadlineH,
    IExpanding,
    IInform1,
    IInform4,
    IInform15m,
    IInform30m,
    IPrecise,
    IAccuracy25,
    IAccuracyBad,
}

impl Scenario {
    /// All 26 scenarios, in Table II order.
    pub const ALL: [Scenario; 26] = [
        Scenario::Fcfs,
        Scenario::Sjf,
        Scenario::Mixed,
        Scenario::Deadline,
        Scenario::LowLoad,
        Scenario::HighLoad,
        Scenario::DeadlineH,
        Scenario::Expanding,
        Scenario::Precise,
        Scenario::Accuracy25,
        Scenario::AccuracyBad,
        Scenario::IFcfs,
        Scenario::ISjf,
        Scenario::IMixed,
        Scenario::IDeadline,
        Scenario::ILowLoad,
        Scenario::IHighLoad,
        Scenario::IDeadlineH,
        Scenario::IExpanding,
        Scenario::IInform1,
        Scenario::IInform4,
        Scenario::IInform15m,
        Scenario::IInform30m,
        Scenario::IPrecise,
        Scenario::IAccuracy25,
        Scenario::IAccuracyBad,
    ];

    /// The paper's name for the scenario.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Fcfs => "FCFS",
            Scenario::Sjf => "SJF",
            Scenario::Mixed => "Mixed",
            Scenario::Deadline => "Deadline",
            Scenario::LowLoad => "LowLoad",
            Scenario::HighLoad => "HighLoad",
            Scenario::DeadlineH => "DeadlineH",
            Scenario::Expanding => "Expanding",
            Scenario::Precise => "Precise",
            Scenario::Accuracy25 => "Accuracy25",
            Scenario::AccuracyBad => "AccuracyBad",
            Scenario::IFcfs => "iFCFS",
            Scenario::ISjf => "iSJF",
            Scenario::IMixed => "iMixed",
            Scenario::IDeadline => "iDeadline",
            Scenario::ILowLoad => "iLowLoad",
            Scenario::IHighLoad => "iHighLoad",
            Scenario::IDeadlineH => "iDeadlineH",
            Scenario::IExpanding => "iExpanding",
            Scenario::IInform1 => "iInform1",
            Scenario::IInform4 => "iInform4",
            Scenario::IInform15m => "iInform15m",
            Scenario::IInform30m => "iInform30m",
            Scenario::IPrecise => "iPrecise",
            Scenario::IAccuracy25 => "iAccuracy25",
            Scenario::IAccuracyBad => "iAccuracyBad",
        }
    }

    /// Table II's one-line description.
    pub fn description(self) -> &'static str {
        match self {
            Scenario::Fcfs => "All nodes FCFS, no dynamic rescheduling",
            Scenario::Sjf => "All nodes SJF, no dynamic rescheduling",
            Scenario::Mixed => "FCFS or SJF uniformly at random, no dynamic rescheduling",
            Scenario::Deadline => "All nodes EDF (soft deadlines, avg 7h30m slack)",
            Scenario::LowLoad => "Like Mixed, submission rate halved (1 job / 20 s)",
            Scenario::HighLoad => "Like Mixed, submission rate doubled (1 job / 5 s)",
            Scenario::DeadlineH => "Like Deadline with tight deadlines (avg 2h30m slack)",
            Scenario::Expanding => "Like Mixed, network grows 500 -> 700 nodes",
            Scenario::Precise => "Like Mixed, ART matches ERT exactly",
            Scenario::Accuracy25 => "Like Mixed, relative ERT error +/-25%",
            Scenario::AccuracyBad => "Like Mixed, ERT always underestimates",
            Scenario::IFcfs => "Like FCFS with dynamic rescheduling",
            Scenario::ISjf => "Like SJF with dynamic rescheduling",
            Scenario::IMixed => "Like Mixed with dynamic rescheduling (baseline)",
            Scenario::IDeadline => "Like Deadline with dynamic rescheduling",
            Scenario::ILowLoad => "Like LowLoad with dynamic rescheduling",
            Scenario::IHighLoad => "Like HighLoad with dynamic rescheduling",
            Scenario::IDeadlineH => "Like DeadlineH with dynamic rescheduling",
            Scenario::IExpanding => "Like Expanding with dynamic rescheduling",
            Scenario::IInform1 => "Like iMixed, INFORM for 1 job / 5 min",
            Scenario::IInform4 => "Like iMixed, INFORM for up to 4 jobs / 5 min",
            Scenario::IInform15m => "Like iMixed, reschedule only for >=15m improvement",
            Scenario::IInform30m => "Like iMixed, reschedule only for >=30m improvement",
            Scenario::IPrecise => "Like Precise with dynamic rescheduling",
            Scenario::IAccuracy25 => "Like Accuracy25 with dynamic rescheduling",
            Scenario::IAccuracyBad => "Like AccuracyBad with dynamic rescheduling",
        }
    }

    /// Whether dynamic rescheduling is enabled (the `i*` scenarios).
    pub fn rescheduling(self) -> bool {
        self.name().starts_with('i')
    }

    /// Looks a scenario up by its paper name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Scenario> {
        Scenario::ALL.iter().copied().find(|s| s.name().eq_ignore_ascii_case(name))
    }

    /// The plain (non-rescheduling) counterpart of an `i*` scenario, or
    /// `self` if already plain. Sensitivity scenarios (iInform*) map to
    /// Mixed.
    pub fn without_rescheduling(self) -> Scenario {
        match self {
            Scenario::IFcfs => Scenario::Fcfs,
            Scenario::ISjf => Scenario::Sjf,
            Scenario::IMixed
            | Scenario::IInform1
            | Scenario::IInform4
            | Scenario::IInform15m
            | Scenario::IInform30m => Scenario::Mixed,
            Scenario::IDeadline => Scenario::Deadline,
            Scenario::ILowLoad => Scenario::LowLoad,
            Scenario::IHighLoad => Scenario::HighLoad,
            Scenario::IDeadlineH => Scenario::DeadlineH,
            Scenario::IExpanding => Scenario::Expanding,
            Scenario::IPrecise => Scenario::Precise,
            Scenario::IAccuracy25 => Scenario::Accuracy25,
            Scenario::IAccuracyBad => Scenario::AccuracyBad,
            plain => plain,
        }
    }

    /// The world configuration for this scenario at full paper scale.
    pub fn world_config(self) -> WorldConfig {
        let mut config = match self {
            Scenario::Expanding | Scenario::IExpanding => WorldConfig::paper_expanding(),
            _ => WorldConfig::paper_baseline(),
        };
        config.policies = match self.without_rescheduling() {
            Scenario::Fcfs => PolicyMix::Uniform(Policy::Fcfs),
            Scenario::Sjf => PolicyMix::Uniform(Policy::Sjf),
            Scenario::Deadline | Scenario::DeadlineH => PolicyMix::Uniform(Policy::Edf),
            _ => PolicyMix::paper_mixed(),
        };
        config.art = match self.without_rescheduling() {
            Scenario::Precise => ArtModel::Exact,
            Scenario::Accuracy25 => ArtModel::Symmetric { epsilon: 0.25 },
            Scenario::AccuracyBad => ArtModel::Optimistic { epsilon: 0.1 },
            _ => ArtModel::paper_baseline(),
        };
        config.aria = if self.rescheduling() {
            AriaConfig::default()
        } else {
            AriaConfig::without_rescheduling()
        };
        match self {
            Scenario::IInform1 => config.aria.inform_batch = 1,
            Scenario::IInform4 => config.aria.inform_batch = 4,
            Scenario::IInform15m => config.aria.reschedule_threshold = SimDuration::from_mins(15),
            Scenario::IInform30m => config.aria.reschedule_threshold = SimDuration::from_mins(30),
            _ => {}
        }
        config
    }

    /// The job generator configuration for this scenario.
    pub fn job_config(self) -> JobGeneratorConfig {
        match self.without_rescheduling() {
            Scenario::Deadline => JobGeneratorConfig::paper_deadline(),
            Scenario::DeadlineH => JobGeneratorConfig::paper_tight_deadline(),
            _ => JobGeneratorConfig::paper_batch(),
        }
    }

    /// The submission schedule for this scenario.
    pub fn submission_schedule(self) -> SubmissionSchedule {
        match self.without_rescheduling() {
            Scenario::LowLoad => SubmissionSchedule::paper_low_load(),
            Scenario::HighLoad => SubmissionSchedule::paper_high_load(),
            _ => SubmissionSchedule::paper_baseline(),
        }
    }

    /// Whether the scenario uses deadline (EDF) scheduling.
    pub fn is_deadline(self) -> bool {
        matches!(self.without_rescheduling(), Scenario::Deadline | Scenario::DeadlineH)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_26_scenarios() {
        assert_eq!(Scenario::ALL.len(), 26);
        let mut names: Vec<&str> = Scenario::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26, "duplicate scenario names");
    }

    #[test]
    fn i_prefix_marks_rescheduling() {
        let rescheduling = Scenario::ALL.iter().filter(|s| s.rescheduling()).count();
        assert_eq!(rescheduling, 15); // 11 i-counterparts + 4 sensitivity
        assert!(Scenario::IMixed.rescheduling());
        assert!(!Scenario::Mixed.rescheduling());
    }

    #[test]
    fn from_name_round_trips() {
        for scenario in Scenario::ALL {
            assert_eq!(Scenario::from_name(scenario.name()), Some(scenario));
        }
        assert_eq!(Scenario::from_name("imixed"), Some(Scenario::IMixed));
        assert_eq!(Scenario::from_name("nope"), None);
    }

    #[test]
    fn world_configs_match_table_ii() {
        assert_eq!(Scenario::Fcfs.world_config().policies, PolicyMix::Uniform(Policy::Fcfs));
        assert!(!Scenario::Fcfs.world_config().aria.rescheduling);
        assert!(Scenario::IFcfs.world_config().aria.rescheduling);
        assert_eq!(Scenario::IInform1.world_config().aria.inform_batch, 1);
        assert_eq!(Scenario::IInform4.world_config().aria.inform_batch, 4);
        assert_eq!(
            Scenario::IInform15m.world_config().aria.reschedule_threshold,
            SimDuration::from_mins(15)
        );
        assert_eq!(
            Scenario::IInform30m.world_config().aria.reschedule_threshold,
            SimDuration::from_mins(30)
        );
        assert_eq!(Scenario::Expanding.world_config().joins.len(), 200);
        assert_eq!(Scenario::IPrecise.world_config().art, ArtModel::Exact);
        assert_eq!(Scenario::IAccuracy25.world_config().art, ArtModel::Symmetric { epsilon: 0.25 });
        assert_eq!(Scenario::AccuracyBad.world_config().art, ArtModel::Optimistic { epsilon: 0.1 });
    }

    #[test]
    fn deadline_scenarios_generate_deadline_jobs() {
        assert!(Scenario::Deadline.job_config().deadline_slack.is_some());
        assert!(Scenario::IDeadlineH.job_config().deadline_slack.is_some());
        assert!(Scenario::Mixed.job_config().deadline_slack.is_none());
        assert!(Scenario::IDeadline.is_deadline());
        assert!(!Scenario::IInform1.is_deadline());
    }

    #[test]
    fn load_scenarios_change_schedule() {
        assert_eq!(Scenario::ILowLoad.submission_schedule().interval(), SimDuration::from_secs(20));
        assert_eq!(Scenario::IHighLoad.submission_schedule().interval(), SimDuration::from_secs(5));
        assert_eq!(Scenario::IMixed.submission_schedule().interval(), SimDuration::from_secs(10));
    }

    #[test]
    fn without_rescheduling_maps_to_plain() {
        assert_eq!(Scenario::IMixed.without_rescheduling(), Scenario::Mixed);
        assert_eq!(Scenario::IInform30m.without_rescheduling(), Scenario::Mixed);
        assert_eq!(Scenario::Fcfs.without_rescheduling(), Scenario::Fcfs);
        assert_eq!(Scenario::IExpanding.without_rescheduling(), Scenario::Expanding);
    }
}
