//! Job descriptors: requirements, running-time estimates and deadlines.

use crate::resources::NodeProfile;
use crate::resources::{Architecture, OperatingSystem};
use aria_sim::{SimDuration, SimTime};
use std::fmt;

/// Grid-wide unique job identifier.
///
/// The paper assigns every job a UUID for "univocal tracking across the
/// grid" (§III-B); inside the simulator a dense 64-bit id provides the
/// same guarantee at lower cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd over integers, not floats")]
pub struct JobId(u64);

impl JobId {
    /// Wraps a raw id.
    pub const fn new(raw: u64) -> Self {
        JobId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{:06}", self.0)
    }
}

/// Scheduling priority for the Priority policy (paper future work, §VI).
///
/// Higher values are served first; the default is the lowest priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd over integers, not floats")]
pub struct JobPriority(pub u8);

impl fmt::Display for JobPriority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// The resource profile a node must offer to execute a job (§III-B).
///
/// Matching follows the paper's evaluation model: architecture and
/// operating system must be equal, memory and disk must be at least the
/// requested amount.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRequirements {
    /// Required CPU architecture (exact match).
    pub arch: Architecture,
    /// Required operating system (exact match).
    pub os: OperatingSystem,
    /// Minimum memory, in GB.
    pub min_memory_gb: u16,
    /// Minimum disk space, in GB.
    pub min_disk_gb: u16,
}

impl JobRequirements {
    /// Creates a requirement set.
    pub fn new(
        arch: Architecture,
        os: OperatingSystem,
        min_memory_gb: u16,
        min_disk_gb: u16,
    ) -> Self {
        JobRequirements { arch, os, min_memory_gb, min_disk_gb }
    }

    /// Whether a node's resources satisfy these requirements.
    pub fn matches(&self, profile: &NodeProfile) -> bool {
        self.arch == profile.arch
            && self.os == profile.os
            && profile.memory_gb >= self.min_memory_gb
            && profile.disk_gb >= self.min_disk_gb
    }
}

impl fmt::Display for JobRequirements {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} mem>={}GB disk>={}GB",
            self.arch, self.os, self.min_memory_gb, self.min_disk_gb
        )
    }
}

/// A complete job description as carried by REQUEST/INFORM/ASSIGN
/// messages: identifier, resource requirements, the Estimated job Running
/// Time on baseline hardware, and an optional deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Grid-wide unique identifier.
    pub id: JobId,
    /// Resources required to execute the job.
    pub requirements: JobRequirements,
    /// Estimated Running Time on the grid's baseline hardware (§III-B).
    pub ert: SimDuration,
    /// Absolute completion deadline, for deadline scheduling scenarios.
    pub deadline: Option<SimTime>,
    /// Priority, used only by the Priority policy extension.
    pub priority: JobPriority,
}

impl JobSpec {
    /// Creates a batch job (no deadline, default priority).
    pub fn batch(id: JobId, requirements: JobRequirements, ert: SimDuration) -> Self {
        JobSpec { id, requirements, ert, deadline: None, priority: JobPriority::default() }
    }

    /// Creates a deadline job.
    pub fn with_deadline(
        id: JobId,
        requirements: JobRequirements,
        ert: SimDuration,
        deadline: SimTime,
    ) -> Self {
        JobSpec {
            id,
            requirements,
            ert,
            deadline: Some(deadline),
            priority: JobPriority::default(),
        }
    }

    /// Returns a copy with the given priority (builder-style).
    pub fn priority(mut self, priority: JobPriority) -> Self {
        self.priority = priority;
        self
    }

    /// Whether the job carries a deadline.
    pub fn is_deadline(&self) -> bool {
        self.deadline.is_some()
    }
}

impl fmt::Display for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] ert={}", self.id, self.requirements, self.ert)?;
        if let Some(d) = self.deadline {
            write!(f, " deadline={d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::PerfIndex;

    fn profile(arch: Architecture, os: OperatingSystem, mem: u16, disk: u16) -> NodeProfile {
        NodeProfile::new(arch, os, mem, disk, PerfIndex::BASELINE)
    }

    #[test]
    fn matching_requires_exact_arch_and_os() {
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 2, 2);
        assert!(req.matches(&profile(Architecture::Amd64, OperatingSystem::Linux, 2, 2)));
        assert!(!req.matches(&profile(Architecture::Power, OperatingSystem::Linux, 2, 2)));
        assert!(!req.matches(&profile(Architecture::Amd64, OperatingSystem::Bsd, 2, 2)));
    }

    #[test]
    fn matching_requires_capacity_at_least() {
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 8, 4);
        assert!(req.matches(&profile(Architecture::Amd64, OperatingSystem::Linux, 8, 4)));
        assert!(req.matches(&profile(Architecture::Amd64, OperatingSystem::Linux, 16, 16)));
        assert!(!req.matches(&profile(Architecture::Amd64, OperatingSystem::Linux, 4, 4)));
        assert!(!req.matches(&profile(Architecture::Amd64, OperatingSystem::Linux, 8, 2)));
    }

    #[test]
    fn batch_jobs_have_no_deadline() {
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        let job = JobSpec::batch(JobId::new(7), req, SimDuration::from_hours(2));
        assert!(!job.is_deadline());
        assert_eq!(job.priority, JobPriority(0));
    }

    #[test]
    fn deadline_jobs_carry_deadline() {
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        let job = JobSpec::with_deadline(
            JobId::new(9),
            req,
            SimDuration::from_hours(2),
            SimTime::from_hours(10),
        );
        assert!(job.is_deadline());
        assert_eq!(job.deadline, Some(SimTime::from_hours(10)));
    }

    #[test]
    fn priority_builder_sets_priority() {
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        let job =
            JobSpec::batch(JobId::new(1), req, SimDuration::from_hours(1)).priority(JobPriority(5));
        assert_eq!(job.priority, JobPriority(5));
    }

    #[test]
    fn job_ids_order_and_display() {
        assert!(JobId::new(3) < JobId::new(10));
        assert_eq!(JobId::new(42).to_string(), "job-000042");
        assert_eq!(JobId::new(42).raw(), 42);
    }

    #[test]
    fn display_includes_deadline_when_present() {
        let req = JobRequirements::new(Architecture::Sparc, OperatingSystem::Unix, 1, 2);
        let job = JobSpec::with_deadline(
            JobId::new(1),
            req,
            SimDuration::from_hours(1),
            SimTime::from_hours(5),
        );
        let s = job.to_string();
        assert!(s.contains("SPARC/UNIX"), "{s}");
        assert!(s.contains("deadline=5h00m00s"), "{s}");
    }
}
