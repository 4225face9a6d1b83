//! Node resource profiles: architecture, operating system, memory, disk
//! and the performance index relating a node to the ERT baseline.

use aria_sim::SimDuration;
use std::error::Error;
use std::fmt;

/// CPU architecture of a grid node, per the TOP500 list used by the paper
/// (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd over the variants")]
pub enum Architecture {
    /// x86-64 (87.2 % of the TOP500 distribution used in the paper).
    Amd64,
    /// IBM POWER (11 %).
    Power,
    /// Intel Itanium (1.2 %).
    Ia64,
    /// SPARC (0.2 %).
    Sparc,
    /// MIPS (0.2 %).
    Mips,
    /// NEC vector architecture (0.2 %).
    Nec,
}

impl Architecture {
    /// All architectures, in the order used by the paper's distribution.
    pub const ALL: [Architecture; 6] = [
        Architecture::Amd64,
        Architecture::Power,
        Architecture::Ia64,
        Architecture::Sparc,
        Architecture::Mips,
        Architecture::Nec,
    ];
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Architecture::Amd64 => "AMD64",
            Architecture::Power => "POWER",
            Architecture::Ia64 => "IA-64",
            Architecture::Sparc => "SPARC",
            Architecture::Mips => "MIPS",
            Architecture::Nec => "NEC",
        };
        f.write_str(name)
    }
}

/// Operating system installed on a grid node, per the TOP500 list used by
/// the paper (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd over the variants")]
pub enum OperatingSystem {
    /// Linux (88.6 %).
    Linux,
    /// Solaris (5.8 %).
    Solaris,
    /// Other commercial UNIX (4.4 %).
    Unix,
    /// Windows (1 %).
    Windows,
    /// BSD (0.2 %).
    Bsd,
}

impl OperatingSystem {
    /// All operating systems, in the order used by the paper's
    /// distribution.
    pub const ALL: [OperatingSystem; 5] = [
        OperatingSystem::Linux,
        OperatingSystem::Solaris,
        OperatingSystem::Unix,
        OperatingSystem::Windows,
        OperatingSystem::Bsd,
    ];
}

impl fmt::Display for OperatingSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OperatingSystem::Linux => "LINUX",
            OperatingSystem::Solaris => "SOLARIS",
            OperatingSystem::Unix => "UNIX",
            OperatingSystem::Windows => "WINDOWS",
            OperatingSystem::Bsd => "BSD",
        };
        f.write_str(name)
    }
}

/// Error returned by [`PerfIndex::new`] for values outside `[1, 2]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidPerfIndex(pub f64);

impl fmt::Display for InvalidPerfIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "performance index {} outside the paper's range [1, 2]", self.0)
    }
}

impl Error for InvalidPerfIndex {}

/// A node's performance index `p ∈ [1, 2]` (§IV-B).
///
/// The index compares the node's computing power to the grid-wide
/// baseline hardware used to express Estimated Running Times: a job with
/// estimate `ERT` runs in `ERTp = ERT / p` on this node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfIndex(f64);

impl PerfIndex {
    /// The baseline hardware itself (`p = 1`).
    pub const BASELINE: PerfIndex = PerfIndex(1.0);

    /// Validates and wraps a performance index.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPerfIndex`] if `value` is NaN or outside `[1, 2]`.
    pub fn new(value: f64) -> Result<Self, InvalidPerfIndex> {
        if value.is_finite() && (1.0..=2.0).contains(&value) {
            Ok(PerfIndex(value))
        } else {
            Err(InvalidPerfIndex(value))
        }
    }

    /// The raw index value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Default for PerfIndex {
    fn default() -> Self {
        PerfIndex::BASELINE
    }
}

impl fmt::Display for PerfIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

/// Hardware/software profile of a grid node (§IV-B).
///
/// Memory and disk are in whole gigabytes, as in the paper (both drawn
/// from {1, 2, 4, 8, 16} GB in the evaluation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeProfile {
    /// CPU architecture.
    pub arch: Architecture,
    /// Installed operating system.
    pub os: OperatingSystem,
    /// Available memory, in GB.
    pub memory_gb: u16,
    /// Available disk space, in GB.
    pub disk_gb: u16,
    /// Performance index relative to the ERT baseline.
    pub performance: PerfIndex,
}

impl NodeProfile {
    /// Creates a profile.
    pub fn new(
        arch: Architecture,
        os: OperatingSystem,
        memory_gb: u16,
        disk_gb: u16,
        performance: PerfIndex,
    ) -> Self {
        NodeProfile { arch, os, memory_gb, disk_gb, performance }
    }

    /// The job running-time estimate scaled to this node: `ERTp = ERT / p`
    /// (§IV-B).
    pub fn ert_on(&self, ert: SimDuration) -> SimDuration {
        ert.div_f64(self.performance.value())
    }
}

impl fmt::Display for NodeProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} mem={}GB disk={}GB p={}",
            self.arch, self.os, self.memory_gb, self.disk_gb, self.performance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_index_validates_range() {
        assert!(PerfIndex::new(1.0).is_ok());
        assert!(PerfIndex::new(2.0).is_ok());
        assert!(PerfIndex::new(1.37).is_ok());
        assert_eq!(PerfIndex::new(0.99), Err(InvalidPerfIndex(0.99)));
        assert_eq!(PerfIndex::new(2.01), Err(InvalidPerfIndex(2.01)));
        assert!(PerfIndex::new(f64::NAN).is_err());
        assert!(PerfIndex::new(f64::INFINITY).is_err());
    }

    #[test]
    fn ertp_divides_by_performance() {
        let p = NodeProfile::new(
            Architecture::Power,
            OperatingSystem::Linux,
            4,
            8,
            PerfIndex::new(2.0).unwrap(),
        );
        assert_eq!(p.ert_on(SimDuration::from_hours(4)), SimDuration::from_hours(2));
        let baseline = NodeProfile { performance: PerfIndex::BASELINE, ..p };
        assert_eq!(baseline.ert_on(SimDuration::from_hours(4)), SimDuration::from_hours(4));
    }

    #[test]
    fn faster_node_never_slower() {
        let ert = SimDuration::from_mins(150);
        let slow = PerfIndex::new(1.0).unwrap();
        let fast = PerfIndex::new(1.9).unwrap();
        let mk = |p| NodeProfile::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1, p);
        assert!(mk(fast).ert_on(ert) < mk(slow).ert_on(ert));
    }

    #[test]
    fn display_formats() {
        let p = NodeProfile::new(
            Architecture::Ia64,
            OperatingSystem::Solaris,
            2,
            16,
            PerfIndex::new(1.5).unwrap(),
        );
        assert_eq!(p.to_string(), "IA-64/SOLARIS mem=2GB disk=16GB p=1.500");
        assert_eq!(Architecture::Nec.to_string(), "NEC");
        assert_eq!(OperatingSystem::Bsd.to_string(), "BSD");
    }

    #[test]
    fn enumerations_are_complete() {
        assert_eq!(Architecture::ALL.len(), 6);
        assert_eq!(OperatingSystem::ALL.len(), 5);
    }

    #[test]
    fn invalid_perf_index_displays_value() {
        let err = PerfIndex::new(3.0).unwrap_err();
        assert!(err.to_string().contains("3"));
    }
}
