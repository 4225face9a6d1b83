//! The JSDL job model: mapping between GFD.56-style documents and the
//! ARiA resource model (`aria_grid::JobSpec`).

use crate::xml::{self, Element, XmlError};
use aria_grid::{Architecture, JobId, JobRequirements, JobSpec, OperatingSystem};
use aria_sim::{SimDuration, SimTime};
use std::error::Error;
use std::fmt::{self, Write as _};

/// Errors raised when reading or converting a JSDL document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsdlError {
    /// The document is not well-formed XML.
    Xml(XmlError),
    /// The document is well-formed but structurally not a JSDL job.
    Structure(String),
    /// A field value could not be interpreted.
    Value(String),
}

impl fmt::Display for JsdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsdlError::Xml(e) => write!(f, "{e}"),
            JsdlError::Structure(m) => write!(f, "invalid jsdl structure: {m}"),
            JsdlError::Value(m) => write!(f, "invalid jsdl value: {m}"),
        }
    }
}

impl Error for JsdlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JsdlError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XmlError> for JsdlError {
    fn from(e: XmlError) -> Self {
        JsdlError::Xml(e)
    }
}

/// A parsed JSDL job definition: the subset of GFD.56 the ARiA resource
/// model consumes, plus the `aria` extension elements.
///
/// See the [crate-level example](crate) for the document shape.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDefinition {
    /// `JobIdentification/JobName`, if present.
    pub name: Option<String>,
    /// `Resources/CPUArchitecture/CPUArchitectureName`.
    pub arch: Architecture,
    /// `Resources/OperatingSystem/OperatingSystemType/OperatingSystemName`.
    pub os: OperatingSystem,
    /// `Resources/TotalPhysicalMemory/LowerBoundedRange`, in bytes.
    pub min_memory_bytes: u64,
    /// `Resources/TotalDiskSpace/LowerBoundedRange`, in bytes.
    pub min_disk_bytes: u64,
    /// `aria:EstimatedRunningTime`, in seconds on baseline hardware.
    pub ert: SimDuration,
    /// `aria:Deadline`, in seconds of absolute simulation time.
    pub deadline: Option<SimTime>,
}

const GIB: u64 = 1 << 30;

impl JobDefinition {
    /// Parses a JSDL document.
    ///
    /// # Errors
    ///
    /// [`JsdlError::Xml`] for malformed XML, [`JsdlError::Structure`] for
    /// missing mandatory elements, [`JsdlError::Value`] for
    /// unrecognized architecture/OS names or non-numeric bounds.
    pub fn parse(document: &str) -> Result<Self, JsdlError> {
        let root = xml::parse(document)?;
        if root.name != "JobDefinition" {
            return Err(JsdlError::Structure(format!(
                "root element is <{}>, expected <JobDefinition>",
                root.name
            )));
        }
        let description = root
            .child("JobDescription")
            .ok_or_else(|| JsdlError::Structure("missing <JobDescription>".into()))?;
        let resources = description
            .child("Resources")
            .ok_or_else(|| JsdlError::Structure("missing <Resources>".into()))?;

        let arch_name = resources
            .descend(&["CPUArchitecture", "CPUArchitectureName"])
            .map(|e| e.text.as_ref())
            .ok_or_else(|| JsdlError::Structure("missing <CPUArchitectureName>".into()))?;
        let os_name = resources
            .descend(&["OperatingSystem", "OperatingSystemType", "OperatingSystemName"])
            .map(|e| e.text.as_ref())
            .ok_or_else(|| JsdlError::Structure("missing <OperatingSystemName>".into()))?;

        let ert_secs = description
            .child_text("EstimatedRunningTime")
            .ok_or_else(|| JsdlError::Structure("missing <aria:EstimatedRunningTime>".into()))?;
        let ert_secs: u64 = ert_secs
            .parse()
            .map_err(|_| JsdlError::Value(format!("bad running time `{ert_secs}`")))?;
        let deadline = match description.child_text("Deadline") {
            None => None,
            Some(raw) => Some(SimTime::from_secs(
                raw.parse::<u64>()
                    .map_err(|_| JsdlError::Value(format!("bad deadline `{raw}`")))?,
            )),
        };

        Ok(JobDefinition {
            name: description
                .descend(&["JobIdentification", "JobName"])
                .filter(|e| !e.text.is_empty())
                .map(|e| e.text.to_string()),
            arch: parse_architecture(arch_name)?,
            os: parse_operating_system(os_name)?,
            min_memory_bytes: lower_bound(resources, "TotalPhysicalMemory")?,
            min_disk_bytes: lower_bound(resources, "TotalDiskSpace")?,
            ert: SimDuration::from_secs(ert_secs),
            deadline,
        })
    }

    /// Converts the definition into an ARiA [`JobSpec`].
    ///
    /// Byte bounds are rounded *up* to whole gigabytes, matching the
    /// granularity of the paper's resource model.
    ///
    /// # Errors
    ///
    /// [`JsdlError::Value`] if a byte bound exceeds the resource model's
    /// `u16` gigabyte range.
    pub fn to_job_spec(&self, id: JobId) -> Result<JobSpec, JsdlError> {
        let to_gb = |bytes: u64, what: &str| -> Result<u16, JsdlError> {
            let gb = bytes.div_ceil(GIB);
            u16::try_from(gb)
                .map_err(|_| JsdlError::Value(format!("{what} bound of {bytes} bytes is absurd")))
        };
        let requirements = JobRequirements::new(
            self.arch,
            self.os,
            to_gb(self.min_memory_bytes, "memory")?,
            to_gb(self.min_disk_bytes, "disk")?,
        );
        Ok(match self.deadline {
            None => JobSpec::batch(id, requirements, self.ert),
            Some(deadline) => JobSpec::with_deadline(id, requirements, self.ert, deadline),
        })
    }

    /// Builds a definition from an ARiA [`JobSpec`].
    ///
    /// The name is canonicalized the same way [`JobDefinition::parse`]
    /// canonicalizes `<jsdl:JobName>` text — surrounding whitespace is
    /// trimmed and a blank name becomes `None` — so a definition built
    /// here compares equal to its own serialize/parse round trip.
    pub fn from_job_spec(spec: &JobSpec, name: Option<&str>) -> Self {
        JobDefinition {
            name: name.map(str::trim).filter(|n| !n.is_empty()).map(str::to_string),
            arch: spec.requirements.arch,
            os: spec.requirements.os,
            min_memory_bytes: spec.requirements.min_memory_gb as u64 * GIB,
            min_disk_bytes: spec.requirements.min_disk_gb as u64 * GIB,
            ert: spec.ert,
            deadline: spec.deadline,
        }
    }

    /// Serializes the definition as a JSDL document.
    ///
    /// The output round-trips through [`JobDefinition::parse`].
    pub fn to_xml(&self) -> String {
        // Written in canonical form (trimmed, blank elided) so that any
        // hand-built definition still round-trips through `parse`.
        let name = self.name.as_deref().map(str::trim).filter(|n| !n.is_empty());
        // The fixed markup is ~860 bytes; the rest is four numbers, two
        // short enum names and the job name, whose escapes at most
        // sextuple it. One allocation for any realistic document.
        let mut out = String::with_capacity(1024 + name.map_or(0, |n| 6 * n.len()));
        out.push_str(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
             <jsdl:JobDefinition xmlns:jsdl=\"http://schemas.ggf.org/jsdl/2005/11/jsdl\" \
             xmlns:aria=\"urn:aria:extensions:1\">\n  \
             <jsdl:JobDescription>\n",
        );
        if let Some(name) = name {
            out.push_str("    <jsdl:JobIdentification>\n      <jsdl:JobName>");
            xml::escape_into(name, &mut out);
            out.push_str("</jsdl:JobName>\n    </jsdl:JobIdentification>\n");
        }
        // Writing to a `String` cannot fail.
        let _ = write!(
            out,
            "    <jsdl:Resources>\n      \
             <jsdl:CPUArchitecture><jsdl:CPUArchitectureName>{}</jsdl:CPUArchitectureName></jsdl:CPUArchitecture>\n      \
             <jsdl:OperatingSystem><jsdl:OperatingSystemType><jsdl:OperatingSystemName>{}</jsdl:OperatingSystemName></jsdl:OperatingSystemType></jsdl:OperatingSystem>\n      \
             <jsdl:TotalPhysicalMemory><jsdl:LowerBoundedRange>{}</jsdl:LowerBoundedRange></jsdl:TotalPhysicalMemory>\n      \
             <jsdl:TotalDiskSpace><jsdl:LowerBoundedRange>{}</jsdl:LowerBoundedRange></jsdl:TotalDiskSpace>\n    \
             </jsdl:Resources>\n    \
             <aria:EstimatedRunningTime>{}</aria:EstimatedRunningTime>\n",
            architecture_name(self.arch),
            operating_system_name(self.os),
            self.min_memory_bytes,
            self.min_disk_bytes,
            self.ert.as_secs(),
        );
        if let Some(deadline) = self.deadline {
            let _ = writeln!(out, "    <aria:Deadline>{}</aria:Deadline>", deadline.as_secs());
        }
        out.push_str("  </jsdl:JobDescription>\n</jsdl:JobDefinition>\n");
        out
    }
}

/// 2^64: the first byte count a `u64` bound cannot hold.
const U64_LIMIT: f64 = 18_446_744_073_709_551_616.0;

/// Reads `<element><LowerBoundedRange>N</LowerBoundedRange></element>`;
/// a missing element means "no requirement" (0 bytes). A negative, NaN
/// or infinite bound, or one of 2^64 bytes or more, is a typed error.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the bound is checked to lie in [0, 2^64) first; the cast drops only a fraction"
)]
fn lower_bound(resources: &Element<'_>, name: &str) -> Result<u64, JsdlError> {
    match resources.descend(&[name, "LowerBoundedRange"]) {
        None => Ok(0),
        Some(e) => e
            .text
            // JSDL ranges are xsd:double; accept integers and doubles.
            .parse::<f64>()
            .ok()
            .filter(|v| (0.0..U64_LIMIT).contains(v))
            .map(|v| v as u64)
            .ok_or_else(|| JsdlError::Value(format!("bad {name} bound `{}`", e.text))),
    }
}

/// Whether `name` is one of `aliases`, ignoring ASCII case.
fn is_any_of(name: &str, aliases: &[&str]) -> bool {
    aliases.iter().any(|alias| name.eq_ignore_ascii_case(alias))
}

/// Maps JSDL/CIM architecture names onto the paper's TOP500 set.
fn parse_architecture(name: &str) -> Result<Architecture, JsdlError> {
    const ALIASES: [(Architecture, &[&str]); 6] = [
        (Architecture::Amd64, &["x86_64", "amd64", "x86-64", "em64t"]),
        (Architecture::Power, &["power", "powerpc", "ppc64"]),
        (Architecture::Ia64, &["ia64", "ia-64", "itanium"]),
        (Architecture::Sparc, &["sparc", "sparc64"]),
        (Architecture::Mips, &["mips", "mips64"]),
        (Architecture::Nec, &["nec", "sx"]),
    ];
    ALIASES
        .iter()
        .find(|(_, aliases)| is_any_of(name, aliases))
        .map(|&(arch, _)| arch)
        .ok_or_else(|| JsdlError::Value(format!("unknown CPU architecture `{name}`")))
}

fn architecture_name(arch: Architecture) -> &'static str {
    match arch {
        Architecture::Amd64 => "x86_64",
        Architecture::Power => "power",
        Architecture::Ia64 => "ia64",
        Architecture::Sparc => "sparc",
        Architecture::Mips => "mips",
        Architecture::Nec => "nec",
    }
}

/// Maps JSDL/CIM operating system names onto the paper's TOP500 set.
fn parse_operating_system(name: &str) -> Result<OperatingSystem, JsdlError> {
    const ALIASES: [(OperatingSystem, &[&str]); 5] = [
        (OperatingSystem::Linux, &["linux"]),
        (OperatingSystem::Solaris, &["solaris", "sunos"]),
        (OperatingSystem::Unix, &["unix", "aix", "hp-ux", "hpux", "irix", "unixware"]),
        (OperatingSystem::Windows, &["windows", "winnt", "win2000", "winxp"]),
        (OperatingSystem::Bsd, &["bsd", "freebsd", "netbsd", "openbsd", "bsdunix"]),
    ];
    ALIASES
        .iter()
        .find(|(_, aliases)| is_any_of(name, aliases))
        .map(|&(os, _)| os)
        .ok_or_else(|| JsdlError::Value(format!("unknown operating system `{name}`")))
}

fn operating_system_name(os: OperatingSystem) -> &'static str {
    match os {
        OperatingSystem::Linux => "LINUX",
        OperatingSystem::Solaris => "Solaris",
        OperatingSystem::Unix => "UNIX",
        OperatingSystem::Windows => "WINNT",
        OperatingSystem::Bsd => "FreeBSD",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> &'static str {
        r#"<?xml version="1.0"?>
<jsdl:JobDefinition xmlns:jsdl="http://schemas.ggf.org/jsdl/2005/11/jsdl" xmlns:aria="urn:aria:extensions:1">
  <jsdl:JobDescription>
    <jsdl:JobIdentification><jsdl:JobName>bio-seq-7</jsdl:JobName></jsdl:JobIdentification>
    <jsdl:Resources>
      <jsdl:CPUArchitecture><jsdl:CPUArchitectureName>power</jsdl:CPUArchitectureName></jsdl:CPUArchitecture>
      <jsdl:OperatingSystem><jsdl:OperatingSystemType><jsdl:OperatingSystemName>AIX</jsdl:OperatingSystemName></jsdl:OperatingSystemType></jsdl:OperatingSystem>
      <jsdl:TotalPhysicalMemory><jsdl:LowerBoundedRange>8589934592</jsdl:LowerBoundedRange></jsdl:TotalPhysicalMemory>
      <jsdl:TotalDiskSpace><jsdl:LowerBoundedRange>1073741824</jsdl:LowerBoundedRange></jsdl:TotalDiskSpace>
    </jsdl:Resources>
    <aria:EstimatedRunningTime>5400</aria:EstimatedRunningTime>
    <aria:Deadline>86400</aria:Deadline>
  </jsdl:JobDescription>
</jsdl:JobDefinition>"#
    }

    #[test]
    fn parses_a_full_document() {
        let def = JobDefinition::parse(sample_doc()).unwrap();
        assert_eq!(def.name.as_deref(), Some("bio-seq-7"));
        assert_eq!(def.arch, Architecture::Power);
        assert_eq!(def.os, OperatingSystem::Unix); // AIX maps to UNIX
        assert_eq!(def.min_memory_bytes, 8 * GIB);
        assert_eq!(def.min_disk_bytes, GIB);
        assert_eq!(def.ert, SimDuration::from_mins(90));
        assert_eq!(def.deadline, Some(SimTime::from_hours(24)));
    }

    #[test]
    fn converts_to_job_spec_with_ceiled_gigabytes() {
        let def = JobDefinition::parse(sample_doc()).unwrap();
        let spec = def.to_job_spec(JobId::new(3)).unwrap();
        assert_eq!(spec.id, JobId::new(3));
        assert_eq!(spec.requirements.min_memory_gb, 8);
        assert_eq!(spec.requirements.min_disk_gb, 1);
        assert!(spec.is_deadline());

        // 1 byte over 2 GiB must round UP to 3 GB.
        let mut partial = def.clone();
        partial.min_memory_bytes = 2 * GIB + 1;
        assert_eq!(partial.to_job_spec(JobId::new(4)).unwrap().requirements.min_memory_gb, 3);
    }

    #[test]
    fn xml_round_trips_through_parse() {
        let original = JobDefinition::parse(sample_doc()).unwrap();
        let reparsed = JobDefinition::parse(&original.to_xml()).unwrap();
        // OS name canonicalizes (AIX -> UNIX) but the model is identical.
        assert_eq!(original, reparsed);
    }

    #[test]
    fn from_job_spec_round_trips() {
        let req = JobRequirements::new(Architecture::Sparc, OperatingSystem::Bsd, 4, 16);
        let spec = JobSpec::with_deadline(
            JobId::new(9),
            req,
            SimDuration::from_hours(2),
            SimTime::from_hours(30),
        );
        let def = JobDefinition::from_job_spec(&spec, Some("round<trip>"));
        let reparsed = JobDefinition::parse(&def.to_xml()).unwrap();
        let spec_again = reparsed.to_job_spec(JobId::new(9)).unwrap();
        assert_eq!(spec_again, spec);
        assert_eq!(reparsed.name.as_deref(), Some("round<trip>"));
    }

    #[test]
    fn missing_resources_is_a_structure_error() {
        let doc = "<JobDefinition><JobDescription/></JobDefinition>";
        match JobDefinition::parse(doc) {
            Err(JsdlError::Structure(m)) => assert!(m.contains("Resources"), "{m}"),
            other => panic!("expected structure error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_root_is_a_structure_error() {
        let doc = "<NotAJob/>";
        assert!(matches!(JobDefinition::parse(doc), Err(JsdlError::Structure(_))));
    }

    #[test]
    fn unknown_arch_is_a_value_error() {
        let doc = sample_doc().replace("power", "quantum9000");
        assert!(matches!(JobDefinition::parse(&doc), Err(JsdlError::Value(_))));
    }

    #[test]
    fn missing_bounds_default_to_zero() {
        let doc = sample_doc()
            .replace(
                "<jsdl:TotalPhysicalMemory><jsdl:LowerBoundedRange>8589934592</jsdl:LowerBoundedRange></jsdl:TotalPhysicalMemory>",
                "",
            )
            .replace(
                "<jsdl:TotalDiskSpace><jsdl:LowerBoundedRange>1073741824</jsdl:LowerBoundedRange></jsdl:TotalDiskSpace>",
                "",
            );
        let def = JobDefinition::parse(&doc).unwrap();
        assert_eq!(def.min_memory_bytes, 0);
        assert_eq!(def.min_disk_bytes, 0);
        let spec = def.to_job_spec(JobId::new(1)).unwrap();
        assert_eq!(spec.requirements.min_memory_gb, 0);
    }

    #[test]
    fn double_valued_bounds_are_accepted() {
        // JSDL ranges are xsd:double.
        let doc = sample_doc().replace("8589934592", "8589934592.0");
        let def = JobDefinition::parse(&doc).unwrap();
        assert_eq!(def.min_memory_bytes, 8 * GIB);
    }

    #[test]
    fn negative_bounds_are_rejected() {
        let doc = sample_doc().replace("8589934592", "-5");
        assert!(matches!(JobDefinition::parse(&doc), Err(JsdlError::Value(_))));
    }

    /// A bound a `u64` cannot hold is an error, not a saturated
    /// `u64::MAX` that `to_xml` would write back as a different value.
    #[test]
    fn bounds_past_u64_are_rejected() {
        for huge in ["1e30", "18446744073709551616", "inf", "NaN"] {
            let doc = sample_doc().replace("8589934592", huge);
            assert!(
                matches!(JobDefinition::parse(&doc), Err(JsdlError::Value(_))),
                "bound `{huge}` must be rejected"
            );
        }
        // The largest double below 2^64 still parses.
        let doc = sample_doc().replace("8589934592", "18446744073709549568");
        let def = JobDefinition::parse(&doc).unwrap();
        assert_eq!(def.min_memory_bytes, 18_446_744_073_709_549_568);
    }

    #[test]
    fn batch_definition_omits_deadline() {
        let doc = sample_doc().replace("<aria:Deadline>86400</aria:Deadline>", "");
        let def = JobDefinition::parse(&doc).unwrap();
        assert_eq!(def.deadline, None);
        assert!(!def.to_job_spec(JobId::new(1)).unwrap().is_deadline());
        assert!(!def.to_xml().contains("Deadline"));
    }

    #[test]
    fn errors_display_their_cause() {
        let xml_err = JobDefinition::parse("<a").unwrap_err();
        assert!(xml_err.to_string().contains("xml error"));
        assert!(matches!(xml_err, JsdlError::Xml(_)));
    }

    #[test]
    fn to_xml_writes_the_canonical_document_into_its_presized_buffer() {
        let req = JobRequirements::new(Architecture::Sparc, OperatingSystem::Bsd, 4, 16);
        let spec = JobSpec::with_deadline(
            JobId::new(9),
            req,
            SimDuration::from_hours(2),
            SimTime::from_hours(30),
        );
        let xml = JobDefinition::from_job_spec(&spec, Some(" a<b ")).to_xml();
        assert_eq!(
            xml,
            r#"<?xml version="1.0" encoding="UTF-8"?>
<jsdl:JobDefinition xmlns:jsdl="http://schemas.ggf.org/jsdl/2005/11/jsdl" xmlns:aria="urn:aria:extensions:1">
  <jsdl:JobDescription>
    <jsdl:JobIdentification>
      <jsdl:JobName>a&lt;b</jsdl:JobName>
    </jsdl:JobIdentification>
    <jsdl:Resources>
      <jsdl:CPUArchitecture><jsdl:CPUArchitectureName>sparc</jsdl:CPUArchitectureName></jsdl:CPUArchitecture>
      <jsdl:OperatingSystem><jsdl:OperatingSystemType><jsdl:OperatingSystemName>FreeBSD</jsdl:OperatingSystemName></jsdl:OperatingSystemType></jsdl:OperatingSystem>
      <jsdl:TotalPhysicalMemory><jsdl:LowerBoundedRange>4294967296</jsdl:LowerBoundedRange></jsdl:TotalPhysicalMemory>
      <jsdl:TotalDiskSpace><jsdl:LowerBoundedRange>17179869184</jsdl:LowerBoundedRange></jsdl:TotalDiskSpace>
    </jsdl:Resources>
    <aria:EstimatedRunningTime>7200</aria:EstimatedRunningTime>
    <aria:Deadline>108000</aria:Deadline>
  </jsdl:JobDescription>
</jsdl:JobDefinition>
"#
        );
        assert!(xml.len() <= 1024, "the pre-sized buffer never had to regrow");
    }
}
