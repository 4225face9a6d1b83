//! # aria-jsdl — JSDL-style job submission descriptions
//!
//! The ARiA protocol "does not specify the resource profiles and job
//! submission formats […]. Actual implementations may choose to use one
//! of the available job description schemas such as JSDL" (§III-A,
//! citing OGF GFD.56). This crate provides that front door: a
//! dependency-free parser and writer for the subset of the **Job
//! Submission Description Language** the ARiA resource model needs —
//! CPU architecture, operating system, memory and disk lower bounds —
//! plus two elements in an `aria` extension namespace carrying the
//! Estimated Running Time and the optional deadline.
//!
//! ## Example
//!
//! ```
//! use aria_jsdl::JobDefinition;
//! use aria_grid::JobId;
//!
//! let doc = r#"
//! <jsdl:JobDefinition xmlns:jsdl="http://schemas.ggf.org/jsdl/2005/11/jsdl">
//!   <jsdl:JobDescription>
//!     <jsdl:JobIdentification>
//!       <jsdl:JobName>render-frame-42</jsdl:JobName>
//!     </jsdl:JobIdentification>
//!     <jsdl:Resources>
//!       <jsdl:CPUArchitecture>
//!         <jsdl:CPUArchitectureName>x86_64</jsdl:CPUArchitectureName>
//!       </jsdl:CPUArchitecture>
//!       <jsdl:OperatingSystem>
//!         <jsdl:OperatingSystemType>
//!           <jsdl:OperatingSystemName>LINUX</jsdl:OperatingSystemName>
//!         </jsdl:OperatingSystemType>
//!       </jsdl:OperatingSystem>
//!       <jsdl:TotalPhysicalMemory>
//!         <jsdl:LowerBoundedRange>4294967296</jsdl:LowerBoundedRange>
//!       </jsdl:TotalPhysicalMemory>
//!       <jsdl:TotalDiskSpace>
//!         <jsdl:LowerBoundedRange>2147483648</jsdl:LowerBoundedRange>
//!       </jsdl:TotalDiskSpace>
//!     </jsdl:Resources>
//!     <aria:EstimatedRunningTime>9000</aria:EstimatedRunningTime>
//!   </jsdl:JobDescription>
//! </jsdl:JobDefinition>"#;
//!
//! let definition = JobDefinition::parse(doc)?;
//! assert_eq!(definition.name.as_deref(), Some("render-frame-42"));
//! let spec = definition.to_job_spec(JobId::new(1))?;
//! assert_eq!(spec.requirements.min_memory_gb, 4);
//! assert_eq!(spec.ert.as_secs(), 9000);
//! # Ok::<(), aria_jsdl::JsdlError>(())
//! ```

pub mod model;
pub mod xml;

pub use model::{JobDefinition, JsdlError};
pub use xml::{Element, XmlError};
