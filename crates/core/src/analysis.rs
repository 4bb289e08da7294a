//! The typed analysis layer: the [`Analysis`] trait every deliverable of the
//! paper implements, the [`AnalysisId`] registry that drives the CLI and the
//! combined report, and the [`Section`]/[`Artifact`] building blocks handed
//! to the renderers.
//!
//! An analysis is a pure function from a study dataset (plus a typed
//! [`Analysis::Config`]) to an output value. The [`Study`] session runs
//! analyses on demand, memoizes their default-config results and can warm
//! the whole registry at once — see [`Study::run_all`].

use std::fmt;

use tabular::{SeriesSet, TextTable};

use crate::study::Study;

/// Identifies one of the registered analyses. The registry (see
/// [`registry`]) maps every id to its runner and section builders, so a new
/// analysis only needs a new variant plus one registry entry to appear in
/// the combined report and the CLI dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AnalysisId {
    /// Table I — per-OS validity distribution.
    Validity,
    /// Table II — per-OS component-class distribution.
    Classes,
    /// Tables III/IV and the Section IV-E summary — pairwise common
    /// vulnerabilities.
    Pairwise,
    /// Table V — history vs observed period split.
    Split,
    /// Table VI — diversity across OS releases.
    Releases,
    /// Figure 2 — temporal distribution per OS family.
    Temporal,
    /// Section IV-B — k-OS combination analysis.
    KWay,
    /// Section IV-C / Figure 3 — replica-group selection and validation.
    Selection,
}

impl AnalysisId {
    /// Every registered analysis, in the order the combined report presents
    /// them.
    pub const ALL: [AnalysisId; 8] = [
        AnalysisId::Validity,
        AnalysisId::Classes,
        AnalysisId::Pairwise,
        AnalysisId::Split,
        AnalysisId::Releases,
        AnalysisId::Temporal,
        AnalysisId::KWay,
        AnalysisId::Selection,
    ];

    /// The stable machine-readable name (used as a CLI token).
    pub fn name(&self) -> &'static str {
        match self {
            AnalysisId::Validity => "validity",
            AnalysisId::Classes => "classes",
            AnalysisId::Pairwise => "pairwise",
            AnalysisId::Split => "split",
            AnalysisId::Releases => "releases",
            AnalysisId::Temporal => "temporal",
            AnalysisId::KWay => "kway",
            AnalysisId::Selection => "selection",
        }
    }

    /// The paper deliverables the analysis reproduces.
    pub fn deliverables(&self) -> &'static str {
        match self {
            AnalysisId::Validity => "Table I",
            AnalysisId::Classes => "Table II",
            AnalysisId::Pairwise => "Tables III-IV, Section IV-E summary",
            AnalysisId::Split => "Table V",
            AnalysisId::Releases => "Table VI",
            AnalysisId::Temporal => "Figure 2",
            AnalysisId::KWay => "Section IV-B",
            AnalysisId::Selection => "Figure 3",
        }
    }

    /// One-line description shown by the CLI.
    pub fn describe(&self) -> &'static str {
        match self {
            AnalysisId::Validity => "distribution of OS vulnerabilities by validity flag",
            AnalysisId::Classes => "vulnerabilities per OS component class",
            AnalysisId::Pairwise => "common vulnerabilities for every OS pair",
            AnalysisId::Split => "history vs observed common vulnerabilities",
            AnalysisId::Releases => "common vulnerabilities between OS releases",
            AnalysisId::Temporal => "per-year vulnerability publications per family",
            AnalysisId::KWay => "vulnerabilities shared by k or more OSes",
            AnalysisId::Selection => "replica-group selection and validation",
        }
    }

    /// Resolves a machine-readable name back to an id.
    pub fn from_name(name: &str) -> Result<AnalysisId, AnalysisError> {
        AnalysisId::ALL
            .into_iter()
            .find(|id| id.name() == name)
            .ok_or_else(|| AnalysisError::UnknownAnalysis(name.to_string()))
    }
}

impl fmt::Display for AnalysisId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors produced when configuring or dispatching analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// A year range with `first_year > last_year` (e.g. a Figure 2 request
    /// for 2010–1993). The old API silently produced empty series instead.
    InvalidYearRange {
        /// Requested first year.
        first: u16,
        /// Requested last year.
        last: u16,
    },
    /// An analysis name that is not in the registry.
    UnknownAnalysis(String),
    /// An output format name that is not `text`, `csv` or `json`.
    UnknownFormat(String),
    /// A server-profile name that is not `fat`, `thin` or `isolated`.
    UnknownProfile(String),
    /// A selection-criterion name that is not `pairwise-sum` or
    /// `distinct-shared`.
    UnknownCriterion(String),
    /// A configuration key the analysis does not accept (see
    /// [`crate::params::FromParams`]).
    UnknownParam {
        /// The rejected key.
        name: String,
        /// The keys the configuration accepts.
        expected: &'static [&'static str],
    },
    /// A configuration value that failed to parse.
    InvalidParam {
        /// The key whose value is invalid.
        name: String,
        /// The rejected raw value.
        value: String,
        /// Why the value failed to parse.
        reason: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::InvalidYearRange { first, last } => write!(
                f,
                "invalid year range: first year {first} is after last year {last}"
            ),
            AnalysisError::UnknownAnalysis(name) => {
                write!(f, "unknown analysis {name:?} (see `AnalysisId::ALL`)")
            }
            AnalysisError::UnknownFormat(name) => {
                write!(f, "unknown format {name:?} (expected text, csv or json)")
            }
            AnalysisError::UnknownProfile(name) => write!(
                f,
                "unknown server profile {name:?} (expected fat, thin or isolated)"
            ),
            AnalysisError::UnknownCriterion(name) => write!(
                f,
                "unknown selection criterion {name:?} (expected pairwise-sum or distinct-shared)"
            ),
            AnalysisError::UnknownParam { name, expected } => {
                if expected.is_empty() {
                    write!(f, "unknown parameter {name:?} (the analysis takes none)")
                } else {
                    write!(
                        f,
                        "unknown parameter {name:?} (expected one of: {})",
                        expected.join(", ")
                    )
                }
            }
            AnalysisError::InvalidParam {
                name,
                value,
                reason,
            } => write!(f, "invalid value {value:?} for parameter {name}: {reason}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// A deliverable of the paper expressed as one typed computation.
///
/// Implementors are the analysis output types themselves (`type Output =
/// Self`), so a session lookup reads naturally:
/// `study.get::<PairwiseAnalysis>()`.
///
/// `run` receives the whole [`Study`] session rather than the bare dataset,
/// so analyses can compose: the pairwise summary, for instance, reuses the
/// memoized class distribution instead of recomputing it.
pub trait Analysis {
    /// Analysis parameters. `Default` must yield the paper's configuration.
    type Config: Clone + Default + Send + Sync;
    /// The computed result (also the implementing type, by convention).
    type Output: Clone + Send + Sync + 'static;

    /// The registry identity of the analysis.
    fn id() -> AnalysisId;

    /// Runs the analysis over the session's dataset.
    fn run(study: &Study, config: &Self::Config) -> Result<Self::Output, AnalysisError>;
}

/// The body of a rendered section: either an aligned table or a set of
/// labelled series. Every output format ([`crate::render::Format`]) knows
/// how to render both.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// A table deliverable (Tables I–VI, Figure 3, k-way, summary).
    Table(TextTable),
    /// A series deliverable (the Figure 2 sub-plots).
    Series(SeriesSet),
}

/// A titled deliverable, the unit the renderers consume.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Section heading (e.g. `Table I: validity distribution`).
    pub title: String,
    /// The table or series body.
    pub artifact: Artifact,
}

impl Section {
    /// Creates a table section.
    pub fn table(title: impl Into<String>, table: TextTable) -> Self {
        Section {
            title: title.into(),
            artifact: Artifact::Table(table),
        }
    }

    /// Creates a series section.
    pub fn series(title: impl Into<String>, series: SeriesSet) -> Self {
        Section {
            title: title.into(),
            artifact: Artifact::Series(series),
        }
    }
}

/// A registry hook building the sections of one analysis.
pub type SectionsFn = fn(&Study) -> Result<Vec<Section>, AnalysisError>;

/// A registry hook building a single epilogue section.
pub type SectionFn = fn(&Study) -> Result<Section, AnalysisError>;

/// A registry hook building the sections of one analysis under an untyped
/// parameter list (see [`crate::params::FromParams`]). An empty list is the
/// memoized default configuration; a non-empty list is parsed into the
/// analysis's `Config` and run through [`Study::get_with`].
pub type ParamSectionsFn =
    fn(&Study, &crate::params::Params) -> Result<Vec<Section>, AnalysisError>;

/// One registry row: an [`AnalysisId`] plus the type-erased hooks the
/// dispatcher needs — forcing the memoized computation, building the
/// analysis's own sections, and contributing to the combined report.
pub struct AnalysisEntry {
    /// The analysis this entry describes.
    pub id: AnalysisId,
    /// Runs (and memoizes) the analysis under its default configuration.
    pub prime: fn(&Study) -> Result<(), AnalysisError>,
    /// Builds every section of the analysis (used by per-analysis exports).
    pub sections: SectionsFn,
    /// Builds the analysis's sections under an explicit parameter list
    /// (the parameterized CLI commands and the HTTP query-string path).
    pub sections_with: ParamSectionsFn,
    /// The sections the analysis contributes to the *body* of the combined
    /// report, or `None` to stay out of it (the selection analysis predates
    /// the combined report and keeps its own subcommand instead, preserving
    /// the historical report layout byte for byte).
    pub report_sections: Option<SectionsFn>,
    /// A section appended after every body section (the pairwise analysis
    /// closes the report with the Section IV-E summary).
    pub epilogue: Option<SectionFn>,
}

fn prime<A: Analysis>(study: &Study) -> Result<(), AnalysisError> {
    study.get::<A>().map(|_| ())
}

/// The analysis registry, in report order. `Study::run_all`, the combined
/// report and the CLI dispatcher are all driven by this table, so adding an
/// entry makes a new analysis appear everywhere at once.
pub fn registry() -> &'static [AnalysisEntry] {
    const REGISTRY: &[AnalysisEntry] = &[
        AnalysisEntry {
            id: AnalysisId::Validity,
            prime: prime::<crate::classes::ValidityDistribution>,
            sections: crate::classes::validity_sections,
            sections_with: crate::classes::validity_sections_with,
            report_sections: Some(crate::classes::validity_sections),
            epilogue: None,
        },
        AnalysisEntry {
            id: AnalysisId::Classes,
            prime: prime::<crate::classes::ClassDistribution>,
            sections: crate::classes::class_sections,
            sections_with: crate::classes::class_sections_with,
            report_sections: Some(crate::classes::class_sections),
            epilogue: None,
        },
        AnalysisEntry {
            id: AnalysisId::Pairwise,
            prime: prime::<crate::pairwise::PairwiseAnalysis>,
            sections: crate::pairwise::sections,
            sections_with: crate::pairwise::sections_with,
            report_sections: Some(crate::pairwise::table_sections),
            epilogue: Some(crate::pairwise::summary_section),
        },
        AnalysisEntry {
            id: AnalysisId::Split,
            prime: prime::<crate::split::SplitMatrix>,
            sections: crate::split::sections,
            sections_with: crate::split::sections_with,
            report_sections: Some(crate::split::sections),
            epilogue: None,
        },
        AnalysisEntry {
            id: AnalysisId::Releases,
            prime: prime::<crate::releases::ReleaseAnalysis>,
            sections: crate::releases::sections,
            sections_with: crate::releases::sections_with,
            report_sections: Some(crate::releases::sections),
            epilogue: None,
        },
        AnalysisEntry {
            id: AnalysisId::Temporal,
            prime: prime::<crate::temporal::TemporalAnalysis>,
            sections: crate::temporal::sections,
            sections_with: crate::temporal::sections_with,
            report_sections: Some(crate::temporal::sections),
            epilogue: None,
        },
        AnalysisEntry {
            id: AnalysisId::KWay,
            prime: prime::<crate::kway::KWayAnalysis>,
            sections: crate::kway::sections,
            sections_with: crate::kway::sections_with,
            report_sections: Some(crate::kway::sections),
            epilogue: None,
        },
        AnalysisEntry {
            id: AnalysisId::Selection,
            prime: prime::<crate::selection::SelectionAnalysis>,
            sections: crate::selection::sections,
            sections_with: crate::selection::sections_with,
            report_sections: None,
            epilogue: None,
        },
    ];
    REGISTRY
}

/// Builds the sections of one analysis under an untyped parameter list: the
/// entry point shared by the parameterized `osdiv <analysis>` CLI commands
/// and the HTTP `GET /v1/analyses/{id}` route, so both emit byte-identical
/// documents for the same id, parameters and format.
pub fn analysis_sections(
    study: &Study,
    id: AnalysisId,
    params: &crate::params::Params,
) -> Result<Vec<Section>, AnalysisError> {
    (registry_entry(id).sections_with)(study, params)
}

/// The registry rendered as a table (the CLI's `list` command and the
/// server's `GET /v1/analyses` route).
pub fn registry_table() -> TextTable {
    let mut table = TextTable::new(["Analysis", "Deliverables", "Description"]);
    for entry in registry() {
        table.push_row([
            entry.id.name().to_string(),
            entry.id.deliverables().to_string(),
            entry.id.describe().to_string(),
        ]);
    }
    table
}

/// The registry table as a titled section.
pub fn registry_section() -> Section {
    Section::table("Analysis registry", registry_table())
}

/// Looks one registry entry up by id.
pub fn registry_entry(id: AnalysisId) -> &'static AnalysisEntry {
    registry()
        .iter()
        .find(|entry| entry.id == id)
        .expect("every AnalysisId has a registry entry")
}

/// Builds the section sequence of the combined report: every registry
/// entry's report contribution in registry order, followed by the epilogue
/// sections. The layout (and, through the text renderer, the byte-for-byte
/// output) matches the historical `report::full_report`.
pub fn report_sections(study: &Study) -> Result<Vec<Section>, AnalysisError> {
    let mut sections = Vec::new();
    for entry in registry() {
        if let Some(build) = entry.report_sections {
            sections.extend(build(study)?);
        }
    }
    for entry in registry() {
        if let Some(build) = entry.epilogue {
            sections.push(build(study)?);
        }
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_has_a_registry_entry_in_order() {
        let ids: Vec<AnalysisId> = registry().iter().map(|e| e.id).collect();
        assert_eq!(ids, AnalysisId::ALL.to_vec());
        for id in AnalysisId::ALL {
            assert_eq!(registry_entry(id).id, id);
        }
    }

    #[test]
    fn names_round_trip_and_are_unique() {
        for id in AnalysisId::ALL {
            assert_eq!(AnalysisId::from_name(id.name()), Ok(id));
            assert_eq!(format!("{id}"), id.name());
            assert!(!id.deliverables().is_empty());
            assert!(!id.describe().is_empty());
        }
        assert_eq!(
            AnalysisId::from_name("nope"),
            Err(AnalysisError::UnknownAnalysis("nope".to_string()))
        );
    }

    #[test]
    fn errors_render_a_human_message() {
        let err = AnalysisError::InvalidYearRange {
            first: 2010,
            last: 1993,
        };
        assert!(err.to_string().contains("2010"));
        assert!(AnalysisError::UnknownFormat("yaml".into())
            .to_string()
            .contains("yaml"));
        assert!(AnalysisError::UnknownProfile("mega".into())
            .to_string()
            .contains("mega"));
    }

    #[test]
    fn sections_constructors_tag_the_artifact() {
        let table = Section::table("t", TextTable::new(["a"]));
        assert!(matches!(table.artifact, Artifact::Table(_)));
        let series = Section::series("s", SeriesSet::new("s"));
        assert!(matches!(series.artifact, Artifact::Series(_)));
    }
}
