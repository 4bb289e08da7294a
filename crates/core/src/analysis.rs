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

use crate::params::{FromParams, Params};
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
/// `run` and `sections` receive the whole [`Study`] session rather than the
/// bare dataset, so analyses can compose: the pairwise summary, for
/// instance, reuses the memoized class distribution instead of recomputing
/// it.
pub trait Analysis {
    /// Analysis parameters. `Default` must yield the paper's configuration;
    /// [`FromParams`] parses it from a CLI flag list or an HTTP query string.
    type Config: Clone + Default + Send + Sync + FromParams;
    /// The computed result (also the implementing type, by convention).
    type Output: Clone + Send + Sync + 'static;

    /// The registry identity of the analysis.
    fn id() -> AnalysisId;

    /// Runs the analysis over the session's dataset.
    fn run(study: &Study, config: &Self::Config) -> Result<Self::Output, AnalysisError>;

    /// Presents one computed output as the analysis's titled sections, the
    /// same for the default and every parameterized configuration.
    fn sections(study: &Study, output: &Self::Output) -> Result<Vec<Section>, AnalysisError>;
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
/// parameter list (see [`FromParams`]).
pub type ParamSectionsFn = fn(&Study, &Params) -> Result<Vec<Section>, AnalysisError>;

/// One registry row: an [`AnalysisId`] plus the type-erased hooks the
/// dispatcher needs — forcing the memoized computation, building the
/// analysis's own sections, and contributing to the combined report.
pub struct AnalysisEntry {
    /// The analysis this entry describes.
    pub id: AnalysisId,
    /// Runs (and memoizes) the analysis under its default configuration.
    pub prime: fn(&Study) -> Result<(), AnalysisError>,
    /// Builds every section of the analysis under a parameter list (see
    /// [`analysis_sections`]).
    pub sections_with: ParamSectionsFn,
    /// The sections the analysis contributes to the *body* of the combined
    /// report, or `None` to stay out of it (the selection analysis predates
    /// the combined report and keeps its own subcommand instead, preserving
    /// the historical report layout byte for byte).
    pub report_sections: Option<SectionsFn>,
    /// A section appended after every body section (the pairwise analysis
    /// closes the report with the Section IV-E summary).
    pub epilogue: Option<SectionFn>,
    /// The parameter keys the analysis accepts: its configuration's
    /// [`FromParams::KEYS`].
    pub keys: &'static [&'static str],
}

/// The parameter keys of an analysis's configuration.
const fn keys<A: Analysis>() -> &'static [&'static str] {
    A::Config::KEYS
}

fn prime<A: Analysis>(study: &Study) -> Result<(), AnalysisError> {
    study.get::<A>().map(|_| ())
}

/// The sections of an analysis's memoized default run.
fn default_sections<A: Analysis>(study: &Study) -> Result<Vec<Section>, AnalysisError> {
    A::sections(study, &*study.get::<A>()?)
}

/// The one params→sections policy of every registry entry: an empty list
/// renders the memoized default run ([`Study::get`]); any other list is
/// parsed by the configuration's [`FromParams`] — so unknown keys and bad
/// values are errors — and run uncached through [`Study::get_with`].
fn sections_with<A: Analysis>(
    study: &Study,
    params: &Params,
) -> Result<Vec<Section>, AnalysisError> {
    if params.is_empty() {
        return default_sections::<A>(study);
    }
    let config = A::Config::from_params(params)?;
    A::sections(study, &study.get_with::<A>(&config)?)
}

/// The analysis registry, in report order. `Study::run_all`, the combined
/// report and the CLI dispatcher are all driven by this table, so adding an
/// entry makes a new analysis appear everywhere at once.
pub fn registry() -> &'static [AnalysisEntry] {
    use crate::{classes, kway, pairwise, releases, selection, split, temporal};
    const REGISTRY: &[AnalysisEntry] = &[
        AnalysisEntry {
            id: AnalysisId::Validity,
            prime: prime::<classes::ValidityDistribution>,
            sections_with: sections_with::<classes::ValidityDistribution>,
            report_sections: Some(default_sections::<classes::ValidityDistribution>),
            epilogue: None,
            keys: keys::<classes::ValidityDistribution>(),
        },
        AnalysisEntry {
            id: AnalysisId::Classes,
            prime: prime::<classes::ClassDistribution>,
            sections_with: sections_with::<classes::ClassDistribution>,
            report_sections: Some(default_sections::<classes::ClassDistribution>),
            epilogue: None,
            keys: keys::<classes::ClassDistribution>(),
        },
        AnalysisEntry {
            id: AnalysisId::Pairwise,
            prime: prime::<pairwise::PairwiseAnalysis>,
            sections_with: sections_with::<pairwise::PairwiseAnalysis>,
            report_sections: Some(pairwise::table_sections),
            epilogue: Some(pairwise::summary_section),
            keys: keys::<pairwise::PairwiseAnalysis>(),
        },
        AnalysisEntry {
            id: AnalysisId::Split,
            prime: prime::<split::SplitMatrix>,
            sections_with: sections_with::<split::SplitMatrix>,
            report_sections: Some(default_sections::<split::SplitMatrix>),
            epilogue: None,
            keys: keys::<split::SplitMatrix>(),
        },
        AnalysisEntry {
            id: AnalysisId::Releases,
            prime: prime::<releases::ReleaseAnalysis>,
            sections_with: sections_with::<releases::ReleaseAnalysis>,
            report_sections: Some(default_sections::<releases::ReleaseAnalysis>),
            epilogue: None,
            keys: keys::<releases::ReleaseAnalysis>(),
        },
        AnalysisEntry {
            id: AnalysisId::Temporal,
            prime: prime::<temporal::TemporalAnalysis>,
            sections_with: sections_with::<temporal::TemporalAnalysis>,
            report_sections: Some(default_sections::<temporal::TemporalAnalysis>),
            epilogue: None,
            keys: keys::<temporal::TemporalAnalysis>(),
        },
        AnalysisEntry {
            id: AnalysisId::KWay,
            prime: prime::<kway::KWayAnalysis>,
            sections_with: sections_with::<kway::KWayAnalysis>,
            report_sections: Some(default_sections::<kway::KWayAnalysis>),
            epilogue: None,
            keys: keys::<kway::KWayAnalysis>(),
        },
        AnalysisEntry {
            id: AnalysisId::Selection,
            prime: prime::<selection::SelectionAnalysis>,
            sections_with: sections_with::<selection::SelectionAnalysis>,
            report_sections: None,
            epilogue: None,
            keys: keys::<selection::SelectionAnalysis>(),
        },
    ];
    REGISTRY
}

/// Builds the sections of one analysis under an untyped parameter list: the
/// entry point shared by the `osdiv <analysis>` CLI commands (and the paper
/// commands aliasing them) and the HTTP `GET /v1/analyses/{id}` route, so
/// all emit byte-identical documents for the same id, parameters and
/// format.
pub fn analysis_sections(
    study: &Study,
    id: AnalysisId,
    params: &Params,
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
