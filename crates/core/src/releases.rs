//! Diversity across OS releases (Section IV-D, Table VI).
//!
//! The paper's preliminary per-release analysis correlates NVD entries with
//! the security trackers of four distributions and asks how many common
//! vulnerabilities remain when *specific releases* are compared instead of
//! whole product lines. Only vulnerabilities with explicit per-release
//! version information contribute (the rest could not be correlated by the
//! paper either).

use nvd_model::{OsDistribution, OsRelease};
use tabular::TextTable;

use crate::analysis::{Analysis, AnalysisError, AnalysisId, Section};
use crate::dataset::{ServerProfile, StudyDataset};
use crate::study::Study;

/// Configuration of the per-release analysis: the releases to pair up and
/// the profile. The default reproduces Table VI (every studied Debian and
/// RedHat release, Isolated Thin Server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseConfig {
    /// The releases whose pairs are analysed.
    pub releases: Vec<OsRelease>,
    /// The server profile counts are taken under.
    pub profile: ServerProfile,
}

impl Default for ReleaseConfig {
    fn default() -> Self {
        ReleaseConfig {
            releases: OsDistribution::Debian
                .releases()
                .iter()
                .chain(OsDistribution::RedHat.releases())
                .copied()
                .collect(),
            profile: ServerProfile::IsolatedThinServer,
        }
    }
}

/// One row of the Table VI reproduction: a pair of `(OS, release)`
/// combinations and the number of vulnerabilities affecting both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleasePairRow {
    /// First release of the pair.
    pub a: OsRelease,
    /// Second release of the pair.
    pub b: OsRelease,
    /// Number of vulnerabilities (with per-release information) affecting
    /// both releases under the analysis profile.
    pub common: usize,
}

impl ReleasePairRow {
    /// Whether the two releases belong to the same distribution.
    pub fn same_distribution(&self) -> bool {
        self.a.distribution() == self.b.distribution()
    }
}

/// The per-release analysis.
#[derive(Debug, Clone)]
pub struct ReleaseAnalysis {
    rows: Vec<ReleasePairRow>,
    profile: ServerProfile,
}

impl ReleaseAnalysis {
    fn compute_impl(study: &StudyDataset, releases: &[OsRelease], profile: ServerProfile) -> Self {
        let mut rows = Vec::new();
        for (i, &a) in releases.iter().enumerate() {
            for &b in releases.iter().skip(i + 1) {
                let common = study
                    .store()
                    .rows()
                    .filter(|row| {
                        study.retains(row, profile)
                            && affects_release_explicitly(study, row.id, a)
                            && affects_release_explicitly(study, row.id, b)
                    })
                    .count();
                rows.push(ReleasePairRow { a, b, common });
            }
        }
        ReleaseAnalysis { rows, profile }
    }

    /// The release pairs analysed.
    pub fn rows(&self) -> &[ReleasePairRow] {
        &self.rows
    }

    /// The profile the analysis was run under.
    pub fn profile(&self) -> ServerProfile {
        self.profile
    }

    /// The row of a specific release pair (in either order).
    pub fn pair(&self, a: &OsRelease, b: &OsRelease) -> Option<&ReleasePairRow> {
        self.rows
            .iter()
            .find(|row| (&row.a == a && &row.b == b) || (&row.a == b && &row.b == a))
    }

    /// Number of release pairs with zero common vulnerabilities — the
    /// paper's point is that almost all of them are disjoint.
    pub fn disjoint_pairs(&self) -> usize {
        self.rows.iter().filter(|row| row.common == 0).count()
    }

    /// Renders Table VI (common vulnerabilities between OS releases).
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(["OS Versions", "Total"]);
        for row in self.rows() {
            table.push_row([
                format!("{}-{}", row.a.label(), row.b.label()),
                row.common.to_string(),
            ]);
        }
        table
    }
}

impl Analysis for ReleaseAnalysis {
    type Config = ReleaseConfig;
    type Output = Self;

    fn id() -> AnalysisId {
        AnalysisId::Releases
    }

    fn run(study: &Study, config: &ReleaseConfig) -> Result<Self, AnalysisError> {
        Ok(Self::compute_impl(
            study.dataset(),
            &config.releases,
            config.profile,
        ))
    }

    fn sections(_study: &Study, analysis: &Self) -> Result<Vec<Section>, AnalysisError> {
        Ok(vec![Section::table(
            "Table VI: OS releases",
            analysis.to_table(),
        )])
    }
}

/// Whether a vulnerability affects a given release *with explicit version
/// information* (vulnerabilities without per-release data are skipped, like
/// the entries the paper could not correlate with the security trackers).
fn affects_release_explicitly(
    study: &StudyDataset,
    id: vulnstore::VulnId,
    release: OsRelease,
) -> bool {
    study.store().os_vuln_rows_for(id).iter().any(|row| {
        row.os == release.distribution()
            && !row.versions.is_empty()
            && row.versions.iter().any(|v| v == release.version())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analysis_sections;
    use crate::params::Params;
    use datagen::CalibratedGenerator;
    use nvd_model::{CveId, CvssV2, Date, OsPart, VulnerabilityEntry};

    fn calibrated_study() -> Study {
        let dataset = CalibratedGenerator::new(11).generate();
        Study::from_entries(dataset.entries())
    }

    fn release(os: OsDistribution, version: &str) -> OsRelease {
        *os.releases()
            .iter()
            .find(|r| r.version() == version)
            .expect("release exists")
    }

    #[test]
    fn reproduces_table6_on_the_calibrated_dataset() {
        let study = calibrated_study();
        let analysis = study.get::<ReleaseAnalysis>().unwrap();
        // 6 releases -> 15 pairs.
        assert_eq!(analysis.rows().len(), 15);
        // The non-zero cells of Table VI.
        let expectations = [
            (
                release(OsDistribution::Debian, "3.0"),
                release(OsDistribution::Debian, "4.0"),
                1,
            ),
            (
                release(OsDistribution::RedHat, "4.0"),
                release(OsDistribution::RedHat, "5.0"),
                1,
            ),
            (
                release(OsDistribution::Debian, "4.0"),
                release(OsDistribution::RedHat, "4.0"),
                1,
            ),
            (
                release(OsDistribution::Debian, "4.0"),
                release(OsDistribution::RedHat, "5.0"),
                1,
            ),
            // A zero cell for contrast.
            (
                release(OsDistribution::Debian, "2.1"),
                release(OsDistribution::RedHat, "6.2"),
                0,
            ),
        ];
        for (a, b, expected) in expectations {
            let row = analysis.pair(&a, &b).unwrap();
            assert_eq!(row.common, expected, "{a} vs {b}");
        }
        // 11 of the 15 pairs are disjoint, exactly as in Table VI.
        assert_eq!(analysis.disjoint_pairs(), 11);
    }

    #[test]
    fn same_distribution_flag_is_correct() {
        let study = calibrated_study();
        let analysis = study.get::<ReleaseAnalysis>().unwrap();
        for row in analysis.rows() {
            assert_eq!(
                row.same_distribution(),
                row.a.distribution() == row.b.distribution()
            );
        }
    }

    #[test]
    fn vulnerabilities_without_version_information_do_not_count() {
        // One vulnerability affecting Debian (all versions) and RedHat (all
        // versions) but with no explicit release tags: it must not appear in
        // the per-release analysis.
        let entry = VulnerabilityEntry::builder(CveId::new(2007, 900))
            .published(Date::new(2007, 5, 5).unwrap())
            .part(OsPart::Kernel)
            .cvss(CvssV2::typical_remote())
            .affects_os(OsDistribution::Debian)
            .affects_os(OsDistribution::RedHat)
            .build()
            .unwrap();
        let study = Study::from_entries(&[entry]);
        let analysis = study.get::<ReleaseAnalysis>().unwrap();
        assert_eq!(analysis.disjoint_pairs(), analysis.rows().len());
    }

    #[test]
    fn explicitly_tagged_vulnerabilities_count_for_their_releases_only() {
        let entry = VulnerabilityEntry::builder(CveId::new(2007, 901))
            .published(Date::new(2007, 6, 6).unwrap())
            .part(OsPart::SystemSoftware)
            .cvss(CvssV2::typical_remote())
            .affects_os_version(OsDistribution::Debian, "4.0")
            .affects_os_version(OsDistribution::RedHat, "5.0")
            .build()
            .unwrap();
        let study = Study::from_entries(&[entry]);
        let analysis = study.get::<ReleaseAnalysis>().unwrap();
        let hit = analysis
            .pair(
                &release(OsDistribution::Debian, "4.0"),
                &release(OsDistribution::RedHat, "5.0"),
            )
            .unwrap();
        assert_eq!(hit.common, 1);
        let miss = analysis
            .pair(
                &release(OsDistribution::Debian, "3.0"),
                &release(OsDistribution::RedHat, "5.0"),
            )
            .unwrap();
        assert_eq!(miss.common, 0);
    }

    #[test]
    fn local_only_vulnerabilities_are_filtered_by_the_profile() {
        let entry = VulnerabilityEntry::builder(CveId::new(2007, 902))
            .published(Date::new(2007, 7, 7).unwrap())
            .part(OsPart::Kernel)
            .cvss(CvssV2::typical_local())
            .affects_os_version(OsDistribution::Debian, "4.0")
            .affects_os_version(OsDistribution::RedHat, "5.0")
            .build()
            .unwrap();
        let study = Study::from_entries(&[entry]);
        let isolated = study.get::<ReleaseAnalysis>().unwrap();
        assert_eq!(isolated.disjoint_pairs(), isolated.rows().len());
        // Under the Thin Server profile (local attacks allowed) it counts.
        let thin = study
            .get_with::<ReleaseAnalysis>(&ReleaseConfig {
                profile: ServerProfile::ThinServer,
                ..ReleaseConfig::default()
            })
            .unwrap();
        assert_eq!(thin.rows().len() - thin.disjoint_pairs(), 1);
        assert_eq!(thin.profile(), ServerProfile::ThinServer);
    }

    #[test]
    fn sections_with_restricts_the_release_pool() {
        let study = calibrated_study();
        let params = Params::from_pairs([("oses", "debian")]);
        let sections = analysis_sections(&study, AnalysisId::Releases, &params).unwrap();
        match &sections[0].artifact {
            crate::analysis::Artifact::Table(table) => {
                // 3 Debian releases -> 3 pairs.
                assert_eq!(table.row_count(), 3);
            }
            other => panic!("expected a table, got {other:?}"),
        }
        let typo = Params::from_pairs([("releases", "x")]);
        assert!(analysis_sections(&study, AnalysisId::Releases, &typo).is_err());
    }
}
