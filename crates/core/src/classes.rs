//! Per-OS distributions: validity (Table I) and component classes (Table II).

use nvd_model::{OsDistribution, OsPart, Validity};
use tabular::TextTable;

use crate::analysis::{Analysis, AnalysisError, AnalysisId, Section};
use crate::dataset::StudyDataset;
use crate::study::Study;

/// The Table I reproduction: per-OS counts by validity flag, plus the
/// distinct counts across OSes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidityDistribution {
    per_os: Vec<(OsDistribution, [usize; 4])>,
    distinct: [usize; 4],
}

impl ValidityDistribution {
    fn compute_impl(study: &StudyDataset) -> Self {
        let index_of = |validity: Validity| {
            Validity::ALL
                .iter()
                .position(|v| *v == validity)
                .expect("Validity::ALL is exhaustive")
        };
        let mut counts = [[0usize; 4]; OsDistribution::COUNT];
        let mut distinct = [0usize; 4];
        for row in study.store().rows() {
            let column = index_of(row.validity);
            distinct[column] += 1;
            for os in row.os_set {
                counts[os.index()][column] += 1;
            }
        }
        let per_os = OsDistribution::ALL
            .into_iter()
            .map(|os| (os, counts[os.index()]))
            .collect();
        ValidityDistribution { per_os, distinct }
    }

    /// The per-OS counts in Table I column order
    /// (`[valid, unknown, unspecified, disputed]`).
    pub fn per_os(&self) -> &[(OsDistribution, [usize; 4])] {
        &self.per_os
    }

    /// The counts for one OS.
    pub fn for_os(&self, os: OsDistribution) -> [usize; 4] {
        self.per_os
            .iter()
            .find(|(o, _)| *o == os)
            .map(|(_, counts)| *counts)
            .unwrap_or([0; 4])
    }

    /// Distinct counts across OSes (last row of Table I).
    pub fn distinct(&self) -> [usize; 4] {
        self.distinct
    }

    /// Number of distinct valid vulnerabilities.
    pub fn distinct_valid(&self) -> usize {
        self.distinct[0]
    }

    /// Renders Table I (distribution of OS vulnerabilities by validity).
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(["OS", "Valid", "Unknown", "Unspecified", "Disputed"]);
        for (os, counts) in self.per_os() {
            table.push_row([
                os.short_name().to_string(),
                counts[0].to_string(),
                counts[1].to_string(),
                counts[2].to_string(),
                counts[3].to_string(),
            ]);
        }
        let distinct = self.distinct();
        table.push_row([
            "# distinct vuln.".to_string(),
            distinct[0].to_string(),
            distinct[1].to_string(),
            distinct[2].to_string(),
            distinct[3].to_string(),
        ]);
        table
    }
}

impl Analysis for ValidityDistribution {
    type Config = ();
    type Output = Self;

    fn id() -> AnalysisId {
        AnalysisId::Validity
    }

    fn run(study: &Study, _config: &()) -> Result<Self, AnalysisError> {
        Ok(Self::compute_impl(study.dataset()))
    }

    fn sections(_study: &Study, distribution: &Self) -> Result<Vec<Section>, AnalysisError> {
        Ok(vec![Section::table(
            "Table I: validity distribution",
            distribution.to_table(),
        )])
    }
}

/// The Table II reproduction: per-OS counts by component class, plus the
/// percentage of each class over the whole data set.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDistribution {
    per_os: Vec<(OsDistribution, [usize; 4])>,
    class_totals: [usize; 4],
    distinct_total: usize,
}

impl ClassDistribution {
    /// Only valid vulnerabilities are counted; unclassified rows are
    /// ignored (the paper classified every valid entry, so run the
    /// classifier first for full coverage).
    fn compute_impl(study: &StudyDataset) -> Self {
        let index_of = |part: OsPart| {
            OsPart::ALL
                .iter()
                .position(|p| *p == part)
                .expect("OsPart::ALL is exhaustive")
        };
        let mut counts = [[0usize; 4]; OsDistribution::COUNT];
        let mut class_totals = [0usize; 4];
        for row in study.store().valid_rows() {
            if let Some(part) = row.part {
                let column = index_of(part);
                class_totals[column] += 1;
                for os in row.os_set {
                    counts[os.index()][column] += 1;
                }
            }
        }
        let per_os = OsDistribution::ALL
            .into_iter()
            .map(|os| (os, counts[os.index()]))
            .collect();
        let distinct_total = class_totals.iter().sum();
        ClassDistribution {
            per_os,
            class_totals,
            distinct_total,
        }
    }

    /// The per-OS counts in Table II column order
    /// (`[driver, kernel, system software, application]`).
    pub fn per_os(&self) -> &[(OsDistribution, [usize; 4])] {
        &self.per_os
    }

    /// The counts for one OS.
    pub fn for_os(&self, os: OsDistribution) -> [usize; 4] {
        self.per_os
            .iter()
            .find(|(o, _)| *o == os)
            .map(|(_, counts)| *counts)
            .unwrap_or([0; 4])
    }

    /// The per-OS total (must equal the OS's valid count when every row is
    /// classified).
    pub fn total_for_os(&self, os: OsDistribution) -> usize {
        self.for_os(os).iter().sum()
    }

    /// The percentage of each class over the distinct classified
    /// vulnerabilities (last row of Table II).
    pub fn class_percentages(&self) -> [f64; 4] {
        let mut percentages = [0.0; 4];
        if self.distinct_total == 0 {
            return percentages;
        }
        for (i, count) in self.class_totals.iter().enumerate() {
            percentages[i] = *count as f64 * 100.0 / self.distinct_total as f64;
        }
        percentages
    }

    /// The percentage of one class over the distinct classified
    /// vulnerabilities.
    pub fn class_percentage(&self, part: OsPart) -> f64 {
        let index = OsPart::ALL
            .iter()
            .position(|p| *p == part)
            .expect("OsPart::ALL is exhaustive");
        self.class_percentages()[index]
    }

    /// Renders Table II (vulnerabilities per OS component class).
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(["OS", "Driver", "Kernel", "Sys. Soft.", "App.", "Total"]);
        for (os, counts) in self.per_os() {
            let total: usize = counts.iter().sum();
            table.push_row([
                os.short_name().to_string(),
                counts[0].to_string(),
                counts[1].to_string(),
                counts[2].to_string(),
                counts[3].to_string(),
                total.to_string(),
            ]);
        }
        let percentages = self.class_percentages();
        table.push_row([
            "% Total".to_string(),
            format!("{:.1}%", percentages[0]),
            format!("{:.1}%", percentages[1]),
            format!("{:.1}%", percentages[2]),
            format!("{:.1}%", percentages[3]),
            String::new(),
        ]);
        table
    }
}

impl Analysis for ClassDistribution {
    type Config = ();
    type Output = Self;

    fn id() -> AnalysisId {
        AnalysisId::Classes
    }

    fn run(study: &Study, _config: &()) -> Result<Self, AnalysisError> {
        Ok(Self::compute_impl(study.dataset()))
    }

    fn sections(_study: &Study, distribution: &Self) -> Result<Vec<Section>, AnalysisError> {
        Ok(vec![Section::table(
            "Table II: component classes",
            distribution.to_table(),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analysis_sections;
    use crate::params::Params;
    use datagen::calibration::{table1_row, table2_row};
    use datagen::CalibratedGenerator;

    fn calibrated_study() -> Study {
        let dataset = CalibratedGenerator::new(5).generate();
        Study::from_entries(dataset.entries())
    }

    #[test]
    fn validity_distribution_matches_table1() {
        let study = calibrated_study();
        let table1 = study.get::<ValidityDistribution>().unwrap();
        for os in OsDistribution::ALL {
            let expected = table1_row(os);
            let [valid, unknown, unspecified, disputed] = table1.for_os(os);
            assert_eq!(valid as u32, expected.valid, "{os} valid");
            assert_eq!(unknown as u32, expected.unknown, "{os} unknown");
            assert_eq!(unspecified as u32, expected.unspecified, "{os} unspecified");
            assert_eq!(disputed as u32, expected.disputed, "{os} disputed");
        }
        // The distinct valid count is close to the paper's 1887 (the exact
        // multi-OS merge structure is unpublished, see EXPERIMENTS.md).
        let distinct = table1.distinct_valid() as i64;
        assert!((distinct - 1887).abs() < 300, "distinct valid = {distinct}");
    }

    #[test]
    fn class_distribution_is_close_to_table2() {
        let study = calibrated_study();
        let table2 = study.get::<ClassDistribution>().unwrap();
        for os in OsDistribution::ALL {
            let expected = table2_row(os);
            let counts = table2.for_os(os);
            for (i, part) in OsPart::ALL.iter().enumerate() {
                let want = i64::from(expected.count(*part));
                let got = counts[i] as i64;
                let slack = 6 + want * 20 / 100;
                assert!(
                    (got - want).abs() <= slack,
                    "{os} {part}: got {got}, paper {want}"
                );
            }
        }
    }

    #[test]
    fn class_percentages_follow_the_paper_shape() {
        let study = calibrated_study();
        let table2 = study.get::<ClassDistribution>().unwrap();
        let [driver, kernel, syssoft, app] = table2.class_percentages();
        // Paper: 1.4% / 35.5% / 23.2% / 39.9%.
        assert!(driver < 5.0, "driver share {driver:.1}%");
        assert!((25.0..=50.0).contains(&kernel), "kernel share {kernel:.1}%");
        assert!(
            (15.0..=35.0).contains(&syssoft),
            "system software share {syssoft:.1}%"
        );
        assert!((30.0..=50.0).contains(&app), "application share {app:.1}%");
        let total: f64 = table2.class_percentages().iter().sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn per_os_class_totals_equal_valid_counts_when_fully_classified() {
        let study = calibrated_study();
        let table1 = study.get::<ValidityDistribution>().unwrap();
        let table2 = study.get::<ClassDistribution>().unwrap();
        for os in OsDistribution::ALL {
            assert_eq!(table2.total_for_os(os), table1.for_os(os)[0], "{os}");
        }
    }

    #[test]
    fn empty_dataset_is_all_zero() {
        let study = Study::new(StudyDataset::new());
        let table1 = study.get::<ValidityDistribution>().unwrap();
        assert_eq!(table1.distinct(), [0; 4]);
        let table2 = study.get::<ClassDistribution>().unwrap();
        assert_eq!(table2.class_percentages(), [0.0; 4]);
        assert_eq!(table2.for_os(OsDistribution::Debian), [0; 4]);
    }

    #[test]
    fn tables_have_one_row_per_os_plus_a_totals_row() {
        let study = calibrated_study();
        let table1 = study.get::<ValidityDistribution>().unwrap().to_table();
        assert_eq!(table1.row_count(), OsDistribution::COUNT + 1);
        let table2 = study.get::<ClassDistribution>().unwrap().to_table();
        assert_eq!(table2.row_count(), OsDistribution::COUNT + 1);
    }

    #[test]
    fn sections_with_reject_any_parameter() {
        let study = calibrated_study();
        let empty = Params::new();
        let params = Params::from_pairs([("profile", "fat")]);
        for id in [AnalysisId::Validity, AnalysisId::Classes] {
            assert_eq!(analysis_sections(&study, id, &empty).unwrap().len(), 1);
            assert!(analysis_sections(&study, id, &params).is_err());
        }
    }
}
