//! Temporal distribution of vulnerability publications (Figure 2).

use nvd_model::{OsDistribution, OsFamily};
use tabular::{Series, SeriesSet, YearHistogram};

use crate::analysis::{Analysis, AnalysisError, AnalysisId, Section};
use crate::dataset::StudyDataset;
use crate::study::Study;

/// The longest accepted year axis, in years. Figure 2 spans 18; the years
/// reach the analysis straight from unauthenticated HTTP query strings,
/// and every year of the axis is a bucket per OS and a line of every
/// rendered document, so an unbounded axis would be a one-request denial
/// of service.
const MAX_AXIS_YEARS: u32 = 256;

/// Configuration of the temporal analysis: the inclusive year range of the
/// histograms. The default matches the x axis of Figure 2 (1993–2010).
///
/// The range is validated when the analysis runs: `first_year` after
/// `last_year` is an [`AnalysisError::InvalidYearRange`] instead of the
/// silent empty series the old `compute_over` produced, and an axis of
/// more than 256 years is an [`AnalysisError::InvalidParam`] naming
/// `last_year`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalConfig {
    /// First year of the histograms (inclusive).
    pub first_year: u16,
    /// Last year of the histograms (inclusive).
    pub last_year: u16,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        TemporalConfig {
            first_year: 1993,
            last_year: 2010,
        }
    }
}

impl TemporalConfig {
    /// Checks `first_year <= last_year` and that the axis spans at most
    /// 256 years.
    pub fn validate(&self) -> Result<(), AnalysisError> {
        if self.first_year > self.last_year {
            return Err(AnalysisError::InvalidYearRange {
                first: self.first_year,
                last: self.last_year,
            });
        }
        let latest = u32::from(self.first_year) + MAX_AXIS_YEARS - 1;
        if u32::from(self.last_year) > latest {
            return Err(AnalysisError::InvalidParam {
                name: "last_year".to_string(),
                value: self.last_year.to_string(),
                reason: format!(
                    "must be at most {latest}: the axis spans at most {MAX_AXIS_YEARS} years"
                ),
            });
        }
        Ok(())
    }
}

/// The Figure 2 reproduction: per-OS, per-year publication counts, grouped
/// by OS family.
#[derive(Debug, Clone)]
pub struct TemporalAnalysis {
    first_year: u16,
    last_year: u16,
    histograms: Vec<(OsDistribution, YearHistogram)>,
}

impl TemporalAnalysis {
    fn compute_impl(study: &StudyDataset, first_year: u16, last_year: u16) -> Self {
        // The count index's per-year list holds the valid rows per OS of
        // every publication year (Fat Server retention is exactly the
        // validity filter this analysis applies). `YearHistogram::add_n`
        // clamps the years outside the axis into its boundary buckets.
        let mut histograms: Vec<(OsDistribution, YearHistogram)> = OsDistribution::ALL
            .into_iter()
            .map(|os| (os, YearHistogram::new(first_year, last_year)))
            .collect();
        for (year, counts) in study.count_index().valid_per_year() {
            for (os, histogram) in &mut histograms {
                histogram.add_n(*year, u64::from(counts[os.index()]));
            }
        }
        TemporalAnalysis {
            first_year,
            last_year,
            histograms,
        }
    }

    /// The first year of the analysis range.
    pub fn first_year(&self) -> u16 {
        self.first_year
    }

    /// The last year of the analysis range.
    pub fn last_year(&self) -> u16 {
        self.last_year
    }

    /// The histogram of one OS.
    pub fn histogram(&self, os: OsDistribution) -> &YearHistogram {
        &self
            .histograms
            .iter()
            .find(|(o, _)| *o == os)
            .expect("histograms cover every distribution")
            .1
    }

    /// The number of vulnerabilities published for `os` in `year`.
    pub fn count(&self, os: OsDistribution, year: u16) -> u64 {
        self.histogram(os).count(year)
    }

    /// The year in which `os` had the most publications.
    pub fn peak_year(&self, os: OsDistribution) -> u16 {
        self.histogram(os).peak_year()
    }

    /// One sub-plot of Figure 2: the per-year series of every OS of a
    /// family.
    pub fn family_series(&self, family: OsFamily) -> SeriesSet {
        let mut set = SeriesSet::new(format!("{family} family"));
        for os in family.members() {
            let mut series = Series::new(os.short_name());
            for (year, count) in self.histogram(*os).iter() {
                series.push(i64::from(year), count as f64);
            }
            set.push(series);
        }
        set
    }

    /// The Pearson correlation between the per-year series of two OSes —
    /// used to verify the paper's observation that the members of the
    /// Windows and Linux families have strongly correlated peaks and
    /// valleys. Returns `None` when either series is constant.
    pub fn correlation(&self, a: OsDistribution, b: OsDistribution) -> Option<f64> {
        let xs: Vec<f64> = self.histogram(a).iter().map(|(_, c)| c as f64).collect();
        let ys: Vec<f64> = self.histogram(b).iter().map(|(_, c)| c as f64).collect();
        pearson(&xs, &ys)
    }
}

impl Analysis for TemporalAnalysis {
    type Config = TemporalConfig;
    type Output = Self;

    fn id() -> AnalysisId {
        AnalysisId::Temporal
    }

    fn run(study: &Study, config: &TemporalConfig) -> Result<Self, AnalysisError> {
        config.validate()?;
        Ok(Self::compute_impl(
            study.dataset(),
            config.first_year,
            config.last_year,
        ))
    }

    /// The four Figure 2 sections (one per OS family, in the paper's order).
    fn sections(_study: &Study, temporal: &Self) -> Result<Vec<Section>, AnalysisError> {
        Ok(OsFamily::ALL
            .into_iter()
            .map(|family| {
                Section::series(
                    format!("Figure 2 ({family} family)"),
                    temporal.family_series(family),
                )
            })
            .collect())
    }
}

/// Pearson correlation coefficient of two equally long samples.
fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.is_empty() {
        return None;
    }
    let n = xs.len() as f64;
    let mean_x: f64 = xs.iter().sum::<f64>() / n;
    let mean_y: f64 = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mean_x) * (y - mean_y);
        var_x += (x - mean_x).powi(2);
        var_y += (y - mean_y).powi(2);
    }
    if var_x == 0.0 || var_y == 0.0 {
        return None;
    }
    Some(cov / (var_x * var_y).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analysis_sections;
    use crate::params::Params;
    use datagen::CalibratedGenerator;

    fn calibrated_study() -> Study {
        let dataset = CalibratedGenerator::new(6).generate();
        Study::from_entries(dataset.entries())
    }

    #[test]
    fn per_os_totals_match_the_valid_counts() {
        let study = calibrated_study();
        let temporal = study.get::<TemporalAnalysis>().unwrap();
        for os in OsDistribution::ALL {
            let total: u64 = temporal.histogram(os).total();
            let expected = study
                .store()
                .valid_rows()
                .filter(|r| r.os_set.contains(os))
                .count() as u64;
            assert_eq!(total, expected, "{os}");
        }
    }

    #[test]
    fn recent_oses_have_no_early_vulnerabilities() {
        let study = calibrated_study();
        let temporal = study.get::<TemporalAnalysis>().unwrap();
        // Windows 2008 and OpenSolaris were released in 2008; the generator
        // assigns them no vulnerabilities before their first release.
        for year in 1993..2007 {
            assert_eq!(
                temporal.count(OsDistribution::Windows2008, year),
                0,
                "{year}"
            );
            assert_eq!(
                temporal.count(OsDistribution::OpenSolaris, year),
                0,
                "{year}"
            );
        }
        assert!(temporal.peak_year(OsDistribution::Windows2008) >= 2008);
    }

    #[test]
    fn family_series_contains_one_series_per_member() {
        let study = calibrated_study();
        let temporal = study.get::<TemporalAnalysis>().unwrap();
        for family in OsFamily::ALL {
            let set = temporal.family_series(family);
            assert_eq!(set.series().len(), family.members().len());
            let csv = set.to_csv();
            assert!(csv.lines().count() > 10, "family {family} CSV too short");
        }
    }

    #[test]
    fn windows_family_peaks_are_correlated() {
        let study = calibrated_study();
        let temporal = study.get::<TemporalAnalysis>().unwrap();
        let corr = temporal
            .correlation(OsDistribution::Windows2000, OsDistribution::Windows2003)
            .unwrap();
        assert!(corr > 0.3, "Windows 2000/2003 correlation {corr:.2}");
    }

    #[test]
    fn correlation_is_symmetric_and_bounded() {
        let study = calibrated_study();
        let temporal = study.get::<TemporalAnalysis>().unwrap();
        for a in OsDistribution::ALL {
            for b in OsDistribution::ALL {
                if let Some(corr) = temporal.correlation(a, b) {
                    assert!((-1.0..=1.0 + 1e-9).contains(&corr));
                    let reverse = temporal.correlation(b, a).unwrap();
                    assert!((corr - reverse).abs() < 1e-9);
                }
            }
        }
        let self_corr = temporal
            .correlation(OsDistribution::FreeBsd, OsDistribution::FreeBsd)
            .unwrap();
        assert!((self_corr - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_edge_cases() {
        assert_eq!(pearson(&[], &[]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), None);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        let perfect = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
        assert!((perfect - 1.0).abs() < 1e-12);
        let inverse = pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]).unwrap();
        assert!((inverse + 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_histograms_are_zero() {
        let study = Study::new(StudyDataset::new());
        let temporal = study.get::<TemporalAnalysis>().unwrap();
        assert_eq!(temporal.histogram(OsDistribution::Debian).total(), 0);
        assert_eq!(temporal.first_year(), 1993);
        assert_eq!(temporal.last_year(), 2010);
    }

    #[test]
    fn sections_with_selects_and_validates_the_year_range() {
        let study = calibrated_study();
        let params = Params::from_pairs([("first_year", "2000"), ("last_year", "2005")]);
        let sections = analysis_sections(&study, AnalysisId::Temporal, &params).unwrap();
        assert_eq!(sections.len(), OsFamily::ALL.len());
        let inverted = Params::from_pairs([("first_year", "2010"), ("last_year", "1993")]);
        assert_eq!(
            analysis_sections(&study, AnalysisId::Temporal, &inverted).unwrap_err(),
            AnalysisError::InvalidYearRange {
                first: 2010,
                last: 1993
            }
        );
    }

    #[test]
    fn an_axis_of_more_than_256_years_is_an_invalid_last_year() {
        let axis = |first_year, last_year| {
            TemporalConfig {
                first_year,
                last_year,
            }
            .validate()
        };
        assert_eq!(axis(1993, 1993 + 255), Ok(()));
        assert_eq!(axis(u16::MAX - 255, u16::MAX), Ok(()));
        assert_eq!(axis(u16::MAX, u16::MAX), Ok(()));
        for (first, last) in [(1993, 1993 + 256), (0, u16::MAX), (1, u16::MAX)] {
            match axis(first, last).unwrap_err() {
                AnalysisError::InvalidParam { name, value, .. } => {
                    assert_eq!(name, "last_year");
                    assert_eq!(value, last.to_string());
                }
                other => panic!("{first}..={last}: {other:?}"),
            }
        }
        // The same request as query parameters fails before any histogram
        // is built.
        let study = Study::new(StudyDataset::new());
        let params = Params::from_pairs([("first_year", "0"), ("last_year", "65535")]);
        assert!(matches!(
            analysis_sections(&study, AnalysisId::Temporal, &params),
            Err(AnalysisError::InvalidParam { name, .. }) if name == "last_year"
        ));
    }
}
