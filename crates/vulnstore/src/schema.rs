//! Typed rows for the tables of the paper's database schema (Figure 1).
//!
//! The paper's schema has five groups of tables: `vulnerability`,
//! `vulnerability_type`, `os`, `os_vuln` and the `cvss` tables. The
//! `vulnerability_type` information is a column of [`VulnerabilityRow`],
//! the `cvss` tables are one [`CvssRow`] per vulnerability, and `os_vuln`
//! is [`OsVulnRow`]. The `os` table held the 11 studied distributions with
//! their hand-assigned family and first release year; here that is
//! [`OsDistribution`] itself, with [`OsDistribution::family`] and
//! [`OsDistribution::first_release_year`].

use nvd_model::{AccessVector, CveId, CvssV2, Date, OsDistribution, OsPart, OsSet, Validity};

/// Internal, dense identifier of a vulnerability row (primary key of the
/// `vulnerability` table). Dense ids keep the `os_vuln` join table compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VulnId(pub u32);

impl VulnId {
    /// The row index this id corresponds to.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// A row of the `vulnerability` table: name, publication date, summary and
/// the hand-assigned enrichments (type, validity).
#[derive(Debug, Clone, PartialEq)]
pub struct VulnerabilityRow {
    /// Dense primary key.
    pub id: VulnId,
    /// The CVE identifier (unique key).
    pub cve: CveId,
    /// Publication date.
    pub published: Date,
    /// Entry summary.
    pub summary: String,
    /// The OS-part classification (`vulnerability_type` table in Figure 1).
    pub part: Option<OsPart>,
    /// Validity flag (valid / unknown / unspecified / disputed).
    pub validity: Validity,
    /// The set of studied OS distributions affected (denormalized from
    /// `os_vuln` for fast set queries).
    pub os_set: OsSet,
}

impl VulnerabilityRow {
    /// Publication year, used by the temporal analyses.
    pub fn year(&self) -> u16 {
        self.published.year()
    }

    /// Whether the row survives the paper's validity filter.
    pub fn is_valid(&self) -> bool {
        self.validity.is_valid()
    }
}

/// A row of the `os_vuln` join table: one (vulnerability, OS) pair together
/// with the affected version strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OsVulnRow {
    /// Foreign key into the `vulnerability` table.
    pub vuln: VulnId,
    /// The affected distribution.
    pub os: OsDistribution,
    /// Affected version strings (empty means "all versions").
    pub versions: Vec<String>,
}

impl OsVulnRow {
    /// Whether the given release version is affected (empty list = all).
    pub fn affects_version(&self, version: &str) -> bool {
        self.versions.is_empty() || self.versions.iter().any(|v| v == version)
    }
}

/// A row of the `cvss` table: the scoring information of one vulnerability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvssRow {
    /// Foreign key into the `vulnerability` table.
    pub vuln: VulnId,
    /// The full base vector.
    pub vector: CvssV2,
    /// The base score (denormalized for convenience).
    pub score: f64,
    /// The access vector (the column the paper's *No Local* filter uses).
    pub access_vector: AccessVector,
}

impl CvssRow {
    /// Builds the row for a vulnerability's CVSS vector.
    pub fn new(vuln: VulnId, vector: CvssV2) -> Self {
        CvssRow {
            vuln,
            vector,
            score: vector.base_score(),
            access_vector: vector.access_vector(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_vuln_version_matching() {
        let row = OsVulnRow {
            vuln: VulnId(0),
            os: OsDistribution::Debian,
            versions: vec!["4.0".to_string()],
        };
        assert!(row.affects_version("4.0"));
        assert!(!row.affects_version("3.0"));
        let all = OsVulnRow {
            vuln: VulnId(0),
            os: OsDistribution::Debian,
            versions: vec![],
        };
        assert!(all.affects_version("anything"));
    }

    #[test]
    fn cvss_row_denormalizes_score_and_access_vector() {
        let vector: CvssV2 = "AV:L/AC:L/Au:N/C:P/I:P/A:P".parse().unwrap();
        let row = CvssRow::new(VulnId(3), vector);
        assert_eq!(row.score, 4.6);
        assert_eq!(row.access_vector, AccessVector::Local);
    }

    #[test]
    fn vulnerability_row_helpers() {
        let row = VulnerabilityRow {
            id: VulnId(7),
            cve: CveId::new(2006, 99),
            published: Date::new(2006, 6, 1).unwrap(),
            summary: "test".to_string(),
            part: Some(OsPart::Kernel),
            validity: Validity::Valid,
            os_set: OsSet::singleton(OsDistribution::Solaris),
        };
        assert_eq!(row.year(), 2006);
        assert!(row.is_valid());
        assert_eq!(VulnId(7).index(), 7);
    }
}
