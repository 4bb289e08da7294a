//! Fully parsed NVD vulnerability entries.
//!
//! A [`VulnerabilityEntry`] carries everything the study needs about a CVE:
//! its identifier, publication date, summary, CVSS vector, validity flag
//! (Table I), the OS-part classification of Section III-B (Table II) and the
//! list of affected platforms clustered into [`OsDistribution`]s.

use std::fmt;
use std::str::FromStr;

use crate::{AccessVector, Cpe, CveId, CvssV2, Date, ModelError, OsDistribution, OsSet};

/// The OS component class a vulnerability belongs to (Section III-B).
///
/// The paper manually classified all 1887 valid entries into these four
/// classes; Table II reports the per-OS distribution and Table IV the
/// per-class breakdown of shared vulnerabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OsPart {
    /// Drivers for network/video/audio cards, web cams, UPnP devices, …
    Driver,
    /// TCP/IP stack and other OS-dependent protocols, file systems, process
    /// and task management, core libraries, processor-architecture issues.
    Kernel,
    /// Software required for common OS functionality: login, shells, basic
    /// daemons — everything installed by default.
    SystemSoftware,
    /// Software shipped with the OS but not needed for basic operation:
    /// DBMSes, browsers, mail/FTP clients and servers, media players,
    /// language runtimes, antivirus, Kerberos/LDAP, games, …
    Application,
}

impl OsPart {
    /// The four classes in the order used by the paper's tables.
    pub const ALL: [OsPart; 4] = [
        OsPart::Driver,
        OsPart::Kernel,
        OsPart::SystemSoftware,
        OsPart::Application,
    ];

    /// Short label used in table headers (`Driver`, `Kernel`, `Sys. Soft.`,
    /// `App.`).
    pub fn label(&self) -> &'static str {
        match self {
            OsPart::Driver => "Driver",
            OsPart::Kernel => "Kernel",
            OsPart::SystemSoftware => "Sys. Soft.",
            OsPart::Application => "App.",
        }
    }

    /// Whether a vulnerability of this class survives the paper's
    /// *No Applications* filter (Thin Server / Isolated Thin Server).
    pub fn is_base_system(&self) -> bool {
        !matches!(self, OsPart::Application)
    }
}

impl fmt::Display for OsPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for OsPart {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        match normalized.as_str() {
            "driver" | "drivers" => Ok(OsPart::Driver),
            "kernel" => Ok(OsPart::Kernel),
            "systemsoftware" | "syssoft" | "system" => Ok(OsPart::SystemSoftware),
            "application" | "applications" | "app" => Ok(OsPart::Application),
            _ => Err(ModelError::InvalidEntry {
                reason: "unknown OS part class",
            }),
        }
    }
}

/// The validity of an NVD entry for the purposes of the study (Table I).
///
/// Entries whose description contains *Unknown* or *Unspecified* tags, or the
/// `**DISPUTED**` marker, were excluded from the paper's analysis
/// (Section III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Validity {
    /// A valid vulnerability, included in the study.
    #[default]
    Valid,
    /// NVD does not know exactly where the vulnerability occurs.
    Unknown,
    /// NVD does not know why the vulnerability exists.
    Unspecified,
    /// The vendor disputes the existence of the vulnerability.
    Disputed,
}

impl Validity {
    /// The four validity classes in Table I column order.
    pub const ALL: [Validity; 4] = [
        Validity::Valid,
        Validity::Unknown,
        Validity::Unspecified,
        Validity::Disputed,
    ];

    /// Whether entries with this validity are kept by the study.
    pub fn is_valid(&self) -> bool {
        matches!(self, Validity::Valid)
    }

    /// Infers the validity from an entry summary, reproducing the manual
    /// inspection of Section III-A: summaries containing `**DISPUTED**` are
    /// disputed, summaries mentioning an *unknown vulnerability* are unknown,
    /// and summaries mentioning an *unspecified vulnerability* are
    /// unspecified.
    ///
    /// # Example
    ///
    /// ```
    /// use nvd_model::Validity;
    /// assert_eq!(
    ///     Validity::from_summary("** DISPUTED ** buffer overflow in foo"),
    ///     Validity::Disputed
    /// );
    /// assert_eq!(
    ///     Validity::from_summary("Unspecified vulnerability in the kernel"),
    ///     Validity::Unspecified
    /// );
    /// assert_eq!(
    ///     Validity::from_summary("Buffer overflow in the TCP/IP stack"),
    ///     Validity::Valid
    /// );
    /// ```
    pub fn from_summary(summary: &str) -> Validity {
        let lower = summary.to_ascii_lowercase();
        if lower.contains("** disputed") || lower.contains("**disputed") {
            Validity::Disputed
        } else if lower.contains("unspecified vulnerability") {
            Validity::Unspecified
        } else if lower.contains("unknown vulnerability") || lower.contains("unknown impact") {
            Validity::Unknown
        } else {
            Validity::Valid
        }
    }
}

impl fmt::Display for Validity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Validity::Valid => f.write_str("Valid"),
            Validity::Unknown => f.write_str("Unknown"),
            Validity::Unspecified => f.write_str("Unspecified"),
            Validity::Disputed => f.write_str("Disputed"),
        }
    }
}

/// One affected platform of a vulnerability: the raw CPE, the clustered OS
/// distribution (if the CPE is one of the 11 studied OSes) and the affected
/// version strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffectedProduct {
    cpe: Cpe,
    os: Option<OsDistribution>,
    versions: Vec<String>,
}

impl AffectedProduct {
    /// Creates an affected-product record from a CPE, clustering it into an
    /// [`OsDistribution`] when possible.
    pub fn new(cpe: Cpe) -> Self {
        let os = OsDistribution::from_cpe(&cpe);
        let versions = cpe
            .version()
            .map(|v| vec![v.to_string()])
            .unwrap_or_default();
        AffectedProduct { cpe, os, versions }
    }

    /// Creates an affected-product record directly from an OS distribution,
    /// using its canonical CPE.
    pub fn from_os(os: OsDistribution) -> Self {
        AffectedProduct {
            cpe: os.canonical_cpe(),
            os: Some(os),
            versions: Vec::new(),
        }
    }

    /// Creates an affected-product record for a specific OS release.
    pub fn from_os_version(os: OsDistribution, version: impl Into<String>) -> Self {
        let version = version.into();
        AffectedProduct {
            cpe: os.canonical_cpe().with_version(version.clone()),
            os: Some(os),
            versions: vec![version],
        }
    }

    /// The raw CPE.
    pub fn cpe(&self) -> &Cpe {
        &self.cpe
    }

    /// The clustered OS distribution, if the platform is one of the 11
    /// studied operating systems.
    pub fn os(&self) -> Option<OsDistribution> {
        self.os
    }

    /// The affected version strings (possibly empty, meaning "all versions").
    pub fn versions(&self) -> &[String] {
        &self.versions
    }

    /// Adds an affected version string.
    pub fn add_version(&mut self, version: impl Into<String>) {
        let version = version.into();
        if !self.versions.contains(&version) {
            self.versions.push(version);
        }
    }
}

/// A fully parsed NVD vulnerability entry.
///
/// Use [`VulnerabilityEntry::builder`] to construct entries; the builder
/// validates that the identifier and publication date are coherent.
///
/// # Example
///
/// ```
/// use nvd_model::{CveId, CvssV2, Date, OsDistribution, OsPart, VulnerabilityEntry};
///
/// # fn main() -> Result<(), nvd_model::ModelError> {
/// let entry = VulnerabilityEntry::builder(CveId::new(2008, 4609))
///     .published(Date::new(2008, 10, 20)?)
///     .summary("The TCP implementation allows remote attackers to cause a denial of service")
///     .cvss("AV:N/AC:M/Au:N/C:N/I:N/A:C".parse::<CvssV2>()?)
///     .part(OsPart::Kernel)
///     .affects_os(OsDistribution::Windows2000)
///     .affects_os(OsDistribution::FreeBsd)
///     .build()?;
/// assert_eq!(entry.affected_os_set().len(), 2);
/// assert!(entry.is_remotely_exploitable());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VulnerabilityEntry {
    id: CveId,
    published: Date,
    summary: String,
    cvss: Option<CvssV2>,
    part: Option<OsPart>,
    validity: Validity,
    affected: Vec<AffectedProduct>,
}

impl VulnerabilityEntry {
    /// Starts building an entry for the given CVE identifier.
    pub fn builder(id: CveId) -> VulnerabilityEntryBuilder {
        VulnerabilityEntryBuilder::new(id)
    }

    /// The CVE identifier.
    pub fn id(&self) -> CveId {
        self.id
    }

    /// The publication date.
    pub fn published(&self) -> Date {
        self.published
    }

    /// The publication year (used by Figure 2 and the Table V split).
    pub fn year(&self) -> u16 {
        self.published.year()
    }

    /// The entry summary / description.
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// The CVSS v2 base vector, if one was published.
    pub fn cvss(&self) -> Option<&CvssV2> {
        self.cvss.as_ref()
    }

    /// The OS-part classification (Section III-B), if assigned.
    pub fn part(&self) -> Option<OsPart> {
        self.part
    }

    /// The validity flag (Table I).
    pub fn validity(&self) -> Validity {
        self.validity
    }

    /// Whether the entry is kept by the study (validity is `Valid`).
    pub fn is_valid(&self) -> bool {
        self.validity.is_valid()
    }

    /// The affected platforms.
    pub fn affected(&self) -> &[AffectedProduct] {
        &self.affected
    }

    /// The set of studied OS distributions affected by this vulnerability.
    pub fn affected_os_set(&self) -> OsSet {
        self.affected.iter().filter_map(|p| p.os()).collect()
    }

    /// Whether the vulnerability affects the given distribution.
    pub fn affects(&self, os: OsDistribution) -> bool {
        self.affected.iter().any(|p| p.os() == Some(os))
    }

    /// The access vector, defaulting to [`AccessVector::Network`] when no
    /// CVSS vector was published (the conservative choice: without evidence
    /// to the contrary a vulnerability is assumed remotely exploitable).
    pub fn access_vector(&self) -> AccessVector {
        self.cvss
            .map(|c| c.access_vector())
            .unwrap_or(AccessVector::Network)
    }

    /// Whether the vulnerability is remotely exploitable (`Network` or
    /// `Adjacent Network` access vector) — the paper's *No Local* filter.
    pub fn is_remotely_exploitable(&self) -> bool {
        self.access_vector().is_remote()
    }

    /// Whether the vulnerability is in the base system (not an Application
    /// class vulnerability) — the paper's *No Applications* filter. Entries
    /// without a classification are treated as base-system vulnerabilities.
    pub fn is_base_system(&self) -> bool {
        self.part.map(|p| p.is_base_system()).unwrap_or(true)
    }

    /// Sets the OS-part classification, used by the classifier crate once a
    /// class has been assigned.
    pub fn set_part(&mut self, part: OsPart) {
        self.part = Some(part);
    }

    /// Sets the validity flag (used when re-inspecting summaries).
    pub fn set_validity(&mut self, validity: Validity) {
        self.validity = validity;
    }
}

/// Builder for [`VulnerabilityEntry`], created by
/// [`VulnerabilityEntry::builder`].
#[derive(Debug, Clone)]
pub struct VulnerabilityEntryBuilder {
    id: CveId,
    published: Option<Date>,
    summary: String,
    cvss: Option<CvssV2>,
    part: Option<OsPart>,
    validity: Option<Validity>,
    affected: Vec<AffectedProduct>,
}

impl VulnerabilityEntryBuilder {
    fn new(id: CveId) -> Self {
        VulnerabilityEntryBuilder {
            id,
            published: None,
            summary: String::new(),
            cvss: None,
            part: None,
            validity: None,
            affected: Vec::new(),
        }
    }

    /// Sets the publication date. Defaults to January 1st of the CVE year.
    pub fn published(mut self, date: Date) -> Self {
        self.published = Some(date);
        self
    }

    /// Sets the summary text. If no explicit validity is set, the validity is
    /// inferred from the summary via [`Validity::from_summary`].
    pub fn summary(mut self, summary: impl Into<String>) -> Self {
        self.summary = summary.into();
        self
    }

    /// Sets the CVSS v2 base vector.
    pub fn cvss(mut self, cvss: CvssV2) -> Self {
        self.cvss = Some(cvss);
        self
    }

    /// Sets the OS-part classification.
    pub fn part(mut self, part: OsPart) -> Self {
        self.part = Some(part);
        self
    }

    /// Overrides the validity flag inferred from the summary.
    pub fn validity(mut self, validity: Validity) -> Self {
        self.validity = Some(validity);
        self
    }

    /// Adds a fully constructed affected-product record, with every version
    /// it carries.
    pub fn affects_product(mut self, product: AffectedProduct) -> Self {
        self.affected.push(product);
        self
    }

    /// Adds an affected OS distribution (all versions).
    pub fn affects_os(mut self, os: OsDistribution) -> Self {
        self.affected.push(AffectedProduct::from_os(os));
        self
    }

    /// Adds an affected OS release.
    pub fn affects_os_version(mut self, os: OsDistribution, version: impl Into<String>) -> Self {
        self.affected
            .push(AffectedProduct::from_os_version(os, version));
        self
    }

    /// Adds every member of an [`OsSet`] as an affected platform.
    pub fn affects_set(mut self, set: OsSet) -> Self {
        for os in set {
            self.affected.push(AffectedProduct::from_os(os));
        }
        self
    }

    /// Builds the entry.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidEntry`] if the publication year is more
    /// than one year before the CVE identifier year (NVD entries are never
    /// published before being assigned an identifier; a one-year slack is
    /// allowed because identifiers are sometimes reserved late in a year and
    /// published in January).
    pub fn build(self) -> Result<VulnerabilityEntry, ModelError> {
        let published = self
            .published
            .unwrap_or_else(|| Date::from_year(self.id.year()));
        if published.year() + 1 < self.id.year() {
            return Err(ModelError::InvalidEntry {
                reason: "publication date is before the CVE identifier year",
            });
        }
        let validity = self
            .validity
            .unwrap_or_else(|| Validity::from_summary(&self.summary));
        Ok(VulnerabilityEntry {
            id: self.id,
            published,
            summary: self.summary,
            cvss: self.cvss,
            part: self.part,
            validity,
            affected: self.affected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessComplexity, Authentication, ImpactMetric};

    fn remote_cvss() -> CvssV2 {
        CvssV2::new(
            AccessVector::Network,
            AccessComplexity::Low,
            Authentication::None,
            ImpactMetric::Partial,
            ImpactMetric::Partial,
            ImpactMetric::Partial,
        )
    }

    fn local_cvss() -> CvssV2 {
        CvssV2::new(
            AccessVector::Local,
            AccessComplexity::Low,
            Authentication::None,
            ImpactMetric::Partial,
            ImpactMetric::Partial,
            ImpactMetric::Partial,
        )
    }

    #[test]
    fn builder_produces_consistent_entry() {
        let entry = VulnerabilityEntry::builder(CveId::new(2008, 1447))
            .published(Date::new(2008, 7, 8).unwrap())
            .summary("DNS protocol cache poisoning")
            .cvss(remote_cvss())
            .part(OsPart::SystemSoftware)
            .affects_os(OsDistribution::Debian)
            .affects_os(OsDistribution::RedHat)
            .build()
            .unwrap();
        assert_eq!(entry.id(), CveId::new(2008, 1447));
        assert_eq!(entry.year(), 2008);
        assert_eq!(entry.affected_os_set().len(), 2);
        assert!(entry.affects(OsDistribution::Debian));
        assert!(!entry.affects(OsDistribution::Windows2000));
        assert!(entry.is_valid());
        assert!(entry.is_base_system());
        assert!(entry.is_remotely_exploitable());
    }

    #[test]
    fn default_publication_date_is_cve_year() {
        let entry = VulnerabilityEntry::builder(CveId::new(2005, 100))
            .build()
            .unwrap();
        assert_eq!(entry.year(), 2005);
    }

    #[test]
    fn publication_before_identifier_year_is_rejected() {
        let result = VulnerabilityEntry::builder(CveId::new(2008, 1))
            .published(Date::new(2005, 1, 1).unwrap())
            .build();
        assert!(result.is_err());
        // One year of slack is allowed.
        assert!(VulnerabilityEntry::builder(CveId::new(2008, 1))
            .published(Date::new(2007, 12, 20).unwrap())
            .build()
            .is_ok());
    }

    #[test]
    fn validity_inferred_from_summary() {
        let entry = VulnerabilityEntry::builder(CveId::new(2006, 10))
            .summary("** DISPUTED ** format string issue in syslogd")
            .build()
            .unwrap();
        assert_eq!(entry.validity(), Validity::Disputed);
        assert!(!entry.is_valid());

        let entry = VulnerabilityEntry::builder(CveId::new(2006, 11))
            .summary("Unknown vulnerability in the kernel allows attackers to gain privileges")
            .build()
            .unwrap();
        assert_eq!(entry.validity(), Validity::Unknown);

        let entry = VulnerabilityEntry::builder(CveId::new(2006, 12))
            .summary("Unspecified vulnerability in Solaris RPC services")
            .build()
            .unwrap();
        assert_eq!(entry.validity(), Validity::Unspecified);
    }

    #[test]
    fn explicit_validity_wins_over_summary() {
        let entry = VulnerabilityEntry::builder(CveId::new(2006, 13))
            .summary("** DISPUTED ** something")
            .validity(Validity::Valid)
            .build()
            .unwrap();
        assert!(entry.is_valid());
    }

    #[test]
    fn application_part_filtered_by_thin_server() {
        let entry = VulnerabilityEntry::builder(CveId::new(2004, 5))
            .part(OsPart::Application)
            .cvss(remote_cvss())
            .build()
            .unwrap();
        assert!(!entry.is_base_system());
        let entry = VulnerabilityEntry::builder(CveId::new(2004, 6))
            .part(OsPart::Kernel)
            .cvss(local_cvss())
            .build()
            .unwrap();
        assert!(entry.is_base_system());
        assert!(!entry.is_remotely_exploitable());
    }

    #[test]
    fn missing_cvss_defaults_to_remote() {
        let entry = VulnerabilityEntry::builder(CveId::new(2004, 7))
            .build()
            .unwrap();
        assert_eq!(entry.access_vector(), AccessVector::Network);
        assert!(entry.is_remotely_exploitable());
    }

    #[test]
    fn affected_release_matching() {
        let entry = VulnerabilityEntry::builder(CveId::new(2007, 42))
            .affects_os_version(OsDistribution::Debian, "4.0")
            .affects_os(OsDistribution::RedHat)
            .build()
            .unwrap();
        let versions: Vec<_> = entry.affected().iter().map(|p| p.versions()).collect();
        // RedHat has no version restriction: its list is empty.
        assert_eq!(versions, [&["4.0"][..], &[]]);
        assert_eq!(entry.affected()[0].cpe().version(), Some("4.0"));
    }

    #[test]
    fn affected_product_from_cpe_clusters_os() {
        let cpe: Cpe = "cpe:/o:canonical:ubuntu_linux:8.04".parse().unwrap();
        let product = AffectedProduct::new(cpe);
        assert_eq!(product.os(), Some(OsDistribution::Ubuntu));
        assert_eq!(product.versions(), ["8.04"]);
        let app_cpe: Cpe = "cpe:/a:isc:bind:9.4".parse().unwrap();
        let product = AffectedProduct::new(app_cpe);
        assert_eq!(product.os(), None);
    }

    #[test]
    fn os_part_labels_and_parsing() {
        assert_eq!(OsPart::SystemSoftware.label(), "Sys. Soft.");
        assert_eq!("kernel".parse::<OsPart>().unwrap(), OsPart::Kernel);
        assert_eq!(
            "Sys. Soft.".parse::<OsPart>().unwrap(),
            OsPart::SystemSoftware
        );
        assert_eq!(
            "Applications".parse::<OsPart>().unwrap(),
            OsPart::Application
        );
        assert!("firmware".parse::<OsPart>().is_err());
    }

    #[test]
    fn affects_set_adds_every_member() {
        let set = OsSet::from_iter([
            OsDistribution::OpenBsd,
            OsDistribution::NetBsd,
            OsDistribution::FreeBsd,
        ]);
        let entry = VulnerabilityEntry::builder(CveId::new(2003, 1))
            .affects_set(set)
            .build()
            .unwrap();
        assert_eq!(entry.affected_os_set(), set);
    }
}
