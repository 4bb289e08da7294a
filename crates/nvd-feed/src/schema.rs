//! Raw (schema-level) representation of NVD feed entries.
//!
//! The feed reader first produces [`RawEntry`] values that mirror the XML
//! structure, and only then converts them into
//! [`nvd_model::VulnerabilityEntry`] values (validating identifiers, dates
//! and CVSS vectors). Each product is already an [`AffectedProduct`]: its
//! CPE decoded and clustered into an OS distribution. Keeping the raw
//! layer around makes the data-cleaning steps of Section III of the paper
//! — CPE decoding, OS clustering and validity filtering — testable in
//! isolation.

use nvd_model::{
    AffectedProduct, Cpe, CpePart, CveId, CvssV2, Date, OsDistribution, VulnerabilityEntry,
};

use crate::FeedError;

/// A 1.2 `<prod vendor=".." name="..">` with its `<vers num="..">`
/// children. 1.2 feeds carry no CPE part, so the product is an operating
/// system when `(vendor, name)` clusters into one of the studied
/// distributions and an application otherwise. The names and the first
/// version are lower-cased, not decoded.
pub(crate) fn product_without_part(
    vendor: impl Into<String>,
    name: impl Into<String>,
    versions: Vec<String>,
) -> AffectedProduct {
    let (vendor, name) = (vendor.into(), name.into());
    let part = match OsDistribution::from_vendor_product(&vendor, &name) {
        Some(_) => CpePart::OperatingSystem,
        None => CpePart::Application,
    };
    let mut versions = versions.into_iter();
    let mut cpe = Cpe::new(part, vendor, name);
    if let Some(first) = versions.next() {
        cpe = cpe.with_version(first);
    }
    let mut affected = AffectedProduct::new(cpe);
    for version in versions {
        affected.add_version(version);
    }
    affected
}

/// A raw NVD entry: the fields of interest of Section III of the paper
/// (name, publication date, summary, CVSS access information and the list of
/// affected configurations), before validation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RawEntry {
    /// The CVE name, e.g. `CVE-2008-1447`.
    pub name: String,
    /// The publication date string, e.g. `2008-07-08T19:41:00.000-04:00`.
    pub published: Option<String>,
    /// The entry summary / description.
    pub summary: String,
    /// The CVSS v2 vector, either as `(AV:N/AC:L/Au:N/C:P/I:P/A:P)` (1.2
    /// feeds) or assembled from the individual metric elements (2.0 feeds).
    pub cvss_vector: Option<String>,
    /// Affected products.
    pub products: Vec<AffectedProduct>,
}

impl RawEntry {
    /// Converts the raw entry into a validated [`VulnerabilityEntry`],
    /// moving its summary into the entry.
    ///
    /// The entry's validity flag (Valid / Unknown / Unspecified / Disputed)
    /// is inferred from the summary, exactly as the paper's manual
    /// inspection did (Section III-A).
    ///
    /// # Errors
    ///
    /// Returns [`FeedError`] if the CVE name, publication date or CVSS
    /// vector cannot be parsed.
    pub fn into_entry(self) -> Result<VulnerabilityEntry, FeedError> {
        let RawEntry {
            name,
            published,
            summary,
            cvss_vector,
            products,
        } = self;
        let id: CveId = name.parse().map_err(|e| FeedError::Schema {
            entry: Some(name.clone()),
            reason: format!("bad CVE name: {e}"),
        })?;
        let mut builder = VulnerabilityEntry::builder(id).summary(summary);
        if let Some(published) = published {
            let date: Date = published.parse()?;
            builder = builder.published(date);
        }
        if let Some(vector) = cvss_vector {
            let cvss: CvssV2 = vector.parse()?;
            builder = builder.cvss(cvss);
        }
        for product in products {
            builder = builder.affects_product(product);
        }
        builder.build().map_err(|e| FeedError::Schema {
            entry: Some(name),
            reason: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::Validity;

    #[test]
    fn raw_product_without_part_uses_clustering() {
        let os_product = product_without_part("openbsd", "OpenBSD", vec!["3.1".into()]);
        assert_eq!(os_product.os(), Some(OsDistribution::OpenBsd));
        assert_eq!(os_product.cpe().to_string(), "cpe:/o:openbsd:openbsd:3.1");
        let app_product = product_without_part("mysql", "mysql", Vec::new());
        assert_eq!(app_product.os(), None);
        assert_eq!(app_product.cpe().part(), CpePart::Application);
        // The first version goes into the CPE; every version is listed once.
        let versions = ["3.0", "3.1", "3.0"].map(String::from).to_vec();
        let product = product_without_part("freebsd", "freebsd", versions);
        assert_eq!(product.cpe().version(), Some("3.0"));
        assert_eq!(product.versions(), ["3.0", "3.1"]);
    }

    #[test]
    fn raw_entry_to_entry_parses_all_fields() {
        let raw = RawEntry {
            name: "CVE-2008-1447".to_string(),
            published: Some("2008-07-08T19:41:00.000-04:00".to_string()),
            summary: "DNS cache poisoning".to_string(),
            cvss_vector: Some("(AV:N/AC:M/Au:N/C:N/I:P/A:N)".to_string()),
            products: [
                "cpe:/o:debian:debian_linux:4.0",
                "cpe:/o:freebsd:freebsd",
                "cpe:/a:isc:bind:9.4",
            ]
            .map(|uri| AffectedProduct::new(uri.parse().unwrap()))
            .to_vec(),
        };
        let entry = raw.into_entry().unwrap();
        assert_eq!(entry.id(), CveId::new(2008, 1447));
        assert_eq!(entry.year(), 2008);
        assert_eq!(entry.affected_os_set().len(), 2);
        assert_eq!(entry.affected().len(), 3);
        assert!(entry.is_remotely_exploitable());
        assert_eq!(entry.validity(), Validity::Valid);
    }

    #[test]
    fn raw_entry_with_disputed_summary_is_flagged() {
        let raw = RawEntry {
            name: "CVE-2005-1111".to_string(),
            summary: "** DISPUTED ** possible issue in cron".to_string(),
            ..RawEntry::default()
        };
        let entry = raw.into_entry().unwrap();
        assert_eq!(entry.validity(), Validity::Disputed);
    }

    #[test]
    fn raw_entry_with_bad_name_is_rejected() {
        let raw = RawEntry {
            name: "NOT-A-CVE".to_string(),
            ..RawEntry::default()
        };
        assert!(raw.into_entry().is_err());
    }

    #[test]
    fn raw_entry_with_bad_date_is_rejected() {
        let raw = RawEntry {
            name: "CVE-2005-0001".to_string(),
            published: Some("last tuesday".to_string()),
            ..RawEntry::default()
        };
        assert!(raw.into_entry().is_err());
    }

    #[test]
    fn normalization_is_applied_during_conversion() {
        // ("linux", "debian") is one of the (product, vendor) spellings the
        // paper reports: it clusters into Debian.
        let raw = RawEntry {
            name: "CVE-2004-0077".to_string(),
            summary: "kernel flaw".to_string(),
            products: vec![product_without_part("debian", "linux", Vec::new())],
            ..RawEntry::default()
        };
        let entry = raw.into_entry().unwrap();
        assert!(entry.affects(OsDistribution::Debian));
    }
}
