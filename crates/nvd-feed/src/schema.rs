//! Raw (schema-level) representation of NVD feed entries.
//!
//! The feed reader first produces [`RawEntry`] values that mirror the XML
//! structure, and only then converts them into
//! [`nvd_model::VulnerabilityEntry`] values (validating identifiers, dates
//! and CVSS vectors and clustering CPEs into OS distributions). Keeping the
//! raw layer around makes the data-cleaning steps of Section III of the
//! paper — name normalization and validity filtering — testable in
//! isolation.

use nvd_model::{
    AffectedProduct, Cpe, CpePart, CveId, CvssV2, Date, OsDistribution, VulnerabilityEntry,
};

use crate::normalize::normalize;
use crate::FeedError;

/// One affected product as it appears in a feed, before clustering.
///
/// NVD 2.0 feeds carry full CPE URIs; 1.2 feeds carry `(vendor, product,
/// versions)` triples. Both are normalized into this struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawProduct {
    /// The CPE part code if known (`h`, `o` or `a`); 1.2 feeds do not carry
    /// it, in which case the product is assumed to be an OS when it clusters
    /// into one of the studied distributions.
    pub part: Option<char>,
    /// Vendor name as written in the feed.
    pub vendor: String,
    /// Product name as written in the feed.
    pub product: String,
    /// Affected version strings (may be empty, meaning all versions).
    pub versions: Vec<String>,
}

impl RawProduct {
    /// Creates a raw product from a full CPE URI string (2.0 feeds).
    ///
    /// # Errors
    ///
    /// Returns [`FeedError::Model`] if the URI cannot be parsed.
    pub fn from_cpe_uri(uri: &str) -> Result<Self, FeedError> {
        let cpe: Cpe = uri.parse()?;
        Ok(RawProduct {
            part: Some(cpe.part().code()),
            vendor: cpe.vendor().to_string(),
            product: cpe.product().to_string(),
            versions: cpe
                .version()
                .map(|v| vec![v.to_string()])
                .unwrap_or_default(),
        })
    }

    /// Creates a raw product from a `(vendor, product)` pair (1.2 feeds).
    pub fn from_vendor_product(vendor: impl Into<String>, product: impl Into<String>) -> Self {
        RawProduct {
            part: None,
            vendor: vendor.into(),
            product: product.into(),
            versions: Vec::new(),
        }
    }

    /// Converts this raw product into a model-level [`AffectedProduct`],
    /// applying alias normalization ([`normalize`]) first.
    pub fn to_affected(&self) -> AffectedProduct {
        let (vendor, product) = normalize(&self.vendor, &self.product);
        let part = match self.part {
            Some('h') => CpePart::Hardware,
            Some('a') => CpePart::Application,
            Some('o') => CpePart::OperatingSystem,
            // 1.2 feeds do not carry the part: treat products that cluster
            // into a studied OS as operating systems, everything else as an
            // application.
            _ => {
                if OsDistribution::from_vendor_product(&vendor, &product).is_some() {
                    CpePart::OperatingSystem
                } else {
                    CpePart::Application
                }
            }
        };
        let mut cpe = Cpe::new(part, vendor, product);
        if let Some(first) = self.versions.first() {
            cpe = cpe.with_version(first.clone());
        }
        let mut affected = AffectedProduct::new(cpe);
        for version in self.versions.iter().skip(1) {
            affected.add_version(version.clone());
        }
        affected
    }
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
    pub products: Vec<RawProduct>,
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
        for product in &products {
            builder = builder.affects_product(product.to_affected());
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
    fn raw_product_from_cpe_uri() {
        let product = RawProduct::from_cpe_uri("cpe:/o:debian:debian_linux:4.0").unwrap();
        assert_eq!(product.part, Some('o'));
        assert_eq!(product.vendor, "debian");
        assert_eq!(product.versions, vec!["4.0".to_string()]);
        assert!(RawProduct::from_cpe_uri("not a cpe").is_err());
    }

    #[test]
    fn raw_product_without_part_uses_clustering() {
        let os_product = RawProduct::from_vendor_product("openbsd", "openbsd");
        assert_eq!(os_product.to_affected().os(), Some(OsDistribution::OpenBsd));
        let app_product = RawProduct::from_vendor_product("mysql", "mysql");
        assert_eq!(app_product.to_affected().os(), None);
    }

    #[test]
    fn raw_entry_to_entry_parses_all_fields() {
        let raw = RawEntry {
            name: "CVE-2008-1447".to_string(),
            published: Some("2008-07-08T19:41:00.000-04:00".to_string()),
            summary: "DNS cache poisoning".to_string(),
            cvss_vector: Some("(AV:N/AC:M/Au:N/C:N/I:P/A:N)".to_string()),
            products: vec![
                RawProduct::from_cpe_uri("cpe:/o:debian:debian_linux:4.0").unwrap(),
                RawProduct::from_cpe_uri("cpe:/o:freebsd:freebsd").unwrap(),
                RawProduct::from_cpe_uri("cpe:/a:isc:bind:9.4").unwrap(),
            ],
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
        // ("linux", "debian") is one of the alias pairs the paper reports.
        let raw = RawEntry {
            name: "CVE-2004-0077".to_string(),
            summary: "kernel flaw".to_string(),
            products: vec![RawProduct::from_vendor_product("debian", "linux")],
            ..RawEntry::default()
        };
        let entry = raw.into_entry().unwrap();
        assert!(entry.affects(OsDistribution::Debian));
    }
}
