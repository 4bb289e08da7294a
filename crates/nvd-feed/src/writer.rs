//! Writing entries back into NVD 2.0-style XML feeds.
//!
//! The writer serves two purposes: it lets the synthetic-dataset generator
//! (`datagen`) materialize feeds on disk in the same format the paper's
//! pipeline consumed, and it gives the test suite a strong round-trip
//! property (`write → read` preserves every field the study uses).

use std::fs;
use std::path::Path;

use nvd_model::{AccessComplexity, AccessVector, Authentication, ImpactMetric, VulnerabilityEntry};

use crate::xml::XmlWriter;
use crate::FeedError;

/// Serializes vulnerability entries into NVD 2.0-style XML.
///
/// # Example
///
/// ```
/// use nvd_feed::{FeedReader, FeedWriter};
/// use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let entry = VulnerabilityEntry::builder(CveId::new(2007, 5365))
///     .summary("DHCP server stack overflow")
///     .affects_os(OsDistribution::OpenBsd)
///     .build()?;
/// let xml = FeedWriter::new().write_to_string(&[entry])?;
/// assert!(xml.contains("CVE-2007-5365"));
/// assert_eq!(FeedReader::new().read_from_str(&xml)?.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FeedWriter {
    /// Value written to the root element's `pub_date` attribute.
    pub_date: Option<String>,
}

impl FeedWriter {
    /// Creates a writer with no feed publication date.
    pub fn new() -> Self {
        FeedWriter { pub_date: None }
    }

    /// Sets the `pub_date` attribute written on the root element.
    pub fn with_pub_date(mut self, pub_date: impl Into<String>) -> Self {
        self.pub_date = Some(pub_date.into());
        self
    }

    /// Serializes the entries into an XML string.
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns a `Result` so that future
    /// validation (e.g. duplicate identifiers) can be reported without a
    /// breaking change.
    pub fn write_to_string(&self, entries: &[VulnerabilityEntry]) -> Result<String, FeedError> {
        let mut w = XmlWriter::new();
        let pub_date = self.pub_date.clone().unwrap_or_default();
        let mut root_attrs: Vec<(&str, &str)> = vec![
            (
                "xmlns",
                "http://scap.nist.gov/schema/feed/vulnerability/2.0",
            ),
            ("nvd_xml_version", "2.0"),
        ];
        if !pub_date.is_empty() {
            root_attrs.push(("pub_date", pub_date.as_str()));
        }
        w.open_with("nvd", &root_attrs);
        for entry in entries {
            self.write_entry(&mut w, entry);
        }
        w.close("nvd");
        Ok(w.finish())
    }

    /// Serializes the entries and writes them to a file.
    ///
    /// # Errors
    ///
    /// Returns [`FeedError::Io`] if the file cannot be written.
    pub fn write_to_path(
        &self,
        path: impl AsRef<Path>,
        entries: &[VulnerabilityEntry],
    ) -> Result<(), FeedError> {
        let text = self.write_to_string(entries)?;
        fs::write(path, text)?;
        Ok(())
    }

    fn write_entry(&self, w: &mut XmlWriter, entry: &VulnerabilityEntry) {
        let id = entry.id().to_string();
        w.open_with("entry", &[("id", id.as_str())]);

        w.open("vuln:vulnerable-software-list");
        for product in entry.affected() {
            w.text_element("vuln:product", &product.cpe().to_string());
        }
        w.close("vuln:vulnerable-software-list");

        w.text_element("vuln:cve-id", &id);
        w.text_element(
            "vuln:published-datetime",
            &format!("{}T00:00:00.000-04:00", entry.published()),
        );

        if let Some(cvss) = entry.cvss() {
            w.open("vuln:cvss");
            w.open("cvss:base_metrics");
            w.text_element("cvss:score", &format!("{:.1}", cvss.base_score()));
            w.text_element(
                "cvss:access-vector",
                access_vector_name(cvss.access_vector()),
            );
            w.text_element(
                "cvss:access-complexity",
                access_complexity_name(cvss.access_complexity()),
            );
            w.text_element(
                "cvss:authentication",
                authentication_name(cvss.authentication()),
            );
            w.text_element(
                "cvss:confidentiality-impact",
                impact_name(cvss.confidentiality()),
            );
            w.text_element("cvss:integrity-impact", impact_name(cvss.integrity()));
            w.text_element("cvss:availability-impact", impact_name(cvss.availability()));
            w.close("cvss:base_metrics");
            w.close("vuln:cvss");
        }

        w.text_element("vuln:summary", entry.summary());
        w.close("entry");
    }
}

fn access_vector_name(av: AccessVector) -> &'static str {
    match av {
        AccessVector::Local => "LOCAL",
        AccessVector::AdjacentNetwork => "ADJACENT_NETWORK",
        AccessVector::Network => "NETWORK",
    }
}

fn access_complexity_name(ac: AccessComplexity) -> &'static str {
    match ac {
        AccessComplexity::High => "HIGH",
        AccessComplexity::Medium => "MEDIUM",
        AccessComplexity::Low => "LOW",
    }
}

fn authentication_name(au: Authentication) -> &'static str {
    match au {
        Authentication::Multiple => "MULTIPLE_INSTANCES",
        Authentication::Single => "SINGLE_INSTANCE",
        Authentication::None => "NONE",
    }
}

fn impact_name(impact: ImpactMetric) -> &'static str {
    match impact {
        ImpactMetric::None => "NONE",
        ImpactMetric::Partial => "PARTIAL",
        ImpactMetric::Complete => "COMPLETE",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeedReader;
    use nvd_model::{CveId, CvssV2, Date, OsDistribution};

    fn sample_entries() -> Vec<VulnerabilityEntry> {
        vec![
            VulnerabilityEntry::builder(CveId::new(2008, 1447))
                .published(Date::new(2008, 7, 8).unwrap())
                .summary("DNS cache poisoning affecting <multiple> implementations & resolvers")
                .cvss("AV:N/AC:M/Au:N/C:N/I:P/A:N".parse::<CvssV2>().unwrap())
                .affects_os_version(OsDistribution::Debian, "4.0")
                .affects_os(OsDistribution::FreeBsd)
                .build()
                .unwrap(),
            VulnerabilityEntry::builder(CveId::new(2004, 230))
                .published(Date::new(2004, 4, 20).unwrap())
                .summary("TCP RST spoofing")
                .cvss("AV:N/AC:L/Au:N/C:N/I:N/A:P".parse::<CvssV2>().unwrap())
                .affects_os(OsDistribution::Windows2000)
                .affects_os(OsDistribution::Windows2003)
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn write_read_roundtrip_preserves_study_fields() {
        let entries = sample_entries();
        let xml = FeedWriter::new()
            .with_pub_date("2010-09-30")
            .write_to_string(&entries)
            .unwrap();
        assert!(xml.contains(" pub_date=\"2010-09-30\">"));
        let mut reader = FeedReader::new();
        let parsed = reader.read_from_str(&xml).unwrap();
        assert_eq!(reader.skipped(), 0);
        assert_eq!(parsed.len(), entries.len());
        for (original, roundtripped) in entries.iter().zip(&parsed) {
            assert_eq!(original.id(), roundtripped.id());
            assert_eq!(original.published(), roundtripped.published());
            assert_eq!(original.summary(), roundtripped.summary());
            assert_eq!(original.affected_os_set(), roundtripped.affected_os_set());
            assert_eq!(
                original.cvss().map(|c| c.access_vector()),
                roundtripped.cvss().map(|c| c.access_vector())
            );
            assert_eq!(
                original.cvss().map(|c| c.base_score()),
                roundtripped.cvss().map(|c| c.base_score())
            );
        }
    }

    #[test]
    fn special_characters_are_escaped() {
        let xml = FeedWriter::new()
            .write_to_string(&sample_entries())
            .unwrap();
        assert!(xml.contains("&lt;multiple&gt;"));
        assert!(xml.contains("&amp; resolvers"));
        assert!(!xml.contains("<multiple>"));
    }

    #[test]
    fn write_to_path_and_read_back() {
        let dir =
            std::env::temp_dir().join(format!("osdiv-feed-writer-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed.xml");
        let entries = sample_entries();
        FeedWriter::new().write_to_path(&path, &entries).unwrap();
        let parsed = FeedReader::new().read_from_path(&path).unwrap();
        assert_eq!(parsed.len(), entries.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_entry_list_produces_valid_document() {
        let xml = FeedWriter::new().write_to_string(&[]).unwrap();
        let mut reader = FeedReader::new();
        assert!(reader.read_from_str(&xml).unwrap().is_empty());
        assert_eq!(reader.skipped(), 0);
    }
}
