//! Reading NVD data feeds into model entries.
//!
//! [`FeedReader`] understands both feed layouts the study had to deal with:
//!
//! * **NVD 1.2** (`nvdcve-*.xml`): `<entry name="CVE-..." published="..."
//!   CVSS_vector="(...)"> <desc><descript>...</descript></desc>
//!   <vuln_soft><prod name="..." vendor="..."><vers num="..."/></prod>
//!   </vuln_soft> </entry>`
//! * **NVD 2.0** (`nvdcve-2.0-*.xml`): `<entry id="CVE-...">
//!   <vuln:vulnerable-software-list><vuln:product>cpe:/o:...</vuln:product>
//!   </vuln:vulnerable-software-list> <vuln:published-datetime>...
//!   <vuln:cvss><cvss:base_metrics>... <vuln:summary>...</entry>`
//!
//! An entry whose fields do not validate is skipped and counted (real feeds
//! contain occasional malformed entries), and a product name that is not a
//! CPE URI is dropped; only malformed XML fails a read.

use std::borrow::Cow;
use std::fs;
use std::path::Path;

use nvd_model::{AffectedProduct, Cpe, VulnerabilityEntry};

use crate::schema::{product_without_part, RawEntry};
use crate::xml::{XmlEvent, XmlReader};
use crate::FeedError;

/// Reads NVD XML feeds into [`VulnerabilityEntry`] values.
///
/// # Example
///
/// ```
/// use nvd_feed::FeedReader;
///
/// # fn main() -> Result<(), nvd_feed::FeedError> {
/// let xml = r#"
/// <nvd>
///   <entry id="CVE-2008-1447">
///     <vuln:vulnerable-software-list>
///       <vuln:product>cpe:/o:debian:debian_linux:4.0</vuln:product>
///     </vuln:vulnerable-software-list>
///     <vuln:published-datetime>2008-07-08T19:41:00.000-04:00</vuln:published-datetime>
///     <vuln:summary>DNS cache poisoning</vuln:summary>
///   </entry>
/// </nvd>"#;
/// let entries = FeedReader::new().read_from_str(xml)?;
/// assert_eq!(entries.len(), 1);
/// assert_eq!(entries[0].summary(), "DNS cache poisoning");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FeedReader {
    skipped: usize,
}

impl FeedReader {
    /// Creates a reader.
    pub fn new() -> Self {
        FeedReader::default()
    }

    /// Number of entries skipped by the last read.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Reads a feed from a file on disk.
    ///
    /// # Errors
    ///
    /// Returns [`FeedError::Io`] if the file cannot be read, or any parse
    /// error a string read would produce.
    pub fn read_from_path(
        &mut self,
        path: impl AsRef<Path>,
    ) -> Result<Vec<VulnerabilityEntry>, FeedError> {
        let text = fs::read_to_string(path)?;
        self.read_from_str(&text)
    }

    /// Reads a feed from an XML string.
    ///
    /// # Errors
    ///
    /// Returns [`FeedError::Xml`] for malformed XML.
    pub fn read_from_str(&mut self, xml: &str) -> Result<Vec<VulnerabilityEntry>, FeedError> {
        self.skipped = 0;
        let mut reader = XmlReader::new(xml);
        let mut entries = Vec::new();
        while let Some(event) = reader.next_event()? {
            if let XmlEvent::StartElement {
                name,
                attributes,
                self_closing,
                ..
            } = event
            {
                if name == "entry" {
                    let raw = read_entry(&mut reader, attributes, self_closing)?;
                    entries.extend(self.convert(raw));
                }
            }
        }
        Ok(entries)
    }

    /// Parses a **single** `<entry>…</entry>` (or self-closing `<entry/>`)
    /// XML fragment into an entry — the incremental entry point used by
    /// streaming feed ingestion, which carves complete entry elements out
    /// of the byte stream as it arrives and hands them over one at a time.
    ///
    /// Any prologue before the entry (XML declaration, comments, enclosing
    /// `<nvd>` open tag) is skipped. An entry with invalid fields returns
    /// `Ok(None)` and is counted by [`FeedReader::skipped`] (which, unlike
    /// the whole-document reads, accumulates across fragments).
    ///
    /// # Errors
    ///
    /// Returns [`FeedError::Xml`] for malformed XML and
    /// [`FeedError::Schema`] if the fragment contains no `<entry>` element.
    pub fn read_entry_str(
        &mut self,
        fragment: &str,
    ) -> Result<Option<VulnerabilityEntry>, FeedError> {
        let mut reader = XmlReader::new(fragment);
        while let Some(event) = reader.next_event()? {
            if let XmlEvent::StartElement {
                name,
                attributes,
                self_closing,
                ..
            } = event
            {
                if name == "entry" {
                    let raw = read_entry(&mut reader, attributes, self_closing)?;
                    return Ok(self.convert(raw));
                }
            }
        }
        Err(FeedError::schema(
            None,
            "fragment contains no <entry> element",
        ))
    }

    /// Validates a raw entry: an invalid one is skipped and counted.
    fn convert(&mut self, raw: RawEntry) -> Option<VulnerabilityEntry> {
        let entry = raw.into_entry().ok();
        self.skipped += usize::from(entry.is_none());
        entry
    }
}

/// Parses a single `<entry>` element (either layout) into a [`RawEntry`].
fn read_entry<'a>(
    reader: &mut XmlReader<'a>,
    attributes: Vec<(&'a str, Cow<'a, str>)>,
    self_closing: bool,
) -> Result<RawEntry, FeedError> {
    let mut raw = RawEntry::default();
    for (key, value) in attributes {
        match key {
            // 2.0 layout uses id=, 1.2 layout uses name=.
            "id" | "name" => raw.name = value.into_owned(),
            "published" => raw.published = Some(value.into_owned()),
            "CVSS_vector" => raw.cvss_vector = Some(value.into_owned()),
            _ => {}
        }
    }
    if self_closing {
        return Ok(raw);
    }
    // CVSS 2.0 metrics are assembled from individual elements.
    let mut access_vector = None;
    let mut access_complexity = None;
    let mut authentication = None;
    let mut conf = None;
    let mut integ = None;
    let mut avail = None;
    loop {
        match reader.next_event()? {
            Some(XmlEvent::StartElement {
                name,
                self_closing,
                attributes,
                ..
            }) => match name {
                    "summary" | "descript"
                        if !self_closing => {
                            let text = reader.read_element_text(name)?;
                            if raw.summary.is_empty() {
                                raw.summary = text.into_owned();
                            }
                        }
                    "published-datetime"
                        if !self_closing => {
                            raw.published = Some(reader.read_element_text(name)?.into_owned());
                        }
                    "cve-id"
                        if !self_closing => {
                            let text = reader.read_element_text(name)?;
                            if raw.name.is_empty() {
                                raw.name = text.into_owned();
                            }
                        }
                    "product"
                        // 2.0 layout: <vuln:product>cpe:/o:...</vuln:product>
                        if !self_closing => {
                            let uri = reader.read_element_text(name)?;
                            if let Ok(cpe) = uri.trim().parse::<Cpe>() {
                                raw.products.push(AffectedProduct::new(cpe));
                            }
                        }
                    "prod" => {
                        // 1.2 layout: <prod name="..." vendor="..."><vers num="..."/></prod>
                        let (mut vendor, mut product) = (Cow::Borrowed(""), Cow::Borrowed(""));
                        for (key, value) in attributes {
                            match key {
                                "name" => product = value,
                                "vendor" => vendor = value,
                                _ => {}
                            }
                        }
                        let mut versions = Vec::new();
                        if !self_closing {
                            // Collect <vers num="..."/> children.
                            loop {
                                match reader.next_event()? {
                                    Some(XmlEvent::StartElement {
                                        name: child,
                                        attributes: child_attrs,
                                        self_closing: child_closed,
                                        ..
                                    }) => {
                                        if child == "vers" {
                                            if let Some((_, num)) =
                                                child_attrs.into_iter().find(|(k, _)| *k == "num")
                                            {
                                                versions.push(num.into_owned());
                                            }
                                            if !child_closed {
                                                reader.skip_element("vers")?;
                                            }
                                        } else if !child_closed {
                                            reader.skip_element(child)?;
                                        }
                                    }
                                    Some(XmlEvent::EndElement { name: "prod" }) => break,
                                    Some(_) => {}
                                    None => {
                                        return Err(FeedError::schema(
                                            Some(&raw.name),
                                            "unterminated <prod> element",
                                        ))
                                    }
                                }
                            }
                        }
                        raw.products.push(product_without_part(vendor, product, versions));
                    }
                    "access-vector"
                        if !self_closing => {
                            access_vector = Some(reader.read_element_text(name)?);
                        }
                    "access-complexity"
                        if !self_closing => {
                            access_complexity = Some(reader.read_element_text(name)?);
                        }
                    "authentication"
                        if !self_closing => {
                            authentication = Some(reader.read_element_text(name)?);
                        }
                    "confidentiality-impact"
                        if !self_closing => {
                            conf = Some(reader.read_element_text(name)?);
                        }
                    "integrity-impact"
                        if !self_closing => {
                            integ = Some(reader.read_element_text(name)?);
                        }
                    "availability-impact"
                        if !self_closing => {
                            avail = Some(reader.read_element_text(name)?);
                        }
                    _ => {
                        // Unknown container elements (vuln_soft,
                        // vulnerable-software-list, cvss, base_metrics, …)
                        // are descended into rather than skipped, so their
                        // children are still visited.
                    }
                },
            Some(XmlEvent::EndElement { name: "entry" }) => break,
            Some(_) => {}
            None => {
                return Err(FeedError::schema(
                    Some(&raw.name),
                    "unterminated <entry> element",
                ))
            }
        }
    }
    if raw.cvss_vector.is_none() {
        if let (Some(av), Some(ac), Some(au), Some(c), Some(i), Some(a)) = (
            &access_vector,
            &access_complexity,
            &authentication,
            &conf,
            &integ,
            &avail,
        ) {
            raw.cvss_vector = Some(format!(
                "AV:{}/AC:{}/Au:{}/C:{}/I:{}/A:{}",
                metric_code(av),
                metric_code(ac),
                metric_code(au),
                metric_code(c),
                metric_code(i),
                metric_code(a)
            ));
        }
    }
    Ok(raw)
}

/// Spelled-out CVSS metric values and their single-letter vector codes.
const METRIC_CODES: &[(&str, &str)] = &[
    ("NETWORK", "N"),
    ("ADJACENT_NETWORK", "A"),
    ("ADJACENT NETWORK", "A"),
    ("LOCAL", "L"),
    ("LOW", "L"),
    ("MEDIUM", "M"),
    ("HIGH", "H"),
    ("NONE", "N"),
    ("SINGLE", "S"),
    ("SINGLE_INSTANCE", "S"),
    ("MULTIPLE", "M"),
    ("MULTIPLE_INSTANCES", "M"),
    ("PARTIAL", "P"),
    ("COMPLETE", "C"),
];

/// Converts a spelled-out CVSS metric value (`NETWORK`, `SINGLE_INSTANCE`,
/// `PARTIAL`, …, in any ASCII case) to its single-letter vector code.
/// Any other value, single letters included, comes back trimmed and
/// upper-cased.
fn metric_code(value: &str) -> Cow<'static, str> {
    let value = value.trim();
    METRIC_CODES
        .iter()
        .find(|(spelled, _)| spelled.eq_ignore_ascii_case(value))
        .map_or_else(
            || Cow::Owned(value.to_ascii_uppercase()),
            |&(_, code)| Cow::Borrowed(code),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::{AccessVector, CveId, OsDistribution};

    const FEED_20: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<nvd xmlns="http://scap.nist.gov/schema/feed/vulnerability/2.0" nvd_xml_version="2.0" pub_date="2010-09-30T05:00:00">
  <entry id="CVE-2008-1447">
    <vuln:vulnerable-software-list>
      <vuln:product>cpe:/o:debian:debian_linux:4.0</vuln:product>
      <vuln:product>cpe:/o:freebsd:freebsd:6.3</vuln:product>
      <vuln:product>cpe:/a:isc:bind:9.4</vuln:product>
    </vuln:vulnerable-software-list>
    <vuln:cve-id>CVE-2008-1447</vuln:cve-id>
    <vuln:published-datetime>2008-07-08T19:41:00.000-04:00</vuln:published-datetime>
    <vuln:cvss>
      <cvss:base_metrics>
        <cvss:access-vector>NETWORK</cvss:access-vector>
        <cvss:access-complexity>MEDIUM</cvss:access-complexity>
        <cvss:authentication>NONE</cvss:authentication>
        <cvss:confidentiality-impact>NONE</cvss:confidentiality-impact>
        <cvss:integrity-impact>PARTIAL</cvss:integrity-impact>
        <cvss:availability-impact>NONE</cvss:availability-impact>
      </cvss:base_metrics>
    </vuln:cvss>
    <vuln:summary>The DNS protocol implementation allows remote cache poisoning.</vuln:summary>
  </entry>
  <entry id="CVE-2008-4609">
    <vuln:vulnerable-software-list>
      <vuln:product>cpe:/o:microsoft:windows_2000</vuln:product>
      <vuln:product>cpe:/o:microsoft:windows_2003_server</vuln:product>
    </vuln:vulnerable-software-list>
    <vuln:published-datetime>2008-10-20T18:00:00.000-04:00</vuln:published-datetime>
    <vuln:summary>The TCP implementation allows a denial of service via crafted segments.</vuln:summary>
  </entry>
</nvd>"#;

    const FEED_12: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<nvd nvd_xml_version="1.2" pub_date="2002-12-31">
  <entry type="CVE" name="CVE-2002-0083" published="2002-03-07" CVSS_vector="(AV:N/AC:L/Au:N/C:C/I:C/A:C)">
    <desc>
      <descript source="cve">Off-by-one error in OpenSSH channel code allows remote attackers to execute arbitrary code.</descript>
    </desc>
    <vuln_soft>
      <prod name="openbsd" vendor="openbsd">
        <vers num="3.0"/>
        <vers num="3.1"/>
      </prod>
      <prod name="freebsd" vendor="freebsd"/>
    </vuln_soft>
  </entry>
</nvd>"#;

    #[test]
    fn parses_nvd_20_feed() {
        let mut reader = FeedReader::new();
        let entries = reader.read_from_str(FEED_20).unwrap();
        assert_eq!(entries.len(), 2);

        let dns = &entries[0];
        assert_eq!(dns.id(), CveId::new(2008, 1447));
        assert_eq!(dns.year(), 2008);
        assert_eq!(dns.affected_os_set().len(), 2);
        assert!(dns.affects(OsDistribution::Debian));
        assert!(dns.affects(OsDistribution::FreeBsd));
        assert_eq!(dns.affected().len(), 3); // the BIND CPE is kept as a product
        assert_eq!(dns.cvss().unwrap().access_vector(), AccessVector::Network);
        assert!(dns.summary().contains("cache poisoning"));

        let tcp = &entries[1];
        assert_eq!(tcp.id(), CveId::new(2008, 4609));
        assert!(tcp.cvss().is_none());
        assert!(tcp.is_remotely_exploitable()); // defaults to remote
    }

    #[test]
    fn parses_nvd_12_feed() {
        let mut reader = FeedReader::new();
        let entries = reader.read_from_str(FEED_12).unwrap();
        assert_eq!(entries.len(), 1);
        let entry = &entries[0];
        assert_eq!(entry.id(), CveId::new(2002, 83));
        assert_eq!(entry.year(), 2002);
        assert!(entry.affects(OsDistribution::OpenBsd));
        assert!(entry.affects(OsDistribution::FreeBsd));
        let versions: Vec<_> = entry.affected().iter().map(|p| p.versions()).collect();
        assert_eq!(versions, [&["3.0", "3.1"][..], &[]]);
        let cvss = entry.cvss().unwrap();
        assert_eq!(cvss.base_score(), 10.0);
        assert!(entry.summary().contains("OpenSSH"));
    }

    #[test]
    fn entry_fragments_parse_like_whole_documents() {
        let fragment = r#"<entry id="CVE-2008-1447">
            <vuln:vulnerable-software-list>
              <vuln:product>cpe:/o:debian:debian_linux:4.0</vuln:product>
            </vuln:vulnerable-software-list>
            <vuln:published-datetime>2008-07-08T19:41:00.000-04:00</vuln:published-datetime>
            <vuln:summary>DNS cache poisoning</vuln:summary>
          </entry>"#;
        let mut reader = FeedReader::new();
        let entry = reader.read_entry_str(fragment).unwrap().unwrap();
        assert_eq!(entry.id(), CveId::new(2008, 1447));
        assert!(entry.affects(OsDistribution::Debian));

        // Prologue before the entry is skipped; self-closing entries parse.
        let fine = FeedReader::new()
            .read_entry_str(
                "<?xml version=\"1.0\"?><nvd>\
                 <entry id=\"CVE-2005-0001\"><vuln:summary>fine</vuln:summary></entry>",
            )
            .unwrap();
        assert_eq!(fine.unwrap().id(), CveId::new(2005, 1));
        // Lenient skips accumulate across fragments.
        assert_eq!(
            reader.read_entry_str("<entry id=\"NOT-A-CVE\"/>").unwrap(),
            None
        );
        assert_eq!(
            reader.read_entry_str("<entry id=\"ALSO-BAD\"/>").unwrap(),
            None
        );
        assert_eq!(reader.skipped(), 2);
        // A fragment with no entry at all is a schema error.
        assert!(matches!(
            reader.read_entry_str("<nvd></nvd>").unwrap_err(),
            FeedError::Schema { .. }
        ));
    }

    #[test]
    fn lenient_reader_skips_bad_entries() {
        let xml = r#"<nvd>
            <entry id="NOT-A-CVE"><vuln:summary>broken</vuln:summary></entry>
            <entry id="CVE-2005-0001"><vuln:summary>fine</vuln:summary></entry>
        </nvd>"#;
        let mut reader = FeedReader::new();
        let entries = reader.read_from_str(xml).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(reader.skipped(), 1);
    }

    #[test]
    fn a_product_that_is_not_a_cpe_uri_is_dropped_without_a_skip() {
        let xml = r#"<nvd><entry id="CVE-2005-0001">
            <vuln:product>cpe:/o:debian:debian_linux:4.0</vuln:product>
            <vuln:product>not a cpe</vuln:product>
            <vuln:summary>fine</vuln:summary>
        </entry></nvd>"#;
        let mut reader = FeedReader::new();
        let entries = reader.read_from_str(xml).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].affected().len(), 1);
        assert_eq!(reader.skipped(), 0);
    }

    #[test]
    fn a_version_escape_decodes_once() {
        let xml = r#"<nvd><entry id="CVE-2005-0001">
            <vuln:product>cpe:/o:sun:solaris:%2541</vuln:product>
            <vuln:summary>fine</vuln:summary>
        </entry></nvd>"#;
        let entries = FeedReader::new().read_from_str(xml).unwrap();
        let product = &entries[0].affected()[0];
        assert_eq!(product.os(), Some(OsDistribution::Solaris));
        assert_eq!(product.versions(), ["%41"]);
        assert_eq!(product.cpe().version(), Some("%41"));
    }

    #[test]
    fn malformed_xml_is_always_an_error() {
        let mut reader = FeedReader::new();
        assert!(reader.read_from_str("<nvd><entry id=CVE-2005-1").is_err());
    }

    #[test]
    fn empty_feed_produces_no_entries() {
        let mut reader = FeedReader::new();
        let entries = reader.read_from_str("<nvd/>").unwrap();
        assert!(entries.is_empty());
        assert_eq!(reader.skipped(), 0);
    }

    #[test]
    fn read_from_path_reports_missing_file() {
        let mut reader = FeedReader::new();
        let err = reader.read_from_path("/nonexistent/feed.xml").unwrap_err();
        assert!(matches!(err, FeedError::Io(_)));
    }

    #[test]
    fn metric_code_translation() {
        assert_eq!(metric_code("NETWORK"), "N");
        assert_eq!(metric_code("ADJACENT_NETWORK"), "A");
        assert_eq!(metric_code("SINGLE_INSTANCE"), "S");
        assert_eq!(metric_code("PARTIAL"), "P");
        assert_eq!(metric_code("N"), "N");
        // Matching ignores ASCII case and surrounding whitespace.
        assert_eq!(metric_code(" partial\n"), "P");
    }

    #[test]
    fn metric_code_upper_cases_an_unknown_value() {
        assert_eq!(metric_code(" sideways "), "SIDEWAYS");
        assert_eq!(metric_code("n"), "N");
        // The vector parser, not the reader, rejects the unknown code.
        let xml = r#"<nvd><entry id="CVE-2005-0001">
            <cvss:access-vector>sideways</cvss:access-vector>
            <cvss:access-complexity>LOW</cvss:access-complexity>
            <cvss:authentication>NONE</cvss:authentication>
            <cvss:confidentiality-impact>NONE</cvss:confidentiality-impact>
            <cvss:integrity-impact>NONE</cvss:integrity-impact>
            <cvss:availability-impact>partial</cvss:availability-impact>
        </entry></nvd>"#;
        let mut reader = FeedReader::new();
        assert!(reader.read_from_str(xml).unwrap().is_empty());
        assert_eq!(reader.skipped(), 1);
    }
}
