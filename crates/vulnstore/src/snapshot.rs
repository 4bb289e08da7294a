//! Binary row serialization of the store tables (the `STORE` section of
//! the snapshot container, see `docs/SNAPSHOT_FORMAT.md`).
//!
//! Only the three *data* tables are written — `vulnerability`, `os_vuln`
//! and `cvss`. Every derived index (`by_cve`, `by_os`, `cvss_by_vuln`,
//! `os_vuln_by_vuln`) and the constant `os` table are rebuilt
//! deterministically by [`VulnStore::from_rows`] on decode, so the
//! on-disk format carries no redundant state that could drift from the
//! rows it indexes.
//!
//! All integers are little-endian. Strings are a `u32` byte length
//! followed by UTF-8 bytes. A CVSS vector is stored in its canonical
//! `AV:N/AC:L/...` spelling and re-parsed on decode, which also
//! recomputes the denormalized score and access-vector columns.

use std::fmt;

use nvd_model::{CveId, CvssV2, Date, OsDistribution, OsPart, OsSet, Validity};

use crate::schema::{CvssRow, OsVulnRow, VulnId, VulnerabilityRow};
use crate::store::VulnStore;
use crate::StoreError;

/// Version of the row encoding this module writes (the `STORE` section
/// version of the container).
pub const STORE_SECTION_VERSION: u16 = 1;

/// Typed decode failures: the payload is shorter than its own length
/// fields claim, or a field holds a value the schema rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowCodecError {
    /// The payload ended before a field was complete.
    Truncated {
        /// The field being read.
        what: &'static str,
    },
    /// A field holds an out-of-domain value.
    Invalid {
        /// The offending field.
        what: &'static str,
    },
    /// The decoded tables violate a relational invariant.
    Store(StoreError),
}

impl fmt::Display for RowCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowCodecError::Truncated { what } => {
                write!(f, "store payload truncated while reading {what}")
            }
            RowCodecError::Invalid { what } => write!(f, "store payload holds an invalid {what}"),
            RowCodecError::Store(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for RowCodecError {}

impl From<StoreError> for RowCodecError {
    fn from(error: StoreError) -> Self {
        RowCodecError::Store(error)
    }
}

// ----------------------------------------------------------------------
// Primitive writers/readers
// ----------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, value: &str) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value.as_bytes());
}

/// A bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], RowCodecError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or(RowCodecError::Truncated { what })?;
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, RowCodecError> {
        self.take(1, what)?
            .first()
            .copied()
            .ok_or(RowCodecError::Truncated { what })
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, RowCodecError> {
        <[u8; 2]>::try_from(self.take(2, what)?)
            .map(u16::from_le_bytes)
            .map_err(|_| RowCodecError::Truncated { what })
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, RowCodecError> {
        <[u8; 4]>::try_from(self.take(4, what)?)
            .map(u32::from_le_bytes)
            .map_err(|_| RowCodecError::Truncated { what })
    }

    fn string(&mut self, what: &'static str) -> Result<String, RowCodecError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| RowCodecError::Invalid { what })
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ----------------------------------------------------------------------
// Enum tags
// ----------------------------------------------------------------------

fn part_tag(part: Option<OsPart>) -> u8 {
    match part {
        None => 0,
        Some(OsPart::Driver) => 1,
        Some(OsPart::Kernel) => 2,
        Some(OsPart::SystemSoftware) => 3,
        Some(OsPart::Application) => 4,
    }
}

fn part_from_tag(tag: u8) -> Result<Option<OsPart>, RowCodecError> {
    Ok(match tag {
        0 => None,
        1 => Some(OsPart::Driver),
        2 => Some(OsPart::Kernel),
        3 => Some(OsPart::SystemSoftware),
        4 => Some(OsPart::Application),
        _ => {
            return Err(RowCodecError::Invalid {
                what: "OS-part tag",
            })
        }
    })
}

fn validity_tag(validity: Validity) -> u8 {
    match validity {
        Validity::Valid => 0,
        Validity::Unknown => 1,
        Validity::Unspecified => 2,
        Validity::Disputed => 3,
    }
}

fn validity_from_tag(tag: u8) -> Result<Validity, RowCodecError> {
    Ok(match tag {
        0 => Validity::Valid,
        1 => Validity::Unknown,
        2 => Validity::Unspecified,
        3 => Validity::Disputed,
        _ => {
            return Err(RowCodecError::Invalid {
                what: "validity tag",
            })
        }
    })
}

// ----------------------------------------------------------------------
// Table codec
// ----------------------------------------------------------------------

/// Serializes the three data tables of a store into `out` (appending).
pub fn encode_store(store: &VulnStore, out: &mut Vec<u8>) {
    put_u32(out, store.vulnerability_count() as u32);
    for row in store.rows() {
        put_u16(out, row.cve.year());
        put_u32(out, row.cve.number());
        put_u16(out, row.published.year());
        put_u8(out, row.published.month());
        put_u8(out, row.published.day());
        put_u8(out, part_tag(row.part));
        put_u8(out, validity_tag(row.validity));
        put_u16(out, row.os_set.bits());
        put_str(out, &row.summary);
    }
    put_u32(out, store.os_vuln_count() as u32);
    for row in store.os_vuln_rows() {
        put_u32(out, row.vuln.0);
        put_u8(out, row.os.index() as u8);
        put_u32(out, row.versions.len() as u32);
        for version in &row.versions {
            put_str(out, version);
        }
    }
    let cvss: Vec<_> = store.cvss_rows().collect();
    put_u32(out, cvss.len() as u32);
    for row in cvss {
        put_u32(out, row.vuln.0);
        put_str(out, &row.vector.to_string());
    }
}

/// Decodes a payload written by [`encode_store`] and rebuilds the full
/// store (tables + derived indexes).
///
/// # Errors
///
/// [`RowCodecError::Truncated`] / [`RowCodecError::Invalid`] for a
/// malformed payload, [`RowCodecError::Store`] when the decoded tables
/// violate a relational invariant. Never panics.
pub fn decode_store(payload: &[u8]) -> Result<VulnStore, RowCodecError> {
    let mut cursor = Cursor::new(payload);
    let vuln_count = cursor.u32("vulnerability count")?;
    let mut vulnerabilities = Vec::new();
    for id in 0..vuln_count {
        let cve_year = cursor.u16("CVE year")?;
        let cve_number = cursor.u32("CVE number")?;
        let year = cursor.u16("publication year")?;
        let month = cursor.u8("publication month")?;
        let day = cursor.u8("publication day")?;
        let published = Date::new(year, month, day).map_err(|_| RowCodecError::Invalid {
            what: "publication date",
        })?;
        let part = part_from_tag(cursor.u8("OS-part tag")?)?;
        let validity = validity_from_tag(cursor.u8("validity tag")?)?;
        let bits = cursor.u16("OS set")?;
        if bits >= 1 << OsDistribution::COUNT {
            return Err(RowCodecError::Invalid { what: "OS set" });
        }
        let summary = cursor.string("summary")?;
        vulnerabilities.push(VulnerabilityRow {
            id: VulnId(id),
            cve: CveId::new(cve_year, cve_number),
            published,
            summary,
            part,
            validity,
            os_set: OsSet::from_bits(bits),
        });
    }
    let os_vuln_count = cursor.u32("os_vuln count")?;
    let mut os_vuln = Vec::new();
    for _ in 0..os_vuln_count {
        let vuln = VulnId(cursor.u32("os_vuln foreign key")?);
        let os = OsDistribution::from_index(cursor.u8("OS index")? as usize)
            .ok_or(RowCodecError::Invalid { what: "OS index" })?;
        let version_count = cursor.u32("version count")?;
        let mut versions = Vec::new();
        for _ in 0..version_count {
            versions.push(cursor.string("version string")?);
        }
        os_vuln.push(OsVulnRow { vuln, os, versions });
    }
    let cvss_count = cursor.u32("cvss count")?;
    let mut cvss = Vec::new();
    for _ in 0..cvss_count {
        let vuln = VulnId(cursor.u32("cvss foreign key")?);
        let vector: CvssV2 =
            cursor
                .string("CVSS vector")?
                .parse()
                .map_err(|_| RowCodecError::Invalid {
                    what: "CVSS vector",
                })?;
        // `CvssRow::new` recomputes the denormalized score and access
        // vector, so those columns can never disagree with the vector.
        cvss.push(CvssRow::new(vuln, vector));
    }
    if !cursor.finished() {
        return Err(RowCodecError::Invalid {
            what: "trailing bytes after the last table",
        });
    }
    Ok(VulnStore::from_rows(vulnerabilities, os_vuln, cvss)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::VulnerabilityEntry;

    fn sample_store() -> VulnStore {
        let mut store = VulnStore::new();
        let a = VulnerabilityEntry::builder(CveId::new(2008, 1447))
            .published(Date::new(2008, 7, 8).unwrap())
            .summary("DNS cache poisoning")
            .part(OsPart::SystemSoftware)
            .cvss(CvssV2::typical_remote())
            .affects_os_version(OsDistribution::Debian, "4.0")
            .affects_os(OsDistribution::FreeBsd)
            .build()
            .unwrap();
        let b = VulnerabilityEntry::builder(CveId::new(2004, 230))
            .published(Date::new(2004, 4, 20).unwrap())
            .summary("TCP reset with spoofed packets")
            .affects_os(OsDistribution::Windows2000)
            .build()
            .unwrap();
        store.insert_entry(&a);
        store.insert_entry(&b);
        // A merge exercises the append-after-the-fact os_vuln order.
        let merged = VulnerabilityEntry::builder(CveId::new(2004, 230))
            .published(Date::new(2004, 4, 18).unwrap())
            .affects_os(OsDistribution::Windows2003)
            .cvss(CvssV2::typical_local())
            .build()
            .unwrap();
        store.insert_entry(&merged);
        store
    }

    #[test]
    fn encode_decode_round_trips_rows_and_indexes() {
        let store = sample_store();
        let mut payload = Vec::new();
        encode_store(&store, &mut payload);
        let decoded = decode_store(&payload).unwrap();
        assert_eq!(decoded.vulnerability_count(), store.vulnerability_count());
        assert_eq!(decoded.os_vuln_count(), store.os_vuln_count());
        let rows: Vec<_> = store.rows().cloned().collect();
        let decoded_rows: Vec<_> = decoded.rows().cloned().collect();
        assert_eq!(rows, decoded_rows);
        for os in OsDistribution::ALL {
            assert_eq!(
                store
                    .vulnerabilities_for_os(os)
                    .iter()
                    .map(|r| r.id)
                    .collect::<Vec<_>>(),
                decoded
                    .vulnerabilities_for_os(os)
                    .iter()
                    .map(|r| r.id)
                    .collect::<Vec<_>>(),
                "per-OS index order must survive the round trip"
            );
        }
        for row in store.rows() {
            assert_eq!(store.cvss_for(row.id), decoded.cvss_for(row.id));
            assert_eq!(
                store.os_vuln_rows_for(row.id).collect::<Vec<_>>(),
                decoded.os_vuln_rows_for(row.id).collect::<Vec<_>>()
            );
        }
        assert!(decoded
            .os_vuln_rows_for(VulnId(0))
            .any(|row| row.os == OsDistribution::Debian && row.affects_version("4.0")));
    }

    #[test]
    fn truncated_payloads_answer_typed_errors() {
        let store = sample_store();
        let mut payload = Vec::new();
        encode_store(&store, &mut payload);
        for cut in [0, 1, 3, payload.len() / 2, payload.len() - 1] {
            assert!(
                matches!(
                    decode_store(&payload[..cut]),
                    Err(RowCodecError::Truncated { .. })
                ),
                "cut at {cut} must be a typed truncation"
            );
        }
    }

    #[test]
    fn out_of_domain_fields_are_invalid() {
        // A single vulnerability row with an impossible month.
        let mut payload = Vec::new();
        put_u32(&mut payload, 1);
        put_u16(&mut payload, 2008);
        put_u32(&mut payload, 1);
        put_u16(&mut payload, 2008);
        put_u8(&mut payload, 13); // month
        put_u8(&mut payload, 1);
        put_u8(&mut payload, 0);
        put_u8(&mut payload, 0);
        put_u16(&mut payload, 1);
        put_str(&mut payload, "x");
        put_u32(&mut payload, 0);
        put_u32(&mut payload, 0);
        assert!(matches!(
            decode_store(&payload),
            Err(RowCodecError::Invalid {
                what: "publication date"
            })
        ));
    }

    #[test]
    fn dangling_foreign_keys_are_store_errors() {
        let mut payload = Vec::new();
        put_u32(&mut payload, 0); // no vulnerabilities
        put_u32(&mut payload, 1); // …but one join row
        put_u32(&mut payload, 7);
        put_u8(&mut payload, 0);
        put_u32(&mut payload, 0);
        put_u32(&mut payload, 0);
        assert!(matches!(
            decode_store(&payload),
            Err(RowCodecError::Store(StoreError::Inconsistent { .. }))
        ));
    }
}
