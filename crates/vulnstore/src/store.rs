//! The [`VulnStore`] facade: ingestion and relational queries.

use std::collections::HashMap;

use nvd_model::{AccessVector, CveId, OsDistribution, OsPart, OsSet, VulnerabilityEntry};

use crate::schema::{CvssRow, OsVulnRow, VulnId, VulnerabilityRow};
use crate::StoreError;

/// The in-memory database with the data tables of Figure 1 of the paper.
///
/// The `os` table of Figure 1 is [`OsDistribution`] itself: its family
/// and first release year are constants of the enum. Ingestion is by
/// [`VulnerabilityEntry`]; queries expose the rows (for the analysis
/// crates to aggregate as they wish) and the two joins the analyses use
/// (CVSS per vulnerability, affected versions per OS).
#[derive(Debug, Clone, Default)]
pub struct VulnStore {
    /// The `vulnerability` table; a row's [`VulnId`] is its position.
    vulnerabilities: Vec<VulnerabilityRow>,
    /// The `os_vuln` join table, in insertion order.
    os_vuln: Vec<OsVulnRow>,
    /// The `cvss` table, in insertion order.
    cvss: Vec<CvssRow>,
    /// Unique index `vulnerability.cve -> vulnerability.id`.
    by_cve: HashMap<CveId, VulnId>,
    /// Index `vulnerability.id -> cvss row id`.
    cvss_by_vuln: HashMap<VulnId, usize>,
    /// Index `vulnerability.id -> [os_vuln row ids]`.
    os_vuln_by_vuln: HashMap<VulnId, Vec<usize>>,
}

impl VulnStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Ingestion
    // ------------------------------------------------------------------

    /// Inserts an entry, merging with any previously stored entry with the
    /// same CVE identifier (the affected OS sets are unioned, the first
    /// summary/classification wins). Returns the row id.
    pub fn insert_entry(&mut self, entry: &VulnerabilityEntry) -> VulnId {
        match self.by_cve.get(&entry.id()).copied() {
            Some(existing) => {
                self.merge_into(existing, entry);
                existing
            }
            None => self.insert_new(entry),
        }
    }

    /// Ingests every entry of an iterator (merging duplicates) and returns
    /// the number of *new* rows created.
    pub fn ingest<'a, I>(&mut self, entries: I) -> usize
    where
        I: IntoIterator<Item = &'a VulnerabilityEntry>,
    {
        let before = self.vulnerabilities.len();
        for entry in entries {
            self.insert_entry(entry);
        }
        self.vulnerabilities.len() - before
    }

    fn insert_new(&mut self, entry: &VulnerabilityEntry) -> VulnId {
        let os_set = entry.affected_os_set();
        let id = VulnId(self.vulnerabilities.len() as u32);
        self.vulnerabilities.push(VulnerabilityRow {
            id,
            cve: entry.id(),
            published: entry.published(),
            summary: entry.summary().to_string(),
            part: entry.part(),
            validity: entry.validity(),
            os_set,
        });
        self.by_cve.insert(entry.id(), id);

        // One os_vuln row per affected product that clusters into an OS, so
        // version information is preserved per (vulnerability, OS).
        let mut versions_per_os: HashMap<OsDistribution, Vec<String>> = HashMap::new();
        for product in entry.affected() {
            if let Some(os) = product.os() {
                versions_per_os
                    .entry(os)
                    .or_default()
                    .extend(product.versions().iter().cloned());
            }
        }
        for os in os_set {
            let versions = versions_per_os.remove(&os).unwrap_or_default();
            self.push_os_vuln(OsVulnRow {
                vuln: id,
                os,
                versions,
            });
        }
        if let Some(cvss) = entry.cvss() {
            self.push_cvss(CvssRow::new(id, *cvss));
        }
        id
    }

    fn push_os_vuln(&mut self, row: OsVulnRow) {
        self.os_vuln_by_vuln
            .entry(row.vuln)
            .or_default()
            .push(self.os_vuln.len());
        self.os_vuln.push(row);
    }

    fn push_cvss(&mut self, row: CvssRow) {
        self.cvss_by_vuln.insert(row.vuln, self.cvss.len());
        self.cvss.push(row);
    }

    fn merge_into(&mut self, id: VulnId, entry: &VulnerabilityEntry) {
        let row = self
            .vulnerabilities
            .get_mut(id.index())
            .expect("by_cve points at an existing row");
        let new_oses = entry.affected_os_set().difference(row.os_set);
        row.os_set = row.os_set.union(new_oses);
        if row.part.is_none() {
            row.part = entry.part();
        }
        if row.summary.is_empty() {
            row.summary = entry.summary().to_string();
        }
        if entry.published() < row.published {
            row.published = entry.published();
        }
        for os in new_oses {
            self.push_os_vuln(OsVulnRow {
                vuln: id,
                os,
                versions: Vec::new(),
            });
        }
        if !self.cvss_by_vuln.contains_key(&id) {
            if let Some(cvss) = entry.cvss() {
                self.push_cvss(CvssRow::new(id, *cvss));
            }
        }
    }

    /// Reconstructs a store from the three persisted tables, rebuilding
    /// every derived index from table scan order.
    ///
    /// [`insert_entry`](VulnStore::insert_entry) only ever appends rows,
    /// so a single in-order scan of each table reproduces `by_cve`,
    /// `os_vuln_by_vuln` and `cvss_by_vuln` exactly as ingestion built
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Inconsistent`] when the tables violate a
    /// relational invariant: row ids out of order, duplicate CVE keys,
    /// dangling foreign keys, duplicate `(vulnerability, OS)` pairs, an
    /// `os_set` disagreeing with the join table, or more than one CVSS
    /// row per vulnerability.
    pub fn from_rows(
        vulnerabilities: Vec<VulnerabilityRow>,
        os_vuln: Vec<OsVulnRow>,
        cvss: Vec<CvssRow>,
    ) -> Result<VulnStore, StoreError> {
        let inconsistent = |what: &'static str| StoreError::Inconsistent { what };
        let mut by_cve = HashMap::new();
        for (position, row) in vulnerabilities.iter().enumerate() {
            if row.id.index() != position {
                return Err(inconsistent("vulnerability row id != row position"));
            }
            if by_cve.insert(row.cve, row.id).is_some() {
                return Err(inconsistent("duplicate CVE identifier"));
            }
        }
        let vuln_count = vulnerabilities.len();
        let mut joined_sets = vec![OsSet::new(); vuln_count];
        let mut os_vuln_by_vuln: HashMap<VulnId, Vec<usize>> = HashMap::new();
        for (row_id, row) in os_vuln.iter().enumerate() {
            if row.vuln.index() >= vuln_count {
                return Err(inconsistent(
                    "os_vuln row references a missing vulnerability",
                ));
            }
            if joined_sets[row.vuln.index()].contains(row.os) {
                return Err(inconsistent("duplicate (vulnerability, OS) join row"));
            }
            joined_sets[row.vuln.index()].insert(row.os);
            os_vuln_by_vuln.entry(row.vuln).or_default().push(row_id);
        }
        for (row, joined) in vulnerabilities.iter().zip(&joined_sets) {
            if row.os_set != *joined {
                return Err(inconsistent("os_set disagrees with the os_vuln join table"));
            }
        }
        let mut cvss_by_vuln = HashMap::new();
        for (row_id, row) in cvss.iter().enumerate() {
            if row.vuln.index() >= vuln_count {
                return Err(inconsistent("cvss row references a missing vulnerability"));
            }
            if cvss_by_vuln.insert(row.vuln, row_id).is_some() {
                return Err(inconsistent("more than one cvss row per vulnerability"));
            }
        }
        Ok(VulnStore {
            vulnerabilities,
            os_vuln,
            cvss,
            by_cve,
            cvss_by_vuln,
            os_vuln_by_vuln,
        })
    }

    // ------------------------------------------------------------------
    // Row access
    // ------------------------------------------------------------------

    /// Number of distinct vulnerabilities stored (valid or not).
    pub fn vulnerability_count(&self) -> usize {
        self.vulnerabilities.len()
    }

    /// Number of rows in the `os_vuln` join table.
    pub fn os_vuln_count(&self) -> usize {
        self.os_vuln.len()
    }

    /// A rough estimate of the store's resident memory: struct sizes of
    /// every row plus the owned string payloads. Used by the serving
    /// registry's capacity accounting, where "roughly proportional to the
    /// real footprint" is all that matters.
    pub fn estimated_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>();
        bytes += self
            .vulnerabilities
            .iter()
            .map(|row| std::mem::size_of::<VulnerabilityRow>() + row.summary.len())
            .sum::<usize>();
        bytes += self
            .os_vuln
            .iter()
            .map(|row| {
                std::mem::size_of::<OsVulnRow>()
                    + row
                        .versions
                        .iter()
                        .map(|v| std::mem::size_of::<String>() + v.len())
                        .sum::<usize>()
            })
            .sum::<usize>();
        bytes += self.cvss.len() * std::mem::size_of::<CvssRow>();
        bytes += self.by_cve.len() * std::mem::size_of::<(CveId, VulnId)>();
        bytes += (self.cvss_by_vuln.len() + self.os_vuln_by_vuln.len())
            * std::mem::size_of::<(VulnId, usize)>();
        bytes += self
            .os_vuln_by_vuln
            .values()
            .map(|ids| ids.len() * std::mem::size_of::<usize>())
            .sum::<usize>();
        bytes
    }

    /// Looks a vulnerability row up by its dense id.
    pub fn get(&self, id: VulnId) -> Option<&VulnerabilityRow> {
        self.vulnerabilities.get(id.index())
    }

    /// Looks a vulnerability row up by CVE identifier.
    pub fn get_by_cve(&self, cve: CveId) -> Option<&VulnerabilityRow> {
        self.by_cve.get(&cve).and_then(|id| self.get(*id))
    }

    /// Iterates over every vulnerability row.
    pub fn rows(&self) -> impl Iterator<Item = &VulnerabilityRow> {
        self.vulnerabilities.iter()
    }

    /// Iterates over the rows that survive the paper's validity filter.
    pub fn valid_rows(&self) -> impl Iterator<Item = &VulnerabilityRow> {
        self.rows().filter(|row| row.is_valid())
    }

    /// Number of valid (study-relevant) vulnerabilities.
    pub fn valid_count(&self) -> usize {
        self.valid_rows().count()
    }

    /// The CVSS row of a vulnerability, if one was stored.
    pub fn cvss_for(&self, id: VulnId) -> Option<&CvssRow> {
        self.cvss_by_vuln
            .get(&id)
            .and_then(|row_id| self.cvss.get(*row_id))
    }

    /// The access vector of a vulnerability. Entries without CVSS data are
    /// treated as remotely exploitable (the conservative default the model
    /// layer also uses).
    pub fn access_vector_for(&self, id: VulnId) -> AccessVector {
        self.cvss_for(id)
            .map(|row| row.access_vector)
            .unwrap_or(AccessVector::Network)
    }

    /// Whether a vulnerability is remotely exploitable.
    pub fn is_remote(&self, id: VulnId) -> bool {
        self.access_vector_for(id).is_remote()
    }

    /// Iterates over every vulnerability row joined with its
    /// remote-exploitability flag — the one-pass input of the analysis
    /// layer's count-index build, which needs `(os_set, year, part, remote)`
    /// per row without a per-row index lookup at every call site.
    pub fn rows_with_remote(&self) -> impl Iterator<Item = (&VulnerabilityRow, bool)> {
        self.rows().map(|row| (row, self.is_remote(row.id)))
    }

    /// Iterates over the whole `os_vuln` join table in insertion order —
    /// the order [`VulnStore::from_rows`] rebuilds `os_vuln_by_vuln`
    /// from, so serializing this scan round-trips the store exactly.
    pub fn os_vuln_rows(&self) -> impl Iterator<Item = &OsVulnRow> {
        self.os_vuln.iter()
    }

    /// Iterates over the whole `cvss` table in insertion order.
    pub fn cvss_rows(&self) -> impl Iterator<Item = &CvssRow> {
        self.cvss.iter()
    }

    /// The `os_vuln` rows of a vulnerability (one per affected OS), in
    /// insertion order.
    pub fn os_vuln_rows_for(&self, id: VulnId) -> impl Iterator<Item = &OsVulnRow> + '_ {
        self.os_vuln_by_vuln
            .get(&id)
            .into_iter()
            .flatten()
            .filter_map(|r| self.os_vuln.get(*r))
    }

    /// Updates the OS-part classification of a vulnerability (the manual
    /// enrichment step of Section III-B, performed here by the classifier
    /// crate).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotFound`] if the id does not exist.
    pub fn set_part(&mut self, id: VulnId, part: OsPart) -> Result<(), StoreError> {
        match self.vulnerabilities.get_mut(id.index()) {
            Some(row) => {
                row.part = Some(part);
                Ok(())
            }
            None => Err(StoreError::NotFound {
                what: "vulnerability row",
            }),
        }
    }
}

/// Builds a store directly from an iterator of entries.
impl<'a> FromIterator<&'a VulnerabilityEntry> for VulnStore {
    fn from_iter<T: IntoIterator<Item = &'a VulnerabilityEntry>>(iter: T) -> Self {
        let mut store = VulnStore::new();
        store.ingest(iter);
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::{CvssV2, Date, Validity};

    fn entry(
        cve: CveId,
        year: u16,
        part: OsPart,
        remote: bool,
        oses: &[OsDistribution],
    ) -> VulnerabilityEntry {
        let mut builder = VulnerabilityEntry::builder(cve)
            .published(Date::new(year, 6, 15).unwrap())
            .summary(format!("synthetic vulnerability {cve}"))
            .part(part)
            .cvss(if remote {
                CvssV2::typical_remote()
            } else {
                CvssV2::typical_local()
            });
        for os in oses {
            builder = builder.affects_os(*os);
        }
        builder.build().unwrap()
    }

    #[test]
    fn a_default_store_accepts_an_entry() {
        let mut store = VulnStore::default();
        assert_eq!(store.vulnerability_count(), 0);
        assert_eq!(store.valid_count(), 0);
        let e = entry(
            CveId::new(2008, 1447),
            2008,
            OsPart::Kernel,
            true,
            &[OsDistribution::Debian],
        );
        let id = store.insert_entry(&e);
        assert_eq!(store.get(id).unwrap().cve, CveId::new(2008, 1447));
        assert_eq!(store.os_vuln_count(), 1);
    }

    #[test]
    fn insert_and_query_round_trip() {
        let mut store = VulnStore::new();
        let e = entry(
            CveId::new(2008, 1447),
            2008,
            OsPart::SystemSoftware,
            true,
            &[OsDistribution::Debian, OsDistribution::FreeBsd],
        );
        let id = store.insert_entry(&e);
        assert_eq!(store.vulnerability_count(), 1);
        assert_eq!(store.os_vuln_count(), 2);
        let row = store.get(id).unwrap();
        assert_eq!(row.cve, CveId::new(2008, 1447));
        assert_eq!(row.os_set.len(), 2);
        assert_eq!(store.get_by_cve(CveId::new(2008, 1447)).unwrap().id, id);
        assert!(store.is_remote(id));
        let joined: OsSet = store.os_vuln_rows_for(id).map(|row| row.os).collect();
        assert_eq!(
            joined,
            OsSet::pair(OsDistribution::Debian, OsDistribution::FreeBsd)
        );
    }

    #[test]
    fn insert_merges_a_duplicate_cve() {
        use OsDistribution::*;
        let mut store = VulnStore::new();
        let cve = CveId::new(2004, 230);
        let a = entry(cve, 2004, OsPart::Kernel, true, &[Windows2000]);
        // A second copy published earlier, with no class and no summary.
        let b = VulnerabilityEntry::builder(cve)
            .published(Date::new(2003, 1, 2).unwrap())
            .affects_os(Windows2003)
            .build()
            .unwrap();
        // A distinct CVE between the copies stays apart.
        let other = entry(
            CveId::new(2004, 231),
            2004,
            OsPart::Driver,
            true,
            &[Solaris],
        );
        // A third copy: one OS already held, one new, a longer summary.
        let c = VulnerabilityEntry::builder(cve)
            .published(Date::new(2005, 3, 4).unwrap())
            .summary("a much longer description of the same flaw")
            .part(OsPart::Application)
            .affects_os(Windows2000)
            .affects_os(FreeBsd)
            .build()
            .unwrap();
        let id = store.insert_entry(&a);
        assert_eq!(store.insert_entry(&b), id);
        let other_id = store.insert_entry(&other);
        assert_ne!(other_id, id);
        assert_eq!(store.insert_entry(&c), id);
        assert_eq!(store.vulnerability_count(), 2);

        // The platforms of all three copies accumulate, the earliest date
        // wins, and the first copy's class and summary are kept.
        let row = store.get(id).unwrap();
        assert_eq!(
            row.os_set,
            OsSet::from_iter([Windows2000, Windows2003, FreeBsd])
        );
        assert_eq!(row.published, Date::new(2003, 1, 2).unwrap());
        assert_eq!(row.part, Some(OsPart::Kernel));
        assert_eq!(row.summary, a.summary());
        // Each merge appends a join row for its new OSes only.
        assert_eq!(store.os_vuln_rows_for(id).count(), 3);
        assert_eq!(store.os_vuln_count(), 4);
        let other = store.get(other_id).unwrap();
        assert_eq!(other.os_set, OsSet::singleton(Solaris));
        assert_eq!(
            store.get_by_cve(CveId::new(2004, 231)).unwrap().id,
            other_id
        );
    }

    #[test]
    fn ingest_counts_new_rows_only() {
        let mut store = VulnStore::new();
        let a = entry(
            CveId::new(2005, 1),
            2005,
            OsPart::Kernel,
            true,
            &[OsDistribution::OpenBsd],
        );
        let b = entry(
            CveId::new(2005, 2),
            2005,
            OsPart::Kernel,
            true,
            &[OsDistribution::NetBsd],
        );
        let duplicate = a.clone();
        let new_rows = store.ingest([&a, &b, &duplicate]);
        assert_eq!(new_rows, 2);
        assert_eq!(store.vulnerability_count(), 2);
    }

    #[test]
    fn validity_counts() {
        let mut store = VulnStore::new();
        let mut valid = entry(
            CveId::new(2006, 1),
            2006,
            OsPart::Kernel,
            true,
            &[OsDistribution::Solaris],
        );
        valid.set_validity(Validity::Valid);
        let mut unknown = entry(
            CveId::new(2006, 2),
            2006,
            OsPart::Kernel,
            true,
            &[OsDistribution::Solaris],
        );
        unknown.set_validity(Validity::Unknown);
        let mut disputed = entry(
            CveId::new(2006, 3),
            2006,
            OsPart::Kernel,
            true,
            &[OsDistribution::Solaris],
        );
        disputed.set_validity(Validity::Disputed);
        store.ingest([&valid, &unknown, &disputed]);
        assert_eq!(store.vulnerability_count(), 3);
        assert_eq!(store.valid_count(), 1);
        let flags: Vec<_> = store.rows().map(|row| row.validity).collect();
        assert_eq!(
            flags,
            [Validity::Valid, Validity::Unknown, Validity::Disputed]
        );
    }

    #[test]
    fn release_level_queries() {
        let mut store = VulnStore::new();
        let e = VulnerabilityEntry::builder(CveId::new(2007, 42))
            .published(Date::new(2007, 3, 1).unwrap())
            .summary("release specific flaw")
            .part(OsPart::SystemSoftware)
            .affects_os_version(OsDistribution::Debian, "4.0")
            .affects_os(OsDistribution::RedHat)
            .build()
            .unwrap();
        let id = store.insert_entry(&e);
        let tags = |os| store.os_vuln_rows_for(id).find(|row| row.os == os);
        let debian = tags(OsDistribution::Debian).unwrap();
        assert_eq!(debian.versions, ["4.0"]);
        assert!(debian.affects_version("4.0"));
        assert!(!debian.affects_version("3.0"));
        // No version information: every release of the OS.
        let redhat = tags(OsDistribution::RedHat).unwrap();
        assert!(redhat.versions.is_empty());
        assert!(redhat.affects_version("5.0"));
        assert!(tags(OsDistribution::Ubuntu).is_none());
        assert_eq!(store.os_vuln_rows_for(id).count(), 2);
        assert_eq!(store.os_vuln_rows_for(VulnId(999)).count(), 0);
    }

    #[test]
    fn set_part_updates_rows() {
        let mut store = VulnStore::new();
        let e = VulnerabilityEntry::builder(CveId::new(2009, 9))
            .summary("unclassified flaw")
            .affects_os(OsDistribution::Ubuntu)
            .build()
            .unwrap();
        let id = store.insert_entry(&e);
        assert_eq!(store.get(id).unwrap().part, None);
        store.set_part(id, OsPart::Driver).unwrap();
        assert_eq!(store.get(id).unwrap().part, Some(OsPart::Driver));
        assert!(store.set_part(VulnId(999), OsPart::Kernel).is_err());
    }

    #[test]
    fn missing_cvss_defaults_to_remote() {
        let mut store = VulnStore::new();
        let e = VulnerabilityEntry::builder(CveId::new(2009, 10))
            .affects_os(OsDistribution::Solaris)
            .build()
            .unwrap();
        let id = store.insert_entry(&e);
        assert!(store.cvss_for(id).is_none());
        assert_eq!(store.access_vector_for(id), AccessVector::Network);
    }

    #[test]
    fn from_iterator_builds_a_store() {
        let entries = [
            entry(
                CveId::new(2003, 1),
                2003,
                OsPart::Kernel,
                true,
                &[OsDistribution::FreeBsd],
            ),
            entry(
                CveId::new(2003, 2),
                2003,
                OsPart::Application,
                false,
                &[OsDistribution::RedHat],
            ),
        ];
        let store: VulnStore = entries.iter().collect();
        assert_eq!(store.vulnerability_count(), 2);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arbitrary_os_set() -> impl Strategy<Value = OsSet> {
            (1u16..(1 << 11)).prop_map(OsSet::from_bits)
        }

        proptest! {
            #[test]
            fn os_vuln_rows_match_os_set(sets in proptest::collection::vec(arbitrary_os_set(), 1..30)) {
                let mut store = VulnStore::new();
                for (i, set) in sets.iter().enumerate() {
                    let e = VulnerabilityEntry::builder(CveId::new(2005, i as u32 + 1))
                        .affects_set(*set)
                        .build()
                        .unwrap();
                    let id = store.insert_entry(&e);
                    let row = store.get(id).unwrap();
                    prop_assert_eq!(row.os_set, *set);
                    let joined: OsSet = store.os_vuln_rows_for(id).map(|r| r.os).collect();
                    prop_assert_eq!(joined, *set);
                    prop_assert_eq!(store.os_vuln_rows_for(id).count(), set.len());
                }
            }
        }
    }
}
