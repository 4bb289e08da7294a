//! The [`VulnStore`] facade: ingestion and relational queries.

use std::collections::HashMap;

use nvd_model::{AccessVector, CveId, OsDistribution, OsPart, OsSet, Validity, VulnerabilityEntry};

use crate::schema::{CvssRow, OsRow, OsVulnRow, VulnId, VulnerabilityRow};
use crate::table::Table;
use crate::StoreError;

/// The in-memory database with the tables of Figure 1 of the paper.
///
/// Ingestion is by [`VulnerabilityEntry`]; queries expose both row-level
/// access (for the analysis crates to aggregate as they wish) and the common
/// joins (vulnerabilities per OS, CVSS per vulnerability, affected versions
/// per OS).
#[derive(Debug, Clone, Default)]
pub struct VulnStore {
    vulnerabilities: Table<VulnerabilityRow>,
    os: Table<OsRow>,
    os_vuln: Table<OsVulnRow>,
    cvss: Table<CvssRow>,
    /// Unique index `vulnerability.cve -> vulnerability.id`.
    by_cve: HashMap<CveId, VulnId>,
    /// Index `os -> [vulnerability.id]` (insertion order).
    by_os: Vec<Vec<VulnId>>,
    /// Index `vulnerability.id -> cvss row id`.
    cvss_by_vuln: HashMap<VulnId, usize>,
    /// Index `vulnerability.id -> [os_vuln row ids]`.
    os_vuln_by_vuln: HashMap<VulnId, Vec<usize>>,
}

impl VulnStore {
    /// Creates an empty store with the `os` table pre-populated with the 11
    /// studied distributions (as the paper's database was).
    pub fn new() -> Self {
        let mut store = VulnStore {
            vulnerabilities: Table::new("vulnerability"),
            os: Table::new("os"),
            os_vuln: Table::new("os_vuln"),
            cvss: Table::new("cvss"),
            by_cve: HashMap::new(),
            by_os: vec![Vec::new(); OsDistribution::COUNT],
            cvss_by_vuln: HashMap::new(),
            os_vuln_by_vuln: HashMap::new(),
        };
        for os in OsDistribution::ALL {
            store.os.insert(OsRow::new(os));
        }
        store
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

    /// Inserts an entry, failing if the CVE identifier is already stored.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::DuplicateVulnerability`] when the identifier is
    /// already present.
    pub fn try_insert_entry(&mut self, entry: &VulnerabilityEntry) -> Result<VulnId, StoreError> {
        if self.by_cve.contains_key(&entry.id()) {
            return Err(StoreError::DuplicateVulnerability { id: entry.id() });
        }
        Ok(self.insert_new(entry))
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
        self.vulnerabilities.insert(VulnerabilityRow {
            id,
            cve: entry.id(),
            published: entry.published(),
            summary: entry.summary().to_string(),
            part: entry.part(),
            validity: entry.validity(),
            os_set,
        });
        self.by_cve.insert(entry.id(), id);

        for os in os_set {
            self.by_os[os.index()].push(id);
        }
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
            let row_id = self.os_vuln.insert(OsVulnRow {
                vuln: id,
                os,
                versions,
            });
            self.os_vuln_by_vuln.entry(id).or_default().push(row_id);
        }
        if let Some(cvss) = entry.cvss() {
            let row_id = self.cvss.insert(CvssRow::new(id, *cvss));
            self.cvss_by_vuln.insert(id, row_id);
        }
        id
    }

    fn merge_into(&mut self, id: VulnId, entry: &VulnerabilityEntry) {
        let new_oses: Vec<OsDistribution> = {
            let row = self
                .vulnerabilities
                .get(id.index())
                .expect("index by_cve points at an existing row");
            entry
                .affected_os_set()
                .difference(row.os_set)
                .iter()
                .collect()
        };
        if let Some(row) = self.vulnerabilities.get_mut(id.index()) {
            for os in &new_oses {
                row.os_set.insert(*os);
            }
            if row.part.is_none() {
                row.part = entry.part();
            }
            if row.summary.is_empty() {
                row.summary = entry.summary().to_string();
            }
            if entry.published() < row.published {
                row.published = entry.published();
            }
        }
        for os in new_oses {
            self.by_os[os.index()].push(id);
            let row_id = self.os_vuln.insert(OsVulnRow {
                vuln: id,
                os,
                versions: Vec::new(),
            });
            self.os_vuln_by_vuln.entry(id).or_default().push(row_id);
        }
        if !self.cvss_by_vuln.contains_key(&id) {
            if let Some(cvss) = entry.cvss() {
                let row_id = self.cvss.insert(CvssRow::new(id, *cvss));
                self.cvss_by_vuln.insert(id, row_id);
            }
        }
    }

    /// Reconstructs a store from the three persisted tables, rebuilding
    /// every derived index from table scan order.
    ///
    /// [`insert_entry`](VulnStore::insert_entry) appends `os_vuln` rows
    /// and pushes into `by_os` in the same loop, so the global `os_vuln`
    /// table order *is* the per-OS insertion order — a single in-order
    /// scan reproduces `by_os`, `os_vuln_by_vuln`, `cvss_by_vuln` and
    /// `by_cve` exactly as ingestion built them.
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
        let mut store = VulnStore::new();
        for (position, row) in vulnerabilities.iter().enumerate() {
            if row.id.index() != position {
                return Err(inconsistent("vulnerability row id != row position"));
            }
            if store.by_cve.insert(row.cve, row.id).is_some() {
                return Err(inconsistent("duplicate CVE identifier"));
            }
        }
        let vuln_count = vulnerabilities.len();
        let mut joined_sets = vec![OsSet::new(); vuln_count];
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
            store.by_os[row.os.index()].push(row.vuln);
            store
                .os_vuln_by_vuln
                .entry(row.vuln)
                .or_default()
                .push(row_id);
        }
        for (row, joined) in vulnerabilities.iter().zip(&joined_sets) {
            if row.os_set != *joined {
                return Err(inconsistent("os_set disagrees with the os_vuln join table"));
            }
        }
        for (row_id, row) in cvss.iter().enumerate() {
            if row.vuln.index() >= vuln_count {
                return Err(inconsistent("cvss row references a missing vulnerability"));
            }
            if store.cvss_by_vuln.insert(row.vuln, row_id).is_some() {
                return Err(inconsistent("more than one cvss row per vulnerability"));
            }
        }
        store.vulnerabilities.extend(vulnerabilities);
        store.os_vuln.extend(os_vuln);
        store.cvss.extend(cvss);
        Ok(store)
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
        bytes += self.os.len() * std::mem::size_of::<OsRow>();
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
        bytes += self
            .by_os
            .iter()
            .map(|ids| ids.len() * std::mem::size_of::<VulnId>())
            .sum::<usize>();
        bytes += (self.cvss_by_vuln.len() + self.os_vuln_by_vuln.len())
            * std::mem::size_of::<(VulnId, usize)>();
        bytes += self
            .os_vuln_by_vuln
            .values()
            .map(|ids| ids.len() * std::mem::size_of::<usize>())
            .sum::<usize>();
        bytes
    }

    /// The rows of the `os` table (always the 11 studied distributions).
    pub fn os_rows(&self) -> impl Iterator<Item = &OsRow> {
        self.os.iter()
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

    /// Number of vulnerabilities with the given validity flag.
    pub fn count_by_validity(&self, validity: Validity) -> usize {
        self.rows().filter(|row| row.validity == validity).count()
    }

    /// The vulnerability rows affecting a given OS (valid and invalid).
    pub fn vulnerabilities_for_os(&self, os: OsDistribution) -> Vec<&VulnerabilityRow> {
        self.by_os[os.index()]
            .iter()
            .filter_map(|id| self.get(*id))
            .collect()
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
    /// the order [`VulnStore::from_rows`] rebuilds the per-OS indexes
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

    /// Updates the validity flag of a vulnerability.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotFound`] if the id does not exist.
    pub fn set_validity(&mut self, id: VulnId, validity: Validity) -> Result<(), StoreError> {
        match self.vulnerabilities.get_mut(id.index()) {
            Some(row) => {
                row.validity = validity;
                Ok(())
            }
            None => Err(StoreError::NotFound {
                what: "vulnerability row",
            }),
        }
    }

    // ------------------------------------------------------------------
    // Set-level queries used throughout the analysis
    // ------------------------------------------------------------------

    /// Valid vulnerability rows whose affected set contains **all** members
    /// of `group` — the common vulnerabilities of a replica group.
    pub fn shared_by_all(&self, group: OsSet) -> Vec<&VulnerabilityRow> {
        self.valid_rows()
            .filter(|row| group.is_subset_of(&row.os_set))
            .collect()
    }

    /// Valid vulnerability rows whose affected set intersects `group`.
    pub fn affecting_any(&self, group: OsSet) -> Vec<&VulnerabilityRow> {
        self.valid_rows()
            .filter(|row| group.intersects(&row.os_set))
            .collect()
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
    use nvd_model::{CvssV2, Date};

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
    fn new_store_has_the_eleven_os_rows() {
        let store = VulnStore::new();
        assert_eq!(store.os_rows().count(), 11);
        assert_eq!(store.vulnerability_count(), 0);
        assert_eq!(store.valid_count(), 0);
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
        assert_eq!(
            store.vulnerabilities_for_os(OsDistribution::Debian).len(),
            1
        );
        assert_eq!(
            store.vulnerabilities_for_os(OsDistribution::Solaris).len(),
            0
        );
    }

    #[test]
    fn try_insert_rejects_duplicates_but_insert_merges() {
        let mut store = VulnStore::new();
        let a = entry(
            CveId::new(2004, 230),
            2004,
            OsPart::Kernel,
            true,
            &[OsDistribution::Windows2000],
        );
        let b = entry(
            CveId::new(2004, 230),
            2004,
            OsPart::Kernel,
            true,
            &[OsDistribution::Windows2003],
        );
        let id = store.try_insert_entry(&a).unwrap();
        assert!(matches!(
            store.try_insert_entry(&b),
            Err(StoreError::DuplicateVulnerability { .. })
        ));
        let merged_id = store.insert_entry(&b);
        assert_eq!(merged_id, id);
        assert_eq!(store.vulnerability_count(), 1);
        let row = store.get(id).unwrap();
        assert!(row.os_set.contains(OsDistribution::Windows2000));
        assert!(row.os_set.contains(OsDistribution::Windows2003));
        // Both OS indexes know the vulnerability.
        assert_eq!(
            store
                .vulnerabilities_for_os(OsDistribution::Windows2003)
                .len(),
            1
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
        assert_eq!(store.count_by_validity(Validity::Unknown), 1);
        assert_eq!(store.count_by_validity(Validity::Disputed), 1);
        assert_eq!(store.count_by_validity(Validity::Unspecified), 0);
    }

    #[test]
    fn shared_by_all_and_affecting_any() {
        let mut store = VulnStore::new();
        store.ingest([
            &entry(
                CveId::new(2007, 1),
                2007,
                OsPart::Kernel,
                true,
                &[
                    OsDistribution::OpenBsd,
                    OsDistribution::NetBsd,
                    OsDistribution::FreeBsd,
                ],
            ),
            &entry(
                CveId::new(2007, 2),
                2007,
                OsPart::Kernel,
                true,
                &[OsDistribution::OpenBsd, OsDistribution::NetBsd],
            ),
            &entry(
                CveId::new(2007, 3),
                2007,
                OsPart::Kernel,
                true,
                &[OsDistribution::Debian],
            ),
        ]);
        let pair = OsSet::pair(OsDistribution::OpenBsd, OsDistribution::NetBsd);
        assert_eq!(store.shared_by_all(pair).len(), 2);
        let triple = OsSet::from_iter([
            OsDistribution::OpenBsd,
            OsDistribution::NetBsd,
            OsDistribution::FreeBsd,
        ]);
        assert_eq!(store.shared_by_all(triple).len(), 1);
        assert_eq!(
            store
                .affecting_any(OsSet::singleton(OsDistribution::Debian))
                .len(),
            1
        );
        assert_eq!(store.affecting_any(OsSet::all()).len(), 3);
        assert!(store
            .shared_by_all(OsSet::pair(OsDistribution::Debian, OsDistribution::Ubuntu))
            .is_empty());
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
    fn set_part_and_validity_update_rows() {
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
        store.set_validity(id, Validity::Unspecified).unwrap();
        assert_eq!(store.valid_count(), 0);
        assert!(store.set_part(VulnId(999), OsPart::Kernel).is_err());
        assert!(store.set_validity(VulnId(999), Validity::Valid).is_err());
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
                    prop_assert_eq!(store.os_vuln_rows_for(id).count(), set.len());
                }
                // The per-OS index is consistent with the row os_sets.
                for os in OsDistribution::ALL {
                    let indexed = store.vulnerabilities_for_os(os).len();
                    let scanned = store.rows().filter(|r| r.os_set.contains(os)).count();
                    prop_assert_eq!(indexed, scanned);
                }
            }

            #[test]
            fn shared_by_all_is_monotone_in_group_size(
                sets in proptest::collection::vec(arbitrary_os_set(), 1..40),
                group in arbitrary_os_set(),
            ) {
                let mut store = VulnStore::new();
                for (i, set) in sets.iter().enumerate() {
                    let e = VulnerabilityEntry::builder(CveId::new(2006, i as u32 + 1))
                        .affects_set(*set)
                        .build()
                        .unwrap();
                    store.insert_entry(&e);
                }
                // Adding one more OS to the group can only shrink the set of
                // common vulnerabilities.
                let with_all = store.shared_by_all(group).len();
                for os in OsDistribution::ALL {
                    if !group.contains(os) {
                        let mut bigger = group;
                        bigger.insert(os);
                        prop_assert!(store.shared_by_all(bigger).len() <= with_all);
                    }
                }
            }
        }
    }
}
