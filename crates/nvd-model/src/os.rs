//! The operating-system distributions, families, releases and OS sets used
//! throughout the study.
//!
//! Section III of the paper clusters 64 CPE `(product, vendor)` pairs into 11
//! OS distributions covering four families (BSD, Solaris, Linux and Windows).
//! [`OsDistribution`] enumerates those distributions, [`OsFamily`] the
//! families, [`OsSet`] is a compact bit-set over distributions used heavily by
//! the analysis crates, and [`OsRelease`] models the per-release analysis of
//! Section IV-D (Table VI).

use std::fmt;
use std::str::FromStr;

use crate::{Cpe, ModelError};

/// One of the four operating-system families studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OsFamily {
    /// OpenBSD, NetBSD and FreeBSD.
    Bsd,
    /// Solaris and OpenSolaris.
    Solaris,
    /// Debian, Ubuntu and RedHat.
    Linux,
    /// Windows 2000, 2003 and 2008 server editions.
    Windows,
}

impl OsFamily {
    /// All four families, in the order the paper presents them (Figure 2).
    pub const ALL: [OsFamily; 4] = [
        OsFamily::Solaris,
        OsFamily::Bsd,
        OsFamily::Windows,
        OsFamily::Linux,
    ];

    /// The distributions belonging to this family.
    ///
    /// # Example
    ///
    /// ```
    /// use nvd_model::{OsDistribution, OsFamily};
    /// assert_eq!(OsFamily::Solaris.members().len(), 2);
    /// assert!(OsFamily::Bsd.members().contains(&OsDistribution::OpenBsd));
    /// ```
    pub fn members(&self) -> &'static [OsDistribution] {
        match self {
            OsFamily::Bsd => &[
                OsDistribution::OpenBsd,
                OsDistribution::NetBsd,
                OsDistribution::FreeBsd,
            ],
            OsFamily::Solaris => &[OsDistribution::OpenSolaris, OsDistribution::Solaris],
            OsFamily::Linux => &[
                OsDistribution::Debian,
                OsDistribution::Ubuntu,
                OsDistribution::RedHat,
            ],
            OsFamily::Windows => &[
                OsDistribution::Windows2000,
                OsDistribution::Windows2003,
                OsDistribution::Windows2008,
            ],
        }
    }
}

impl fmt::Display for OsFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsFamily::Bsd => f.write_str("BSD"),
            OsFamily::Solaris => f.write_str("Solaris"),
            OsFamily::Linux => f.write_str("Linux"),
            OsFamily::Windows => f.write_str("Windows"),
        }
    }
}

impl FromStr for OsFamily {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "bsd" => Ok(OsFamily::Bsd),
            "solaris" => Ok(OsFamily::Solaris),
            "linux" => Ok(OsFamily::Linux),
            "windows" => Ok(OsFamily::Windows),
            _ => Err(ModelError::UnknownOs {
                input: s.to_string(),
            }),
        }
    }
}

/// One of the 11 operating-system distributions studied in the paper.
///
/// The discriminants are used as bit positions by [`OsSet`], so the enum is
/// `repr(u8)` and the order matches Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum OsDistribution {
    /// OpenBSD.
    OpenBsd = 0,
    /// NetBSD.
    NetBsd = 1,
    /// FreeBSD.
    FreeBsd = 2,
    /// OpenSolaris.
    OpenSolaris = 3,
    /// Sun/Oracle Solaris.
    Solaris = 4,
    /// Debian GNU/Linux.
    Debian = 5,
    /// Ubuntu Linux.
    Ubuntu = 6,
    /// Red Hat Linux and Red Hat Enterprise Linux (the paper merges both).
    RedHat = 7,
    /// Microsoft Windows 2000.
    Windows2000 = 8,
    /// Microsoft Windows Server 2003.
    Windows2003 = 9,
    /// Microsoft Windows Server 2008.
    Windows2008 = 10,
}

impl OsDistribution {
    /// All 11 distributions in Table I order.
    pub const ALL: [OsDistribution; 11] = [
        OsDistribution::OpenBsd,
        OsDistribution::NetBsd,
        OsDistribution::FreeBsd,
        OsDistribution::OpenSolaris,
        OsDistribution::Solaris,
        OsDistribution::Debian,
        OsDistribution::Ubuntu,
        OsDistribution::RedHat,
        OsDistribution::Windows2000,
        OsDistribution::Windows2003,
        OsDistribution::Windows2008,
    ];

    /// Number of distributions studied.
    pub const COUNT: usize = Self::ALL.len();

    /// The bit index used by [`OsSet`] (0–10).
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// The inverse of [`OsDistribution::index`].
    pub fn from_index(index: usize) -> Option<Self> {
        Self::ALL.get(index).copied()
    }

    /// The OS family of this distribution.
    ///
    /// # Example
    ///
    /// ```
    /// use nvd_model::{OsDistribution, OsFamily};
    /// assert_eq!(OsDistribution::Debian.family(), OsFamily::Linux);
    /// assert_eq!(OsDistribution::Windows2008.family(), OsFamily::Windows);
    /// ```
    pub fn family(&self) -> OsFamily {
        match self {
            OsDistribution::OpenBsd | OsDistribution::NetBsd | OsDistribution::FreeBsd => {
                OsFamily::Bsd
            }
            OsDistribution::OpenSolaris | OsDistribution::Solaris => OsFamily::Solaris,
            OsDistribution::Debian | OsDistribution::Ubuntu | OsDistribution::RedHat => {
                OsFamily::Linux
            }
            OsDistribution::Windows2000
            | OsDistribution::Windows2003
            | OsDistribution::Windows2008 => OsFamily::Windows,
        }
    }

    /// Short display name matching the paper's tables (e.g. `Win2003`).
    pub fn short_name(&self) -> &'static str {
        match self {
            OsDistribution::OpenBsd => "OpenBSD",
            OsDistribution::NetBsd => "NetBSD",
            OsDistribution::FreeBsd => "FreeBSD",
            OsDistribution::OpenSolaris => "OpenSolaris",
            OsDistribution::Solaris => "Solaris",
            OsDistribution::Debian => "Debian",
            OsDistribution::Ubuntu => "Ubuntu",
            OsDistribution::RedHat => "RedHat",
            OsDistribution::Windows2000 => "Win2000",
            OsDistribution::Windows2003 => "Win2003",
            OsDistribution::Windows2008 => "Win2008",
        }
    }

    /// Year of the first release of the distribution, used when reasoning
    /// about vulnerability reports predating the distribution (Section IV-A).
    pub fn first_release_year(&self) -> u16 {
        match self {
            OsDistribution::OpenBsd => 1996,
            OsDistribution::NetBsd => 1993,
            OsDistribution::FreeBsd => 1993,
            OsDistribution::OpenSolaris => 2008,
            OsDistribution::Solaris => 1992,
            OsDistribution::Debian => 1996,
            OsDistribution::Ubuntu => 2004,
            OsDistribution::RedHat => 1995,
            OsDistribution::Windows2000 => 2000,
            OsDistribution::Windows2003 => 2003,
            OsDistribution::Windows2008 => 2008,
        }
    }

    /// The canonical CPE for the distribution (no version component).
    ///
    /// # Example
    ///
    /// ```
    /// use nvd_model::OsDistribution;
    /// let cpe = OsDistribution::Windows2003.canonical_cpe();
    /// assert_eq!(cpe.to_string(), "cpe:/o:microsoft:windows_2003_server");
    /// ```
    pub fn canonical_cpe(&self) -> Cpe {
        let (vendor, product) = match self {
            OsDistribution::OpenBsd => ("openbsd", "openbsd"),
            OsDistribution::NetBsd => ("netbsd", "netbsd"),
            OsDistribution::FreeBsd => ("freebsd", "freebsd"),
            OsDistribution::OpenSolaris => ("sun", "opensolaris"),
            OsDistribution::Solaris => ("sun", "solaris"),
            OsDistribution::Debian => ("debian", "debian_linux"),
            OsDistribution::Ubuntu => ("canonical", "ubuntu_linux"),
            OsDistribution::RedHat => ("redhat", "enterprise_linux"),
            OsDistribution::Windows2000 => ("microsoft", "windows_2000"),
            OsDistribution::Windows2003 => ("microsoft", "windows_2003_server"),
            OsDistribution::Windows2008 => ("microsoft", "windows_server_2008"),
        };
        Cpe::new(crate::CpePart::OperatingSystem, vendor, product)
    }

    /// Clusters an OS-level CPE into one of the 11 distributions, reproducing
    /// the manual clustering of the 64 CPEs described in Section III of the
    /// paper. Returns `None` for non-OS CPEs and for operating systems
    /// outside the study (e.g. HP-UX, AIX, Mac OS X).
    ///
    /// The mapping is deliberately tolerant of the naming inconsistencies the
    /// paper reports, e.g. both `("debian_linux", "debian")` and
    /// `("linux", "debian")` map to [`OsDistribution::Debian`].
    pub fn from_cpe(cpe: &Cpe) -> Option<Self> {
        if !cpe.is_operating_system() {
            return None;
        }
        Self::from_vendor_product(cpe.vendor(), cpe.product())
    }

    /// Clusters a raw `(vendor, product)` pair in any ASCII case, see
    /// [`OsDistribution::from_cpe`]. Its match is the one table of the
    /// spellings NVD uses for each studied OS.
    pub fn from_vendor_product(vendor: &str, product: &str) -> Option<Self> {
        let vendor = vendor.to_ascii_lowercase();
        let product = product.to_ascii_lowercase();
        match (vendor.as_str(), product.as_str()) {
            (_, "openbsd") => Some(OsDistribution::OpenBsd),
            (_, "netbsd") => Some(OsDistribution::NetBsd),
            (_, "freebsd") => Some(OsDistribution::FreeBsd),
            (_, "opensolaris") | (_, "open_solaris") => Some(OsDistribution::OpenSolaris),
            (_, "solaris") | (_, "sunos") => Some(OsDistribution::Solaris),
            ("debian", "linux")
            | ("linux", "debian")
            | ("debian", "debian_linux")
            | (_, "debian_linux") => Some(OsDistribution::Debian),
            ("canonical", "ubuntu_linux")
            | ("canonical", "ubuntu")
            | ("ubuntu", "ubuntu_linux")
            | ("ubuntu", "linux")
            | (_, "ubuntu_linux") => Some(OsDistribution::Ubuntu),
            ("redhat", "linux")
            | ("redhat", "enterprise_linux")
            | ("redhat", "enterprise_linux_server")
            | ("redhat", "enterprise_linux_desktop")
            | ("redhat", "enterprise_linux_workstation")
            | ("redhat", "redhat_linux")
            | (_, "enterprise_linux") => Some(OsDistribution::RedHat),
            ("microsoft", p) => {
                if p.contains("2000") {
                    Some(OsDistribution::Windows2000)
                } else if p.contains("2003") {
                    Some(OsDistribution::Windows2003)
                } else if p.contains("2008") {
                    Some(OsDistribution::Windows2008)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The OS releases of this distribution used by the per-release analysis
    /// (Section IV-D). Only the distributions for which the paper found a
    /// meaningful correlation between security trackers and the NVD carry
    /// release information; the remaining distributions return an empty
    /// slice.
    pub fn releases(&self) -> &'static [OsRelease] {
        const DEBIAN: [OsRelease; 3] = [
            OsRelease::new(OsDistribution::Debian, "2.1", 1999),
            OsRelease::new(OsDistribution::Debian, "3.0", 2002),
            OsRelease::new(OsDistribution::Debian, "4.0", 2007),
        ];
        const REDHAT: [OsRelease; 3] = [
            OsRelease::new(OsDistribution::RedHat, "6.2", 2000),
            OsRelease::new(OsDistribution::RedHat, "4.0", 2005),
            OsRelease::new(OsDistribution::RedHat, "5.0", 2007),
        ];
        const NETBSD: [OsRelease; 4] = [
            OsRelease::new(OsDistribution::NetBsd, "1.6", 2002),
            OsRelease::new(OsDistribution::NetBsd, "2.0", 2004),
            OsRelease::new(OsDistribution::NetBsd, "3.0.1", 2006),
            OsRelease::new(OsDistribution::NetBsd, "4.0", 2007),
        ];
        const UBUNTU: [OsRelease; 4] = [
            OsRelease::new(OsDistribution::Ubuntu, "4.10", 2004),
            OsRelease::new(OsDistribution::Ubuntu, "5.04", 2005),
            OsRelease::new(OsDistribution::Ubuntu, "8.04", 2008),
            OsRelease::new(OsDistribution::Ubuntu, "9.04", 2009),
        ];
        match self {
            OsDistribution::Debian => &DEBIAN,
            OsDistribution::RedHat => &REDHAT,
            OsDistribution::NetBsd => &NETBSD,
            OsDistribution::Ubuntu => &UBUNTU,
            _ => &[],
        }
    }
}

impl fmt::Display for OsDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

impl FromStr for OsDistribution {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        let os = match normalized.as_str() {
            "openbsd" => OsDistribution::OpenBsd,
            "netbsd" => OsDistribution::NetBsd,
            "freebsd" => OsDistribution::FreeBsd,
            "opensolaris" => OsDistribution::OpenSolaris,
            "solaris" => OsDistribution::Solaris,
            "debian" | "debianlinux" => OsDistribution::Debian,
            "ubuntu" | "ubuntulinux" => OsDistribution::Ubuntu,
            "redhat" | "rhel" | "redhatlinux" | "redhatenterpriselinux" => OsDistribution::RedHat,
            "win2000" | "windows2000" => OsDistribution::Windows2000,
            "win2003" | "windows2003" | "windowsserver2003" => OsDistribution::Windows2003,
            "win2008" | "windows2008" | "windowsserver2008" => OsDistribution::Windows2008,
            _ => {
                return Err(ModelError::UnknownOs {
                    input: s.to_string(),
                })
            }
        };
        Ok(os)
    }
}

/// A specific release of an OS distribution, e.g. Debian 4.0 (2007).
///
/// Used by the per-release diversity analysis (Section IV-D, Table VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OsRelease {
    distribution: OsDistribution,
    version: &'static str,
    year: u16,
}

impl OsRelease {
    /// Creates a release descriptor.
    pub const fn new(distribution: OsDistribution, version: &'static str, year: u16) -> Self {
        OsRelease {
            distribution,
            version,
            year,
        }
    }

    /// The distribution this release belongs to.
    pub fn distribution(&self) -> OsDistribution {
        self.distribution
    }

    /// The release version string (e.g. `"4.0"`).
    pub fn version(&self) -> &'static str {
        self.version
    }

    /// The release year.
    pub fn year(&self) -> u16 {
        self.year
    }

    /// Label used in Table VI, e.g. `Debian4.0`.
    pub fn label(&self) -> String {
        format!("{}{}", self.distribution.short_name(), self.version)
    }
}

impl fmt::Display for OsRelease {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.distribution.short_name(), self.version)
    }
}

/// A compact set of OS distributions, stored as an 11-bit mask.
///
/// Every analysis in the paper is a question about sets of operating
/// systems: which OSes a vulnerability affects, which OSes form a replica
/// group, how many vulnerabilities affect *all* members of a group. `OsSet`
/// makes those operations cheap (bitwise) and `Copy`.
///
/// # Example
///
/// ```
/// use nvd_model::{OsDistribution, OsSet};
///
/// let set1 = OsSet::from_iter([
///     OsDistribution::Windows2003,
///     OsDistribution::Solaris,
///     OsDistribution::Debian,
///     OsDistribution::OpenBsd,
/// ]);
/// assert_eq!(set1.len(), 4);
/// assert!(set1.contains(OsDistribution::Debian));
///
/// let bsd = OsSet::family(nvd_model::OsFamily::Bsd);
/// assert_eq!(set1.intersection(bsd).len(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OsSet(u16);

impl OsSet {
    /// The mask with all 11 distributions set.
    const FULL_MASK: u16 = (1 << OsDistribution::COUNT as u16) - 1;

    /// The empty set.
    pub const EMPTY: OsSet = OsSet(0);

    /// Creates an empty set.
    pub fn new() -> Self {
        OsSet(0)
    }

    /// The set containing every distribution in the study.
    pub fn all() -> Self {
        OsSet(Self::FULL_MASK)
    }

    /// The set containing the members of `family`.
    pub fn family(family: OsFamily) -> Self {
        family.members().iter().copied().collect()
    }

    /// The set containing exactly one distribution.
    pub fn singleton(os: OsDistribution) -> Self {
        OsSet(1 << os.index() as u16)
    }

    /// The set containing exactly the pair `{a, b}`.
    pub fn pair(a: OsDistribution, b: OsDistribution) -> Self {
        OsSet::singleton(a).union(OsSet::singleton(b))
    }

    /// Number of distributions in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Whether `os` is a member of the set.
    pub fn contains(&self, os: OsDistribution) -> bool {
        self.0 & (1 << os.index() as u16) != 0
    }

    /// Adds `os` to the set; returns `true` if it was not already present.
    pub fn insert(&mut self, os: OsDistribution) -> bool {
        let bit = 1 << os.index() as u16;
        let was_absent = self.0 & bit == 0;
        self.0 |= bit;
        was_absent
    }

    /// Removes `os` from the set; returns `true` if it was present.
    pub fn remove(&mut self, os: OsDistribution) -> bool {
        let bit = 1 << os.index() as u16;
        let was_present = self.0 & bit != 0;
        self.0 &= !bit;
        was_present
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: OsSet) -> OsSet {
        OsSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: OsSet) -> OsSet {
        OsSet(self.0 & other.0)
    }

    /// Set difference (`self \ other`).
    #[must_use]
    pub fn difference(self, other: OsSet) -> OsSet {
        OsSet(self.0 & !other.0)
    }

    /// Whether every member of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &OsSet) -> bool {
        self.0 & other.0 == self.0
    }

    /// Whether the two sets share at least one member.
    pub fn intersects(&self, other: &OsSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterates over the members in [`OsDistribution::ALL`] order.
    pub fn iter(&self) -> OsSetIter {
        OsSetIter { remaining: self.0 }
    }

    /// The raw 11-bit mask (bit *i* set means `OsDistribution::from_index(i)`
    /// is a member). Exposed for compact storage in the relational store.
    pub fn bits(&self) -> u16 {
        self.0
    }

    /// Rebuilds a set from a raw mask, ignoring bits beyond the 11 used.
    pub fn from_bits(bits: u16) -> Self {
        OsSet(bits & Self::FULL_MASK)
    }

    /// Enumerates every subset of `self` with exactly `k` members,
    /// lazily.
    ///
    /// Used by the k-OS combination analysis (Section IV-B). The iterator
    /// advances with Gosper's hack (next k-combination in ascending mask
    /// order) over a compacted universe of the set's members, so no
    /// intermediate `Vec` is allocated — there are `C(len, k)` subsets, up
    /// to `C(11, 5) = 462`, and the iterator is [`ExactSizeIterator`].
    ///
    /// # Example
    ///
    /// ```
    /// use nvd_model::OsSet;
    /// let all = OsSet::all();
    /// assert_eq!(all.subsets_of_size(2).len(), 55); // the 55 OS pairs
    /// ```
    pub fn subsets_of_size(&self, k: usize) -> SubsetsOfSize {
        let mut member_bits = [0u16; OsDistribution::COUNT];
        let mut n = 0usize;
        let mut bits = self.0;
        while bits != 0 {
            member_bits[n] = bits & bits.wrapping_neg();
            bits &= bits - 1;
            n += 1;
        }
        SubsetsOfSize {
            member_bits,
            remaining: binomial(n, k),
            compact: if k == 0 || k > n { 0 } else { (1u32 << k) - 1 },
        }
    }
}

/// `C(n, k)` for the tiny arguments [`OsSet::subsets_of_size`] needs
/// (`n ≤ 11`).
fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result = 1usize;
    for i in 0..k {
        result = result * (n - i) / (i + 1);
    }
    result
}

impl FromIterator<OsDistribution> for OsSet {
    fn from_iter<T: IntoIterator<Item = OsDistribution>>(iter: T) -> Self {
        let mut set = OsSet::new();
        for os in iter {
            set.insert(os);
        }
        set
    }
}

impl Extend<OsDistribution> for OsSet {
    fn extend<T: IntoIterator<Item = OsDistribution>>(&mut self, iter: T) {
        for os in iter {
            self.insert(os);
        }
    }
}

impl IntoIterator for OsSet {
    type Item = OsDistribution;
    type IntoIter = OsSetIter;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for &OsSet {
    type Item = OsDistribution;
    type IntoIter = OsSetIter;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for OsSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, os) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{os}")?;
        }
        write!(f, "}}")
    }
}

/// Lazy iterator over the `k`-member subsets of an [`OsSet`], produced by
/// [`OsSet::subsets_of_size`].
///
/// Internally a Gosper's-hack walk over compact `k`-of-`n` combination
/// masks (ascending mask order), mapped back to the universe bits of the
/// originating set on each step.
#[derive(Debug, Clone)]
pub struct SubsetsOfSize {
    /// The isolated universe bit of each member of the originating set,
    /// in ascending bit order (only the first `n` entries are used).
    member_bits: [u16; OsDistribution::COUNT],
    /// Subsets not yet yielded (`C(n, k)` at construction).
    remaining: usize,
    /// The current compact combination mask (bit `i` selects
    /// `member_bits[i]`).
    compact: u32,
}

impl Iterator for SubsetsOfSize {
    type Item = OsSet;

    fn next(&mut self) -> Option<OsSet> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Expand the compact combination into universe bits.
        let mut mask = 0u16;
        let mut compact = self.compact;
        while compact != 0 {
            mask |= self.member_bits[compact.trailing_zeros() as usize];
            compact &= compact - 1;
        }
        if self.remaining > 0 {
            // Gosper's hack: the next integer with the same popcount.
            let c = self.compact;
            let lowest = c & c.wrapping_neg();
            let ripple = c + lowest;
            self.compact = (((ripple ^ c) >> 2) / lowest) | ripple;
        }
        Some(OsSet(mask))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SubsetsOfSize {}

/// Iterator over the members of an [`OsSet`], produced by [`OsSet::iter`].
#[derive(Debug, Clone)]
pub struct OsSetIter {
    remaining: u16,
}

impl Iterator for OsSetIter {
    type Item = OsDistribution;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let index = self.remaining.trailing_zeros() as usize;
        self.remaining &= self.remaining - 1;
        OsDistribution::from_index(index)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for OsSetIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eleven_distributions_four_families() {
        assert_eq!(OsDistribution::ALL.len(), 11);
        assert_eq!(OsFamily::ALL.len(), 4);
        let total: usize = OsFamily::ALL.iter().map(|f| f.members().len()).sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn family_membership_is_consistent() {
        for family in OsFamily::ALL {
            for os in family.members() {
                assert_eq!(os.family(), family, "{os} should be in {family}");
            }
        }
    }

    #[test]
    fn indexes_are_unique_and_dense() {
        for (i, os) in OsDistribution::ALL.iter().enumerate() {
            assert_eq!(os.index(), i);
            assert_eq!(OsDistribution::from_index(i), Some(*os));
        }
        assert_eq!(OsDistribution::from_index(11), None);
    }

    #[test]
    fn cpe_clustering_handles_aliases() {
        // The two Debian aliases explicitly mentioned in Section III.
        assert_eq!(
            OsDistribution::from_vendor_product("debian", "debian_linux"),
            Some(OsDistribution::Debian)
        );
        assert_eq!(
            OsDistribution::from_vendor_product("debian", "linux"),
            Some(OsDistribution::Debian)
        );
        assert_eq!(
            OsDistribution::from_vendor_product("redhat", "linux"),
            Some(OsDistribution::RedHat)
        );
        assert_eq!(
            OsDistribution::from_vendor_product("microsoft", "windows_server_2008"),
            Some(OsDistribution::Windows2008)
        );
        assert_eq!(
            OsDistribution::from_vendor_product("apple", "mac_os_x"),
            None
        );
    }

    #[test]
    fn alias_spellings_cluster_as_their_canonical_pairs() {
        // The spellings NVD uses besides an OS's canonical (vendor,
        // product) pair, the "by hand" corrections of Section III. Each
        // canonical pair clusters to its OS (see the next test).
        use OsDistribution::*;
        #[rustfmt::skip] // one spelling per line
        const SPELLINGS: [(&str, &str, OsDistribution); 14] = [
            ("debian", "linux", Debian),
            ("linux", "debian", Debian),
            ("redhat", "linux", RedHat),
            ("redhat", "redhat_linux", RedHat),
            ("redhat", "enterprise_linux_server", RedHat),
            ("redhat", "enterprise_linux_desktop", RedHat),
            ("ubuntu", "ubuntu_linux", Ubuntu),
            ("ubuntu", "linux", Ubuntu),
            ("sun", "sunos", Solaris),
            ("oracle", "solaris", Solaris),
            ("oracle", "opensolaris", OpenSolaris),
            ("microsoft", "windows_2003", Windows2003),
            ("microsoft", "windows_server_2003", Windows2003),
            ("microsoft", "windows_2008", Windows2008),
        ];
        for (i, &(vendor, product, os)) in SPELLINGS.iter().enumerate() {
            for (v, p) in [
                (vendor.to_string(), product.to_string()),
                (vendor.to_ascii_uppercase(), product.to_ascii_uppercase()),
            ] {
                let cpe: Cpe = format!("cpe:/o:{v}:{p}").parse().unwrap();
                assert_eq!(OsDistribution::from_cpe(&cpe), Some(os), "({v}, {p})");
                assert_eq!(OsDistribution::from_vendor_product(&v, &p), Some(os));
            }
            assert!(
                SPELLINGS
                    .iter()
                    .skip(i + 1)
                    .all(|(v, p, _)| (*v, *p) != (vendor, product)),
                "({vendor}, {product}) is listed twice"
            );
        }
        // A pair outside the study clusters nowhere, in any case.
        assert_eq!(
            OsDistribution::from_vendor_product("Apple", "Mac_OS_X"),
            None
        );
    }

    #[test]
    fn canonical_cpe_roundtrips_through_clustering() {
        for os in OsDistribution::ALL {
            let cpe = os.canonical_cpe();
            assert_eq!(OsDistribution::from_cpe(&cpe), Some(os), "for {os}");
        }
    }

    #[test]
    fn application_cpe_is_not_clustered() {
        let cpe: Cpe = "cpe:/a:debian:debian_linux".parse().unwrap();
        assert_eq!(OsDistribution::from_cpe(&cpe), None);
    }

    #[test]
    fn from_str_accepts_paper_spellings() {
        assert_eq!(
            "Windows 2003".parse::<OsDistribution>().unwrap(),
            OsDistribution::Windows2003
        );
        assert_eq!(
            "Win2000".parse::<OsDistribution>().unwrap(),
            OsDistribution::Windows2000
        );
        assert_eq!(
            "RedHat".parse::<OsDistribution>().unwrap(),
            OsDistribution::RedHat
        );
        assert!("Plan9".parse::<OsDistribution>().is_err());
    }

    #[test]
    fn releases_match_table_vi_years() {
        let debian = OsDistribution::Debian.releases();
        assert_eq!(debian.len(), 3);
        assert_eq!(debian[0].label(), "Debian2.1");
        assert_eq!(debian[0].year(), 1999);
        assert_eq!(debian[2].year(), 2007);
        let redhat = OsDistribution::RedHat.releases();
        assert_eq!(redhat[0].label(), "RedHat6.2");
        assert_eq!(redhat[0].year(), 2000);
        assert!(OsDistribution::Windows2000.releases().is_empty());
    }

    #[test]
    fn osset_basic_operations() {
        let mut set = OsSet::new();
        assert!(set.is_empty());
        assert!(set.insert(OsDistribution::Debian));
        assert!(!set.insert(OsDistribution::Debian));
        assert!(set.contains(OsDistribution::Debian));
        assert_eq!(set.len(), 1);
        assert!(set.remove(OsDistribution::Debian));
        assert!(!set.remove(OsDistribution::Debian));
        assert!(set.is_empty());
    }

    #[test]
    fn osset_set_algebra() {
        let bsd = OsSet::family(OsFamily::Bsd);
        let linux = OsSet::family(OsFamily::Linux);
        assert_eq!(bsd.len(), 3);
        assert!(bsd.intersection(linux).is_empty());
        assert_eq!(bsd.union(linux).len(), 6);
        assert_eq!(OsSet::all().len(), 11);
        assert_eq!(OsSet::all().difference(bsd).len(), 8);
        assert!(bsd.is_subset_of(&OsSet::all()));
        assert!(!OsSet::all().is_subset_of(&bsd));
    }

    #[test]
    fn osset_pair_and_iteration_order() {
        let pair = OsSet::pair(OsDistribution::Windows2003, OsDistribution::OpenBsd);
        let members: Vec<_> = pair.iter().collect();
        assert_eq!(
            members,
            vec![OsDistribution::OpenBsd, OsDistribution::Windows2003]
        );
    }

    #[test]
    fn osset_display() {
        let pair = OsSet::pair(OsDistribution::Debian, OsDistribution::RedHat);
        assert_eq!(pair.to_string(), "{Debian, RedHat}");
        assert_eq!(OsSet::EMPTY.to_string(), "{}");
    }

    #[test]
    fn subsets_of_size_counts_match_binomials() {
        let all = OsSet::all();
        assert_eq!(all.subsets_of_size(0).len(), 1);
        assert_eq!(all.subsets_of_size(1).len(), 11);
        assert_eq!(all.subsets_of_size(2).len(), 55);
        assert_eq!(all.subsets_of_size(3).len(), 165);
        assert_eq!(all.subsets_of_size(4).len(), 330);
        assert_eq!(all.subsets_of_size(5).len(), 462);
        assert_eq!(all.subsets_of_size(11).len(), 1);
        assert_eq!(all.subsets_of_size(12).len(), 0);
        let bsd = OsSet::family(OsFamily::Bsd);
        assert_eq!(bsd.subsets_of_size(2).len(), 3);
    }

    #[test]
    fn subsets_have_requested_size_and_are_subsets() {
        let all = OsSet::all();
        for subset in all.subsets_of_size(4) {
            assert_eq!(subset.len(), 4);
            assert!(subset.is_subset_of(&all));
        }
    }

    fn os_strategy() -> impl Strategy<Value = OsDistribution> {
        (0usize..OsDistribution::COUNT).prop_map(|i| OsDistribution::from_index(i).unwrap())
    }

    fn osset_strategy() -> impl Strategy<Value = OsSet> {
        (0u16..1 << 11).prop_map(OsSet::from_bits)
    }

    proptest! {
        #[test]
        fn bits_roundtrip(set in osset_strategy()) {
            prop_assert_eq!(OsSet::from_bits(set.bits()), set);
        }

        #[test]
        fn iter_collect_roundtrip(set in osset_strategy()) {
            let rebuilt: OsSet = set.iter().collect();
            prop_assert_eq!(rebuilt, set);
            prop_assert_eq!(set.iter().len(), set.len());
        }

        #[test]
        fn union_intersection_laws(a in osset_strategy(), b in osset_strategy()) {
            prop_assert_eq!(a.union(b), b.union(a));
            prop_assert_eq!(a.intersection(b), b.intersection(a));
            prop_assert!(a.intersection(b).is_subset_of(&a));
            prop_assert!(a.is_subset_of(&a.union(b)));
            // inclusion–exclusion for two sets
            prop_assert_eq!(
                a.union(b).len() + a.intersection(b).len(),
                a.len() + b.len()
            );
        }

        #[test]
        fn insert_then_contains(os in os_strategy(), set in osset_strategy()) {
            let mut set = set;
            set.insert(os);
            prop_assert!(set.contains(os));
            set.remove(os);
            prop_assert!(!set.contains(os));
        }

        #[test]
        fn display_parse_roundtrip_for_distributions(os in os_strategy()) {
            let parsed: OsDistribution = os.to_string().parse().unwrap();
            prop_assert_eq!(parsed, os);
        }
    }
}
