//! The published statistics of the paper, embedded as constants.
//!
//! Every number in this module is transcribed from the paper:
//!
//! * [`TABLE1`] — Table I, distribution of OS vulnerabilities in the NVD
//!   (valid / unknown / unspecified / disputed per OS);
//! * [`TABLE2`] — Table II, vulnerabilities per OS component class;
//! * [`TABLE3`] — Table III, common vulnerabilities for every OS pair under
//!   the three filters (All, No Applications, No Applications + No Local);
//! * [`TABLE4`] — Table IV, per-part breakdown of the Isolated Thin Server
//!   common vulnerabilities;
//! * [`TABLE5`] — Table V, history (1994–2005) vs observed (2006–2010)
//!   common vulnerabilities for the 8 OSes with enough history data;
//! * [`named_multi_os_vulnerabilities`] — the three named CVEs of
//!   Section IV-B (DNS, DHCP and TCP) that affect six and nine OSes;
//! * [`figure2_year_weights`] — an approximation of the per-OS temporal
//!   distribution of Figure 2 (the paper only publishes the curves, not the
//!   values, so the weights encode the visible shape: when the OS started
//!   receiving reports, where the peaks are).

use nvd_model::{CveId, OsDistribution, OsPart, OsSet};

use OsDistribution::*;

/// One row of Table I: per-OS counts by validity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// The operating system.
    pub os: OsDistribution,
    /// Valid vulnerabilities (kept by the study).
    pub valid: u32,
    /// Entries tagged Unknown.
    pub unknown: u32,
    /// Entries tagged Unspecified.
    pub unspecified: u32,
    /// Entries flagged `**DISPUTED**`.
    pub disputed: u32,
}

/// Table I of the paper.
pub const TABLE1: [Table1Row; 11] = [
    Table1Row {
        os: OpenBsd,
        valid: 142,
        unknown: 1,
        unspecified: 1,
        disputed: 1,
    },
    Table1Row {
        os: NetBsd,
        valid: 126,
        unknown: 0,
        unspecified: 1,
        disputed: 2,
    },
    Table1Row {
        os: FreeBsd,
        valid: 258,
        unknown: 0,
        unspecified: 0,
        disputed: 2,
    },
    Table1Row {
        os: OpenSolaris,
        valid: 31,
        unknown: 0,
        unspecified: 40,
        disputed: 0,
    },
    Table1Row {
        os: Solaris,
        valid: 400,
        unknown: 39,
        unspecified: 109,
        disputed: 0,
    },
    Table1Row {
        os: Debian,
        valid: 201,
        unknown: 3,
        unspecified: 1,
        disputed: 0,
    },
    Table1Row {
        os: Ubuntu,
        valid: 87,
        unknown: 2,
        unspecified: 1,
        disputed: 0,
    },
    Table1Row {
        os: RedHat,
        valid: 369,
        unknown: 12,
        unspecified: 8,
        disputed: 1,
    },
    Table1Row {
        os: Windows2000,
        valid: 481,
        unknown: 7,
        unspecified: 27,
        disputed: 5,
    },
    Table1Row {
        os: Windows2003,
        valid: 343,
        unknown: 4,
        unspecified: 30,
        disputed: 3,
    },
    Table1Row {
        os: Windows2008,
        valid: 118,
        unknown: 0,
        unspecified: 3,
        disputed: 0,
    },
];

/// Number of distinct valid vulnerabilities in the paper's data set
/// (last row of Table I).
pub const DISTINCT_VALID: u32 = 1887;

/// One row of Table II: per-OS counts by component class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Row {
    /// The operating system.
    pub os: OsDistribution,
    /// Driver vulnerabilities.
    pub driver: u32,
    /// Kernel vulnerabilities.
    pub kernel: u32,
    /// System-software vulnerabilities.
    pub system_software: u32,
    /// Application vulnerabilities.
    pub application: u32,
}

impl Table2Row {
    /// Total vulnerabilities of the OS (equals Table I valid count).
    pub fn total(&self) -> u32 {
        self.driver + self.kernel + self.system_software + self.application
    }

    /// Count for a specific class.
    pub fn count(&self, part: OsPart) -> u32 {
        match part {
            OsPart::Driver => self.driver,
            OsPart::Kernel => self.kernel,
            OsPart::SystemSoftware => self.system_software,
            OsPart::Application => self.application,
        }
    }
}

/// Table II of the paper.
pub const TABLE2: [Table2Row; 11] = [
    Table2Row {
        os: OpenBsd,
        driver: 2,
        kernel: 75,
        system_software: 33,
        application: 32,
    },
    Table2Row {
        os: NetBsd,
        driver: 9,
        kernel: 59,
        system_software: 32,
        application: 26,
    },
    Table2Row {
        os: FreeBsd,
        driver: 4,
        kernel: 147,
        system_software: 54,
        application: 53,
    },
    Table2Row {
        os: OpenSolaris,
        driver: 0,
        kernel: 15,
        system_software: 9,
        application: 7,
    },
    Table2Row {
        os: Solaris,
        driver: 2,
        kernel: 156,
        system_software: 114,
        application: 128,
    },
    Table2Row {
        os: Debian,
        driver: 1,
        kernel: 24,
        system_software: 34,
        application: 142,
    },
    Table2Row {
        os: Ubuntu,
        driver: 2,
        kernel: 22,
        system_software: 8,
        application: 55,
    },
    Table2Row {
        os: RedHat,
        driver: 5,
        kernel: 89,
        system_software: 93,
        application: 182,
    },
    Table2Row {
        os: Windows2000,
        driver: 3,
        kernel: 143,
        system_software: 132,
        application: 203,
    },
    Table2Row {
        os: Windows2003,
        driver: 1,
        kernel: 95,
        system_software: 71,
        application: 176,
    },
    Table2Row {
        os: Windows2008,
        driver: 0,
        kernel: 42,
        system_software: 14,
        application: 62,
    },
];

/// One row of Table III: an OS pair with the common-vulnerability counts
/// under the three filters. The per-OS totals (the `v(A)` / `v(B)` columns)
/// are available from [`os_totals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table3Row {
    /// First OS of the pair (paper row order).
    pub a: OsDistribution,
    /// Second OS of the pair.
    pub b: OsDistribution,
    /// v(AB) with no filter (Fat Server).
    pub all: u32,
    /// v(AB) without Application vulnerabilities (Thin Server).
    pub no_app: u32,
    /// v(AB) without Application and local-only vulnerabilities
    /// (Isolated Thin Server).
    pub no_app_no_local: u32,
}

/// Table III of the paper: all 55 OS pairs.
pub const TABLE3: [Table3Row; 55] = [
    Table3Row {
        a: OpenBsd,
        b: NetBsd,
        all: 40,
        no_app: 32,
        no_app_no_local: 16,
    },
    Table3Row {
        a: OpenBsd,
        b: FreeBsd,
        all: 53,
        no_app: 48,
        no_app_no_local: 32,
    },
    Table3Row {
        a: OpenBsd,
        b: OpenSolaris,
        all: 1,
        no_app: 1,
        no_app_no_local: 0,
    },
    Table3Row {
        a: OpenBsd,
        b: Solaris,
        all: 12,
        no_app: 10,
        no_app_no_local: 6,
    },
    Table3Row {
        a: OpenBsd,
        b: Debian,
        all: 2,
        no_app: 2,
        no_app_no_local: 0,
    },
    Table3Row {
        a: OpenBsd,
        b: Ubuntu,
        all: 3,
        no_app: 1,
        no_app_no_local: 0,
    },
    Table3Row {
        a: OpenBsd,
        b: RedHat,
        all: 10,
        no_app: 5,
        no_app_no_local: 4,
    },
    Table3Row {
        a: OpenBsd,
        b: Windows2000,
        all: 3,
        no_app: 3,
        no_app_no_local: 3,
    },
    Table3Row {
        a: OpenBsd,
        b: Windows2003,
        all: 2,
        no_app: 2,
        no_app_no_local: 2,
    },
    Table3Row {
        a: OpenBsd,
        b: Windows2008,
        all: 1,
        no_app: 1,
        no_app_no_local: 1,
    },
    Table3Row {
        a: NetBsd,
        b: FreeBsd,
        all: 49,
        no_app: 39,
        no_app_no_local: 24,
    },
    Table3Row {
        a: NetBsd,
        b: OpenSolaris,
        all: 0,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: NetBsd,
        b: Solaris,
        all: 15,
        no_app: 12,
        no_app_no_local: 8,
    },
    Table3Row {
        a: NetBsd,
        b: Debian,
        all: 3,
        no_app: 2,
        no_app_no_local: 2,
    },
    Table3Row {
        a: NetBsd,
        b: Ubuntu,
        all: 0,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: NetBsd,
        b: RedHat,
        all: 7,
        no_app: 4,
        no_app_no_local: 2,
    },
    Table3Row {
        a: NetBsd,
        b: Windows2000,
        all: 3,
        no_app: 3,
        no_app_no_local: 3,
    },
    Table3Row {
        a: NetBsd,
        b: Windows2003,
        all: 1,
        no_app: 1,
        no_app_no_local: 1,
    },
    Table3Row {
        a: NetBsd,
        b: Windows2008,
        all: 1,
        no_app: 1,
        no_app_no_local: 1,
    },
    Table3Row {
        a: FreeBsd,
        b: OpenSolaris,
        all: 0,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: FreeBsd,
        b: Solaris,
        all: 21,
        no_app: 15,
        no_app_no_local: 8,
    },
    Table3Row {
        a: FreeBsd,
        b: Debian,
        all: 7,
        no_app: 4,
        no_app_no_local: 1,
    },
    Table3Row {
        a: FreeBsd,
        b: Ubuntu,
        all: 3,
        no_app: 3,
        no_app_no_local: 0,
    },
    Table3Row {
        a: FreeBsd,
        b: RedHat,
        all: 20,
        no_app: 13,
        no_app_no_local: 5,
    },
    Table3Row {
        a: FreeBsd,
        b: Windows2000,
        all: 4,
        no_app: 4,
        no_app_no_local: 4,
    },
    Table3Row {
        a: FreeBsd,
        b: Windows2003,
        all: 2,
        no_app: 2,
        no_app_no_local: 2,
    },
    Table3Row {
        a: FreeBsd,
        b: Windows2008,
        all: 1,
        no_app: 1,
        no_app_no_local: 1,
    },
    Table3Row {
        a: OpenSolaris,
        b: Solaris,
        all: 27,
        no_app: 22,
        no_app_no_local: 6,
    },
    Table3Row {
        a: OpenSolaris,
        b: Debian,
        all: 1,
        no_app: 1,
        no_app_no_local: 0,
    },
    Table3Row {
        a: OpenSolaris,
        b: Ubuntu,
        all: 1,
        no_app: 1,
        no_app_no_local: 0,
    },
    Table3Row {
        a: OpenSolaris,
        b: RedHat,
        all: 1,
        no_app: 1,
        no_app_no_local: 0,
    },
    Table3Row {
        a: OpenSolaris,
        b: Windows2000,
        all: 0,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: OpenSolaris,
        b: Windows2003,
        all: 0,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: OpenSolaris,
        b: Windows2008,
        all: 0,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: Solaris,
        b: Debian,
        all: 4,
        no_app: 4,
        no_app_no_local: 2,
    },
    Table3Row {
        a: Solaris,
        b: Ubuntu,
        all: 2,
        no_app: 2,
        no_app_no_local: 0,
    },
    Table3Row {
        a: Solaris,
        b: RedHat,
        all: 13,
        no_app: 8,
        no_app_no_local: 4,
    },
    Table3Row {
        a: Solaris,
        b: Windows2000,
        all: 9,
        no_app: 3,
        no_app_no_local: 3,
    },
    Table3Row {
        a: Solaris,
        b: Windows2003,
        all: 7,
        no_app: 1,
        no_app_no_local: 1,
    },
    Table3Row {
        a: Solaris,
        b: Windows2008,
        all: 0,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: Debian,
        b: Ubuntu,
        all: 12,
        no_app: 6,
        no_app_no_local: 2,
    },
    Table3Row {
        a: Debian,
        b: RedHat,
        all: 61,
        no_app: 26,
        no_app_no_local: 11,
    },
    Table3Row {
        a: Debian,
        b: Windows2000,
        all: 1,
        no_app: 1,
        no_app_no_local: 1,
    },
    Table3Row {
        a: Debian,
        b: Windows2003,
        all: 0,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: Debian,
        b: Windows2008,
        all: 0,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: Ubuntu,
        b: RedHat,
        all: 25,
        no_app: 8,
        no_app_no_local: 1,
    },
    Table3Row {
        a: Ubuntu,
        b: Windows2000,
        all: 1,
        no_app: 1,
        no_app_no_local: 1,
    },
    Table3Row {
        a: Ubuntu,
        b: Windows2003,
        all: 0,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: Ubuntu,
        b: Windows2008,
        all: 0,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: RedHat,
        b: Windows2000,
        all: 2,
        no_app: 1,
        no_app_no_local: 1,
    },
    Table3Row {
        a: RedHat,
        b: Windows2003,
        all: 1,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: RedHat,
        b: Windows2008,
        all: 0,
        no_app: 0,
        no_app_no_local: 0,
    },
    Table3Row {
        a: Windows2000,
        b: Windows2003,
        all: 253,
        no_app: 116,
        no_app_no_local: 81,
    },
    Table3Row {
        a: Windows2000,
        b: Windows2008,
        all: 70,
        no_app: 27,
        no_app_no_local: 14,
    },
    Table3Row {
        a: Windows2003,
        b: Windows2008,
        all: 95,
        no_app: 39,
        no_app_no_local: 18,
    },
];

/// Per-OS totals of Table III (the `v(A)` column) under the three filters:
/// `(all, no_app, no_app_no_local)`.
pub fn os_totals(os: OsDistribution) -> (u32, u32, u32) {
    match os {
        OpenBsd => (142, 110, 60),
        NetBsd => (126, 100, 41),
        FreeBsd => (258, 205, 87),
        OpenSolaris => (31, 24, 6),
        Solaris => (400, 272, 103),
        Debian => (201, 59, 25),
        Ubuntu => (87, 32, 10),
        RedHat => (369, 187, 58),
        Windows2000 => (481, 278, 178),
        Windows2003 => (343, 167, 109),
        Windows2008 => (118, 56, 26),
    }
}

/// One row of Table IV: the per-part breakdown of the Isolated Thin Server
/// common vulnerabilities of a pair (only the 34 pairs with a non-zero
/// total appear in the paper's table; the rest are all-zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table4Row {
    /// First OS of the pair.
    pub a: OsDistribution,
    /// Second OS of the pair.
    pub b: OsDistribution,
    /// Shared driver vulnerabilities.
    pub driver: u32,
    /// Shared kernel vulnerabilities.
    pub kernel: u32,
    /// Shared system-software vulnerabilities.
    pub system_software: u32,
}

impl Table4Row {
    /// Total shared Isolated Thin Server vulnerabilities of the pair.
    pub fn total(&self) -> u32 {
        self.driver + self.kernel + self.system_software
    }
}

/// Table IV of the paper (non-zero pairs only).
pub const TABLE4: [Table4Row; 34] = [
    Table4Row {
        a: Windows2000,
        b: Windows2003,
        driver: 0,
        kernel: 40,
        system_software: 41,
    },
    Table4Row {
        a: OpenBsd,
        b: FreeBsd,
        driver: 1,
        kernel: 14,
        system_software: 17,
    },
    Table4Row {
        a: NetBsd,
        b: FreeBsd,
        driver: 2,
        kernel: 13,
        system_software: 9,
    },
    Table4Row {
        a: Windows2003,
        b: Windows2008,
        driver: 0,
        kernel: 10,
        system_software: 8,
    },
    Table4Row {
        a: OpenBsd,
        b: NetBsd,
        driver: 1,
        kernel: 8,
        system_software: 7,
    },
    Table4Row {
        a: Windows2000,
        b: Windows2008,
        driver: 0,
        kernel: 8,
        system_software: 6,
    },
    Table4Row {
        a: Debian,
        b: RedHat,
        driver: 0,
        kernel: 5,
        system_software: 6,
    },
    Table4Row {
        a: FreeBsd,
        b: Solaris,
        driver: 0,
        kernel: 5,
        system_software: 3,
    },
    Table4Row {
        a: NetBsd,
        b: Solaris,
        driver: 0,
        kernel: 4,
        system_software: 4,
    },
    Table4Row {
        a: OpenBsd,
        b: Solaris,
        driver: 0,
        kernel: 5,
        system_software: 1,
    },
    Table4Row {
        a: OpenSolaris,
        b: Solaris,
        driver: 0,
        kernel: 3,
        system_software: 3,
    },
    Table4Row {
        a: FreeBsd,
        b: RedHat,
        driver: 0,
        kernel: 1,
        system_software: 4,
    },
    Table4Row {
        a: FreeBsd,
        b: Windows2000,
        driver: 1,
        kernel: 3,
        system_software: 0,
    },
    Table4Row {
        a: OpenBsd,
        b: RedHat,
        driver: 0,
        kernel: 1,
        system_software: 3,
    },
    Table4Row {
        a: Solaris,
        b: RedHat,
        driver: 0,
        kernel: 3,
        system_software: 1,
    },
    Table4Row {
        a: NetBsd,
        b: Windows2000,
        driver: 1,
        kernel: 2,
        system_software: 0,
    },
    Table4Row {
        a: OpenBsd,
        b: Windows2000,
        driver: 0,
        kernel: 3,
        system_software: 0,
    },
    Table4Row {
        a: Solaris,
        b: Windows2000,
        driver: 0,
        kernel: 3,
        system_software: 0,
    },
    Table4Row {
        a: Solaris,
        b: Debian,
        driver: 0,
        kernel: 1,
        system_software: 1,
    },
    Table4Row {
        a: OpenBsd,
        b: Windows2003,
        driver: 0,
        kernel: 2,
        system_software: 0,
    },
    Table4Row {
        a: FreeBsd,
        b: Windows2003,
        driver: 0,
        kernel: 2,
        system_software: 0,
    },
    Table4Row {
        a: Debian,
        b: Ubuntu,
        driver: 0,
        kernel: 0,
        system_software: 2,
    },
    Table4Row {
        a: NetBsd,
        b: Debian,
        driver: 0,
        kernel: 0,
        system_software: 2,
    },
    Table4Row {
        a: NetBsd,
        b: RedHat,
        driver: 0,
        kernel: 0,
        system_software: 2,
    },
    Table4Row {
        a: NetBsd,
        b: Windows2003,
        driver: 0,
        kernel: 1,
        system_software: 0,
    },
    Table4Row {
        a: NetBsd,
        b: Windows2008,
        driver: 0,
        kernel: 1,
        system_software: 0,
    },
    Table4Row {
        a: OpenBsd,
        b: Windows2008,
        driver: 0,
        kernel: 1,
        system_software: 0,
    },
    Table4Row {
        a: FreeBsd,
        b: Windows2008,
        driver: 0,
        kernel: 1,
        system_software: 0,
    },
    Table4Row {
        a: Solaris,
        b: Windows2003,
        driver: 0,
        kernel: 1,
        system_software: 0,
    },
    Table4Row {
        a: FreeBsd,
        b: Debian,
        driver: 0,
        kernel: 0,
        system_software: 1,
    },
    Table4Row {
        a: Debian,
        b: Windows2000,
        driver: 0,
        kernel: 0,
        system_software: 1,
    },
    Table4Row {
        a: Ubuntu,
        b: RedHat,
        driver: 0,
        kernel: 0,
        system_software: 1,
    },
    Table4Row {
        a: Ubuntu,
        b: Windows2000,
        driver: 0,
        kernel: 0,
        system_software: 1,
    },
    Table4Row {
        a: RedHat,
        b: Windows2000,
        driver: 0,
        kernel: 0,
        system_software: 1,
    },
];

/// The eight OSes with enough data during the history period to appear in
/// Table V (Ubuntu, OpenSolaris and Windows 2008 are excluded).
pub const TABLE5_OSES: [OsDistribution; 8] = [
    OpenBsd,
    NetBsd,
    FreeBsd,
    Solaris,
    Debian,
    RedHat,
    Windows2000,
    Windows2003,
];

/// One cell pair of Table V: the history-period (1994–2005) and
/// observed-period (2006–2010) common Isolated Thin Server vulnerabilities
/// of an OS pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table5Cell {
    /// First OS of the pair.
    pub a: OsDistribution,
    /// Second OS of the pair.
    pub b: OsDistribution,
    /// Common vulnerabilities published 1994–2005.
    pub history: u32,
    /// Common vulnerabilities published 2006–2010.
    pub observed: u32,
}

/// Table V of the paper (28 pairs over the 8 OSes). History + observed
/// always equals the pair's Isolated Thin Server total of Tables III/IV.
pub const TABLE5: [Table5Cell; 28] = [
    Table5Cell {
        a: OpenBsd,
        b: NetBsd,
        history: 9,
        observed: 7,
    },
    Table5Cell {
        a: OpenBsd,
        b: FreeBsd,
        history: 25,
        observed: 7,
    },
    Table5Cell {
        a: OpenBsd,
        b: Solaris,
        history: 6,
        observed: 0,
    },
    Table5Cell {
        a: OpenBsd,
        b: Debian,
        history: 0,
        observed: 0,
    },
    Table5Cell {
        a: OpenBsd,
        b: RedHat,
        history: 4,
        observed: 0,
    },
    Table5Cell {
        a: OpenBsd,
        b: Windows2000,
        history: 2,
        observed: 1,
    },
    Table5Cell {
        a: OpenBsd,
        b: Windows2003,
        history: 1,
        observed: 1,
    },
    Table5Cell {
        a: NetBsd,
        b: FreeBsd,
        history: 15,
        observed: 9,
    },
    Table5Cell {
        a: NetBsd,
        b: Solaris,
        history: 8,
        observed: 0,
    },
    Table5Cell {
        a: NetBsd,
        b: Debian,
        history: 2,
        observed: 0,
    },
    Table5Cell {
        a: NetBsd,
        b: RedHat,
        history: 2,
        observed: 0,
    },
    Table5Cell {
        a: NetBsd,
        b: Windows2000,
        history: 2,
        observed: 1,
    },
    Table5Cell {
        a: NetBsd,
        b: Windows2003,
        history: 0,
        observed: 1,
    },
    Table5Cell {
        a: FreeBsd,
        b: Solaris,
        history: 8,
        observed: 0,
    },
    Table5Cell {
        a: FreeBsd,
        b: Debian,
        history: 1,
        observed: 0,
    },
    Table5Cell {
        a: FreeBsd,
        b: RedHat,
        history: 5,
        observed: 0,
    },
    Table5Cell {
        a: FreeBsd,
        b: Windows2000,
        history: 3,
        observed: 1,
    },
    Table5Cell {
        a: FreeBsd,
        b: Windows2003,
        history: 1,
        observed: 1,
    },
    Table5Cell {
        a: Solaris,
        b: Debian,
        history: 2,
        observed: 0,
    },
    Table5Cell {
        a: Solaris,
        b: RedHat,
        history: 3,
        observed: 1,
    },
    Table5Cell {
        a: Solaris,
        b: Windows2000,
        history: 3,
        observed: 0,
    },
    Table5Cell {
        a: Solaris,
        b: Windows2003,
        history: 1,
        observed: 0,
    },
    Table5Cell {
        a: Debian,
        b: RedHat,
        history: 10,
        observed: 1,
    },
    Table5Cell {
        a: Debian,
        b: Windows2000,
        history: 0,
        observed: 1,
    },
    Table5Cell {
        a: Debian,
        b: Windows2003,
        history: 0,
        observed: 0,
    },
    Table5Cell {
        a: RedHat,
        b: Windows2000,
        history: 0,
        observed: 1,
    },
    Table5Cell {
        a: RedHat,
        b: Windows2003,
        history: 0,
        observed: 0,
    },
    Table5Cell {
        a: Windows2000,
        b: Windows2003,
        history: 35,
        observed: 46,
    },
];

/// Per-OS Isolated Thin Server totals split into history / observed periods.
/// Only published for Debian ("16 vulnerabilities … over the history period"
/// and "9 shared vulnerabilities … between 2006 and 2010"); for the other
/// OSes the generator splits the per-OS totals 2/3–1/3 as the paper says the
/// overall data set splits.
pub fn os_period_totals(os: OsDistribution) -> (u32, u32) {
    let (_, _, its) = os_totals(os);
    match os {
        Debian => (16, 9),
        _ => {
            let history = (its * 2).div_ceil(3);
            (history, its - history)
        }
    }
}

/// A named multi-OS vulnerability of Section IV-B.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedVulnerability {
    /// The CVE identifier given in the paper.
    pub id: CveId,
    /// The publication year.
    pub year: u16,
    /// The affected OS set used by the generator.
    pub oses: OsSet,
    /// The component class.
    pub part: OsPart,
    /// A description consistent with the real CVE.
    pub summary: &'static str,
}

/// The three multi-OS vulnerabilities named in Section IV-B: the DNS cache
/// poisoning and DHCP flaws shared by six OSes and the TCP denial of service
/// shared by nine OSes. The exact OS memberships are not listed in the
/// paper, so the generator uses plausible sets of the stated sizes.
pub fn named_multi_os_vulnerabilities() -> Vec<NamedVulnerability> {
    vec![
        NamedVulnerability {
            id: CveId::new(2008, 4609),
            year: 2008,
            oses: OsSet::from_iter([
                OpenBsd,
                NetBsd,
                FreeBsd,
                Solaris,
                Debian,
                RedHat,
                Windows2000,
                Windows2003,
                Windows2008,
            ]),
            part: OsPart::Kernel,
            summary: "The TCP implementation does not properly handle crafted sequences of \
                      segments, which allows remote attackers to cause a denial of service \
                      (connection queue exhaustion) in the kernel network stack.",
        },
        NamedVulnerability {
            id: CveId::new(2008, 1447),
            year: 2008,
            oses: OsSet::from_iter([FreeBsd, NetBsd, Solaris, Debian, Ubuntu, RedHat]),
            part: OsPart::SystemSoftware,
            summary: "The DNS protocol resolver daemon uses insufficiently random transaction \
                      IDs and source ports, which allows remote attackers to poison the cache \
                      of the name service via a birthday attack.",
        },
        NamedVulnerability {
            id: CveId::new(2007, 5365),
            year: 2007,
            oses: OsSet::from_iter([OpenBsd, NetBsd, FreeBsd, Solaris, Debian, RedHat]),
            part: OsPart::SystemSoftware,
            summary: "Stack-based buffer overflow in the DHCP daemon allows remote attackers \
                      to execute arbitrary code via a crafted request containing many options.",
        },
    ]
}

/// Per-OS year weights approximating the Figure 2 curves: `(year, weight)`
/// pairs; years not listed have weight zero. The weights are relative, not
/// absolute counts — the generator samples publication years from them.
pub fn figure2_year_weights(os: OsDistribution) -> &'static [(u16, u32)] {
    match os {
        // Solaris reports span the whole period with peaks around 1995,
        // 2004-2007; OpenSolaris only exists from 2008.
        Solaris => &[
            (1994, 6),
            (1995, 12),
            (1996, 8),
            (1997, 6),
            (1998, 8),
            (1999, 10),
            (2000, 8),
            (2001, 12),
            (2002, 16),
            (2003, 18),
            (2004, 28),
            (2005, 30),
            (2006, 34),
            (2007, 40),
            (2008, 30),
            (2009, 26),
            (2010, 20),
        ],
        OpenSolaris => &[(2008, 10), (2009, 14), (2010, 7)],
        // BSD family: busy 1999-2006, quieter recently.
        OpenBsd => &[
            (1996, 2),
            (1997, 4),
            (1998, 6),
            (1999, 10),
            (2000, 12),
            (2001, 14),
            (2002, 22),
            (2003, 14),
            (2004, 16),
            (2005, 12),
            (2006, 10),
            (2007, 8),
            (2008, 6),
            (2009, 4),
            (2010, 2),
        ],
        NetBsd => &[
            (1997, 2),
            (1998, 4),
            (1999, 6),
            (2000, 10),
            (2001, 10),
            (2002, 12),
            (2003, 12),
            (2004, 14),
            (2005, 16),
            (2006, 18),
            (2007, 10),
            (2008, 6),
            (2009, 4),
            (2010, 2),
        ],
        FreeBsd => &[
            (1996, 4),
            (1997, 8),
            (1998, 10),
            (1999, 16),
            (2000, 22),
            (2001, 24),
            (2002, 30),
            (2003, 24),
            (2004, 28),
            (2005, 26),
            (2006, 24),
            (2007, 16),
            (2008, 14),
            (2009, 10),
            (2010, 6),
        ],
        // Windows server family: 2000 and 2003 peak mid-decade, 2008 recent.
        Windows2000 => &[
            (1999, 8),
            (2000, 30),
            (2001, 36),
            (2002, 44),
            (2003, 40),
            (2004, 44),
            (2005, 48),
            (2006, 50),
            (2007, 40),
            (2008, 40),
            (2009, 36),
            (2010, 28),
        ],
        Windows2003 => &[
            (2003, 16),
            (2004, 28),
            (2005, 36),
            (2006, 44),
            (2007, 38),
            (2008, 44),
            (2009, 42),
            (2010, 34),
        ],
        Windows2008 => &[(2008, 24), (2009, 48), (2010, 46)],
        // Linux family: Red Hat spans the period, Debian peaks early-2000s,
        // Ubuntu starts in 2005.
        Debian => &[
            (1998, 4),
            (1999, 10),
            (2000, 14),
            (2001, 18),
            (2002, 22),
            (2003, 24),
            (2004, 26),
            (2005, 28),
            (2006, 20),
            (2007, 14),
            (2008, 10),
            (2009, 6),
            (2010, 4),
        ],
        Ubuntu => &[
            (2005, 8),
            (2006, 18),
            (2007, 20),
            (2008, 16),
            (2009, 14),
            (2010, 10),
        ],
        RedHat => &[
            (1997, 6),
            (1998, 10),
            (1999, 18),
            (2000, 28),
            (2001, 30),
            (2002, 36),
            (2003, 30),
            (2004, 34),
            (2005, 32),
            (2006, 36),
            (2007, 30),
            (2008, 28),
            (2009, 26),
            (2010, 22),
        ],
    }
}

/// Looks up the Table III row of a pair (in either order).
pub fn table3_row(a: OsDistribution, b: OsDistribution) -> Option<&'static Table3Row> {
    TABLE3
        .iter()
        .find(|row| (row.a == a && row.b == b) || (row.a == b && row.b == a))
}

/// Looks up the Table IV row of a pair (in either order); absent pairs have
/// an all-zero breakdown.
pub fn table4_row(a: OsDistribution, b: OsDistribution) -> Option<&'static Table4Row> {
    TABLE4
        .iter()
        .find(|row| (row.a == a && row.b == b) || (row.a == b && row.b == a))
}

/// Looks up the Table V cell of a pair (in either order).
pub fn table5_cell(a: OsDistribution, b: OsDistribution) -> Option<&'static Table5Cell> {
    TABLE5
        .iter()
        .find(|cell| (cell.a == a && cell.b == b) || (cell.a == b && cell.b == a))
}

/// The Table I row of an OS.
pub fn table1_row(os: OsDistribution) -> &'static Table1Row {
    TABLE1
        .iter()
        .find(|row| row.os == os)
        .expect("TABLE1 covers every distribution")
}

/// The Table II row of an OS.
pub fn table2_row(os: OsDistribution) -> &'static Table2Row {
    TABLE2
        .iter()
        .find(|row| row.os == os)
        .expect("TABLE2 covers every distribution")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_cover_every_os_once() {
        for os in OsDistribution::ALL {
            assert_eq!(TABLE1.iter().filter(|r| r.os == os).count(), 1);
            assert_eq!(TABLE2.iter().filter(|r| r.os == os).count(), 1);
        }
    }

    #[test]
    fn table2_totals_equal_table1_valid_counts() {
        for os in OsDistribution::ALL {
            assert_eq!(
                table2_row(os).total(),
                table1_row(os).valid,
                "class totals must match the valid count for {os}"
            );
        }
    }

    #[test]
    fn table3_has_all_55_pairs_with_nested_filters() {
        assert_eq!(TABLE3.len(), 55);
        for row in &TABLE3 {
            assert_ne!(row.a, row.b);
            assert!(row.no_app <= row.all, "{}-{}", row.a, row.b);
            assert!(row.no_app_no_local <= row.no_app, "{}-{}", row.a, row.b);
        }
        // Every unordered pair appears exactly once.
        for (i, a) in OsDistribution::ALL.iter().enumerate() {
            for b in OsDistribution::ALL.iter().skip(i + 1) {
                assert!(table3_row(*a, *b).is_some(), "missing pair {a}-{b}");
            }
        }
    }

    #[test]
    fn table3_diagonal_matches_os_totals_ordering() {
        for os in OsDistribution::ALL {
            let (all, no_app, remote) = os_totals(os);
            assert!(no_app <= all);
            assert!(remote <= no_app);
            assert_eq!(all, table1_row(os).valid);
        }
    }

    #[test]
    fn table4_totals_match_table3_third_filter() {
        for row in &TABLE4 {
            let t3 = table3_row(row.a, row.b).unwrap();
            assert_eq!(
                row.total(),
                t3.no_app_no_local,
                "Table IV total must equal the Isolated Thin Server count for {}-{}",
                row.a,
                row.b
            );
        }
        // Pairs absent from Table IV have a zero Isolated Thin Server count.
        for row in &TABLE3 {
            if table4_row(row.a, row.b).is_none() {
                assert_eq!(row.no_app_no_local, 0, "{}-{}", row.a, row.b);
            }
        }
    }

    #[test]
    fn table5_sums_match_table3_third_filter() {
        assert_eq!(TABLE5.len(), 28);
        for cell in &TABLE5 {
            let t3 = table3_row(cell.a, cell.b).unwrap();
            assert_eq!(
                cell.history + cell.observed,
                t3.no_app_no_local,
                "history + observed must equal the Isolated Thin Server count for {}-{}",
                cell.a,
                cell.b
            );
        }
        // All 28 pairs over the 8 Table V OSes are present.
        for (i, a) in TABLE5_OSES.iter().enumerate() {
            for b in TABLE5_OSES.iter().skip(i + 1) {
                assert!(table5_cell(*a, *b).is_some(), "missing pair {a}-{b}");
            }
        }
    }

    #[test]
    fn named_vulnerabilities_have_the_published_sizes() {
        let named = named_multi_os_vulnerabilities();
        assert_eq!(named.len(), 3);
        let nine: Vec<_> = named.iter().filter(|v| v.oses.len() == 9).collect();
        let six: Vec<_> = named.iter().filter(|v| v.oses.len() == 6).collect();
        assert_eq!(nine.len(), 1);
        assert_eq!(six.len(), 2);
        assert_eq!(nine[0].id, CveId::new(2008, 4609));
    }

    #[test]
    fn figure2_weights_exist_for_every_os_and_respect_first_release() {
        for os in OsDistribution::ALL {
            let weights = figure2_year_weights(os);
            assert!(!weights.is_empty(), "no weights for {os}");
            let total: u32 = weights.iter().map(|(_, w)| w).sum();
            assert!(total > 0);
            // No weight should predate the first release by more than a year
            // (the paper's Windows 2000 pre-1999 artefact is the exception it
            // discusses; the generator does not reproduce database errors).
            for (year, _) in weights {
                assert!(
                    *year + 1 >= os.first_release_year(),
                    "{os} has weight in {year} before first release"
                );
            }
        }
    }

    #[test]
    fn os_period_totals_sum_to_its_total() {
        for os in OsDistribution::ALL {
            let (history, observed) = os_period_totals(os);
            let (_, _, its) = os_totals(os);
            assert_eq!(history + observed, its, "{os}");
        }
        assert_eq!(os_period_totals(Debian), (16, 9));
    }
}
