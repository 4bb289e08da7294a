//! Replica groups and quorum arithmetic.

use std::fmt;

use nvd_model::{OsDistribution, OsSet};

/// The replication model determining how many replicas are needed to
/// tolerate `f` faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuorumModel {
    /// Generic BFT state-machine replication: `n = 3f + 1` (e.g. PBFT,
    /// DepSpace).
    ThreeFPlusOne,
    /// Protocols separating agreement from execution or using trusted
    /// components: `n = 2f + 1`.
    TwoFPlusOne,
}

impl QuorumModel {
    /// Number of replicas needed to tolerate `f` faults.
    pub fn replicas_for(&self, f: usize) -> usize {
        match self {
            QuorumModel::ThreeFPlusOne => 3 * f + 1,
            QuorumModel::TwoFPlusOne => 2 * f + 1,
        }
    }

    /// Number of faults tolerated by `n` replicas (the largest `f` such that
    /// `replicas_for(f) <= n`).
    pub fn faults_tolerated(&self, n: usize) -> usize {
        match self {
            QuorumModel::ThreeFPlusOne => n.saturating_sub(1) / 3,
            QuorumModel::TwoFPlusOne => n.saturating_sub(1) / 2,
        }
    }
}

impl fmt::Display for QuorumModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumModel::ThreeFPlusOne => f.write_str("3f+1"),
            QuorumModel::TwoFPlusOne => f.write_str("2f+1"),
        }
    }
}

/// A concrete replica configuration: one operating system per replica
/// (repetition allowed — a homogeneous system runs the same OS everywhere).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSet {
    replicas: Vec<OsDistribution>,
}

impl ReplicaSet {
    /// Creates a configuration from an explicit replica list.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty (a replicated system needs at least one
    /// replica; this is a programming error in the caller).
    pub fn new(replicas: Vec<OsDistribution>) -> Self {
        assert!(!replicas.is_empty(), "a replica set cannot be empty");
        ReplicaSet { replicas }
    }

    /// A homogeneous configuration: `count` replicas of the same OS.
    pub fn homogeneous(os: OsDistribution, count: usize) -> Self {
        ReplicaSet::new(vec![os; count])
    }

    /// A diverse configuration with one replica per member of `oses`.
    pub fn diverse(oses: OsSet) -> Self {
        ReplicaSet::new(oses.iter().collect())
    }

    /// The replicas in order.
    pub fn replicas(&self) -> &[OsDistribution] {
        &self.replicas
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The distinct operating systems used.
    pub fn distinct_oses(&self) -> OsSet {
        self.replicas.iter().copied().collect()
    }

    /// Label such as `{Win2003, Solaris, Debian, OpenBSD}` or `Debian x4`.
    pub fn label(&self) -> String {
        let distinct = self.distinct_oses();
        if distinct.len() == 1 {
            format!("{} x{}", self.replicas[0].short_name(), self.replicas.len())
        } else {
            distinct.to_string()
        }
    }
}

impl fmt::Display for ReplicaSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sizes_match_the_literature() {
        assert_eq!(QuorumModel::ThreeFPlusOne.replicas_for(1), 4);
        assert_eq!(QuorumModel::ThreeFPlusOne.replicas_for(2), 7);
        assert_eq!(QuorumModel::ThreeFPlusOne.replicas_for(4), 13);
        assert_eq!(QuorumModel::TwoFPlusOne.replicas_for(1), 3);
        assert_eq!(QuorumModel::TwoFPlusOne.replicas_for(3), 7);
    }

    #[test]
    fn faults_tolerated_is_the_inverse_of_replicas_for() {
        for model in [QuorumModel::ThreeFPlusOne, QuorumModel::TwoFPlusOne] {
            for f in 0..6 {
                let n = model.replicas_for(f);
                assert_eq!(model.faults_tolerated(n), f, "{model} f={f}");
                // One replica short tolerates one fault less.
                if f > 0 {
                    assert_eq!(model.faults_tolerated(n - 1), f - 1, "{model} f={f}");
                }
            }
        }
        assert_eq!(QuorumModel::ThreeFPlusOne.faults_tolerated(0), 0);
    }

    #[test]
    fn replica_set_constructors() {
        let homogeneous = ReplicaSet::homogeneous(OsDistribution::Debian, 4);
        assert_eq!(homogeneous.len(), 4);
        assert_eq!(homogeneous.distinct_oses().len(), 1);
        assert_eq!(homogeneous.label(), "Debian x4");
        assert!(!homogeneous.is_empty());

        let diverse = ReplicaSet::diverse(OsSet::from_iter([
            OsDistribution::OpenBsd,
            OsDistribution::Solaris,
            OsDistribution::Windows2003,
            OsDistribution::Debian,
        ]));
        assert_eq!(diverse.len(), 4);
        assert_eq!(diverse.distinct_oses().len(), 4);
        assert!(diverse.label().contains("Solaris"));
        assert_eq!(format!("{diverse}"), diverse.label());
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_replica_set_is_rejected() {
        ReplicaSet::new(Vec::new());
    }
}
