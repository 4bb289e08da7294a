//! CVSS version 2 base vectors and scores.
//!
//! The paper's third data filter (*Isolated Thin Server*) keeps only
//! vulnerabilities whose `CVSS_ACCESS_VECTOR` is `Network` or
//! `Adjacent Network`, i.e. remotely exploitable ones (Section IV-B). The
//! full base vector and score are modelled.

use std::fmt;
use std::str::FromStr;

use crate::ModelError;

/// The CVSS v2 *Access Vector* metric: where an attacker must be located to
/// exploit the vulnerability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessVector {
    /// `AV:L` — requires local access to the machine.
    Local,
    /// `AV:A` — requires access to the local (adjacent) network.
    AdjacentNetwork,
    /// `AV:N` — exploitable across the network.
    Network,
}

impl AccessVector {
    /// Whether the vulnerability can be exploited without local access.
    ///
    /// This is exactly the paper's *"No Local"* filter: vulnerabilities with
    /// `Network` or `Adjacent Network` access vectors are considered remotely
    /// exploitable.
    ///
    /// # Example
    ///
    /// ```
    /// use nvd_model::AccessVector;
    /// assert!(AccessVector::Network.is_remote());
    /// assert!(AccessVector::AdjacentNetwork.is_remote());
    /// assert!(!AccessVector::Local.is_remote());
    /// ```
    pub fn is_remote(&self) -> bool {
        !matches!(self, AccessVector::Local)
    }

    /// Numeric weight used by the CVSS v2 exploitability sub-score.
    fn weight(&self) -> f64 {
        match self {
            AccessVector::Local => 0.395,
            AccessVector::AdjacentNetwork => 0.646,
            AccessVector::Network => 1.0,
        }
    }

    fn code(&self) -> &'static str {
        match self {
            AccessVector::Local => "L",
            AccessVector::AdjacentNetwork => "A",
            AccessVector::Network => "N",
        }
    }
}

impl fmt::Display for AccessVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessVector::Local => f.write_str("LOCAL"),
            AccessVector::AdjacentNetwork => f.write_str("ADJACENT_NETWORK"),
            AccessVector::Network => f.write_str("NETWORK"),
        }
    }
}

impl FromStr for AccessVector {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "L" | "LOCAL" => Ok(AccessVector::Local),
            "A" | "ADJACENT_NETWORK" | "ADJACENT NETWORK" => Ok(AccessVector::AdjacentNetwork),
            "N" | "NETWORK" => Ok(AccessVector::Network),
            _ => Err(ModelError::ParseCvss {
                input: s.to_string(),
                reason: "unknown access vector",
            }),
        }
    }
}

/// The CVSS v2 *Access Complexity* metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessComplexity {
    /// `AC:H` — specialized access conditions exist.
    High,
    /// `AC:M` — somewhat specialized access conditions.
    Medium,
    /// `AC:L` — no specialized access conditions.
    Low,
}

impl AccessComplexity {
    fn weight(&self) -> f64 {
        match self {
            AccessComplexity::High => 0.35,
            AccessComplexity::Medium => 0.61,
            AccessComplexity::Low => 0.71,
        }
    }

    fn code(&self) -> &'static str {
        match self {
            AccessComplexity::High => "H",
            AccessComplexity::Medium => "M",
            AccessComplexity::Low => "L",
        }
    }
}

/// The CVSS v2 *Authentication* metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Authentication {
    /// `Au:M` — multiple authentications required.
    Multiple,
    /// `Au:S` — a single authentication required.
    Single,
    /// `Au:N` — no authentication required.
    None,
}

impl Authentication {
    fn weight(&self) -> f64 {
        match self {
            Authentication::Multiple => 0.45,
            Authentication::Single => 0.56,
            Authentication::None => 0.704,
        }
    }

    fn code(&self) -> &'static str {
        match self {
            Authentication::Multiple => "M",
            Authentication::Single => "S",
            Authentication::None => "N",
        }
    }
}

/// The CVSS v2 impact level shared by the confidentiality, integrity and
/// availability metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ImpactMetric {
    /// `N` — no impact.
    None,
    /// `P` — partial impact.
    Partial,
    /// `C` — complete impact.
    Complete,
}

impl ImpactMetric {
    fn weight(&self) -> f64 {
        match self {
            ImpactMetric::None => 0.0,
            ImpactMetric::Partial => 0.275,
            ImpactMetric::Complete => 0.660,
        }
    }

    fn code(&self) -> &'static str {
        match self {
            ImpactMetric::None => "N",
            ImpactMetric::Partial => "P",
            ImpactMetric::Complete => "C",
        }
    }
}

/// A CVSS version 2 base vector, e.g. `AV:N/AC:L/Au:N/C:P/I:P/A:P`.
///
/// # Example
///
/// ```
/// use nvd_model::CvssV2;
///
/// # fn main() -> Result<(), nvd_model::ModelError> {
/// let cvss: CvssV2 = "AV:N/AC:L/Au:N/C:P/I:P/A:P".parse()?;
/// assert_eq!(cvss.base_score(), 7.5);
/// assert!(cvss.access_vector().is_remote());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CvssV2 {
    access_vector: AccessVector,
    access_complexity: AccessComplexity,
    authentication: Authentication,
    confidentiality: ImpactMetric,
    integrity: ImpactMetric,
    availability: ImpactMetric,
}

impl CvssV2 {
    /// Creates a base vector from its six metrics.
    pub fn new(
        access_vector: AccessVector,
        access_complexity: AccessComplexity,
        authentication: Authentication,
        confidentiality: ImpactMetric,
        integrity: ImpactMetric,
        availability: ImpactMetric,
    ) -> Self {
        CvssV2 {
            access_vector,
            access_complexity,
            authentication,
            confidentiality,
            integrity,
            availability,
        }
    }

    /// A typical vector for a remotely exploitable vulnerability
    /// (`AV:N/AC:L/Au:N/C:P/I:P/A:P`, base score 7.5).
    pub fn typical_remote() -> Self {
        CvssV2::new(
            AccessVector::Network,
            AccessComplexity::Low,
            Authentication::None,
            ImpactMetric::Partial,
            ImpactMetric::Partial,
            ImpactMetric::Partial,
        )
    }

    /// A typical vector for a locally exploitable vulnerability
    /// (`AV:L/AC:L/Au:N/C:P/I:P/A:P`, base score 4.6).
    pub fn typical_local() -> Self {
        CvssV2::new(
            AccessVector::Local,
            AccessComplexity::Low,
            Authentication::None,
            ImpactMetric::Partial,
            ImpactMetric::Partial,
            ImpactMetric::Partial,
        )
    }

    /// The access-vector metric.
    pub fn access_vector(&self) -> AccessVector {
        self.access_vector
    }

    /// The access-complexity metric.
    pub fn access_complexity(&self) -> AccessComplexity {
        self.access_complexity
    }

    /// The authentication metric.
    pub fn authentication(&self) -> Authentication {
        self.authentication
    }

    /// The confidentiality-impact metric.
    pub fn confidentiality(&self) -> ImpactMetric {
        self.confidentiality
    }

    /// The integrity-impact metric.
    pub fn integrity(&self) -> ImpactMetric {
        self.integrity
    }

    /// The availability-impact metric.
    pub fn availability(&self) -> ImpactMetric {
        self.availability
    }

    /// The CVSS v2 impact sub-score (`10.41 * (1 - (1-C)(1-I)(1-A))`).
    pub fn impact_subscore(&self) -> f64 {
        10.41
            * (1.0
                - (1.0 - self.confidentiality.weight())
                    * (1.0 - self.integrity.weight())
                    * (1.0 - self.availability.weight()))
    }

    /// The CVSS v2 exploitability sub-score (`20 * AV * AC * Au`).
    pub fn exploitability_subscore(&self) -> f64 {
        20.0 * self.access_vector.weight()
            * self.access_complexity.weight()
            * self.authentication.weight()
    }

    /// The CVSS v2 base score, rounded to one decimal as NVD publishes it.
    pub fn base_score(&self) -> f64 {
        let impact = self.impact_subscore();
        let exploitability = self.exploitability_subscore();
        let f_impact = if impact == 0.0 { 0.0 } else { 1.176 };
        let raw = ((0.6 * impact) + (0.4 * exploitability) - 1.5) * f_impact;
        (raw * 10.0).round() / 10.0
    }
}

impl fmt::Display for CvssV2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AV:{}/AC:{}/Au:{}/C:{}/I:{}/A:{}",
            self.access_vector.code(),
            self.access_complexity.code(),
            self.authentication.code(),
            self.confidentiality.code(),
            self.integrity.code(),
            self.availability.code()
        )
    }
}

impl FromStr for CvssV2 {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ModelError::ParseCvss {
            input: s.to_string(),
            reason,
        };
        // Accept vectors wrapped in parentheses, as some feeds publish them.
        let trimmed = s.trim().trim_start_matches('(').trim_end_matches(')');
        let mut av = None;
        let mut ac = None;
        let mut au = None;
        let mut c = None;
        let mut i = None;
        let mut a = None;
        for metric in trimmed.split('/') {
            let (key, value) = metric
                .split_once(':')
                .ok_or_else(|| err("metric without \":\" separator"))?;
            match key {
                "AV" => av = Some(value.parse::<AccessVector>().map_err(|_| err("bad AV"))?),
                "AC" => {
                    ac = Some(match value {
                        "H" => AccessComplexity::High,
                        "M" => AccessComplexity::Medium,
                        "L" => AccessComplexity::Low,
                        _ => return Err(err("bad AC")),
                    })
                }
                "Au" => {
                    au = Some(match value {
                        "M" => Authentication::Multiple,
                        "S" => Authentication::Single,
                        "N" => Authentication::None,
                        _ => return Err(err("bad Au")),
                    })
                }
                "C" | "I" | "A" => {
                    let impact = match value {
                        "N" => ImpactMetric::None,
                        "P" => ImpactMetric::Partial,
                        "C" => ImpactMetric::Complete,
                        _ => return Err(err("bad impact metric")),
                    };
                    match key {
                        "C" => c = Some(impact),
                        "I" => i = Some(impact),
                        _ => a = Some(impact),
                    }
                }
                // Temporal/environmental metrics are ignored if present.
                "E" | "RL" | "RC" | "CDP" | "TD" | "CR" | "IR" | "AR" => {}
                _ => return Err(err("unknown metric key")),
            }
        }
        Ok(CvssV2 {
            access_vector: av.ok_or_else(|| err("missing AV"))?,
            access_complexity: ac.ok_or_else(|| err("missing AC"))?,
            authentication: au.ok_or_else(|| err("missing Au"))?,
            confidentiality: c.ok_or_else(|| err("missing C"))?,
            integrity: i.ok_or_else(|| err("missing I"))?,
            availability: a.ok_or_else(|| err("missing A"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_canonical_vector() {
        let v: CvssV2 = "AV:N/AC:L/Au:N/C:P/I:P/A:P".parse().unwrap();
        assert_eq!(v.access_vector(), AccessVector::Network);
        assert_eq!(v.access_complexity(), AccessComplexity::Low);
        assert_eq!(v.authentication(), Authentication::None);
    }

    #[test]
    fn parse_parenthesised_vector() {
        let v: CvssV2 = "(AV:L/AC:H/Au:S/C:C/I:C/A:C)".parse().unwrap();
        assert_eq!(v.access_vector(), AccessVector::Local);
        assert_eq!(v.authentication(), Authentication::Single);
    }

    #[test]
    fn known_base_scores() {
        // Reference values from the CVSS v2 specification / NVD calculator.
        let cases = [
            ("AV:N/AC:L/Au:N/C:P/I:P/A:P", 7.5),
            ("AV:N/AC:L/Au:N/C:C/I:C/A:C", 10.0),
            ("AV:L/AC:L/Au:N/C:P/I:P/A:P", 4.6),
            ("AV:N/AC:L/Au:N/C:N/I:N/A:C", 7.8),
            ("AV:N/AC:M/Au:N/C:P/I:N/A:N", 4.3),
            ("AV:L/AC:L/Au:N/C:C/I:C/A:C", 7.2),
            ("AV:N/AC:L/Au:N/C:N/I:N/A:N", 0.0),
            ("AV:A/AC:L/Au:N/C:P/I:P/A:P", 5.8),
        ];
        for (vector, expected) in cases {
            let v: CvssV2 = vector.parse().unwrap();
            assert!(
                (v.base_score() - expected).abs() < 1e-9,
                "vector {vector} produced {} instead of {expected}",
                v.base_score()
            );
        }
    }

    #[test]
    fn remote_classification_matches_paper_filter() {
        assert!(CvssV2::typical_remote().access_vector().is_remote());
        assert!(!CvssV2::typical_local().access_vector().is_remote());
        let adjacent: CvssV2 = "AV:A/AC:L/Au:N/C:P/I:P/A:P".parse().unwrap();
        assert!(adjacent.access_vector().is_remote());
    }

    #[test]
    fn access_vector_parses_long_names() {
        assert_eq!(
            "NETWORK".parse::<AccessVector>().unwrap(),
            AccessVector::Network
        );
        assert_eq!(
            "ADJACENT_NETWORK".parse::<AccessVector>().unwrap(),
            AccessVector::AdjacentNetwork
        );
        assert!("INTERNET".parse::<AccessVector>().is_err());
    }

    #[test]
    fn rejects_incomplete_vectors() {
        assert!("AV:N/AC:L/Au:N/C:P/I:P".parse::<CvssV2>().is_err());
        assert!("AV:N/AC:L".parse::<CvssV2>().is_err());
        assert!("AV:X/AC:L/Au:N/C:P/I:P/A:P".parse::<CvssV2>().is_err());
    }

    fn metric_strategy() -> impl Strategy<Value = CvssV2> {
        (
            prop_oneof![
                Just(AccessVector::Local),
                Just(AccessVector::AdjacentNetwork),
                Just(AccessVector::Network)
            ],
            prop_oneof![
                Just(AccessComplexity::High),
                Just(AccessComplexity::Medium),
                Just(AccessComplexity::Low)
            ],
            prop_oneof![
                Just(Authentication::Multiple),
                Just(Authentication::Single),
                Just(Authentication::None)
            ],
            prop_oneof![
                Just(ImpactMetric::None),
                Just(ImpactMetric::Partial),
                Just(ImpactMetric::Complete)
            ],
            prop_oneof![
                Just(ImpactMetric::None),
                Just(ImpactMetric::Partial),
                Just(ImpactMetric::Complete)
            ],
            prop_oneof![
                Just(ImpactMetric::None),
                Just(ImpactMetric::Partial),
                Just(ImpactMetric::Complete)
            ],
        )
            .prop_map(|(av, ac, au, c, i, a)| CvssV2::new(av, ac, au, c, i, a))
    }

    proptest! {
        #[test]
        fn roundtrip(v in metric_strategy()) {
            let parsed: CvssV2 = v.to_string().parse().unwrap();
            prop_assert_eq!(v, parsed);
        }

        #[test]
        fn base_score_in_range(v in metric_strategy()) {
            let score = v.base_score();
            prop_assert!((0.0..=10.0).contains(&score), "score {} out of range", score);
        }

        #[test]
        fn zero_impact_means_zero_score(av in prop_oneof![
            Just(AccessVector::Local), Just(AccessVector::AdjacentNetwork), Just(AccessVector::Network)
        ]) {
            let v = CvssV2::new(
                av,
                AccessComplexity::Low,
                Authentication::None,
                ImpactMetric::None,
                ImpactMetric::None,
                ImpactMetric::None,
            );
            prop_assert_eq!(v.base_score(), 0.0);
        }
    }
}
