//! CVE identifiers (`CVE-YEAR-NUMBER`).

use std::fmt;
use std::str::FromStr;

use crate::ModelError;

/// A Common Vulnerabilities and Exposures identifier, e.g. `CVE-2008-4609`.
///
/// The NVD names every entry with a `CVE-YEAR-NUMBER` identifier (Section III
/// of the paper). `CveId` stores the two numeric components and orders
/// identifiers chronologically: first by year, then by sequence number.
///
/// # Example
///
/// ```
/// use nvd_model::CveId;
///
/// # fn main() -> Result<(), nvd_model::ModelError> {
/// let id: CveId = "CVE-2008-4609".parse()?;
/// assert_eq!(id.year(), 2008);
/// assert_eq!(id.number(), 4609);
/// assert_eq!(id.to_string(), "CVE-2008-4609");
/// assert!(id > CveId::new(2007, 5365));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CveId {
    year: u16,
    number: u32,
}

impl CveId {
    /// Creates an identifier from its year and sequence number.
    ///
    /// # Example
    ///
    /// ```
    /// use nvd_model::CveId;
    /// let id = CveId::new(2008, 1447);
    /// assert_eq!(id.to_string(), "CVE-2008-1447");
    /// ```
    pub fn new(year: u16, number: u32) -> Self {
        CveId { year, number }
    }

    /// The year component of the identifier.
    pub fn year(&self) -> u16 {
        self.year
    }

    /// The sequence-number component of the identifier.
    pub fn number(&self) -> u32 {
        self.number
    }
}

impl fmt::Display for CveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // CVE numbers are zero padded to at least four digits (CVE-1999-0001).
        write!(f, "CVE-{}-{:04}", self.year, self.number)
    }
}

impl FromStr for CveId {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ModelError::ParseCveId {
            input: s.to_string(),
            reason,
        };
        let rest = s
            .strip_prefix("CVE-")
            .or_else(|| s.strip_prefix("cve-"))
            .ok_or_else(|| err("missing \"CVE-\" prefix"))?;
        let (year, number) = rest
            .split_once('-')
            .ok_or_else(|| err("missing \"-\" between year and number"))?;
        if year.len() != 4 {
            return Err(err("year must have exactly four digits"));
        }
        let year: u16 = year.parse().map_err(|_| err("year is not a number"))?;
        if number.is_empty() || number.len() > 9 {
            return Err(err("sequence number must have between 1 and 9 digits"));
        }
        let number: u32 = number
            .parse()
            .map_err(|_| err("sequence number is not a number"))?;
        Ok(CveId { year, number })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_canonical() {
        let id: CveId = "CVE-2008-4609".parse().unwrap();
        assert_eq!(id, CveId::new(2008, 4609));
    }

    #[test]
    fn parse_lowercase_prefix() {
        let id: CveId = "cve-2007-5365".parse().unwrap();
        assert_eq!(id, CveId::new(2007, 5365));
    }

    #[test]
    fn display_pads_to_four_digits() {
        assert_eq!(CveId::new(1999, 1).to_string(), "CVE-1999-0001");
        assert_eq!(CveId::new(2010, 123456).to_string(), "CVE-2010-123456");
    }

    #[test]
    fn ordering_is_chronological() {
        let a = CveId::new(2005, 9999);
        let b = CveId::new(2006, 1);
        assert!(a < b);
        assert!(CveId::new(2006, 2) > b);
    }

    #[test]
    fn rejects_missing_prefix() {
        assert!("2008-4609".parse::<CveId>().is_err());
    }

    #[test]
    fn rejects_short_year() {
        assert!("CVE-208-4609".parse::<CveId>().is_err());
    }

    #[test]
    fn rejects_non_numeric() {
        assert!("CVE-2008-46a9".parse::<CveId>().is_err());
        assert!("CVE-two-thousand".parse::<CveId>().is_err());
    }

    #[test]
    fn rejects_empty_number() {
        assert!("CVE-2008-".parse::<CveId>().is_err());
    }

    proptest! {
        #[test]
        fn roundtrip(year in 1990u16..2030, number in 1u32..1_000_000) {
            let id = CveId::new(year, number);
            let parsed: CveId = id.to_string().parse().unwrap();
            prop_assert_eq!(id, parsed);
        }

        #[test]
        fn ordering_matches_tuple(ya in 1990u16..2030, na in 1u32..99999,
                                  yb in 1990u16..2030, nb in 1u32..99999) {
            let a = CveId::new(ya, na);
            let b = CveId::new(yb, nb);
            prop_assert_eq!(a.cmp(&b), (ya, na).cmp(&(yb, nb)));
        }
    }
}
