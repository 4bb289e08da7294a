//! Minimal calendar date used for vulnerability publication dates.
//!
//! The study only needs year-level resolution (Figure 2 and Table V group by
//! year), but NVD feeds carry full `YYYY-MM-DD` timestamps, so the model
//! stores the complete date. A dedicated type is used instead of an external
//! date-time crate to stay within the allowed dependency set.

use std::fmt;
use std::str::FromStr;

use crate::ModelError;

/// A calendar date (`YYYY-MM-DD`), ordered chronologically.
///
/// # Example
///
/// ```
/// use nvd_model::Date;
///
/// # fn main() -> Result<(), nvd_model::ModelError> {
/// let d: Date = "2008-07-08".parse()?;
/// assert_eq!(d.year(), 2008);
/// assert!(d < Date::new(2010, 9, 30)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: u16,
    month: u8,
    day: u8,
}

/// Number of days in `month` of `year`, accounting for leap years.
fn days_in_month(year: u16, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
            if leap {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl Date {
    /// Creates a date, validating that the month and day are in range.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParseDate`] if the month is not in `1..=12` or
    /// the day is not valid for the given month/year.
    pub fn new(year: u16, month: u8, day: u8) -> Result<Self, ModelError> {
        let err = |reason| ModelError::ParseDate {
            input: format!("{year:04}-{month:02}-{day:02}"),
            reason,
        };
        if !(1..=12).contains(&month) {
            return Err(err("month out of range"));
        }
        if day == 0 || day > days_in_month(year, month) {
            return Err(err("day out of range"));
        }
        Ok(Date { year, month, day })
    }

    /// Creates the first day of `year` (`year-01-01`).
    ///
    /// Useful when only year-level resolution is available, e.g. when
    /// synthesizing entries from the per-year histograms of Figure 2.
    pub fn from_year(year: u16) -> Self {
        Date {
            year,
            month: 1,
            day: 1,
        }
    }

    /// The year component.
    pub fn year(&self) -> u16 {
        self.year
    }

    /// The month component (1–12).
    pub fn month(&self) -> u8 {
        self.month
    }

    /// The day-of-month component (1–31).
    pub fn day(&self) -> u8 {
        self.day
    }

    /// Days since 0000-03-01 (an internal epoch); used to compute intervals.
    fn rata_die(&self) -> i64 {
        // Algorithm adapted from Howard Hinnant's `days_from_civil`.
        let y = i64::from(self.year) - i64::from(self.month <= 2);
        let era = y.div_euclid(400);
        let yoe = y - era * 400;
        let mp = (i64::from(self.month) + 9) % 12;
        let doy = (153 * mp + 2) / 5 + i64::from(self.day) - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe - 719_468
    }

    /// Number of whole days from `earlier` to `self` (negative if `self` is
    /// before `earlier`).
    ///
    /// # Example
    ///
    /// ```
    /// use nvd_model::Date;
    /// # fn main() -> Result<(), nvd_model::ModelError> {
    /// let a = Date::new(2006, 1, 1)?;
    /// let b = Date::new(2006, 1, 31)?;
    /// assert_eq!(b.days_since(&a), 30);
    /// # Ok(())
    /// # }
    /// ```
    pub fn days_since(&self, earlier: &Date) -> i64 {
        self.rata_die() - earlier.rata_die()
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl FromStr for Date {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ModelError::ParseDate {
            input: s.to_string(),
            reason,
        };
        // Accept both plain dates and NVD timestamps such as
        // "2008-07-08T19:41:00.000-04:00"; everything after the date part is
        // ignored.
        let date_part = &s[..s.len().min(10)];
        let mut it = date_part.splitn(3, '-');
        let year = it
            .next()
            .filter(|p| p.len() == 4)
            .and_then(|p| p.parse::<u16>().ok())
            .ok_or_else(|| err("expected a four digit year"))?;
        let month = it
            .next()
            .and_then(|p| p.parse::<u8>().ok())
            .ok_or_else(|| err("expected a numeric month"))?;
        let day = it
            .next()
            .and_then(|p| p.parse::<u8>().ok())
            .ok_or_else(|| err("expected a numeric day"))?;
        Date::new(year, month, day).map_err(|_| err("month or day out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_plain_date() {
        let d: Date = "2008-07-08".parse().unwrap();
        assert_eq!((d.year(), d.month(), d.day()), (2008, 7, 8));
    }

    #[test]
    fn parse_nvd_timestamp() {
        let d: Date = "2008-07-08T19:41:00.000-04:00".parse().unwrap();
        assert_eq!((d.year(), d.month(), d.day()), (2008, 7, 8));
    }

    #[test]
    fn rejects_bad_month_and_day() {
        assert!(Date::new(2008, 13, 1).is_err());
        assert!(Date::new(2008, 0, 1).is_err());
        assert!(Date::new(2008, 2, 30).is_err());
        assert!(Date::new(2008, 4, 31).is_err());
    }

    #[test]
    fn leap_year_february() {
        assert!(Date::new(2008, 2, 29).is_ok());
        assert!(Date::new(2009, 2, 29).is_err());
        assert!(Date::new(2000, 2, 29).is_ok());
        assert!(Date::new(1900, 2, 29).is_err());
    }

    #[test]
    fn ordering_is_chronological() {
        let a = Date::new(2005, 12, 31).unwrap();
        let b = Date::new(2006, 1, 1).unwrap();
        assert!(a < b);
    }

    #[test]
    fn days_since_known_interval() {
        let a = Date::new(1994, 1, 1).unwrap();
        let b = Date::new(1995, 1, 1).unwrap();
        assert_eq!(b.days_since(&a), 365);
        let c = Date::new(2004, 1, 1).unwrap();
        let d = Date::new(2005, 1, 1).unwrap();
        assert_eq!(d.days_since(&c), 366); // 2004 is a leap year
    }

    #[test]
    fn from_year_is_january_first() {
        let d = Date::from_year(1994);
        assert_eq!(d.to_string(), "1994-01-01");
    }

    proptest! {
        #[test]
        fn roundtrip(year in 1990u16..2030, month in 1u8..=12, day in 1u8..=28) {
            let d = Date::new(year, month, day).unwrap();
            let parsed: Date = d.to_string().parse().unwrap();
            prop_assert_eq!(d, parsed);
        }

        #[test]
        fn ordering_matches_days_since(
            ya in 1990u16..2030, ma in 1u8..=12, da in 1u8..=28,
            yb in 1990u16..2030, mb in 1u8..=12, db in 1u8..=28,
        ) {
            let a = Date::new(ya, ma, da).unwrap();
            let b = Date::new(yb, mb, db).unwrap();
            prop_assert_eq!(a < b, b.days_since(&a) > 0);
            prop_assert_eq!(a == b, b.days_since(&a) == 0);
        }
    }
}
