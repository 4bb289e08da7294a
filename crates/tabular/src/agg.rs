//! Per-year counting: the [`YearHistogram`] behind each curve of Figure 2.

/// A per-year histogram over a fixed, inclusive year range — the shape of
/// each curve in Figure 2 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YearHistogram {
    first_year: u16,
    counts: Vec<u64>,
}

impl YearHistogram {
    /// Creates a histogram covering `first_year..=last_year`, all zeros.
    ///
    /// # Panics
    ///
    /// Panics if `last_year < first_year` (a programming error).
    pub fn new(first_year: u16, last_year: u16) -> Self {
        assert!(
            last_year >= first_year,
            "YearHistogram range must not be empty"
        );
        YearHistogram {
            first_year,
            counts: vec![0; usize::from(last_year - first_year) + 1],
        }
    }

    /// The first year of the range.
    pub fn first_year(&self) -> u16 {
        self.first_year
    }

    /// The last year of the range.
    pub fn last_year(&self) -> u16 {
        self.first_year + (self.counts.len() as u16) - 1
    }

    /// Adds one occurrence in `year`. Years outside the range are clamped to
    /// the nearest bound (the paper's 2002 feed contains entries back to
    /// 1994; clamping keeps them countable without growing the axis).
    pub fn add(&mut self, year: u16) {
        self.add_n(year, 1);
    }

    /// Adds `n` occurrences in `year` (clamped to the range).
    pub fn add_n(&mut self, year: u16, n: u64) {
        let clamped = year.clamp(self.first_year, self.last_year());
        let index = usize::from(clamped - self.first_year);
        self.counts[index] += n;
    }

    /// The count for `year` (zero if outside the range).
    pub fn count(&self, year: u16) -> u64 {
        if year < self.first_year || year > self.last_year() {
            return 0;
        }
        self.counts[usize::from(year - self.first_year)]
    }

    /// Total count over all years.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates over `(year, count)` pairs in ascending year order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, c)| (self.first_year + i as u16, *c))
    }

    /// The year with the highest count (earliest year wins ties).
    pub fn peak_year(&self) -> u16 {
        self.iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(year, _)| year)
            .unwrap_or(self.first_year)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_clamps() {
        let mut h = YearHistogram::new(1994, 2010);
        assert_eq!(h.first_year(), 1994);
        assert_eq!(h.last_year(), 2010);
        h.add(2000);
        h.add(2000);
        h.add(1990); // clamped to 1994
        h.add(2015); // clamped to 2010
        assert_eq!(h.count(2000), 2);
        assert_eq!(h.count(1994), 1);
        assert_eq!(h.count(2010), 1);
        assert_eq!(h.count(1980), 0);
        assert_eq!(h.total(), 4);
        assert_eq!(h.peak_year(), 2000);
        assert_eq!(h.iter().count(), 17);
    }

    #[test]
    fn histogram_single_year_range() {
        let mut h = YearHistogram::new(2005, 2005);
        h.add(2005);
        assert_eq!(h.total(), 1);
        assert_eq!(h.peak_year(), 2005);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn histogram_rejects_inverted_range() {
        YearHistogram::new(2010, 2005);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn histogram_total_equals_number_of_adds(years in proptest::collection::vec(1990u16..2015, 0..200)) {
                let mut h = YearHistogram::new(1994, 2010);
                for y in &years {
                    h.add(*y);
                }
                prop_assert_eq!(h.total() as usize, years.len());
            }
        }
    }
}
