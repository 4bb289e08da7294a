//! Labelled numeric series for figure-style output.

use std::fmt;

/// One labelled series of `(x, y)` points, e.g. "FreeBSD vulnerabilities per
/// year".
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    label: String,
    points: Vec<(i64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// The series label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a point.
    pub fn push(&mut self, x: i64, y: f64) {
        self.points.push((x, y));
    }

    /// The points in insertion order.
    pub fn points(&self) -> &[(i64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The y value at a given x, if present (first match).
    pub fn y_at(&self, x: i64) -> Option<f64> {
        self.points.iter().find(|(px, _)| *px == x).map(|(_, y)| *y)
    }

    /// Sum of the y values.
    pub fn total(&self) -> f64 {
        self.points.iter().map(|(_, y)| y).sum()
    }

    /// The maximum y value (0 for an empty series).
    pub fn max_y(&self) -> f64 {
        self.points.iter().map(|(_, y)| *y).fold(0.0, f64::max)
    }
}

impl FromIterator<(i64, f64)> for Series {
    fn from_iter<T: IntoIterator<Item = (i64, f64)>>(iter: T) -> Self {
        let mut series = Series::new("unnamed");
        for (x, y) in iter {
            series.push(x, y);
        }
        series
    }
}

/// A group of series sharing the same x axis — the shape of each sub-plot of
/// Figure 2 (one series per OS of a family) and of Figure 3 (history vs
/// observed bars per configuration).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSet {
    title: String,
    series: Vec<Series>,
}

impl SeriesSet {
    /// Creates an empty set with a title.
    pub fn new(title: impl Into<String>) -> Self {
        SeriesSet {
            title: title.into(),
            series: Vec::new(),
        }
    }

    /// The set title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Adds a series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// The series in insertion order.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Looks a series up by label.
    pub fn by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label() == label)
    }

    /// Renders the set as CSV: one column per series, one row per distinct x
    /// value (sorted ascending). Missing values are left empty.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<i64> = self
            .series
            .iter()
            .flat_map(|s| s.points().iter().map(|(x, _)| *x))
            .collect();
        xs.sort_unstable();
        xs.dedup();
        let mut out = String::from("x");
        for series in &self.series {
            out.push(',');
            out.push_str(series.label());
        }
        out.push('\n');
        for x in xs {
            out.push_str(&x.to_string());
            for series in &self.series {
                out.push(',');
                if let Some(y) = series.y_at(x) {
                    if (y - y.round()).abs() < f64::EPSILON {
                        out.push_str(&format!("{}", y as i64));
                    } else {
                        out.push_str(&format!("{y:.3}"));
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the set as a JSON object
    /// `{"title": ..., "series": [{"label": ..., "points": [[x, y], ...]}]}`.
    /// Integral y values are emitted without a fractional part.
    ///
    /// # Example
    ///
    /// ```
    /// use tabular::{Series, SeriesSet};
    ///
    /// let mut set = SeriesSet::new("BSD family");
    /// let mut s = Series::new("OpenBSD");
    /// s.push(2002, 12.0);
    /// set.push(s);
    /// assert_eq!(
    ///     set.to_json(),
    ///     r#"{"title":"BSD family","series":[{"label":"OpenBSD","points":[[2002,12]]}]}"#
    /// );
    /// ```
    pub fn to_json(&self) -> String {
        let series = crate::json::json_array(self.series.iter().map(|s| {
            let points = crate::json::json_array(
                s.points()
                    .iter()
                    .map(|(x, y)| format!("[{x},{}]", crate::json::json_number(*y))),
            );
            format!(
                "{{\"label\":{},\"points\":{}}}",
                crate::json::json_string(s.label()),
                points
            )
        }));
        format!(
            "{{\"title\":{},\"series\":{}}}",
            crate::json::json_string(&self.title),
            series
        )
    }

    /// Renders the set as a crude ASCII chart (one row per series, one `#`
    /// per `scale` units of y summed over the series), useful for eyeballing
    /// figure shapes in the terminal.
    pub fn to_ascii_bars(&self, scale: f64) -> String {
        let mut out = format!("{}\n", self.title);
        let width = self
            .series
            .iter()
            .map(|s| s.label().len())
            .max()
            .unwrap_or(0);
        for series in &self.series {
            let bar_len = if scale > 0.0 {
                (series.total() / scale).round() as usize
            } else {
                0
            };
            out.push_str(&format!(
                "{:width$}  {} ({:.0})\n",
                series.label(),
                "#".repeat(bar_len),
                series.total(),
                width = width
            ));
        }
        out
    }
}

impl fmt::Display for SeriesSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SeriesSet {
        let mut set = SeriesSet::new("BSD family");
        let mut openbsd = Series::new("OpenBSD");
        openbsd.push(2002, 12.0);
        openbsd.push(2003, 9.0);
        let mut netbsd = Series::new("NetBSD");
        netbsd.push(2002, 7.0);
        netbsd.push(2004, 3.0);
        set.push(openbsd);
        set.push(netbsd);
        set
    }

    #[test]
    fn series_accessors() {
        let s: Series = [(2000, 1.0), (2001, 2.5)].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.y_at(2001), Some(2.5));
        assert_eq!(s.y_at(1999), None);
        assert_eq!(s.total(), 3.5);
        assert_eq!(s.max_y(), 2.5);
        assert!(Series::new("empty").is_empty());
        assert_eq!(Series::new("empty").max_y(), 0.0);
    }

    #[test]
    fn series_set_lookup_and_title() {
        let set = sample();
        assert_eq!(set.title(), "BSD family");
        assert_eq!(set.series().len(), 2);
        assert!(set.by_label("OpenBSD").is_some());
        assert!(set.by_label("FreeBSD").is_none());
    }

    #[test]
    fn csv_merges_x_axes_and_leaves_gaps_empty() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,OpenBSD,NetBSD");
        assert_eq!(lines[1], "2002,12,7");
        assert_eq!(lines[2], "2003,9,");
        assert_eq!(lines[3], "2004,,3");
        assert_eq!(format!("{}", sample()), csv);
    }

    #[test]
    fn ascii_bars_reflect_totals() {
        let art = sample().to_ascii_bars(1.0);
        assert!(art.contains("OpenBSD"));
        assert!(art.contains(&"#".repeat(21))); // 12 + 9
        assert!(art.contains("(21)"));
        // Scale of zero produces no bars but does not panic.
        let flat = sample().to_ascii_bars(0.0);
        assert!(!flat.contains('#'));
    }
}
