//! Column-aligned text tables with CSV and JSON export.

use std::fmt;

use crate::json::json_string;

/// A simple text table: a header row plus data rows, rendered with columns
/// padded to their widest cell.
///
/// # Example
///
/// ```
/// use tabular::TextTable;
///
/// let mut t = TextTable::new(["pair", "v(AB)"]);
/// t.push_row(["OpenBSD-NetBSD", "40"]);
/// assert_eq!(t.row_count(), 1);
/// assert!(t.to_csv().starts_with("pair,v(AB)"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a data row. Rows shorter than the header are padded with
    /// empty cells; longer rows are truncated to the header width.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// The cell at `(row, column)`, if present.
    pub fn cell(&self, row: usize, column: usize) -> Option<&str> {
        self.rows
            .get(row)
            .and_then(|r| r.get(column))
            .map(String::as_str)
    }

    /// Renders the table as aligned text (header, separator line, rows).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                for _ in cell.len()..widths[i] {
                    out.push(' ');
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }

    /// Renders the table as CSV (header first). Cells containing commas,
    /// quotes or newlines are quoted.
    pub fn to_csv(&self) -> String {
        fn csv_cell(cell: &str) -> String {
            if cell.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| csv_cell(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.header);
        for row in &self.rows {
            write_row(row);
        }
        out
    }

    /// Renders the table as a JSON object `{"header": [...], "rows": [[...]]}`.
    /// Every cell is emitted as a JSON string, mirroring the internal
    /// representation, so the document round-trips losslessly.
    ///
    /// # Example
    ///
    /// ```
    /// use tabular::TextTable;
    ///
    /// let mut t = TextTable::new(["pair", "v(AB)"]);
    /// t.push_row(["OpenBSD-NetBSD", "40"]);
    /// assert_eq!(
    ///     t.to_json(),
    ///     r#"{"header":["pair","v(AB)"],"rows":[["OpenBSD-NetBSD","40"]]}"#
    /// );
    /// ```
    pub fn to_json(&self) -> String {
        let encode_row =
            |cells: &[String]| crate::json::json_array(cells.iter().map(|c| json_string(c)));
        format!(
            "{{\"header\":{},\"rows\":{}}}",
            encode_row(&self.header),
            crate::json::json_array(self.rows.iter().map(|row| encode_row(row)))
        )
    }

    /// Parses a CSV document previously produced by [`TextTable::to_csv`]
    /// (first record is the header). Quoted cells — including embedded
    /// commas, doubled quotes and newlines — are decoded. Returns `None` on
    /// malformed input (an unterminated quoted cell or an empty document).
    ///
    /// # Example
    ///
    /// ```
    /// use tabular::TextTable;
    ///
    /// let mut t = TextTable::new(["name", "note"]);
    /// t.push_row(["a,b", "say \"hi\""]);
    /// let parsed = TextTable::from_csv(&t.to_csv()).unwrap();
    /// assert_eq!(parsed, t);
    /// ```
    pub fn from_csv(text: &str) -> Option<TextTable> {
        let mut records: Vec<Vec<String>> = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut cell = String::new();
        let mut chars = text.chars().peekable();
        let mut in_quotes = false;
        let mut saw_any = false;
        while let Some(c) = chars.next() {
            saw_any = true;
            if in_quotes {
                match c {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        cell.push('"');
                    }
                    '"' => in_quotes = false,
                    c => cell.push(c),
                }
            } else {
                match c {
                    '"' => in_quotes = true,
                    ',' => record.push(std::mem::take(&mut cell)),
                    '\n' => {
                        record.push(std::mem::take(&mut cell));
                        records.push(std::mem::take(&mut record));
                    }
                    '\r' => {}
                    c => cell.push(c),
                }
            }
        }
        if in_quotes || !saw_any {
            return None;
        }
        if !cell.is_empty() || !record.is_empty() {
            record.push(cell);
            records.push(record);
        }
        let mut iter = records.into_iter();
        let mut table = TextTable::new(iter.next()?);
        for record in iter {
            table.push_row(record);
        }
        Some(table)
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_padded_and_truncated_to_header_width() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.push_row(["1"]);
        t.push_row(["1", "2", "3", "4"]);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.cell(0, 1), Some(""));
        assert_eq!(t.cell(1, 2), Some("3"));
        assert_eq!(t.cell(1, 3), None);
    }

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(["OS", "Valid"]);
        t.push_row(["OpenBSD", "142"]);
        t.push_row(["Windows 2000", "481"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // The "Valid" column starts at the same offset in every data line.
        let offset = lines[2].find("142").unwrap();
        assert_eq!(lines[3].find("481").unwrap(), offset);
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn display_matches_render() {
        let mut t = TextTable::new(["x"]);
        t.push_row(["y"]);
        assert_eq!(format!("{t}"), t.render());
        assert!(!t.is_empty());
    }

    #[test]
    fn json_export_escapes_and_structures_cells() {
        let mut t = TextTable::new(["name", "note"]);
        t.push_row(["a\"b", "x"]);
        let json = t.to_json();
        assert!(json.starts_with("{\"header\":[\"name\",\"note\"]"));
        assert!(json.contains("\"a\\\"b\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn csv_round_trips_through_from_csv() {
        let mut t = TextTable::new(["pair", "note"]);
        t.push_row(["a,b", "say \"hi\""]);
        t.push_row(["plain", "multi\nline"]);
        t.push_row(["bare\rreturn", "crlf\r\npair"]);
        assert_eq!(TextTable::from_csv(&t.to_csv()).unwrap(), t);
    }

    #[test]
    fn from_csv_rejects_malformed_input() {
        assert_eq!(TextTable::from_csv(""), None);
        assert_eq!(TextTable::from_csv("a,\"unterminated"), None);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = TextTable::new(["name", "note"]);
        t.push_row(["a,b", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
        assert!(csv.starts_with("name,note\n"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn render_has_one_line_per_row_plus_two(
                rows in proptest::collection::vec(
                    proptest::collection::vec("[a-z0-9]{0,8}", 3), 0..20)
            ) {
                let mut t = TextTable::new(["c1", "c2", "c3"]);
                for row in &rows {
                    t.push_row(row.clone());
                }
                prop_assert_eq!(t.render().lines().count(), rows.len() + 2);
                prop_assert_eq!(t.to_csv().lines().count(), rows.len() + 1);
            }
        }
    }
}
