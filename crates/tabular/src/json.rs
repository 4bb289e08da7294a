//! Minimal JSON encoding helpers shared by the table and series exporters
//! and the structured event log.
//!
//! The workspace has no JSON serializer, so the documents the renderers and
//! the event log emit are written by hand on these helpers. Only encoding is
//! provided; the grammar emitted is plain RFC 8259 JSON.

/// Escapes `value` into `out` as the interior of a JSON string literal:
/// quotes and backslashes are escaped, control characters become `\uXXXX`
/// (with the conventional short forms for `\n`, `\r`, `\t`). Multi-byte
/// UTF-8 passes through unchanged — the output is valid JSON whatever the
/// (possibly request-derived) input was.
///
/// # Example
///
/// ```
/// let mut out = String::from("\"");
/// tabular::json_escape_into(&mut out, "tab\there");
/// assert_eq!(out, "\"tab\\there");
/// ```
pub fn json_escape_into(out: &mut String, value: &str) {
    use std::fmt::Write as _;
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            control if control < ' ' => {
                let _ = write!(out, "\\u{:04x}", control as u32);
            }
            other => out.push(other),
        }
    }
}

/// Escapes a string for inclusion in a JSON document and wraps it in double
/// quotes.
///
/// # Example
///
/// ```
/// assert_eq!(tabular::json_string("a\"b"), "\"a\\\"b\"");
/// assert_eq!(tabular::json_string("line\nbreak"), "\"line\\nbreak\"");
/// ```
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    json_escape_into(&mut out, s);
    out.push('"');
    out
}

/// Formats a float as a JSON number. Integral values are printed without a
/// fractional part; non-finite values (which JSON cannot represent) become
/// `null`.
///
/// # Example
///
/// ```
/// assert_eq!(tabular::json_number(12.0), "12");
/// assert_eq!(tabular::json_number(0.5), "0.5");
/// assert_eq!(tabular::json_number(f64::NAN), "null");
/// ```
pub fn json_number(value: f64) -> String {
    if !value.is_finite() {
        return "null".to_string();
    }
    if (value - value.round()).abs() < f64::EPSILON && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// Joins pre-encoded JSON values into a JSON array.
pub fn json_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let inner: Vec<String> = items.into_iter().collect();
    format!("[{}]", inner.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_quoted() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("q\"q"), "\"q\\\"q\"");
        assert_eq!(json_string("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(json_string("tab\there"), "\"tab\\there\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_use_the_shortest_faithful_form() {
        assert_eq!(json_number(0.0), "0");
        assert_eq!(json_number(-3.0), "-3");
        assert_eq!(json_number(2.25), "2.25");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn arrays_join_with_commas() {
        assert_eq!(json_array(["1".to_string(), "2".to_string()]), "[1,2]");
        assert_eq!(json_array(std::iter::empty()), "[]");
    }
}
