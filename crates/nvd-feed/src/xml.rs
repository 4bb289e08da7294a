//! A minimal, dependency-free XML pull parser and writer.
//!
//! NVD data feeds use a small, regular subset of XML: elements, attributes,
//! character data, comments and CDATA sections. Implementing that subset
//! in-repo keeps the workspace within its allowed dependency set (see
//! DESIGN.md §6). The parser is a *pull* parser: callers repeatedly ask for
//! the next [`XmlEvent`].
//!
//! Not supported (not needed for NVD feeds): DTDs, entity definitions beyond
//! the five predefined entities, processing instructions other than the XML
//! declaration (they are skipped), and exotic encodings (input must be UTF-8).
//!
//! # Example
//!
//! ```
//! use nvd_feed::xml::{XmlEvent, XmlReader};
//!
//! # fn main() -> Result<(), nvd_feed::FeedError> {
//! let mut reader = XmlReader::new("<feed><entry id=\"CVE-2008-1447\">DNS</entry></feed>");
//! assert!(matches!(reader.next_event()?, Some(XmlEvent::StartElement { .. })));
//! match reader.next_event()? {
//!     Some(XmlEvent::StartElement { name, attributes, .. }) => {
//!         assert_eq!(name, "entry");
//!         assert_eq!(attributes[0], ("id".to_string(), "CVE-2008-1447".to_string()));
//!     }
//!     other => panic!("unexpected event {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

use crate::FeedError;

/// An event produced by [`XmlReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent {
    /// An opening tag, e.g. `<entry id="...">`. `self_closing` is true for
    /// `<tag/>`, in which case no matching [`XmlEvent::EndElement`] follows.
    StartElement {
        /// The element name with any namespace prefix stripped
        /// (`vuln:summary` becomes `summary`); the original prefixed name is
        /// kept in `qualified_name`.
        name: String,
        /// The element name exactly as written, including the namespace
        /// prefix.
        qualified_name: String,
        /// Attribute `(name, value)` pairs in document order, with entity
        /// references resolved.
        attributes: Vec<(String, String)>,
        /// Whether the element was written in self-closing form.
        self_closing: bool,
    },
    /// A closing tag, e.g. `</entry>` (name has its prefix stripped).
    EndElement {
        /// The element name with any namespace prefix stripped.
        name: String,
    },
    /// Character data between tags, with entity references resolved and
    /// CDATA sections unwrapped. Whitespace-only text is skipped.
    Text(String),
}

/// A pull parser over an XML string.
#[derive(Debug)]
pub struct XmlReader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> XmlReader<'a> {
    /// Creates a reader over the given XML document.
    pub fn new(input: &'a str) -> Self {
        XmlReader {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    /// Current byte offset, used for error reporting.
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn err(&self, reason: impl Into<String>) -> FeedError {
        FeedError::xml(self.pos, reason)
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, prefix: &[u8]) -> bool {
        self.input
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(prefix))
    }

    /// The input bytes in `start..end`. Positions come from the reader's
    /// own cursor, so the empty fallback is never observed — it exists so
    /// an internal inconsistency degrades to a parse error, not a panic.
    fn slice(&self, start: usize, end: usize) -> &'a [u8] {
        self.input.get(start..end).unwrap_or_default()
    }

    fn skip_until(&mut self, marker: &[u8]) -> Result<(), FeedError> {
        while self.pos < self.input.len() {
            if self.starts_with(marker) {
                self.pos += marker.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.err(format!(
            "unexpected end of input while looking for {:?}",
            String::from_utf8_lossy(marker)
        )))
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Returns the next event, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns [`FeedError::Xml`] if the document is malformed.
    pub fn next_event(&mut self) -> Result<Option<XmlEvent>, FeedError> {
        loop {
            if self.pos >= self.input.len() {
                return Ok(None);
            }
            if self.peek() == Some(b'<') {
                if self.starts_with(b"<?") {
                    // XML declaration or processing instruction: skip.
                    self.skip_until(b"?>")?;
                    continue;
                }
                if self.starts_with(b"<!--") {
                    self.skip_until(b"-->")?;
                    continue;
                }
                if self.starts_with(b"<![CDATA[") {
                    self.pos += b"<![CDATA[".len();
                    let start = self.pos;
                    self.skip_until(b"]]>")?;
                    let text = std::str::from_utf8(self.slice(start, self.pos.saturating_sub(3)))
                        .map_err(|_| self.err("CDATA section is not valid UTF-8"))?;
                    if text.trim().is_empty() {
                        continue;
                    }
                    return Ok(Some(XmlEvent::Text(text.to_string())));
                }
                if self.starts_with(b"<!") {
                    // DOCTYPE or other declaration: skip to the closing '>'.
                    self.skip_until(b">")?;
                    continue;
                }
                if self.starts_with(b"</") {
                    self.pos += 2;
                    let name = self.read_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after closing tag name"));
                    }
                    self.pos += 1;
                    return Ok(Some(XmlEvent::EndElement {
                        name: strip_prefix(&name),
                    }));
                }
                return self.read_start_element().map(Some);
            }
            // Character data.
            let start = self.pos;
            while self.pos < self.input.len() && self.peek() != Some(b'<') {
                self.pos += 1;
            }
            let raw = std::str::from_utf8(self.slice(start, self.pos))
                .map_err(|_| self.err("character data is not valid UTF-8"))?;
            if raw.trim().is_empty() {
                continue;
            }
            return Ok(Some(XmlEvent::Text(unescape(raw.trim()))));
        }
    }

    fn read_start_element(&mut self) -> Result<XmlEvent, FeedError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.pos += 1;
        let qualified_name = self.read_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(XmlEvent::StartElement {
                        name: strip_prefix(&qualified_name),
                        qualified_name,
                        attributes,
                        self_closing: false,
                    });
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/' in self-closing tag"));
                    }
                    self.pos += 1;
                    return Ok(XmlEvent::StartElement {
                        name: strip_prefix(&qualified_name),
                        qualified_name,
                        attributes,
                        self_closing: true,
                    });
                }
                Some(_) => {
                    let attr_name = self.read_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'=') {
                        return Err(self.err(format!("attribute {attr_name:?} without '='")));
                    }
                    self.pos += 1;
                    self.skip_whitespace();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("attribute value must be quoted")),
                    };
                    self.pos += 1;
                    let start = self.pos;
                    while self.pos < self.input.len() && self.peek() != Some(quote) {
                        self.pos += 1;
                    }
                    if self.pos >= self.input.len() {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = std::str::from_utf8(self.slice(start, self.pos))
                        .map_err(|_| self.err("attribute value is not valid UTF-8"))?;
                    self.pos += 1;
                    attributes.push((attr_name, unescape(raw)));
                }
                None => return Err(self.err("unexpected end of input inside tag")),
            }
        }
    }

    fn read_name(&mut self) -> Result<String, FeedError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(std::str::from_utf8(self.slice(start, self.pos))
            .map_err(|_| self.err("element name is not valid UTF-8"))?
            .to_string())
    }

    /// Collects all the text directly inside the current element, consuming
    /// events until the matching end tag. Nested elements are skipped but
    /// their text is not collected. Must be called right after the start
    /// element event for `name` was returned.
    pub fn read_element_text(&mut self, name: &str) -> Result<String, FeedError> {
        let mut depth = 0usize;
        let mut text = String::new();
        loop {
            match self.next_event()? {
                Some(XmlEvent::StartElement {
                    self_closing: false,
                    ..
                }) => depth += 1,
                Some(XmlEvent::StartElement { .. }) => {}
                Some(XmlEvent::Text(t)) => {
                    if depth == 0 {
                        if !text.is_empty() {
                            text.push(' ');
                        }
                        text.push_str(&t);
                    }
                }
                Some(XmlEvent::EndElement { name: end }) => {
                    if depth == 0 {
                        if end != name {
                            return Err(self.err(format!(
                                "mismatched end tag: expected </{name}>, found </{end}>"
                            )));
                        }
                        return Ok(text);
                    }
                    depth = depth.saturating_sub(1);
                }
                None => return Err(self.err(format!("missing end tag </{name}>"))),
            }
        }
    }

    /// Skips everything up to and including the end tag matching the current
    /// element. Must be called right after the start element event for
    /// `name` was returned.
    pub fn skip_element(&mut self, name: &str) -> Result<(), FeedError> {
        let mut depth = 0usize;
        loop {
            match self.next_event()? {
                Some(XmlEvent::StartElement {
                    self_closing: false,
                    ..
                }) => depth += 1,
                Some(XmlEvent::StartElement { .. }) => {}
                Some(XmlEvent::Text(_)) => {}
                Some(XmlEvent::EndElement { .. }) if depth > 0 => depth = depth.saturating_sub(1),
                Some(XmlEvent::EndElement { .. }) => return Ok(()),
                None => return Err(self.err(format!("missing end tag </{name}>"))),
            }
        }
    }
}

/// Strips an optional namespace prefix from a qualified name
/// (`vuln:summary` → `summary`).
fn strip_prefix(qualified: &str) -> String {
    match qualified.rsplit_once(':') {
        Some((_, local)) => local.to_string(),
        None => qualified.to_string(),
    }
}

/// Resolves the five predefined XML entities and decimal/hex character
/// references.
pub fn unescape(raw: &str) -> String {
    if !raw.contains('&') {
        return raw.to_string();
    }
    // Every split offset below comes from `find` on `&`/`;` (both ASCII),
    // so the `.get(…)` lookups cannot miss; the empty fallbacks only make
    // that fact local instead of spanning the loop.
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(rest.get(..amp).unwrap_or_default());
        rest = rest.get(amp..).unwrap_or_default();
        if let Some(semi) = rest.find(';') {
            let entity = rest.get(1..semi).unwrap_or_default();
            let replacement = match entity {
                "lt" => Some('<'),
                "gt" => Some('>'),
                "amp" => Some('&'),
                "apos" => Some('\''),
                "quot" => Some('"'),
                _ => entity
                    .strip_prefix("#x")
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .or_else(|| entity.strip_prefix('#').and_then(|dec| dec.parse().ok()))
                    .and_then(char::from_u32),
            };
            match replacement {
                Some(ch) => {
                    out.push(ch);
                    rest = rest.get(semi + 1..).unwrap_or_default();
                }
                None => {
                    out.push('&');
                    rest = rest.get(1..).unwrap_or_default();
                }
            }
        } else {
            out.push('&');
            rest = rest.get(1..).unwrap_or_default();
        }
    }
    out.push_str(rest);
    out
}

/// Escapes the characters that must not appear literally in XML text or
/// attribute values.
pub fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(ch),
        }
    }
    out
}

/// A small helper for producing indented XML documents.
///
/// # Example
///
/// ```
/// use nvd_feed::xml::XmlWriter;
///
/// let mut w = XmlWriter::new();
/// w.open_with("entry", &[("id", "CVE-2010-0001")]);
/// w.text_element("summary", "An example entry");
/// w.close("entry");
/// assert!(w.finish().contains("<summary>An example entry</summary>"));
/// ```
#[derive(Debug, Default)]
pub struct XmlWriter {
    buffer: String,
    depth: usize,
}

impl XmlWriter {
    /// Creates a writer with the standard XML declaration already emitted.
    pub fn new() -> Self {
        XmlWriter {
            buffer: String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"),
            depth: 0,
        }
    }

    fn indent(&mut self) {
        for _ in 0..self.depth {
            self.buffer.push_str("  ");
        }
    }

    /// Opens an element without attributes.
    pub fn open(&mut self, name: &str) {
        self.open_with(name, &[]);
    }

    /// Opens an element with attributes.
    pub fn open_with(&mut self, name: &str, attributes: &[(&str, &str)]) {
        self.indent();
        self.buffer.push('<');
        self.buffer.push_str(name);
        for (key, value) in attributes {
            self.buffer.push(' ');
            self.buffer.push_str(key);
            self.buffer.push_str("=\"");
            self.buffer.push_str(&escape(value));
            self.buffer.push('"');
        }
        self.buffer.push_str(">\n");
        self.depth += 1;
    }

    /// Writes `<name>text</name>` on one line.
    pub fn text_element(&mut self, name: &str, text: &str) {
        self.indent();
        self.buffer.push('<');
        self.buffer.push_str(name);
        self.buffer.push('>');
        self.buffer.push_str(&escape(text));
        self.buffer.push_str("</");
        self.buffer.push_str(name);
        self.buffer.push_str(">\n");
    }

    /// Closes the innermost open element.
    ///
    /// # Panics
    ///
    /// Panics if there is no open element (writer misuse, a programming
    /// error).
    pub fn close(&mut self, name: &str) {
        assert!(
            self.depth > 0,
            "XmlWriter::close called with no open element"
        );
        // guard: allow(arith) — guarded by the assert above; the writer is not attacker-facing
        self.depth -= 1;
        self.indent();
        self.buffer.push_str("</");
        self.buffer.push_str(name);
        self.buffer.push_str(">\n");
    }

    /// Finishes the document and returns the XML text.
    pub fn finish(self) -> String {
        self.buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(xml: &str) -> Vec<XmlEvent> {
        let mut reader = XmlReader::new(xml);
        let mut events = Vec::new();
        while let Some(event) = reader.next_event().unwrap() {
            events.push(event);
        }
        events
    }

    #[test]
    fn parses_simple_document() {
        let evs = events("<a><b attr=\"1\">text</b><c/></a>");
        assert_eq!(evs.len(), 6);
        assert!(matches!(&evs[0], XmlEvent::StartElement { name, .. } if name == "a"));
        assert!(matches!(&evs[2], XmlEvent::Text(t) if t == "text"));
        assert!(
            matches!(&evs[4], XmlEvent::StartElement { name, self_closing, .. } if name == "c" && *self_closing)
        );
        assert!(matches!(&evs[5], XmlEvent::EndElement { name } if name == "a"));
    }

    #[test]
    fn skips_declaration_comments_and_doctype() {
        let xml = "<?xml version=\"1.0\"?><!-- comment --><!DOCTYPE nvd><root>ok</root>";
        let evs = events(xml);
        assert_eq!(evs.len(), 3);
        assert!(matches!(&evs[1], XmlEvent::Text(t) if t == "ok"));
    }

    #[test]
    fn strips_namespace_prefixes_but_keeps_qualified_name() {
        let evs = events("<vuln:summary>DNS flaw</vuln:summary>");
        match &evs[0] {
            XmlEvent::StartElement {
                name,
                qualified_name,
                ..
            } => {
                assert_eq!(name, "summary");
                assert_eq!(qualified_name, "vuln:summary");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&evs[2], XmlEvent::EndElement { name } if name == "summary"));
    }

    #[test]
    fn resolves_entities_in_text_and_attributes() {
        let evs = events("<a name=\"x &amp; y\">1 &lt; 2 &#65; &#x42;</a>");
        match &evs[0] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes[0].1, "x & y");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&evs[1], XmlEvent::Text(t) if t == "1 < 2 A B"));
    }

    #[test]
    fn parses_cdata() {
        let evs = events("<a><![CDATA[1 < 2 & 3]]></a>");
        assert!(matches!(&evs[1], XmlEvent::Text(t) if t == "1 < 2 & 3"));
    }

    #[test]
    fn single_quoted_attributes() {
        let evs = events("<a name='value'/>");
        match &evs[0] {
            XmlEvent::StartElement { attributes, .. } => assert_eq!(attributes[0].1, "value"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn read_element_text_collects_direct_text_only() {
        let mut reader = XmlReader::new("<desc>outer <sub>inner</sub> tail</desc>");
        reader.next_event().unwrap();
        let text = reader.read_element_text("desc").unwrap();
        assert_eq!(text, "outer tail");
        assert!(reader.next_event().unwrap().is_none());
    }

    #[test]
    fn skip_element_skips_nested_content() {
        let mut reader = XmlReader::new("<a><skip><x>1</x><y/></skip><keep>2</keep></a>");
        reader.next_event().unwrap(); // <a>
        reader.next_event().unwrap(); // <skip>
        reader.skip_element("skip").unwrap();
        match reader.next_event().unwrap() {
            Some(XmlEvent::StartElement { name, .. }) => assert_eq!(name, "keep"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reports_errors_with_offsets() {
        let mut reader = XmlReader::new("<a attr>text</a>");
        let err = reader.next_event().unwrap_err();
        assert!(matches!(err, FeedError::Xml { .. }));
        let mut reader = XmlReader::new("<a><![CDATA[unterminated");
        reader.next_event().unwrap();
        assert!(reader.next_event().is_err());
        let mut reader = XmlReader::new("<a attr=unquoted>x</a>");
        assert!(reader.next_event().is_err());
    }

    #[test]
    fn escape_unescape_roundtrip() {
        let original = "a < b & c > d \"quoted\" 'single'";
        assert_eq!(unescape(&escape(original)), original);
        assert_eq!(unescape("&unknown; &amp;"), "&unknown; &");
        assert_eq!(unescape("no entities"), "no entities");
    }

    #[test]
    fn writer_produces_parseable_document() {
        let mut w = XmlWriter::new();
        w.open_with("nvd", &[("xmlns", "http://example.invalid/feed")]);
        w.open_with("entry", &[("id", "CVE-2008-1447")]);
        w.text_element("summary", "DNS cache poisoning <critical>");
        w.text_element("product", "cpe:/o:debian:debian_linux");
        w.close("entry");
        w.close("nvd");
        let xml = w.finish();
        let evs = events(&xml);
        assert!(evs
            .iter()
            .any(|e| matches!(e, XmlEvent::Text(t) if t.contains("<critical>"))));
        assert!(evs
            .iter()
            .any(|e| matches!(e, XmlEvent::StartElement { name, .. } if name == "product")));
    }

    #[test]
    #[should_panic(expected = "no open element")]
    fn writer_close_without_open_panics() {
        let mut w = XmlWriter::new();
        w.close("nothing");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn escape_then_unescape_is_identity(text in "[ -~]{0,64}") {
                prop_assert_eq!(unescape(&escape(&text)), text);
            }

            #[test]
            fn writer_reader_roundtrip_text(text in "[a-zA-Z0-9 <>&\"']{1,64}") {
                // Skip inputs that are pure whitespace: the reader drops them.
                prop_assume!(!text.trim().is_empty());
                let mut w = XmlWriter::new();
                w.open("root");
                w.text_element("t", &text);
                w.close("root");
                let xml = w.finish();
                let evs = events(&xml);
                let roundtripped = evs.iter().find_map(|e| match e {
                    XmlEvent::Text(t) => Some(t.clone()),
                    _ => None,
                });
                prop_assert_eq!(roundtripped, Some(text.trim().to_string()));
            }

            #[test]
            fn parser_never_panics_on_arbitrary_input(input in "[ -~]{0,128}") {
                let mut reader = XmlReader::new(&input);
                for _ in 0..64 {
                    match reader.next_event() {
                        Ok(Some(_)) => {}
                        Ok(None) | Err(_) => break,
                    }
                }
            }
        }
    }
}
