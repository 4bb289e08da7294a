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
//!         assert_eq!(attributes[0].0, "id");
//!         assert_eq!(attributes[0].1, "CVE-2008-1447");
//!     }
//!     other => panic!("unexpected event {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;

use crate::FeedError;

/// An event produced by [`XmlReader`]. Names and entity-free values are
/// slices of the input; only text or an attribute value that holds an
/// entity reference is copied, to resolve it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// An opening tag, e.g. `<entry id="...">`. `self_closing` is true for
    /// `<tag/>`, in which case no matching [`XmlEvent::EndElement`] follows.
    StartElement {
        /// The element name with any namespace prefix stripped
        /// (`vuln:summary` becomes `summary`).
        name: &'a str,
        /// Attribute `(name, value)` pairs in document order, with entity
        /// references resolved.
        attributes: Vec<(&'a str, Cow<'a, str>)>,
        /// Whether the element was written in self-closing form.
        self_closing: bool,
    },
    /// A closing tag, e.g. `</entry>` (name has its prefix stripped).
    EndElement {
        /// The element name with any namespace prefix stripped.
        name: &'a str,
    },
    /// Character data between tags, with entity references resolved and
    /// CDATA sections unwrapped. Whitespace-only text is skipped.
    Text(Cow<'a, str>),
}

/// A pull parser over an XML string.
#[derive(Debug)]
pub struct XmlReader<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> XmlReader<'a> {
    /// Creates a reader over the given XML document.
    pub fn new(input: &'a str) -> Self {
        XmlReader { input, pos: 0 }
    }

    /// Current byte offset, used for error reporting.
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn err(&self, reason: impl Into<String>) -> FeedError {
        FeedError::xml(self.pos, reason)
    }

    /// The bytes from the cursor on.
    fn rest(&self) -> &'a [u8] {
        self.input.as_bytes().get(self.pos..).unwrap_or_default()
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn starts_with(&self, prefix: &[u8]) -> bool {
        self.rest().starts_with(prefix)
    }

    /// The input in `start..end`. Every position the reader slices at
    /// sits next to an ASCII delimiter, so it is a character boundary; a
    /// miss would be an internal inconsistency and reads as a parse error,
    /// not a panic.
    fn slice(&self, start: usize, end: usize) -> Result<&'a str, FeedError> {
        self.input
            .get(start..end)
            .ok_or_else(|| self.err("slice is not on a character boundary"))
    }

    /// Moves the cursor past the next `marker`.
    fn skip_until(&mut self, marker: &[u8]) -> Result<(), FeedError> {
        match find(self.rest(), marker) {
            Some(at) => {
                self.pos += at + marker.len();
                Ok(())
            }
            None => {
                self.pos = self.input.len();
                Err(self.err(format!(
                    "unexpected end of input while looking for {:?}",
                    String::from_utf8_lossy(marker)
                )))
            }
        }
    }

    /// Moves the cursor past the bytes that satisfy `keep`.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = self.rest();
        self.pos += rest
            .iter()
            .position(|&byte| !keep(byte))
            .unwrap_or(rest.len());
    }

    fn skip_whitespace(&mut self) {
        self.skip_while(|byte| matches!(byte, b' ' | b'\t' | b'\r' | b'\n'));
    }

    /// Returns the next event, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns [`FeedError::Xml`] if the document is malformed.
    pub fn next_event(&mut self) -> Result<Option<XmlEvent<'a>>, FeedError> {
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
                    let text = self.slice(start, self.pos.saturating_sub(3))?;
                    if text.trim().is_empty() {
                        continue;
                    }
                    return Ok(Some(XmlEvent::Text(Cow::Borrowed(text))));
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
                        name: strip_prefix(name),
                    }));
                }
                return self.read_start_element().map(Some);
            }
            // Character data, up to the next tag.
            let start = self.pos;
            self.pos = find_byte(self.rest(), b'<').map_or(self.input.len(), |at| start + at);
            let raw = self.slice(start, self.pos)?.trim();
            if raw.is_empty() {
                continue;
            }
            return Ok(Some(XmlEvent::Text(unescape(raw))));
        }
    }

    fn read_start_element(&mut self) -> Result<XmlEvent<'a>, FeedError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.pos += 1;
        let name = strip_prefix(self.read_name()?);
        let mut attributes = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(XmlEvent::StartElement {
                        name,
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
                        name,
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
                    let Some(len) = find_byte(self.rest(), quote) else {
                        self.pos = self.input.len();
                        return Err(self.err("unterminated attribute value"));
                    };
                    self.pos += len;
                    let raw = self.slice(start, self.pos)?;
                    self.pos += 1;
                    attributes.push((attr_name, unescape(raw)));
                }
                None => return Err(self.err("unexpected end of input inside tag")),
            }
        }
    }

    fn read_name(&mut self) -> Result<&'a str, FeedError> {
        let start = self.pos;
        self.skip_while(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':'));
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        self.slice(start, self.pos)
    }

    /// Collects all the text directly inside the current element, consuming
    /// events until the matching end tag. Nested elements are skipped but
    /// their text is not collected; separate runs are joined with a space.
    /// A single run without entities is returned borrowed. Must be called
    /// right after the start element event for `name` was returned.
    pub fn read_element_text(&mut self, name: &str) -> Result<Cow<'a, str>, FeedError> {
        let mut depth = 0usize;
        let mut text = Cow::Borrowed("");
        loop {
            match self.next_event()? {
                Some(XmlEvent::StartElement {
                    self_closing: false,
                    ..
                }) => depth += 1,
                Some(XmlEvent::StartElement { .. }) => {}
                Some(XmlEvent::Text(run)) => {
                    if depth == 0 {
                        if text.is_empty() {
                            text = run;
                        } else {
                            let joined = text.to_mut();
                            joined.push(' ');
                            joined.push_str(&run);
                        }
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
fn strip_prefix(name: &str) -> &str {
    name.rfind(':')
        .and_then(|colon| name.get(colon + 1..))
        .unwrap_or(name)
}

/// Offset of the first `byte` in `haystack`, examined eight bytes at a
/// time: a word XORed with `byte` in every lane has a zero lane exactly
/// where `byte` was, and `(x - 0x01…01) & !x & 0x80…80` sets the high bit
/// of the lowest zero lane (lanes above it may be set spuriously by the
/// borrow, which `trailing_zeros` never reaches).
pub fn find_byte(haystack: &[u8], byte: u8) -> Option<usize> {
    const LANES: u64 = 0x0101_0101_0101_0101;
    const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
    let pattern = u64::from_ne_bytes([byte; 8]);
    let mut rest = haystack;
    let mut offset = 0;
    while let &[b0, b1, b2, b3, b4, b5, b6, b7, ref tail @ ..] = rest {
        let x = u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]) ^ pattern;
        let zero_lanes = x.wrapping_sub(LANES) & !x & HIGH_BITS;
        if zero_lanes != 0 {
            return Some(offset + (zero_lanes.trailing_zeros() / 8) as usize);
        }
        offset += 8;
        rest = tail;
    }
    rest.iter()
        .position(|&candidate| candidate == byte)
        .map(|at| offset + at)
}

/// Offset of the first occurrence of `needle` in `haystack`: each
/// candidate is a [`find_byte`] hit on the needle's first byte.
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let &first = needle.first()?;
    let mut from = 0;
    while let Some(at) = find_byte(haystack.get(from..)?, first) {
        let candidate = from + at;
        if haystack
            .get(candidate..)
            .is_some_and(|rest| rest.starts_with(needle))
        {
            return Some(candidate);
        }
        from = candidate + 1;
    }
    None
}

/// Resolves the five predefined XML entities and decimal/hex character
/// references. Text without a `&` comes back borrowed.
pub fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('&') {
        return Cow::Borrowed(raw);
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
    Cow::Owned(out)
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

    fn events(xml: &str) -> Vec<XmlEvent<'_>> {
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
        assert!(matches!(&evs[0], XmlEvent::StartElement { name: "a", .. }));
        assert!(matches!(&evs[2], XmlEvent::Text(t) if t == "text"));
        assert!(matches!(
            &evs[4],
            XmlEvent::StartElement {
                name: "c",
                self_closing: true,
                ..
            }
        ));
        assert!(matches!(&evs[5], XmlEvent::EndElement { name: "a" }));
    }

    #[test]
    fn skips_declaration_comments_and_doctype() {
        let xml = "<?xml version=\"1.0\"?><!-- comment --><!DOCTYPE nvd><root>ok</root>";
        let evs = events(xml);
        assert_eq!(evs.len(), 3);
        assert!(matches!(&evs[1], XmlEvent::Text(t) if t == "ok"));
    }

    #[test]
    fn strips_namespace_prefixes() {
        let evs = events("<vuln:summary>DNS flaw</vuln:summary>");
        assert!(matches!(
            &evs[0],
            XmlEvent::StartElement {
                name: "summary",
                ..
            }
        ));
        assert!(matches!(&evs[2], XmlEvent::EndElement { name: "summary" }));
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
    fn find_byte_matches_a_bytewise_scan_at_every_offset() {
        for needle in [0x00, b'<', 0x7F, 0x80, 0xFF] {
            for len in 0..=24 {
                for at in 0..=len {
                    // Every other byte is a neighbour of the needle's
                    // value, which a word-at-a-time test could mistake
                    // for it; a second needle sits three bytes later.
                    let mut haystack: Vec<u8> = (0..len)
                        .map(|i| match i % 3 {
                            0 => needle ^ 0x80,
                            1 => needle.wrapping_add(1),
                            _ => needle.wrapping_sub(1),
                        })
                        .collect();
                    for index in [at, at + 3] {
                        if let Some(byte) = haystack.get_mut(index) {
                            *byte = needle;
                        }
                    }
                    assert_eq!(
                        find_byte(&haystack, needle),
                        haystack.iter().position(|&byte| byte == needle),
                        "{haystack:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn find_locates_the_first_whole_needle() {
        assert_eq!(find(b"<entryset></entry>", b"</entry"), Some(10));
        assert_eq!(find(b"<<</entr", b"</entry"), None);
        assert_eq!(find(b"abc", b""), None);
        assert_eq!(find(b"", b"<"), None);
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
        assert!(evs.iter().any(|e| matches!(
            e,
            XmlEvent::StartElement {
                name: "product",
                ..
            }
        )));
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
                    XmlEvent::Text(t) => Some(t.to_string()),
                    _ => None,
                });
                prop_assert_eq!(roundtripped, Some(text.trim().to_string()));
            }

            #[test]
            fn word_search_matches_a_window_scan(haystack in "[<a/e\u{e9}\u{80} ]{0,48}", needle in "[<a/e]{1,3}") {
                let (haystack, needle) = (haystack.as_bytes(), needle.as_bytes());
                prop_assert_eq!(
                    find(haystack, needle),
                    haystack.windows(needle.len()).position(|window| window == needle)
                );
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
