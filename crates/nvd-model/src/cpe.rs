//! Common Platform Enumeration (CPE) 2.2 URIs.
//!
//! NVD entries list the affected platforms as CPE URIs such as
//! `cpe:/o:microsoft:windows_2000::sp4` (Section III of the paper). The study
//! only keeps enumerations whose *part* is `o` (operating system) and then
//! clusters the `(vendor, product)` pairs into the 11 OS distributions.

use std::fmt;
use std::str::FromStr;

use crate::ModelError;

/// The *part* component of a CPE URI: hardware, operating system or
/// application.
///
/// The paper filters on `Operating System` ("`/o` on its CPE",
/// Section III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CpePart {
    /// `h` — a hardware platform.
    Hardware,
    /// `o` — an operating system.
    OperatingSystem,
    /// `a` — an application.
    Application,
}

impl CpePart {
    /// The single-letter code used in CPE 2.2 URIs (`h`, `o` or `a`).
    pub fn code(&self) -> char {
        match self {
            CpePart::Hardware => 'h',
            CpePart::OperatingSystem => 'o',
            CpePart::Application => 'a',
        }
    }

    /// Parses the single-letter code used in CPE 2.2 URIs.
    pub fn from_code(code: char) -> Option<Self> {
        match code {
            'h' => Some(CpePart::Hardware),
            'o' => Some(CpePart::OperatingSystem),
            'a' => Some(CpePart::Application),
            _ => None,
        }
    }
}

impl fmt::Display for CpePart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpePart::Hardware => f.write_str("hardware"),
            CpePart::OperatingSystem => f.write_str("operating system"),
            CpePart::Application => f.write_str("application"),
        }
    }
}

/// A parsed CPE 2.2 URI: the part, vendor, product and version the study
/// reads.
///
/// The URI grammar is
/// `cpe:/part:vendor:product[:version[:update[:edition[:language]]]]`; empty
/// trailing components may be omitted. Parsing checks that there are at most
/// seven components and keeps the first four. Components are stored
/// lower-cased; a parsed component also has its `%XX` escapes resolved.
///
/// # Example
///
/// ```
/// use nvd_model::{Cpe, CpePart};
///
/// # fn main() -> Result<(), nvd_model::ModelError> {
/// let cpe: Cpe = "cpe:/o:redhat:enterprise_linux:5.0".parse()?;
/// assert_eq!(cpe.part(), CpePart::OperatingSystem);
/// assert_eq!(cpe.vendor(), "redhat");
/// assert_eq!(cpe.product(), "enterprise_linux");
/// assert_eq!(cpe.version(), Some("5.0"));
/// assert_eq!(cpe.to_string(), "cpe:/o:redhat:enterprise_linux:5.0");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cpe {
    part: CpePart,
    vendor: String,
    product: String,
    version: Option<String>,
}

impl Cpe {
    /// Creates a CPE from its part, vendor and product, without version
    /// information. The names are lower-cased, not decoded.
    ///
    /// # Example
    ///
    /// ```
    /// use nvd_model::{Cpe, CpePart};
    /// let cpe = Cpe::new(CpePart::OperatingSystem, "openbsd", "openbsd");
    /// assert_eq!(cpe.to_string(), "cpe:/o:openbsd:openbsd");
    /// ```
    pub fn new(part: CpePart, vendor: impl Into<String>, product: impl Into<String>) -> Self {
        Cpe {
            part,
            vendor: lower_case(vendor),
            product: lower_case(product),
            version: None,
        }
    }

    /// Returns a copy of this CPE with the given version component,
    /// lower-cased.
    ///
    /// # Example
    ///
    /// ```
    /// use nvd_model::{Cpe, CpePart};
    /// let cpe = Cpe::new(CpePart::OperatingSystem, "debian", "debian_linux")
    ///     .with_version("4.0");
    /// assert_eq!(cpe.version(), Some("4.0"));
    /// ```
    pub fn with_version(mut self, version: impl Into<String>) -> Self {
        self.version = Some(lower_case(version));
        self
    }

    /// The part (hardware / operating system / application).
    pub fn part(&self) -> CpePart {
        self.part
    }

    /// The vendor component (e.g. `microsoft`).
    pub fn vendor(&self) -> &str {
        &self.vendor
    }

    /// The product component (e.g. `windows_2000`).
    pub fn product(&self) -> &str {
        &self.product
    }

    /// The version component, if present.
    pub fn version(&self) -> Option<&str> {
        self.version.as_deref()
    }

    /// Whether this CPE describes an operating system platform.
    ///
    /// This is the filter applied in Section III-A of the paper.
    pub fn is_operating_system(&self) -> bool {
        self.part == CpePart::OperatingSystem
    }
}

/// ASCII-lower-cases a component in place.
fn lower_case(component: impl Into<String>) -> String {
    let mut component = component.into();
    component.make_ascii_lowercase();
    component
}

/// Lower-cases a URI component and resolves its escapes in one pass over
/// its chars: a `%` followed by two hex digits becomes the char U+00XX,
/// and every other char is kept, ASCII lower-cased.
fn decode_component(raw: &str) -> String {
    let mut decoded = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c == '%' {
            let mut ahead = chars.clone();
            let high = ahead.next().and_then(|h| h.to_digit(16));
            let low = ahead.next().and_then(|l| l.to_digit(16));
            if let Some(escaped) = high.zip(low).and_then(|(h, l)| char::from_u32(h * 16 + l)) {
                decoded.push(escaped);
                chars = ahead;
                continue;
            }
        }
        decoded.push(c.to_ascii_lowercase());
    }
    decoded
}

/// Percent-encodes the characters CPE 2.2 reserves (`:` and `%`).
fn encode_component(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            ':' => out.push_str("%3a"),
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            _ => out.push(ch),
        }
    }
    out
}

impl fmt::Display for Cpe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpe:/{}:{}:{}",
            self.part.code(),
            encode_component(&self.vendor),
            encode_component(&self.product)
        )?;
        match &self.version {
            Some(version) => write!(f, ":{}", encode_component(version)),
            None => Ok(()),
        }
    }
}

impl FromStr for Cpe {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ModelError::ParseCpe {
            input: s.to_string(),
            reason,
        };
        let rest = s
            .strip_prefix("cpe:/")
            .ok_or_else(|| err("missing \"cpe:/\" prefix"))?;
        let mut parts = rest.split(':');
        let mut code = parts.next().unwrap_or_default().chars();
        let part = match (code.next(), code.next()) {
            (Some(letter), None) => {
                CpePart::from_code(letter).ok_or_else(|| err("part must be one of h, o, a"))?
            }
            _ => return Err(err("part must be a single character (h, o or a)")),
        };
        let vendor = parts.next().ok_or_else(|| err("missing vendor"))?;
        if vendor.is_empty() {
            return Err(err("vendor must not be empty"));
        }
        let product = parts.next().ok_or_else(|| err("missing product"))?;
        if product.is_empty() {
            return Err(err("product must not be empty"));
        }
        let version = parts.next().filter(|v| !v.is_empty()).map(decode_component);
        // Update, edition and language may follow; the study reads none.
        if parts.nth(3).is_some() {
            return Err(err("too many components (CPE 2.2 has at most seven)"));
        }
        Ok(Cpe {
            part,
            vendor: decode_component(vendor),
            product: decode_component(product),
            version,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_minimal() {
        let cpe: Cpe = "cpe:/o:openbsd:openbsd".parse().unwrap();
        assert_eq!(cpe.part(), CpePart::OperatingSystem);
        assert_eq!(cpe.vendor(), "openbsd");
        assert_eq!(cpe.product(), "openbsd");
        assert_eq!(cpe.version(), None);
    }

    #[test]
    fn parse_full() {
        // All seven components parse; the study keeps the first four.
        let cpe: Cpe = "cpe:/o:microsoft:windows_2000:5.0:sp4:server:en"
            .parse()
            .unwrap();
        assert_eq!(cpe.product(), "windows_2000");
        assert_eq!(cpe.version(), Some("5.0"));
        assert_eq!(cpe.to_string(), "cpe:/o:microsoft:windows_2000:5.0");
    }

    #[test]
    fn parse_application_part() {
        let cpe: Cpe = "cpe:/a:mysql:mysql:5.0".parse().unwrap();
        assert_eq!(cpe.part(), CpePart::Application);
        assert!(!cpe.is_operating_system());
    }

    #[test]
    fn rejects_bad_prefix_and_part() {
        assert!("cpe:2.3:o:x:y".parse::<Cpe>().is_err());
        assert!("cpe:/q:x:y".parse::<Cpe>().is_err());
        assert!("cpe:/oo:x:y".parse::<Cpe>().is_err());
        assert!("cpe:/\u{e9}:x:y".parse::<Cpe>().is_err());
        assert!("cpe:/o".parse::<Cpe>().is_err());
        assert!("cpe:/o:x".parse::<Cpe>().is_err());
        assert!("cpe:/o::y".parse::<Cpe>().is_err());
        assert!("cpe:/o:v:p:1:2:3:4:5".parse::<Cpe>().is_err());
        assert!("cpe:/o:v:p:1:2:3:4".parse::<Cpe>().is_ok());
    }

    #[test]
    fn display_omits_trailing_empty_components() {
        let cpe: Cpe = "cpe:/o:redhat:enterprise_linux:5.0".parse().unwrap();
        assert_eq!(cpe.to_string(), "cpe:/o:redhat:enterprise_linux:5.0");
        let cpe: Cpe = "cpe:/o:microsoft:windows_2000::sp4".parse().unwrap();
        assert_eq!(cpe.to_string(), "cpe:/o:microsoft:windows_2000");
    }

    #[test]
    fn normalization_lowercases_and_decodes() {
        let cpe: Cpe = "cpe:/o:Microsoft:Windows_2000".parse().unwrap();
        assert_eq!(cpe.vendor(), "microsoft");
        // Each escape decodes once; every other char is kept.
        for (version, decoded) in [
            ("9.0%20x86", "9.0 x86"),
            ("%2541", "%41"),
            ("%41", "A"),
            ("%C3%A9", "\u{c3}\u{a9}"),
            ("caf\u{c9}%20X", "caf\u{c9} x"),
            ("%a\u{e9}", "%a\u{e9}"),
            ("%\u{e9}a", "%\u{e9}a"),
            ("%4", "%4"),
            ("x%", "x%"),
            ("%+1", "%+1"),
        ] {
            let cpe: Cpe = format!("cpe:/o:sun:solaris:{version}").parse().unwrap();
            assert_eq!(cpe.version(), Some(decoded), "{version}");
        }
    }

    #[test]
    fn builder_style_constructors() {
        let cpe = Cpe::new(CpePart::OperatingSystem, "NetBSD", "NetBSD").with_version("3.0.1");
        assert_eq!(cpe.to_string(), "cpe:/o:netbsd:netbsd:3.0.1");
        // Names given to the constructors are lower-cased, not decoded.
        let cpe = Cpe::new(CpePart::Application, "A%41", "b").with_version("%25");
        assert_eq!((cpe.vendor(), cpe.version()), ("a%41", Some("%25")));
    }

    /// Components holding every char `Display` escapes, upper case and
    /// multi-byte chars.
    fn component_strategy() -> impl Strategy<Value = String> {
        "[a-zA-Z0-9_.::%% \u{e9}\u{c9}\u{6c34}]{1,12}"
    }

    proptest! {
        #[test]
        fn roundtrip(vendor in component_strategy(),
                     product in component_strategy(),
                     version in proptest::option::of(component_strategy())) {
            let mut cpe = Cpe::new(CpePart::OperatingSystem, vendor, product);
            if let Some(v) = version {
                cpe = cpe.with_version(v);
            }
            let parsed: Cpe = cpe.to_string().parse().unwrap();
            prop_assert_eq!(cpe, parsed);
        }

        #[test]
        fn parse_never_panics(tail in "[%%%%%%0-9a-fA-F::x \u{e9}\u{e9}\u{6c34}\u{6c34}\u{1f980}]{0,24}") {
            if let Ok(cpe) = format!("cpe:/o:v:{tail}").parse::<Cpe>() {
                prop_assert_eq!(cpe.vendor(), "v");
                let _ = cpe.to_string();
            }
        }
    }
}
