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

/// A parsed CPE 2.2 URI.
///
/// The URI grammar is
/// `cpe:/part:vendor:product[:version[:update[:edition[:language]]]]`; empty
/// trailing components may be omitted. Components are stored in their decoded
/// form (lower-cased, `%XX` escapes resolved).
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
    update: Option<String>,
    edition: Option<String>,
    language: Option<String>,
}

impl Cpe {
    /// Creates a CPE from its part, vendor and product, without version
    /// information.
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
            vendor: normalize_component(&vendor.into()),
            product: normalize_component(&product.into()),
            version: None,
            update: None,
            edition: None,
            language: None,
        }
    }

    /// Returns a copy of this CPE with the given version component.
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
        self.version = Some(normalize_component(&version.into()));
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

    /// The update component, if present.
    pub fn update(&self) -> Option<&str> {
        self.update.as_deref()
    }

    /// The edition component, if present.
    pub fn edition(&self) -> Option<&str> {
        self.edition.as_deref()
    }

    /// The language component, if present.
    pub fn language(&self) -> Option<&str> {
        self.language.as_deref()
    }

    /// Whether this CPE describes an operating system platform.
    ///
    /// This is the filter applied in Section III-A of the paper.
    pub fn is_operating_system(&self) -> bool {
        self.part == CpePart::OperatingSystem
    }

    /// Whether `other` matches this CPE when this CPE is interpreted as a
    /// pattern: every component present in `self` must be equal in `other`;
    /// components absent from `self` match anything.
    ///
    /// # Example
    ///
    /// ```
    /// use nvd_model::Cpe;
    /// # fn main() -> Result<(), nvd_model::ModelError> {
    /// let pattern: Cpe = "cpe:/o:debian:debian_linux".parse()?;
    /// let concrete: Cpe = "cpe:/o:debian:debian_linux:4.0".parse()?;
    /// assert!(pattern.matches(&concrete));
    /// assert!(!concrete.matches(&pattern));
    /// # Ok(())
    /// # }
    /// ```
    pub fn matches(&self, other: &Cpe) -> bool {
        fn component_matches(pattern: &Option<String>, value: &Option<String>) -> bool {
            match pattern {
                None => true,
                Some(p) => value.as_deref() == Some(p.as_str()),
            }
        }
        self.part == other.part
            && self.vendor == other.vendor
            && self.product == other.product
            && component_matches(&self.version, &other.version)
            && component_matches(&self.update, &other.update)
            && component_matches(&self.edition, &other.edition)
            && component_matches(&self.language, &other.language)
    }
}

/// Lower-cases a component and decodes `%XX` escapes (best-effort; invalid
/// escapes are kept verbatim).
fn normalize_component(raw: &str) -> String {
    let lower = raw.to_ascii_lowercase();
    if !lower.contains('%') {
        return lower;
    }
    let bytes = lower.as_bytes();
    let mut out = String::with_capacity(lower.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            let hex = &lower[i + 1..i + 3];
            if let Ok(v) = u8::from_str_radix(hex, 16) {
                out.push(v as char);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
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
        // Trailing empty components are omitted, as NVD does.
        let tail = [&self.version, &self.update, &self.edition, &self.language];
        let last_present = tail.iter().rposition(|c| c.is_some());
        if let Some(last) = last_present {
            for component in &tail[..=last] {
                match component {
                    Some(value) => write!(f, ":{}", encode_component(value))?,
                    None => write!(f, ":")?,
                }
            }
        }
        Ok(())
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
        let part_code = parts.next().ok_or_else(|| err("missing part"))?;
        if part_code.len() != 1 {
            return Err(err("part must be a single character (h, o or a)"));
        }
        let part = CpePart::from_code(part_code.chars().next().unwrap())
            .ok_or_else(|| err("part must be one of h, o, a"))?;
        let vendor = parts.next().ok_or_else(|| err("missing vendor"))?;
        if vendor.is_empty() {
            return Err(err("vendor must not be empty"));
        }
        let product = parts.next().ok_or_else(|| err("missing product"))?;
        if product.is_empty() {
            return Err(err("product must not be empty"));
        }
        let optional = |value: Option<&str>| -> Option<String> {
            value.filter(|v| !v.is_empty()).map(normalize_component)
        };
        let version = optional(parts.next());
        let update = optional(parts.next());
        let edition = optional(parts.next());
        let language = optional(parts.next());
        if parts.next().is_some() {
            return Err(err("too many components (CPE 2.2 has at most seven)"));
        }
        Ok(Cpe {
            part,
            vendor: normalize_component(vendor),
            product: normalize_component(product),
            version,
            update,
            edition,
            language,
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
        let cpe: Cpe = "cpe:/o:microsoft:windows_2000::sp4:server:en"
            .parse()
            .unwrap();
        assert_eq!(cpe.version(), None);
        assert_eq!(cpe.update(), Some("sp4"));
        assert_eq!(cpe.edition(), Some("server"));
        assert_eq!(cpe.language(), Some("en"));
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
        assert!("cpe:/o".parse::<Cpe>().is_err());
        assert!("cpe:/o:x".parse::<Cpe>().is_err());
        assert!("cpe:/o::y".parse::<Cpe>().is_err());
        assert!("cpe:/o:v:p:1:2:3:4:5".parse::<Cpe>().is_err());
    }

    #[test]
    fn display_omits_trailing_empty_components() {
        let cpe: Cpe = "cpe:/o:redhat:enterprise_linux:5.0".parse().unwrap();
        assert_eq!(cpe.to_string(), "cpe:/o:redhat:enterprise_linux:5.0");
        let cpe: Cpe = "cpe:/o:microsoft:windows_2000::sp4".parse().unwrap();
        assert_eq!(cpe.to_string(), "cpe:/o:microsoft:windows_2000::sp4");
    }

    #[test]
    fn normalization_lowercases_and_decodes() {
        let cpe: Cpe = "cpe:/o:Microsoft:Windows_2000".parse().unwrap();
        assert_eq!(cpe.vendor(), "microsoft");
        let cpe: Cpe = "cpe:/o:sun:solaris:9.0%20x86".parse().unwrap();
        assert_eq!(cpe.version(), Some("9.0 x86"));
    }

    #[test]
    fn pattern_matching() {
        let pattern: Cpe = "cpe:/o:debian:debian_linux".parse().unwrap();
        let v40: Cpe = "cpe:/o:debian:debian_linux:4.0".parse().unwrap();
        let other: Cpe = "cpe:/o:canonical:ubuntu_linux:8.04".parse().unwrap();
        assert!(pattern.matches(&v40));
        assert!(pattern.matches(&pattern));
        assert!(!pattern.matches(&other));
        assert!(!v40.matches(&pattern));
    }

    #[test]
    fn builder_style_constructors() {
        let cpe = Cpe::new(CpePart::OperatingSystem, "NetBSD", "NetBSD").with_version("3.0.1");
        assert_eq!(cpe.to_string(), "cpe:/o:netbsd:netbsd:3.0.1");
    }

    fn component_strategy() -> impl Strategy<Value = String> {
        "[a-z0-9_.]{1,12}"
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
        fn matches_is_reflexive(vendor in component_strategy(), product in component_strategy()) {
            let cpe = Cpe::new(CpePart::OperatingSystem, vendor, product);
            prop_assert!(cpe.matches(&cpe));
        }
    }
}
