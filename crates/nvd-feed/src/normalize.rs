//! Product-name normalization.
//!
//! Section III of the paper reports that NVD registers the same product
//! under distinct names for different entries — for example both
//! `("debian_linux", "debian")` and `("linux", "debian")` appear for Debian —
//! and that the authors corrected these problems by hand once the data was
//! in their SQL database. [`NameNormalizer`] reproduces that cleaning step
//! with an explicit, extensible alias table. Entries that appear in more
//! than one yearly feed (NVD re-publishes modified entries) are merged by
//! CVE identifier when the store ingests them
//! (`vulnstore::VulnStore::insert_entry`).

use std::collections::HashMap;

/// Rewrites `(vendor, product)` pairs into their canonical spelling.
///
/// # Example
///
/// ```
/// use nvd_feed::NameNormalizer;
///
/// let normalizer = NameNormalizer::default();
/// let (vendor, product) = normalizer.normalize("debian", "linux");
/// assert_eq!((vendor.as_str(), product.as_str()), ("debian", "debian_linux"));
/// ```
#[derive(Debug, Clone)]
pub struct NameNormalizer {
    /// Maps `(vendor, product)` (lower-cased) to the canonical pair.
    aliases: HashMap<(String, String), (String, String)>,
}

impl NameNormalizer {
    /// Creates a normalizer with no aliases registered.
    pub fn empty() -> Self {
        NameNormalizer {
            aliases: HashMap::new(),
        }
    }

    /// Creates a normalizer pre-loaded with the alias corrections the study
    /// needed for its 64 CPEs (the "by hand" corrections of Section III).
    pub fn new() -> Self {
        let mut normalizer = NameNormalizer::empty();
        // Debian appears both as (debian, debian_linux) and (debian, linux).
        normalizer.add_alias("debian", "linux", "debian", "debian_linux");
        normalizer.add_alias("linux", "debian", "debian", "debian_linux");
        // Red Hat Linux and Red Hat Enterprise Linux are merged (footnote 3).
        normalizer.add_alias("redhat", "linux", "redhat", "enterprise_linux");
        normalizer.add_alias("redhat", "redhat_linux", "redhat", "enterprise_linux");
        normalizer.add_alias(
            "redhat",
            "enterprise_linux_server",
            "redhat",
            "enterprise_linux",
        );
        normalizer.add_alias(
            "redhat",
            "enterprise_linux_desktop",
            "redhat",
            "enterprise_linux",
        );
        // Ubuntu appears under both the "ubuntu" and "canonical" vendors.
        normalizer.add_alias("ubuntu", "ubuntu_linux", "canonical", "ubuntu_linux");
        normalizer.add_alias("ubuntu", "linux", "canonical", "ubuntu_linux");
        // Solaris is spelled both solaris and sunos depending on the era.
        normalizer.add_alias("sun", "sunos", "sun", "solaris");
        normalizer.add_alias("oracle", "solaris", "sun", "solaris");
        normalizer.add_alias("oracle", "opensolaris", "sun", "opensolaris");
        // Windows server products appear with and without the _server suffix.
        normalizer.add_alias(
            "microsoft",
            "windows_2003",
            "microsoft",
            "windows_2003_server",
        );
        normalizer.add_alias(
            "microsoft",
            "windows_server_2003",
            "microsoft",
            "windows_2003_server",
        );
        normalizer.add_alias(
            "microsoft",
            "windows_2008",
            "microsoft",
            "windows_server_2008",
        );
        normalizer
    }

    /// Registers an alias: `(vendor, product)` will be rewritten to
    /// `(canonical_vendor, canonical_product)`.
    pub fn add_alias(
        &mut self,
        vendor: &str,
        product: &str,
        canonical_vendor: &str,
        canonical_product: &str,
    ) {
        self.aliases.insert(
            (vendor.to_ascii_lowercase(), product.to_ascii_lowercase()),
            (
                canonical_vendor.to_ascii_lowercase(),
                canonical_product.to_ascii_lowercase(),
            ),
        );
    }

    /// Number of aliases registered.
    pub fn len(&self) -> usize {
        self.aliases.len()
    }

    /// Whether no aliases are registered.
    pub fn is_empty(&self) -> bool {
        self.aliases.is_empty()
    }

    /// Normalizes a `(vendor, product)` pair. Unknown pairs are returned
    /// lower-cased but otherwise unchanged.
    pub fn normalize(&self, vendor: &str, product: &str) -> (String, String) {
        let key = (vendor.to_ascii_lowercase(), product.to_ascii_lowercase());
        match self.aliases.get(&key) {
            Some((v, p)) => (v.clone(), p.clone()),
            None => key,
        }
    }
}

impl Default for NameNormalizer {
    fn default() -> Self {
        NameNormalizer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_normalizer_handles_paper_aliases() {
        let n = NameNormalizer::default();
        assert!(!n.is_empty());
        assert_eq!(
            n.normalize("debian", "linux"),
            ("debian".to_string(), "debian_linux".to_string())
        );
        assert_eq!(
            n.normalize("LINUX", "DEBIAN"),
            ("debian".to_string(), "debian_linux".to_string())
        );
        assert_eq!(
            n.normalize("microsoft", "windows_server_2003"),
            ("microsoft".to_string(), "windows_2003_server".to_string())
        );
        // Unknown pairs pass through (lower-cased).
        assert_eq!(
            n.normalize("Apple", "Mac_OS_X"),
            ("apple".to_string(), "mac_os_x".to_string())
        );
    }

    #[test]
    fn custom_aliases_can_be_added() {
        let mut n = NameNormalizer::empty();
        assert!(n.is_empty());
        n.add_alias("suse", "linux", "novell", "suse_linux");
        assert_eq!(n.len(), 1);
        assert_eq!(
            n.normalize("suse", "linux"),
            ("novell".to_string(), "suse_linux".to_string())
        );
    }
}
