//! Product-name normalization.
//!
//! Section III of the paper reports that NVD registers the same product
//! under distinct names for different entries — for example both
//! `("debian_linux", "debian")` and `("linux", "debian")` appear for Debian —
//! and that the authors corrected these problems by hand once the data was
//! in their SQL database. [`normalize`] reproduces that cleaning step with
//! one alias table, [`ALIASES`]. Entries that appear in more than one
//! yearly feed (NVD re-publishes modified entries) are merged by CVE
//! identifier when the store ingests them
//! (`vulnstore::VulnStore::insert_entry`).

/// The alias corrections the study needed for its 64 CPEs (the "by hand"
/// corrections of Section III), one `(vendor, product, canonical vendor,
/// canonical product)` row each, all lower-case.
#[rustfmt::skip] // one alias per line
pub const ALIASES: &[(&str, &str, &str, &str)] = &[
    // Debian appears both as (debian, debian_linux) and (debian, linux).
    ("debian", "linux", "debian", "debian_linux"),
    ("linux", "debian", "debian", "debian_linux"),
    // Red Hat Linux and Red Hat Enterprise Linux are merged (footnote 3).
    ("redhat", "linux", "redhat", "enterprise_linux"),
    ("redhat", "redhat_linux", "redhat", "enterprise_linux"),
    ("redhat", "enterprise_linux_server", "redhat", "enterprise_linux"),
    ("redhat", "enterprise_linux_desktop", "redhat", "enterprise_linux"),
    // Ubuntu appears under both the "ubuntu" and "canonical" vendors.
    ("ubuntu", "ubuntu_linux", "canonical", "ubuntu_linux"),
    ("ubuntu", "linux", "canonical", "ubuntu_linux"),
    // Solaris is spelled both solaris and sunos depending on the era.
    ("sun", "sunos", "sun", "solaris"),
    ("oracle", "solaris", "sun", "solaris"),
    ("oracle", "opensolaris", "sun", "opensolaris"),
    // Windows server products appear with and without the _server suffix.
    ("microsoft", "windows_2003", "microsoft", "windows_2003_server"),
    ("microsoft", "windows_server_2003", "microsoft", "windows_2003_server"),
    ("microsoft", "windows_2008", "microsoft", "windows_server_2008"),
];

/// Rewrites a `(vendor, product)` pair into its canonical spelling. The
/// lookup ignores ASCII case; pairs without an alias are returned
/// lower-cased but otherwise unchanged.
///
/// # Example
///
/// ```
/// use nvd_feed::normalize::normalize;
///
/// let (vendor, product) = normalize("debian", "linux");
/// assert_eq!((vendor.as_str(), product.as_str()), ("debian", "debian_linux"));
/// ```
pub fn normalize(vendor: &str, product: &str) -> (String, String) {
    let vendor = vendor.to_ascii_lowercase();
    let product = product.to_ascii_lowercase();
    match ALIASES
        .iter()
        .find(|(v, p, _, _)| *v == vendor && *p == product)
    {
        Some((_, _, v, p)) => (v.to_string(), p.to_string()),
        None => (vendor, product),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_normalizer_handles_paper_aliases() {
        assert_eq!(ALIASES.len(), 14);
        assert_eq!(
            normalize("debian", "linux"),
            ("debian".to_string(), "debian_linux".to_string())
        );
        assert_eq!(
            normalize("LINUX", "DEBIAN"),
            ("debian".to_string(), "debian_linux".to_string())
        );
        assert_eq!(
            normalize("microsoft", "windows_server_2003"),
            ("microsoft".to_string(), "windows_2003_server".to_string())
        );
        // Unknown pairs pass through (lower-cased).
        assert_eq!(
            normalize("Apple", "Mac_OS_X"),
            ("apple".to_string(), "mac_os_x".to_string())
        );
        // Every spelling is lower-case, and each has one canonical pair.
        for (i, &(vendor, product, canonical_vendor, canonical_product)) in
            ALIASES.iter().enumerate()
        {
            for name in [vendor, product, canonical_vendor, canonical_product] {
                assert_eq!(name, name.to_ascii_lowercase());
            }
            assert!(
                ALIASES
                    .iter()
                    .skip(i + 1)
                    .all(|(v, p, _, _)| (*v, *p) != (vendor, product)),
                "({vendor}, {product}) is listed twice"
            );
        }
    }
}
