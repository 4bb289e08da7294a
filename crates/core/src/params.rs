//! Key/value configuration parsing: the bridge between untyped parameter
//! lists (HTTP query strings, CLI flags) and the typed [`Analysis::Config`]
//! values.
//!
//! Every analysis configuration implements [`FromParams`]: it names the
//! keys it accepts ([`FromParams::KEYS`]) and builds itself from a
//! [`Params`] list, filling unset keys from its `Default`. Unknown keys and
//! unparseable values are hard errors ([`AnalysisError::UnknownParam`] /
//! [`AnalysisError::InvalidParam`]) so a typo in a query string can never
//! silently fall back to the default configuration.
//!
//! [`Analysis::Config`]: crate::analysis::Analysis::Config
//!
//! # Example
//!
//! ```
//! use osdiv_core::{FromParams, Params, TemporalConfig};
//!
//! let params = Params::from_pairs([("first_year", "2000"), ("last_year", "2005")]);
//! let config = TemporalConfig::from_params(&params).unwrap();
//! assert_eq!((config.first_year, config.last_year), (2000, 2005));
//!
//! // Unknown keys are rejected, not ignored.
//! let typo = Params::from_pairs([("first_yaer", "2000")]);
//! assert!(TemporalConfig::from_params(&typo).is_err());
//! ```

use std::fmt::Display;
use std::str::FromStr;

use nvd_model::OsDistribution;

use crate::analysis::AnalysisError;
use crate::kway::KWayConfig;
use crate::pairwise::PairwiseConfig;
use crate::releases::ReleaseConfig;
use crate::selection::SelectionConfig;
use crate::split::SplitConfig;
use crate::temporal::TemporalConfig;

/// An ordered key/value parameter list (e.g. a parsed HTTP query string).
///
/// Lookups return the **last** value of a repeated key, matching the common
/// query-string convention. [`Params::canonical`] produces a stable,
/// sorted `key=value&…` form usable as a cache key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Params {
    pairs: Vec<(String, String)>,
}

impl Params {
    /// An empty parameter list (selects every default configuration).
    pub fn new() -> Self {
        Params::default()
    }

    /// Builds a list from `(key, value)` pairs, preserving order.
    pub fn from_pairs<K, V>(pairs: impl IntoIterator<Item = (K, V)>) -> Self
    where
        K: Into<String>,
        V: Into<String>,
    {
        Params {
            pairs: pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        }
    }

    /// Appends one pair.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.pairs.push((key.into(), value.into()));
    }

    /// Whether the list holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of pairs (repeated keys count every occurrence).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// The pairs in insertion order.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// The last value of a key, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Removes every occurrence of a key, returning the last (effective)
    /// value. Used by callers that peel routing-level keys (`format`,
    /// `dataset`) off a query string before handing the rest to an
    /// analysis configuration.
    pub fn take(&mut self, key: &str) -> Option<String> {
        let mut taken = None;
        self.pairs.retain(|(k, v)| {
            if k == key {
                taken = Some(v.clone());
                false
            } else {
                true
            }
        });
        taken
    }

    /// A stable `key=value&…` form of the **effective** configuration: the
    /// last value of every key (matching [`Params::get`]), sorted by key.
    /// Keys and values escape `%`, `&` and `=` as `%25`, `%26` and `%3D`,
    /// so a value holding a separator cannot spell another list's form.
    /// Two lists selecting the same configuration canonicalize
    /// identically — and two selecting different ones never do — so the
    /// result is usable as a cache key.
    pub fn canonical(&self) -> String {
        let mut effective: Vec<(&str, &str)> = Vec::new();
        for (key, value) in &self.pairs {
            match effective.iter_mut().find(|(k, _)| *k == key) {
                Some(slot) => slot.1 = value,
                None => effective.push((key, value)),
            }
        }
        effective.sort();
        let mut canonical = String::new();
        for (i, (key, value)) in effective.into_iter().enumerate() {
            if i > 0 {
                canonical.push('&');
            }
            escape_into(&mut canonical, key);
            canonical.push('=');
            escape_into(&mut canonical, value);
        }
        canonical
    }

    /// Rejects any key outside `keys` with [`AnalysisError::UnknownParam`].
    pub fn check_known(&self, keys: &'static [&'static str]) -> Result<(), AnalysisError> {
        for (key, _) in &self.pairs {
            if !keys.contains(&key.as_str()) {
                return Err(AnalysisError::UnknownParam {
                    name: key.clone(),
                    expected: keys,
                });
            }
        }
        Ok(())
    }

    /// Parses the value of `key` (when present) with its `FromStr`.
    pub fn parse<T>(&self, key: &str) -> Result<Option<T>, AnalysisError>
    where
        T: FromStr,
        T::Err: Display,
    {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|e: T::Err| AnalysisError::InvalidParam {
                    name: key.to_string(),
                    value: raw.to_string(),
                    reason: e.to_string(),
                }),
        }
    }

    /// Parses a comma-separated list value (when present). An empty value,
    /// empty list items and an item listed twice are invalid.
    pub fn parse_list<T>(&self, key: &str) -> Result<Option<Vec<T>>, AnalysisError>
    where
        T: FromStr + PartialEq,
        T::Err: Display,
    {
        let Some(raw) = self.get(key) else {
            return Ok(None);
        };
        let invalid = |reason: String| AnalysisError::InvalidParam {
            name: key.to_string(),
            value: raw.to_string(),
            reason,
        };
        let mut items = Vec::new();
        for piece in raw.split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                return Err(invalid("empty list item".to_string()));
            }
            let item = piece.parse().map_err(|e: T::Err| invalid(e.to_string()))?;
            if items.contains(&item) {
                return Err(invalid(format!("{piece} is listed more than once")));
            }
            items.push(item);
        }
        Ok(Some(items))
    }
}

/// Appends `text` with the separators of [`Params::canonical`] escaped.
fn escape_into(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '%' => out.push_str("%25"),
            '&' => out.push_str("%26"),
            '=' => out.push_str("%3D"),
            c => out.push(c),
        }
    }
}

/// Builds a typed configuration from an untyped parameter list.
///
/// Implementations fill unset keys from the configuration's `Default` (the
/// paper's setup) and reject unknown keys, so `from_params(&Params::new())`
/// always equals `Default::default()`.
pub trait FromParams: Sized {
    /// The keys this configuration accepts.
    const KEYS: &'static [&'static str];

    /// Parses the configuration, defaulting unset keys.
    fn from_params(params: &Params) -> Result<Self, AnalysisError>;
}

impl FromParams for () {
    const KEYS: &'static [&'static str] = &[];

    fn from_params(params: &Params) -> Result<Self, AnalysisError> {
        params.check_known(Self::KEYS)
    }
}

impl FromParams for TemporalConfig {
    const KEYS: &'static [&'static str] = &["first_year", "last_year"];

    fn from_params(params: &Params) -> Result<Self, AnalysisError> {
        params.check_known(Self::KEYS)?;
        let defaults = TemporalConfig::default();
        Ok(TemporalConfig {
            first_year: params.parse("first_year")?.unwrap_or(defaults.first_year),
            last_year: params.parse("last_year")?.unwrap_or(defaults.last_year),
        })
    }
}

impl FromParams for PairwiseConfig {
    const KEYS: &'static [&'static str] = &["oses"];

    fn from_params(params: &Params) -> Result<Self, AnalysisError> {
        params.check_known(Self::KEYS)?;
        let defaults = PairwiseConfig::default();
        Ok(PairwiseConfig {
            oses: params.parse_list("oses")?.unwrap_or(defaults.oses),
        })
    }
}

impl FromParams for SplitConfig {
    const KEYS: &'static [&'static str] = &["oses", "profile"];

    fn from_params(params: &Params) -> Result<Self, AnalysisError> {
        params.check_known(Self::KEYS)?;
        let defaults = SplitConfig::default();
        Ok(SplitConfig {
            oses: params.parse_list("oses")?.unwrap_or(defaults.oses),
            profile: params.parse("profile")?.unwrap_or(defaults.profile),
        })
    }
}

impl FromParams for ReleaseConfig {
    const KEYS: &'static [&'static str] = &["oses", "profile"];

    /// `oses` selects distributions whose **studied releases** are paired
    /// up (e.g. `oses=debian,redhat`); distributions without per-release
    /// data contribute no rows.
    fn from_params(params: &Params) -> Result<Self, AnalysisError> {
        params.check_known(Self::KEYS)?;
        let defaults = ReleaseConfig::default();
        let releases = match params.parse_list::<OsDistribution>("oses")? {
            None => defaults.releases,
            Some(distributions) => distributions
                .iter()
                .flat_map(|os| os.releases().iter().copied())
                .collect(),
        };
        Ok(ReleaseConfig {
            releases,
            profile: params.parse("profile")?.unwrap_or(defaults.profile),
        })
    }
}

/// The largest accepted `max_k` / `group_size` / `top`. The paper studies
/// 11 OSes, so anything past the OS count only appends empty rows — and
/// these parameters reach the analysis straight from unauthenticated HTTP
/// query strings, where an unbounded loop count would be a one-request
/// denial of service.
const MAX_GROUP_PARAM: usize = 32;

fn bounded(params: &Params, key: &str, default: usize) -> Result<usize, AnalysisError> {
    let value = params.parse(key)?.unwrap_or(default);
    if value > MAX_GROUP_PARAM {
        return Err(AnalysisError::InvalidParam {
            name: key.to_string(),
            value: value.to_string(),
            reason: format!("must be at most {MAX_GROUP_PARAM}"),
        });
    }
    Ok(value)
}

impl FromParams for KWayConfig {
    const KEYS: &'static [&'static str] = &["profile", "max_k"];

    fn from_params(params: &Params) -> Result<Self, AnalysisError> {
        params.check_known(Self::KEYS)?;
        let defaults = KWayConfig::default();
        Ok(KWayConfig {
            profile: params.parse("profile")?.unwrap_or(defaults.profile),
            max_k: bounded(params, "max_k", defaults.max_k)?,
        })
    }
}

impl FromParams for SelectionConfig {
    const KEYS: &'static [&'static str] = &["profile", "criterion", "oses", "group_size", "top"];

    fn from_params(params: &Params) -> Result<Self, AnalysisError> {
        params.check_known(Self::KEYS)?;
        let defaults = SelectionConfig::default();
        Ok(SelectionConfig {
            profile: params.parse("profile")?.unwrap_or(defaults.profile),
            criterion: params.parse("criterion")?.unwrap_or(defaults.criterion),
            candidates: params.parse_list("oses")?.unwrap_or(defaults.candidates),
            group_size: bounded(params, "group_size", defaults.group_size)?,
            top: bounded(params, "top", defaults.top)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::ServerProfile;
    use crate::selection::SelectionCriterion;

    #[test]
    fn empty_params_reproduce_every_default() {
        let empty = Params::new();
        assert_eq!(
            TemporalConfig::from_params(&empty).unwrap(),
            TemporalConfig::default()
        );
        assert_eq!(
            PairwiseConfig::from_params(&empty).unwrap(),
            PairwiseConfig::default()
        );
        assert_eq!(
            SplitConfig::from_params(&empty).unwrap(),
            SplitConfig::default()
        );
        assert_eq!(
            ReleaseConfig::from_params(&empty).unwrap(),
            ReleaseConfig::default()
        );
        assert_eq!(
            KWayConfig::from_params(&empty).unwrap(),
            KWayConfig::default()
        );
        assert_eq!(
            SelectionConfig::from_params(&empty).unwrap(),
            SelectionConfig::default()
        );
        <() as FromParams>::from_params(&empty).unwrap();
    }

    #[test]
    fn unknown_keys_are_rejected_with_the_accepted_set() {
        let params = Params::from_pairs([("first_yaer", "2000")]);
        let err = TemporalConfig::from_params(&params).unwrap_err();
        assert_eq!(
            err,
            AnalysisError::UnknownParam {
                name: "first_yaer".to_string(),
                expected: TemporalConfig::KEYS,
            }
        );
        assert!(err.to_string().contains("first_year"));
        // The unit config rejects everything.
        let any = Params::from_pairs([("profile", "fat")]);
        assert!(<() as FromParams>::from_params(&any).is_err());
    }

    #[test]
    fn invalid_values_name_the_offending_key() {
        let params = Params::from_pairs([("first_year", "twothousand")]);
        match TemporalConfig::from_params(&params).unwrap_err() {
            AnalysisError::InvalidParam { name, value, .. } => {
                assert_eq!(name, "first_year");
                assert_eq!(value, "twothousand");
            }
            other => panic!("unexpected error {other:?}"),
        }
        let params = Params::from_pairs([("oses", "debian,,redhat")]);
        assert!(PairwiseConfig::from_params(&params).is_err());
        let params = Params::from_pairs([("oses", "debian,atari")]);
        assert!(PairwiseConfig::from_params(&params).is_err());
        // A repeated OS is rejected, not paired with itself.
        for oses in ["debian,debian", "debian,redhat,Debian"] {
            let params = Params::from_pairs([("oses", oses)]);
            for err in [
                PairwiseConfig::from_params(&params).unwrap_err(),
                SplitConfig::from_params(&params).unwrap_err(),
                ReleaseConfig::from_params(&params).unwrap_err(),
                SelectionConfig::from_params(&params).unwrap_err(),
            ] {
                match err {
                    AnalysisError::InvalidParam { name, value, .. } => {
                        assert_eq!(name, "oses");
                        assert_eq!(value, oses);
                    }
                    other => panic!("unexpected error {other:?}"),
                }
            }
        }
    }

    #[test]
    fn typed_values_parse_through_their_fromstr() {
        let params = Params::from_pairs([("oses", "debian, redhat ,openbsd"), ("profile", "fat")]);
        let config = SplitConfig::from_params(&params).unwrap();
        assert_eq!(
            config.oses,
            vec![
                OsDistribution::Debian,
                OsDistribution::RedHat,
                OsDistribution::OpenBsd
            ]
        );
        assert_eq!(config.profile, ServerProfile::FatServer);

        let params = Params::from_pairs([("max_k", "4"), ("profile", "isolated")]);
        let config = KWayConfig::from_params(&params).unwrap();
        assert_eq!(config.max_k, 4);
        assert_eq!(config.profile, ServerProfile::IsolatedThinServer);

        let params = Params::from_pairs([("criterion", "pairwise-sum"), ("top", "3")]);
        let config = SelectionConfig::from_params(&params).unwrap();
        assert_eq!(config.criterion, SelectionCriterion::PairwiseSum);
        assert_eq!(config.top, 3);

        let params = Params::from_pairs([("oses", "debian")]);
        let config = ReleaseConfig::from_params(&params).unwrap();
        assert!(!config.releases.is_empty());
        assert!(config
            .releases
            .iter()
            .all(|r| r.distribution() == OsDistribution::Debian));
    }

    #[test]
    fn repeated_keys_take_the_last_value_and_canonicalize_stably() {
        let mut params = Params::new();
        params.insert("last_year", "2008");
        params.insert("first_year", "2000");
        params.insert("last_year", "2005");
        assert_eq!(params.get("last_year"), Some("2005"));
        assert_eq!(params.len(), 3);
        // The canonical form is the *effective* configuration, so it must
        // only keep the winning (last) value of a repeated key — anything
        // else would collide different configurations in response caches.
        assert_eq!(params.canonical(), "first_year=2000&last_year=2005");
        let mut flipped = Params::new();
        flipped.insert("last_year", "2005");
        flipped.insert("first_year", "2000");
        flipped.insert("last_year", "2008");
        assert_eq!(flipped.get("last_year"), Some("2008"));
        assert_ne!(flipped.canonical(), params.canonical());
        assert_eq!(Params::new().canonical(), "");
        // A value holding the separators stays one escaped value.
        let spelled = Params::from_pairs([("first_year", "2000&last_year=2005%")]);
        assert_eq!(spelled.canonical(), "first_year=2000%26last_year%3D2005%25");
    }

    #[test]
    fn take_removes_every_occurrence_and_returns_the_effective_value() {
        let mut params = Params::from_pairs([
            ("format", "csv"),
            ("max_k", "4"),
            ("format", "json"),
            ("dataset", "alt"),
        ]);
        assert_eq!(params.take("format").as_deref(), Some("json"));
        assert_eq!(params.get("format"), None);
        assert_eq!(params.take("dataset").as_deref(), Some("alt"));
        assert_eq!(params.take("missing"), None);
        assert_eq!(params.canonical(), "max_k=4");
    }

    #[test]
    fn oversized_group_parameters_are_rejected() {
        let params = Params::from_pairs([("max_k", "18446744073709551615")]);
        assert!(KWayConfig::from_params(&params).is_err());
        let params = Params::from_pairs([("max_k", "4096")]);
        assert!(KWayConfig::from_params(&params).is_err());
        let params = Params::from_pairs([("group_size", "4096")]);
        assert!(SelectionConfig::from_params(&params).is_err());
        let params = Params::from_pairs([("top", "4096")]);
        assert!(SelectionConfig::from_params(&params).is_err());
        let params = Params::from_pairs([("max_k", "11")]);
        assert_eq!(KWayConfig::from_params(&params).unwrap().max_k, 11);
    }
}
