//! A lint for the Prometheus text exposition `osdiv serve` writes at
//! `GET /metrics`, shared by the smoke client's `loadgen` and `chaos`
//! legs and the kill-and-restart test (`tests/serve_restart.rs`).
//!
//! [`lint_exposition`] checks the format: every line is a HELP/TYPE
//! comment or a parseable sample, every histogram's `le` boundaries
//! ascend with cumulative counts, the final bucket is `+Inf` and equals
//! `_count`, and every bucket family exposes a `_sum`. It also checks
//! what the families promise about each other, on a scrape taken while
//! nothing else runs:
//!
//! * `osdiv_snapshot_loads` equals `osdiv_snapshot_load_duration_seconds_count`
//!   (0 while that histogram is absent), and the same for
//!   `osdiv_snapshot_writes` and `osdiv_snapshot_write_duration_seconds`;
//! * `osdiv_workers_busy` ≤ `osdiv_workers_total`;
//! * `osdiv_body_cache_bytes` ≤ `osdiv_body_cache_byte_budget`;
//! * the four `osdiv_datasets_*` state gauges sum to `osdiv_datasets_total`.

use std::collections::HashMap;

/// Splits a `key="value",...` label body into pairs, honouring `\"`
/// escapes inside values.
fn parse_labels(labels: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = labels;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].to_string();
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label value is unquoted: {rest:?}"));
        }
        let mut close = None;
        let mut escaped = false;
        for (pos, c) in after.char_indices().skip(1) {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                close = Some(pos);
                break;
            }
        }
        let close = close.ok_or_else(|| format!("unterminated label value: {rest:?}"))?;
        pairs.push((key, after[1..close].to_string()));
        rest = &after[close + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
    Ok(pairs)
}

/// A stable key for one histogram series: family name plus its sorted
/// labels (the `le` pair already removed for bucket samples).
fn series_key(family: &str, pairs: &[(String, String)]) -> String {
    let mut rendered: Vec<String> = pairs
        .iter()
        .map(|(key, val)| format!("{key}={val}"))
        .collect();
    rendered.sort();
    format!("{family}{{{}}}", rendered.join(","))
}

/// Lints an exposition (see the module docs). Returns the number of
/// distinct histogram series, or a `FAILED: ...` diagnostic.
pub fn lint_exposition(exposition: &str) -> Result<usize, String> {
    let mut buckets: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();
    let mut sums: HashMap<String, f64> = HashMap::new();
    for (number, line) in exposition.lines().enumerate() {
        let fail = |what: &str| format!("FAILED: /metrics line {} {what}: {line:?}", number + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            if !(comment.starts_with("HELP ") || comment.starts_with("TYPE ")) {
                return Err(fail("is neither HELP nor TYPE"));
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| fail("has no sample value"))?;
        let value: f64 = value.parse().map_err(|_| fail("value does not parse"))?;
        if !value.is_finite() || value < 0.0 {
            return Err(fail("sample is negative or non-finite"));
        }
        let (name, labels) = match series.split_once('{') {
            Some((name, tail)) => {
                let labels = tail
                    .strip_suffix('}')
                    .ok_or_else(|| fail("has unbalanced braces"))?;
                (name, labels)
            }
            None => (series, ""),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(fail("metric name is malformed"));
        }
        let pairs = parse_labels(labels).map_err(|error| fail(&error))?;
        if let Some(family) = name.strip_suffix("_bucket") {
            let mut le = None;
            let mut others = Vec::new();
            for (key, val) in pairs {
                if key == "le" {
                    le = Some(if val == "+Inf" {
                        f64::INFINITY
                    } else {
                        val.parse().map_err(|_| fail("le does not parse"))?
                    });
                } else {
                    others.push((key, val));
                }
            }
            let le = le.ok_or_else(|| fail("bucket has no le label"))?;
            buckets
                .entry(series_key(family, &others))
                .or_default()
                .push((le, value));
        } else if let Some(family) = name.strip_suffix("_count") {
            counts.insert(series_key(family, &pairs), value);
        } else if let Some(family) = name.strip_suffix("_sum") {
            sums.insert(series_key(family, &pairs), value);
        }
    }
    if buckets.is_empty() {
        return Err("FAILED: /metrics exposes no histogram series".to_string());
    }
    for (series, entries) in &buckets {
        for pair in entries.windows(2) {
            if pair[0].0 >= pair[1].0 {
                return Err(format!("FAILED: {series} le boundaries do not ascend"));
            }
            if pair[0].1 > pair[1].1 {
                return Err(format!("FAILED: {series} bucket counts are not cumulative"));
            }
        }
        let last = entries.last().expect("bucket series is non-empty");
        if !last.0.is_infinite() {
            return Err(format!("FAILED: {series} does not end with a +Inf bucket"));
        }
        let count = counts
            .get(series)
            .copied()
            .ok_or_else(|| format!("FAILED: {series} has buckets but no _count"))?;
        if last.1 != count {
            return Err(format!(
                "FAILED: {series} +Inf bucket {} disagrees with _count {count}",
                last.1
            ));
        }
        if !sums.contains_key(series) {
            return Err(format!("FAILED: {series} has buckets but no _sum"));
        }
    }
    check_invariants(exposition)?;
    Ok(buckets.len())
}

/// The cross-family rules of the module docs. A rule whose families are
/// all absent (the persistence families without `--data-dir`) holds.
fn check_invariants(exposition: &str) -> Result<(), String> {
    let value = |name: &str| scrape_value(exposition, name);
    for (counter, histogram) in [
        (
            "osdiv_snapshot_loads",
            "osdiv_snapshot_load_duration_seconds",
        ),
        (
            "osdiv_snapshot_writes",
            "osdiv_snapshot_write_duration_seconds",
        ),
    ] {
        let (total, count) = (value(counter), value(&format!("{histogram}_count")));
        if total.map_or(count.is_some(), |total| total != count.unwrap_or(0.0)) {
            return Err(format!(
                "FAILED: {counter} {total:?} disagrees with {histogram}_count {count:?}"
            ));
        }
    }
    for (gauge, limit) in [
        ("osdiv_workers_busy", "osdiv_workers_total"),
        ("osdiv_body_cache_bytes", "osdiv_body_cache_byte_budget"),
    ] {
        if let (Some(level), Some(bound)) = (value(gauge), value(limit)) {
            if level > bound {
                return Err(format!("FAILED: {gauge} {level} exceeds {limit} {bound}"));
            }
        }
    }
    if let Some(total) = value("osdiv_datasets_total") {
        let states: Option<f64> = ["resident", "spilled", "lazy", "evicted"]
            .iter()
            .map(|state| value(&format!("osdiv_datasets_{state}")))
            .sum();
        if states != Some(total) {
            return Err(format!(
                "FAILED: the dataset states sum to {states:?}, not osdiv_datasets_total {total}"
            ));
        }
    }
    Ok(())
}

/// The value of a label-free sample in an exposition body.
pub fn scrape_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let tail = line.strip_prefix(name)?;
        tail.strip_prefix(' ')?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A consistent exposition holding every family a rule reads.
    const CLEAN: &str = "\
# TYPE osdiv_workers_total gauge
osdiv_workers_total 2
# TYPE osdiv_workers_busy gauge
osdiv_workers_busy 1
osdiv_body_cache_bytes 300
osdiv_body_cache_byte_budget 1000
osdiv_datasets_total 3
osdiv_datasets_resident 1
osdiv_datasets_spilled 1
osdiv_datasets_lazy 1
osdiv_datasets_evicted 0
osdiv_snapshot_writes 1
osdiv_snapshot_loads 2
# TYPE osdiv_snapshot_write_duration_seconds histogram
osdiv_snapshot_write_duration_seconds_bucket{le=\"0.01\"} 1
osdiv_snapshot_write_duration_seconds_bucket{le=\"+Inf\"} 1
osdiv_snapshot_write_duration_seconds_sum 0.002
osdiv_snapshot_write_duration_seconds_count 1
# TYPE osdiv_snapshot_load_duration_seconds histogram
osdiv_snapshot_load_duration_seconds_bucket{le=\"0.01\"} 2
osdiv_snapshot_load_duration_seconds_bucket{le=\"+Inf\"} 2
osdiv_snapshot_load_duration_seconds_sum 0.004
osdiv_snapshot_load_duration_seconds_count 2
";

    /// Requires the lint to reject [`CLEAN`] with `family` set from `from`
    /// to `to`, naming `family`.
    fn rejects(family: &str, from: &str, to: &str) {
        let (line, changed) = (format!("{family} {from}\n"), format!("{family} {to}\n"));
        assert!(CLEAN.contains(&line), "{line:?} is not in the exposition");
        let error = lint_exposition(&CLEAN.replace(&line, &changed)).expect_err(&changed);
        assert!(error.contains(family), "{error}");
    }

    /// [`CLEAN`] without the lines of one family.
    fn without(family: &str) -> String {
        CLEAN
            .lines()
            .filter(|line| !line.contains(family))
            .map(|line| format!("{line}\n"))
            .collect()
    }

    #[test]
    fn a_consistent_exposition_lints_clean() {
        assert_eq!(lint_exposition(CLEAN), Ok(2));
    }

    #[test]
    fn snapshot_loads_must_equal_the_load_histogram_count() {
        rejects("osdiv_snapshot_loads", "2", "3");
        // With the histogram absent, the counter must read 0.
        let absent = without("osdiv_snapshot_load_duration_seconds");
        assert!(lint_exposition(&absent).is_err());
        let zero = absent.replace("osdiv_snapshot_loads 2", "osdiv_snapshot_loads 0");
        assert_eq!(lint_exposition(&zero), Ok(1));
    }

    #[test]
    fn snapshot_writes_must_equal_the_write_histogram_count() {
        rejects("osdiv_snapshot_writes", "1", "0");
        assert!(lint_exposition(&without("osdiv_snapshot_write_duration_seconds")).is_err());
    }

    #[test]
    fn busy_workers_may_not_exceed_the_pool() {
        rejects("osdiv_workers_busy", "1", "3");
    }

    #[test]
    fn the_body_cache_may_not_exceed_its_byte_budget() {
        rejects("osdiv_body_cache_bytes", "300", "1001");
    }

    #[test]
    fn the_dataset_states_must_sum_to_the_total() {
        rejects("osdiv_datasets_total", "3", "4");
    }
}
