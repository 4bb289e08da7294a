//! The gated `GET /v1/debug/*` introspection surface.
//!
//! Two read-only views, each answering in one pass over a bounded
//! structure — never proportional to request history:
//!
//! * `/v1/debug/spans` — the flight-recorder ring as Chrome trace-event
//!   JSON ([`osdiv_core::RingSnapshot::to_chrome_trace`]), loadable in
//!   Perfetto / `chrome://tracing`. O(ring capacity).
//! * `/v1/debug/registry` — one JSON object per tenant: name, generation,
//!   lifecycle state, resident bytes, provenance. O(registered tenants).
//!
//! The routes are off by default (`--enable-debug`) and sit behind the
//! same bearer token as the mutating dataset routes: span labels carry
//! dataset names and analysis ids, which an operator may consider
//! sensitive. The rendering here is pure — gating and authorization live
//! in [`crate::Router`].

use osdiv_core::{FlightRecorder, JsonLine};
use osdiv_registry::{DatasetSource, StudyRegistry};

/// The flight-recorder ring as a Chrome trace-event JSON document.
///
/// One snapshot pass over the fixed-capacity ring: the response size and
/// the work done are both bounded by the ring capacity, regardless of how
/// many spans have ever been recorded.
pub fn spans_json() -> String {
    let mut body = FlightRecorder::global().snapshot().to_chrome_trace();
    body.push('\n');
    body
}

/// The tenant registry as JSON: per-tenant generation, lifecycle state,
/// resident bytes and provenance, plus the registry-level totals an
/// operator needs to judge headroom.
pub fn registry_json(registry: &StudyRegistry) -> String {
    let infos = registry.list();
    let mut tenants = String::from("[");
    for (index, info) in infos.iter().enumerate() {
        if index > 0 {
            tenants.push(',');
        }
        let mut tenant = JsonLine::new();
        tenant.str_field("name", &info.name);
        tenant.u64_field("generation", info.generation);
        tenant.str_field("state", info.state.as_str());
        tenant.u64_field("resident_bytes", info.resident_bytes as u64);
        tenant.bool_field("pinned", info.pinned);
        tenant.str_field("source", info.source.kind());
        match &info.source {
            DatasetSource::Synthetic { seed } => tenant.u64_field("seed", *seed),
            DatasetSource::Ingested {
                entries,
                skipped,
                feed_bytes,
            } => {
                tenant.u64_field("entries", *entries as u64);
                tenant.u64_field("skipped", *skipped as u64);
                tenant.u64_field("feed_bytes", *feed_bytes as u64);
            }
        }
        tenants.push_str(&tenant.finish());
    }
    tenants.push(']');

    let mut line = JsonLine::new();
    line.raw_field("tenants", &tenants);
    line.u64_field("total", infos.len() as u64);
    line.u64_field("resident_bytes", registry.resident_bytes() as u64);
    line.u64_field("byte_budget", registry.options().max_total_bytes as u64);
    line.u64_field("dataset_budget", registry.options().max_datasets as u64);
    let mut body = line.finish();
    body.push('\n');
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use osdiv_core::Study;
    use osdiv_registry::RegistryOptions;

    #[test]
    fn spans_json_is_a_chrome_trace_document() {
        let body = spans_json();
        assert!(body.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(body.contains("\"traceEvents\":["));
        assert!(body.ends_with("}\n"));
    }

    #[test]
    fn registry_json_reports_states_and_budgets() {
        let dataset = datagen::CalibratedGenerator::new(1).generate();
        let study = Arc::new(Study::from_entries(dataset.entries()));
        let registry = StudyRegistry::with_default(study, 1, RegistryOptions::default());
        registry.register_synthetic("alt", 5).unwrap();
        let body = registry_json(&registry);
        assert!(body.contains("\"name\":\"default\""), "{body}");
        assert!(body.contains("\"state\":\"resident\""), "{body}");
        assert!(body.contains("\"state\":\"lazy\""), "{body}");
        assert!(body.contains("\"generation\":"), "{body}");
        assert!(body.contains("\"total\":2"), "{body}");
        assert!(body.contains("\"byte_budget\":"), "{body}");
    }
}
