#ifndef HLM_OBS_EXPOSITION_H_
#define HLM_OBS_EXPOSITION_H_

#include <string>

#include "common/status.h"
#include "obs/metrics.h"

namespace hlm::obs {

/// Maps an internal dotted metric name (hlm.serve.http.topics.request_seconds)
/// onto the Prometheus exposition charset: every character outside
/// [a-zA-Z0-9_:] becomes '_', and a leading digit gains a '_' prefix.
/// Colons are reserved for recording rules, so dots map to underscores
/// too. An empty input sanitizes to "_".
std::string SanitizeMetricName(const std::string& name);

/// Renders a snapshot in Prometheus text exposition format 0.0.4:
///   - counters as `# TYPE <name> counter` + one sample,
///   - gauges as `# TYPE <name> gauge` + one sample,
///   - histograms as the `_bucket{le="..."}` cumulative series
///     (including `le="+Inf"` == `_count`) plus `_sum` and `_count`.
/// Every family carries a `# HELP` line naming the original dotted
/// metric (with exposition escaping), which keeps the mapping
/// greppable from the scrape side. Distinct internal names that
/// sanitize to the same exposition name are deduplicated with a
/// numeric suffix — the exposition format forbids duplicate series.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// Syntax + semantics validator for the text a /metricsz handler (or
/// any Prometheus exporter) produced. Enforces what scrapers actually
/// reject plus histogram-specific invariants:
///   - every sample's family has a preceding # TYPE, declared once,
///     with all samples contiguous under it;
///   - metric names match [a-zA-Z_:][a-zA-Z0-9_:]*;
///   - no duplicate series (same name + label set);
///   - sample values parse as numbers;
///   - histogram buckets have strictly increasing `le`, cumulative
///     non-decreasing counts, a `+Inf` bucket equal to `_count`, and
///     both `_sum` and `_count` present;
///   - the payload ends with a newline.
/// Returns the first violation as an InvalidArgument status with the
/// offending line number.
Status ValidateExposition(const std::string& text);

}  // namespace hlm::obs

#endif  // HLM_OBS_EXPOSITION_H_
