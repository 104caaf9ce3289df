#ifndef HLM_OBS_STATUSZ_H_
#define HLM_OBS_STATUSZ_H_

#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace hlm::obs {

/// How much of each section a Statusz render includes.
struct StatuszOptions {
  size_t flight_tail = 32;  ///< newest flight-recorder entries shown
  size_t max_open_spans = 64;
  double window_s = 60.0;  ///< lookback for the windowed section
};

/// One self-describing snapshot of a running process: metrics (with
/// percentiles for every _seconds histogram), resource-profile meta,
/// registry generations, currently open spans, and the flight-recorder
/// tail. This is the payload the future hlm_serve daemon will mount as
/// /statusz; until then benches dump it and tools/hlm_statusz renders
/// the same sections from dump files.
std::string StatuszText(const StatuszOptions& options = {});
std::string StatuszJson(const StatuszOptions& options = {});

/// Section renderers over pre-loaded parts, shared by the live path
/// above and tools/hlm_statusz (which reads the parts from dump files,
/// has no live open-span table or time-series ring, and passes {} for
/// both). The flight tail renders one Event::ToJsonLine per entry.
std::string RenderStatuszText(const MetricsSnapshot& metrics,
                              const std::vector<OpenSpanInfo>& open_spans,
                              const std::vector<Event>& flight_tail,
                              const WindowSummary& window);
std::string RenderStatuszJson(const MetricsSnapshot& metrics,
                              const std::vector<OpenSpanInfo>& open_spans,
                              const std::vector<Event>& flight_tail,
                              const WindowSummary& window);

}  // namespace hlm::obs

#endif  // HLM_OBS_STATUSZ_H_
