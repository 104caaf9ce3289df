#ifndef HLM_OBS_FLIGHT_RECORDER_H_
#define HLM_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/events.h"

namespace hlm::obs {

/// Fixed-size, lock-striped ring buffer of the last ~N events and span
/// closes, both stored as obs::Event (a span close has level kSpan).
/// Always on: writes touch one stripe mutex and never allocate beyond
/// the event's own strings, so it is cheap enough to leave armed for
/// the whole run. HLM_CHECK failures and fatal logs dump it to
/// hlm-crash-<run_id>.json (see InstallCrashHandler), turning an
/// invariant failure into a postmortem with the run's last moves.
class FlightRecorder {
 public:
  static constexpr size_t kStripes = 8;      ///< keyed by thread id
  static constexpr size_t kPerStripe = 256;  ///< ring capacity per stripe

  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  static FlightRecorder& Global();

  /// Admits one record, stamping its `seq` with the global admission
  /// order; the stripe is picked by thread id.
  void Record(Event event);

  /// The newest `max_entries` records across all stripes, oldest first
  /// (merged by admission order).
  std::vector<Event> Tail(size_t max_entries) const;

  /// {"run_id": ..., "dumped_at_us": ..., "entries": [...]} over the
  /// newest max_entries, one Event::ToJsonLine object per entry.
  std::string ToJson(size_t max_entries = kStripes * kPerStripe) const;

  Status DumpToFile(const std::string& path,
                    size_t max_entries = kStripes * kPerStripe) const;

  void Clear();

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::vector<Event> ring;  ///< capacity kPerStripe once warm
    size_t next = 0;          ///< overwrite cursor
  };

  std::atomic<uint64_t> next_seq_{1};
  Stripe stripes_[kStripes];
};

/// Directory crash dumps are written to; default "." (the working
/// directory of the failing process).
void SetCrashDumpDir(const std::string& dir);

/// "<dump_dir>/hlm-crash-<run_id>.json", using the TraceRecorder run id
/// ("unknown" when none was set).
std::string CrashDumpPath();

/// Installs a fatal-log hook (common/logging SetFatalHook) that dumps
/// the flight recorder to CrashDumpPath() before the process aborts.
/// Idempotent. HLM_CHECK failures route through HLM_LOG(Fatal), so one
/// call covers both.
void InstallCrashHandler();

}  // namespace hlm::obs

#endif  // HLM_OBS_FLIGHT_RECORDER_H_
