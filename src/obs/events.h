#ifndef HLM_OBS_EVENTS_H_
#define HLM_OBS_EVENTS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace hlm::obs {

/// Severity of one wide event. Ordered so the min-level gate is a
/// single integer compare. kSpan is not a severity: it marks a span
/// close the trace path records into the flight recorder, which never
/// passes through the EventLog gate.
enum class EventLevel { kDebug, kInfo, kWarning, kError, kSpan };

const char* EventLevelName(EventLevel level);

/// One attribute value: a small tagged union so call sites can write
/// `{{"sweep", 3}, {"loglik", -1.5}, {"model", "lda"}}` without
/// allocating a JSON tree. Serialized as a bare JSON token.
class EventValue {
 public:
  EventValue(bool value) : kind_(Kind::kBool), bool_(value) {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  EventValue(T value)
      : kind_(Kind::kInt), int_(static_cast<long long>(value)) {}
  EventValue(double value) : kind_(Kind::kDouble), double_(value) {}
  EventValue(const char* value) : kind_(Kind::kString), string_(value) {}
  EventValue(std::string value)
      : kind_(Kind::kString), string_(std::move(value)) {}

  /// Bare JSON token: true/false, number, or quoted string. Non-finite
  /// doubles render as null (JSON has no inf/nan).
  std::string ToJson() const;

 private:
  enum class Kind { kBool, kInt, kDouble, kString };
  Kind kind_;
  bool bool_ = false;
  long long int_ = 0;
  double double_ = 0.0;
  std::string string_;
};

/// One structured wide event: a name plus a flat bag of key/value
/// attributes, stamped with time, thread, and the current trace span
/// (0 when tracing is off), so logs join against traces offline. The
/// one record type of the observability path: EventLog buffers it, the
/// flight recorder rings it, and a closed span is one too (level kSpan,
/// attrs duration_us / parent_id / depth).
struct Event {
  uint64_t seq = 0;  ///< flight-recorder admission order; 0 outside it
  double ts_us = 0.0;
  EventLevel level = EventLevel::kInfo;
  std::string name;
  uint64_t thread_id = 0;
  int64_t span_id = 0;
  std::vector<std::pair<std::string, EventValue>> attrs;

  /// One JSONL line (no trailing newline), the single serialized form
  /// of an event — events files, crash dumps and the statusz tail:
  ///   {["seq": ..., ]"ts_us": ..., "level": "info", "name": "...",
  ///    "tid": ..., "span_id": ..., "attrs": {...}}
  /// "seq" appears only when nonzero.
  std::string ToJsonLine() const;

  /// Inverse of ToJsonLine. Missing keys keep their defaults and an
  /// unknown level reads as info; attrs come back in key order (JSON
  /// objects are unordered), and a null or nested attr value reads as a
  /// non-finite double, which serializes as null again. DataLoss when
  /// the line is not a JSON object.
  static Result<Event> FromJsonLine(const std::string& line);
};

/// Process-wide structured event log. Enabled at kInfo by default —
/// events are rare (per sweep / per load / per error, never per token)
/// and the buffer is bounded, so always-on costs little and means the
/// flight recorder has context when a crash happens with no flags set.
///
/// Cardinality is bounded twice: at most kMaxNames distinct event names
/// (later names collapse to "obs.events.overflow") and at most
/// kMaxBuffered buffered events (beyond that, new events are counted in
/// dropped() and discarded — the flight recorder still sees them).
class EventLog {
 public:
  static constexpr size_t kMaxNames = 512;
  static constexpr size_t kMaxBuffered = 65536;
  static constexpr size_t kMaxAttrs = 16;

  EventLog() = default;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  static EventLog& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void SetMinLevel(EventLevel level) {
    min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  EventLevel min_level() const {
    return static_cast<EventLevel>(
        min_level_.load(std::memory_order_relaxed));
  }

  /// Keep one event in `n` per event name (1 or 0 keeps all). Applies
  /// per name so a chatty event cannot starve rare ones.
  void SetSampleEvery(uint32_t n) {
    sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }

  /// The cheap gate HLM_EVENT checks before building any attribute.
  bool ShouldEmit(EventLevel level) const {
    return enabled() &&
           static_cast<int>(level) >=
               min_level_.load(std::memory_order_relaxed);
  }

  /// Records one event (use the HLM_EVENT macros instead of calling
  /// this directly, so attribute construction is gated). Attrs beyond
  /// kMaxAttrs are truncated.
  void Emit(EventLevel level, std::string name,
            std::initializer_list<std::pair<const char*, EventValue>> attrs =
                {});

  /// Copy of the buffered events, oldest first.
  std::vector<Event> Events() const;
  /// Events discarded because the buffer was full.
  long long dropped() const;

  /// Writes every buffered event as one JSONL line per event.
  Status WriteJsonl(const std::string& path) const;

  /// Drops buffered events, per-name sampling state, and the dropped
  /// counter (test isolation).
  void Clear();

 private:
  std::atomic<bool> enabled_{true};
  std::atomic<int> min_level_{static_cast<int>(EventLevel::kInfo)};
  std::atomic<uint32_t> sample_every_{1};

  mutable std::mutex mu_;
  std::deque<Event> buffer_;
  std::map<std::string, uint64_t> name_counts_;
  long long dropped_ = 0;
};

}  // namespace hlm::obs

/// Emits a structured wide event at an explicit level:
///   HLM_EVENT_AT(::hlm::obs::EventLevel::kError, "serve.load.failed",
///                {{"name", name}, {"code", code_str}});
/// The gate runs before the attribute list is evaluated, so disabled
/// levels cost one atomic load and no allocation.
#define HLM_EVENT_AT(level, name, ...)                                       \
  do {                                                                       \
    ::hlm::obs::EventLog& hlm_event_log_ref = ::hlm::obs::EventLog::Global(); \
    if (hlm_event_log_ref.ShouldEmit(level)) {                               \
      hlm_event_log_ref.Emit((level), (name)__VA_OPT__(, ) __VA_ARGS__);     \
    }                                                                        \
  } while (false)

/// Info-level convenience form:
///   HLM_EVENT("lda.sweep.done", {{"sweep", s}, {"loglik", ll}});
#define HLM_EVENT(name, ...)                       \
  HLM_EVENT_AT(::hlm::obs::EventLevel::kInfo,      \
               (name)__VA_OPT__(, ) __VA_ARGS__)

#endif  // HLM_OBS_EVENTS_H_
