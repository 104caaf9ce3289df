#include "obs/events.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlm::obs {

namespace {

// Names past the kMaxNames cardinality cap collapse to this bucket so a
// name built from unbounded input (ids, paths) cannot grow the name set
// without bound.
const char kOverflowName[] = "obs.events.overflow";

EventValue ValueFromJson(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kBool:
      return value.AsBool();
    case JsonValue::Kind::kString:
      return value.AsString();
    case JsonValue::Kind::kNumber:
      if (std::optional<long long> integer = value.AsInteger()) {
        return *integer;
      }
      return value.AsNumber();
    default:
      return std::numeric_limits<double>::quiet_NaN();
  }
}

}  // namespace

const char* EventLevelName(EventLevel level) {
  switch (level) {
    case EventLevel::kDebug:
      return "debug";
    case EventLevel::kInfo:
      return "info";
    case EventLevel::kWarning:
      return "warn";
    case EventLevel::kError:
      return "error";
    case EventLevel::kSpan:
      return "span";
  }
  return "?";
}

std::string EventValue::ToJson() const {
  switch (kind_) {
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kDouble: {
      if (!std::isfinite(double_)) return "null";
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", double_);
      return buffer;
    }
    case Kind::kString:
      return JsonQuote(string_);
  }
  return "null";
}

std::string Event::ToJsonLine() const {
  std::ostringstream out;
  out << "{";
  if (seq != 0) out << "\"seq\": " << seq << ", ";
  out << "\"ts_us\": " << EventValue(ts_us).ToJson()
      << ", \"level\": \"" << EventLevelName(level)
      << "\", \"name\": " << JsonQuote(name)
      << ", \"tid\": " << (thread_id % 1000000)
      << ", \"span_id\": " << span_id << ", \"attrs\": {";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonQuote(attrs[i].first) << ": " << attrs[i].second.ToJson();
  }
  out << "}}";
  return out.str();
}

Result<Event> Event::FromJsonLine(const std::string& line) {
  Result<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok()) return Status::DataLoss(parsed.status().message());
  if (!parsed->is_object()) {
    return Status::DataLoss("event line is not a JSON object");
  }
  const JsonValue& doc = parsed.value();
  auto integer = [&doc](const char* key) {
    const JsonValue* value = doc.Find(key);
    return value == nullptr ? 0 : value->AsInteger().value_or(0);
  };
  Event event;
  event.seq = static_cast<uint64_t>(integer("seq"));
  event.thread_id = static_cast<uint64_t>(integer("tid"));
  event.span_id = integer("span_id");
  if (const JsonValue* ts = doc.Find("ts_us")) event.ts_us = ts->AsNumber();
  if (const JsonValue* name = doc.Find("name")) event.name = name->AsString();
  if (const JsonValue* level = doc.Find("level")) {
    for (EventLevel candidate :
         {EventLevel::kDebug, EventLevel::kWarning, EventLevel::kError,
          EventLevel::kSpan}) {
      if (level->AsString() == EventLevelName(candidate)) {
        event.level = candidate;
      }
    }
  }
  if (const JsonValue* attrs = doc.Find("attrs")) {
    for (const auto& [key, value] : attrs->object()) {
      event.attrs.emplace_back(key, ValueFromJson(value));
    }
  }
  return event;
}

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::Emit(
    EventLevel level, std::string name,
    std::initializer_list<std::pair<const char*, EventValue>> attrs) {
  if (!ShouldEmit(level)) return;

  Event event;
  event.ts_us = NowMicros();
  event.level = level;
  event.name = std::move(name);
  event.thread_id = CurrentThreadId();
  event.span_id = TraceContext::Current().span_id;
  event.attrs.reserve(std::min(attrs.size(), kMaxAttrs));
  for (const auto& [key, value] : attrs) {
    if (event.attrs.size() >= kMaxAttrs) break;
    event.attrs.emplace_back(key, value);
  }

  const uint32_t sample_every =
      sample_every_.load(std::memory_order_relaxed);
  bool keep = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = name_counts_.find(event.name);
    if (it == name_counts_.end()) {
      if (name_counts_.size() >= kMaxNames) {
        event.name = kOverflowName;
        it = name_counts_.find(event.name);
        if (it == name_counts_.end()) {
          it = name_counts_.emplace(event.name, 0).first;
        }
      } else {
        it = name_counts_.emplace(event.name, 0).first;
      }
    }
    const uint64_t seen = it->second++;
    keep = sample_every <= 1 || (seen % sample_every) == 0;
    if (keep) {
      if (buffer_.size() >= kMaxBuffered) {
        ++dropped_;
        keep = false;
      } else {
        buffer_.push_back(event);
      }
    }
  }

  static Counter* emitted_total =
      MetricsRegistry::Global().GetCounter("hlm.obs.events_total");
  emitted_total->Increment();
  if (!keep) {
    static Counter* dropped_total =
        MetricsRegistry::Global().GetCounter("hlm.obs.events_dropped_total");
    dropped_total->Increment();
  }

  // The flight recorder sees every gate-passing event, including ones
  // the bounded buffer or sampler discarded — its ring overwrites
  // oldest-first anyway, and crash dumps want the freshest context.
  FlightRecorder::Global().Record(std::move(event));
}

std::vector<Event> EventLog::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Event>(buffer_.begin(), buffer_.end());
}

long long EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

Status EventLog::WriteJsonl(const std::string& path) const {
  std::vector<Event> events = Events();
  // Diagnostic export, not a snapshot: nothing reloads this file as
  // state, so a torn write costs one log, not a serving model.
  // hlm-lint: allow(no-raw-persist-write)
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open for write: " + path);
  for (const Event& event : events) {
    out << event.ToJsonLine() << "\n";
  }
  if (!out) return Status::DataLoss("short write: " + path);
  return Status::OK();
}

void EventLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.clear();
  name_counts_.clear();
  dropped_ = 0;
}

}  // namespace hlm::obs
