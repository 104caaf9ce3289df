#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace hlm::obs {

namespace {

std::mutex g_dump_dir_mu;
std::string g_dump_dir = ".";  // guarded by g_dump_dir_mu

void DumpOnFatal() {
  const std::string path = CrashDumpPath();
  Status status = FlightRecorder::Global().DumpToFile(path);
  // The process is already inside a fatal log; report with bare stderr
  // instead of re-entering the logger.
  if (status.ok()) {
    std::fprintf(stderr, "[FATAL] flight recorder dumped to %s\n",
                 path.c_str());
  } else {
    std::fprintf(stderr, "[FATAL] flight recorder dump failed: %s\n",
                 status.ToString().c_str());
  }
}

}  // namespace

FlightRecorder::FlightRecorder() {
  for (Stripe& stripe : stripes_) stripe.ring.reserve(kPerStripe);
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Record(Event event) {
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[event.thread_id % kStripes];
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.ring.size() < kPerStripe) {
    stripe.ring.push_back(std::move(event));
  } else {
    stripe.ring[stripe.next] = std::move(event);
    stripe.next = (stripe.next + 1) % kPerStripe;
  }
}

std::vector<Event> FlightRecorder::Tail(size_t max_entries) const {
  std::vector<Event> merged;
  merged.reserve(kStripes * kPerStripe);
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    merged.insert(merged.end(), stripe.ring.begin(), stripe.ring.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  if (merged.size() > max_entries) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<ptrdiff_t>(max_entries));
  }
  return merged;
}

std::string FlightRecorder::ToJson(size_t max_entries) const {
  std::vector<Event> entries = Tail(max_entries);
  std::ostringstream out;
  out << "{\n  \"run_id\": " << JsonQuote(TraceRecorder::Global().run_id())
      << ",\n  \"dumped_at_us\": " << EventValue(NowMicros()).ToJson()
      << ",\n  \"entries\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    out << "    " << entries[i].ToJsonLine()
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

Status FlightRecorder::DumpToFile(const std::string& path,
                                  size_t max_entries) const {
  // Crash-path diagnostic, not a snapshot: written once on the way to
  // abort(), never reloaded as state.
  // hlm-lint: allow(no-raw-persist-write)
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open for write: " + path);
  out << ToJson(max_entries);
  out.flush();
  if (!out) return Status::DataLoss("short write: " + path);
  return Status::OK();
}

void FlightRecorder::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.ring.clear();
    stripe.next = 0;
  }
}

void SetCrashDumpDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_dump_dir_mu);
  g_dump_dir = dir.empty() ? "." : dir;
}

std::string CrashDumpPath() {
  std::string run_id = TraceRecorder::Global().run_id();
  if (run_id.empty()) run_id = "unknown";
  std::lock_guard<std::mutex> lock(g_dump_dir_mu);
  return g_dump_dir + "/hlm-crash-" + run_id + ".json";
}

void InstallCrashHandler() { SetFatalHook(&DumpOnFatal); }

}  // namespace hlm::obs
