#include "obs/trace.h"

#include <chrono>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "obs/events.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"

namespace hlm::obs {

namespace {

// One open frame on this thread's context stack. A frame is either a
// real TraceSpan or an adopted TraceContext; either way it supplies the
// parent id, the child depth, the deterministic path, and the ordinal
// counter the next fork consumes.
struct Frame {
  int64_t id = 0;
  uint64_t path = 0;
  int child_depth = 0;
  uint64_t next_child = 0;
};

thread_local std::vector<Frame> t_frames;
// Ordinal counter for spans/regions opened with no frame on the stack.
thread_local uint64_t t_root_ordinal = 0;

// Path-hash construction. Distinct salts keep span forks, region forks,
// and item forks in disjoint id spaces even when their ordinals collide.
constexpr uint64_t kRootPath = 0x243f6a8885a308d3ull;  // pi, arbitrary
constexpr uint64_t kSpanSalt = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kRegionSalt = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kItemSalt = 0x165667b19e3779f9ull;

uint64_t MixPath(uint64_t parent, uint64_t salt, uint64_t value) {
  // FNV-1a over the value bytes, seeded with the parent path and salt.
  uint64_t h = parent ^ (salt + 0x100000001b3ull * (parent >> 32));
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffull;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashName(const std::string& name) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Positive span id derived from (path, name); never 0 (0 means "root").
int64_t SpanIdFromPath(uint64_t path, const std::string& name) {
  uint64_t h = MixPath(path, kSpanSalt, HashName(name));
  h &= 0x7fffffffffffffffull;
  return h == 0 ? 1 : static_cast<int64_t>(h);
}

}  // namespace

double NowMicros() {
  static const std::chrono::steady_clock::time_point process_start =
      std::chrono::steady_clock::now();
  std::chrono::duration<double, std::micro> elapsed =
      std::chrono::steady_clock::now() - process_start;
  return elapsed.count();
}

uint64_t CurrentThreadId() {
  // Identity read for the trace "tid" field, no thread is spawned.
  return static_cast<uint64_t>(
      // hlm-lint: allow(no-raw-thread)
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

void SetCurrentThreadName(const std::string& name) {
  TraceRecorder::Global().SetThreadName(CurrentThreadId(), name);
}

TraceContext TraceContext::Current() {
  TraceContext ctx;
  if (!TraceRecorder::Global().enabled()) return ctx;
  ctx.active = true;
  if (t_frames.empty()) {
    ctx.path = kRootPath;
  } else {
    const Frame& frame = t_frames.back();
    ctx.span_id = frame.id;
    ctx.path = frame.path;
    ctx.depth = frame.child_depth;
  }
  return ctx;
}

TraceContext TraceContext::ForkRegion() {
  TraceContext ctx;
  if (!TraceRecorder::Global().enabled()) return ctx;
  ctx.active = true;
  if (t_frames.empty()) {
    ctx.path = MixPath(kRootPath, kRegionSalt, t_root_ordinal++);
  } else {
    Frame& frame = t_frames.back();
    ctx.span_id = frame.id;
    ctx.depth = frame.child_depth;
    ctx.path = MixPath(frame.path, kRegionSalt, frame.next_child++);
  }
  return ctx;
}

TraceContext TraceContext::ForkItem(uint64_t ordinal) const {
  TraceContext ctx;
  if (!active) return ctx;
  ctx.active = true;
  ctx.span_id = span_id;
  ctx.depth = depth;
  ctx.path = MixPath(path, kItemSalt, ordinal);
  return ctx;
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx)
    : pushed_(ctx.active) {
  if (pushed_) {
    t_frames.push_back(Frame{ctx.span_id, ctx.path, ctx.depth, 0});
  }
}

ScopedTraceContext::~ScopedTraceContext() {
  if (pushed_ && !t_frames.empty()) t_frames.pop_back();
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Record(TraceEvent event) {
  Event close;
  close.ts_us = event.start_us;
  close.level = EventLevel::kSpan;
  close.name = event.name;
  close.thread_id = event.thread_id;
  close.span_id = event.span_id;
  close.attrs = {{"duration_us", event.duration_us},
                 {"parent_id", event.parent_id},
                 {"depth", event.depth}};
  FlightRecorder::Global().Record(std::move(close));
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TraceRecorder::Clear() {
  t_root_ordinal = 0;
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  open_spans_.clear();
}

std::vector<OpenSpanInfo> TraceRecorder::OpenSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<OpenSpanInfo> spans;
  spans.reserve(open_spans_.size());
  for (const auto& [id, span] : open_spans_) spans.push_back(span);
  return spans;
}

std::map<uint64_t, std::string> TraceRecorder::ThreadNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return thread_names_;
}

void TraceRecorder::SetThreadName(uint64_t thread_id,
                                  const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[thread_id] = name;
}

void TraceRecorder::RecordOpen(const OpenSpanInfo& span) {
  std::lock_guard<std::mutex> lock(mu_);
  open_spans_[span.span_id] = span;
}

void TraceRecorder::RecordClose(int64_t span_id) {
  std::lock_guard<std::mutex> lock(mu_);
  open_spans_.erase(span_id);
}

void TraceRecorder::SetRunId(const std::string& run_id) {
  std::lock_guard<std::mutex> lock(mu_);
  run_id_ = run_id;
}

std::string TraceRecorder::run_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return run_id_;
}

std::string TraceRecorder::ToChromeJson() const {
  std::vector<TraceEvent> events = Events();
  std::map<uint64_t, std::string> names = ThreadNames();
  const std::string id = run_id();
  std::ostringstream out;
  out.precision(15);
  // Without a run id, stay with the historical bare-array format; with
  // one, use the object form so the id is carried inside the file.
  const char* indent = id.empty() ? "  " : "    ";
  if (!id.empty()) {
    out << "{\n  \"otherData\": {\"run_id\": " << JsonQuote(id)
        << "},\n  \"traceEvents\": [\n";
  } else {
    out << "[\n";
  }
  // Thread-name metadata first, so viewers label lanes before any event
  // references the tid. std::map keeps the emission order deterministic.
  size_t emitted = 0;
  const size_t total = names.size() + events.size();
  for (const auto& [tid, name] : names) {
    out << indent << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
        << "\"tid\": " << (tid % 1000000)
        << ", \"args\": {\"name\": " << JsonQuote(name) << "}}"
        << (++emitted < total ? "," : "") << "\n";
  }
  for (const TraceEvent& e : events) {
    out << indent << "{\"name\": " << JsonQuote(e.name) << ", \"cat\": "
        << JsonQuote(e.category) << ", \"ph\": \"X\", \"ts\": " << e.start_us
        << ", \"dur\": " << e.duration_us << ", \"pid\": 1, \"tid\": "
        << (e.thread_id % 1000000)
        << ", \"args\": {\"span_id\": " << e.span_id
        << ", \"parent_id\": " << e.parent_id << ", \"depth\": " << e.depth
        << "}}" << (++emitted < total ? "," : "") << "\n";
  }
  out << (id.empty() ? "]\n" : "  ]\n}\n");
  return out.str();
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  // Diagnostic export, not a snapshot: nothing reloads this file, so a
  // torn write costs one trace, not a serving model.
  // hlm-lint: allow(no-raw-persist-write)
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open for write: " + path);
  out << ToChromeJson();
  if (!out) return Status::DataLoss("short write: " + path);
  return Status::OK();
}

TraceSpan::TraceSpan(std::string name, Histogram* histogram,
                     std::string category)
    : name_(std::move(name)),
      category_(std::move(category)),
      histogram_(histogram),
      recording_(TraceRecorder::Global().enabled()) {
  if (recording_) {
    uint64_t parent_path = kRootPath;
    uint64_t ordinal = 0;
    if (t_frames.empty()) {
      ordinal = t_root_ordinal++;
    } else {
      Frame& frame = t_frames.back();
      parent_id_ = frame.id;
      depth_ = frame.child_depth;
      parent_path = frame.path;
      ordinal = frame.next_child++;
    }
    path_ = MixPath(parent_path, kSpanSalt, ordinal);
    span_id_ = SpanIdFromPath(path_, name_);
    t_frames.push_back(Frame{span_id_, path_, depth_ + 1, 0});
  }
  if (recording_ || histogram_ != nullptr) start_us_ = NowMicros();
  if (recording_) {
    OpenSpanInfo open;
    open.span_id = span_id_;
    open.parent_id = parent_id_;
    open.name = name_;
    open.start_us = start_us_;
    open.thread_id = CurrentThreadId();
    open.depth = depth_;
    TraceRecorder::Global().RecordOpen(open);
  }
}

TraceSpan::~TraceSpan() {
  if (!recording_ && histogram_ == nullptr) return;
  double end_us = NowMicros();
  if (histogram_ != nullptr) {
    histogram_->Observe((end_us - start_us_) * 1e-6);
  }
  if (recording_) {
    if (!t_frames.empty() && t_frames.back().id == span_id_) {
      t_frames.pop_back();
    }
    TraceRecorder::Global().RecordClose(span_id_);
    TraceEvent event;
    event.name = name_;
    event.category = category_;
    event.start_us = start_us_;
    event.duration_us = end_us - start_us_;
    event.thread_id = CurrentThreadId();
    event.span_id = span_id_;
    event.parent_id = parent_id_;
    event.depth = depth_;
    TraceRecorder::Global().Record(std::move(event));
  }
}

int TraceSpan::CurrentDepth() {
  return t_frames.empty() ? 0 : t_frames.back().child_depth;
}

}  // namespace hlm::obs
