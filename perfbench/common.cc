#include <fcntl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "corpus/month.h"
#include "math/rng.h"
#include "obs/metrics.h"

namespace hlm::perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double ProcessCpuSeconds() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is kB
}

namespace {

const double kPageMb =
    static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);

/// Resident pages from /proc/self/statm (second field), read through an
/// already-open descriptor.
long long ResidentPages(int fd) {
  char buffer[128];
  ssize_t n = ::pread(fd, buffer, sizeof(buffer) - 1, 0);
  if (n <= 0) return 0;
  buffer[n] = '\0';
  long long size = 0;
  long long resident = 0;
  if (std::sscanf(buffer, "%lld %lld", &size, &resident) != 2) return 0;
  return resident;
}

double ThreadCpuSeconds() {
  struct timespec ts;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double CurrentRssMb() {
  int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0.0;
  double mb = static_cast<double>(ResidentPages(fd)) * kPageMb;
  ::close(fd);
  return mb;
}

double ProcStatusField(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = field + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// ---------------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) sampler_ = std::thread([this] { SampleLoop(); });
}

Tracer::~Tracer() {
  stop_.store(true);
  if (sampler_.joinable()) sampler_.join();
}

double Tracer::Offset(Clock::time_point t) const {
  return std::chrono::duration<double>(t - origin_).count();
}

void Tracer::SampleLoop() {
  int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  while (!stop_.load()) {
    long long pages = ResidentPages(fd);
    long long seen = window_peak_pages_.load();
    while (pages > seen &&
           !window_peak_pages_.compare_exchange_weak(seen, pages)) {
    }
    sampler_cpu_s_.store(ThreadCpuSeconds());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::close(fd);
}

int Tracer::Open(const std::string& name) {
  if (!enabled_) return -1;
  Clock::time_point entered = Clock::now();
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = stack_.empty() ? -1 : stack_.back();
  open_cpu_.push_back(ProcessCpuSeconds());
  window_peak_pages_.store(0);
  stack_.push_back(span.id);
  spans_.push_back(std::move(span));
  spans_.back().start_s = Offset(Clock::now());
  bookkeeping_s_ += SecondsSince(entered);
  return spans_.back().id;
}

void Tracer::Close(int id) {
  if (!enabled_) return;
  Span& span = spans_[id];
  span.end_s = Offset(Clock::now());
  Clock::time_point entered = Clock::now();
  span.cpu_s = ProcessCpuSeconds() - open_cpu_.back();
  open_cpu_.pop_back();
  stack_.pop_back();
  double sampled_mb =
      static_cast<double>(window_peak_pages_.load()) * kPageMb;
  span.peak_rss_mb = std::max(sampled_mb, CurrentRssMb());
  bookkeeping_s_ += SecondsSince(entered);
}

void Tracer::AddSpan(const std::string& name, double start_s, double end_s,
                     int parent) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
}

void Tracer::EmitSpanMetrics(int threads,
                             std::map<std::string, double>* out) const {
  struct Samples {
    std::vector<double> self_s, util, rss_mb;
  };
  std::map<std::string, Samples> by_name;
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_s[span.parent] += span.duration();
  }
  for (const Span& span : spans_) {
    Samples& samples = by_name[span.name];
    samples.self_s.push_back(span.duration() - child_s[span.id]);
    if (span.duration() > 0.0) {
      samples.util.push_back(span.cpu_s / (span.duration() * threads));
    }
    samples.rss_mb.push_back(span.peak_rss_mb);
  }
  for (const auto& [name, samples] : by_name) {
    (*out)[name + "_s"] = Median(samples.self_s);
    (*out)[name + "_cpu_util"] = Median(samples.util);
    (*out)[name + "_rss_mb"] = Median(samples.rss_mb);
  }
}

double Tracer::OverheadSeconds() const {
  return bookkeeping_s_ + sampler_cpu_s_.load();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buffer[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                  "\"parent\":%d,\"cpu_s\":%.6f,\"rss_mb\":%.1f}}",
                  i == 0 ? "" : ",", span.name.c_str(), span.start_s * 1e6,
                  span.duration() * 1e6, span.id, span.parent, span.cpu_s,
                  span.peak_rss_mb);
    out << buffer;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void FinishTrace(const Tracer& tracer, const Options& options,
                 std::map<std::string, double>* metrics) {
  (*metrics)["trace.overhead_share"] =
      tracer.OverheadSeconds() / tracer.Offset(Clock::now());
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  if (!tracer.WriteChromeJson(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

// ---------------------------------------------------------------------------

long long CountTokens(const std::vector<models::TokenSequence>& sequences) {
  long long tokens = 0;
  for (const models::TokenSequence& sequence : sequences) {
    tokens += static_cast<long long>(sequence.size());
  }
  return tokens;
}

double BuildWorld(uint64_t seed, Tracer* tracer, World* world) {
  *world = World();  // release the previous corpus before building the next
  double seconds = tracer->Time("corpus.generate", [&] {
    corpus::GeneratorConfig config;
    config.num_companies = kCompanies;
    config.seed = seed;
    world->generated.emplace(corpus::SyntheticHgGenerator(config).Generate());
  });
  seconds += tracer->Time("corpus.sequences", [&] {
    const corpus::Corpus& all = world->generated->corpus;
    Rng split_rng(seed ^ 0x5eedULL);
    corpus::SplitIndices split = all.Split(0.7, 0.1, &split_rng);
    const corpus::Month cutoff = corpus::MakeMonth(2013, 1);
    const corpus::Corpus train = all.Subset(split.train);
    for (const corpus::CompanyRecord& record : train.records()) {
      models::TokenSequence sequence =
          record.install_base.Before(cutoff).Sequence();
      if (!sequence.empty()) world->train_pre2013.push_back(std::move(sequence));
    }
    world->valid = all.Subset(split.valid).Sequences();
    world->test = all.Subset(split.test).Sequences();
    for (models::TokenSequence& sequence : all.Sequences()) {
      if (!sequence.empty()) world->histories.push_back(std::move(sequence));
    }
  });
  return seconds;
}

long long CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

std::string GoldenLine(const std::string& path, uint64_t seed) {
  std::ifstream in(path);
  const std::string prefix = std::to_string(seed) + " ";
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) return line;
  }
  return "";
}

Result<serve::ModelRegistry> LoadRegistry(const std::string& manifest) {
  HLM_ASSIGN_OR_RETURN(serve::ModelRegistry registry,
                       serve::ModelRegistry::FromManifest(manifest));
  HLM_RETURN_IF_ERROR(registry.Lda("lda").status());
  HLM_RETURN_IF_ERROR(registry.Representation("lda-repr").status());
  return registry;
}

bool RepublishFile(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return static_cast<bool>(out);
}

}  // namespace hlm::perfbench
