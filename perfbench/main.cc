// hlm_perfbench: runs one workload of the repo benchmark and prints one
// JSON line with every value it measured. run.py builds this binary and
// keeps the metrics BENCHMARK.json lists; see README.md.
//
//   hlm_perfbench --workload batch_100k --seed 1 --seconds 10 --trace 0
//       --work_dir .bench_build/work --golden perfbench/golden_batch.tsv
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad flags.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/flags.h"
#include "common/logging.h"

namespace hlm::perfbench {
namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Main(int argc, char** argv) {
  Options options;
  long long seed = 1;
  long long trace = 0;
  FlagSet flags;
  flags.AddString("workload", &options.workload,
                  "batch_100k, serve_similar, serve_keepalive or "
                  "serve_churn_reload");
  flags.AddInt64("seed", &seed, "workload seed: every input derives from it");
  flags.AddDouble("seconds", &options.seconds,
                  "length of the measured window (serve) / query probe "
                  "scale (batch)");
  flags.AddInt64("trace", &trace, "1 records spans and per-layer metrics");
  flags.AddString("work_dir", &options.work_dir,
                  "directory for snapshots and the trace file");
  flags.AddString("golden", &options.golden_path,
                  "table of pipeline outputs recorded per seed");
  Status status = flags.Parse(argc, argv);
  const bool known = options.workload == "batch_100k" ||
                     options.workload == "serve_similar" ||
                     options.workload == "serve_keepalive" ||
                     options.workload == "serve_churn_reload";
  if (!status.ok() || !known || seed < 0 || options.seconds <= 0.0 ||
      options.work_dir.empty() || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "%s\n%s",
                 status.ok() ? "bad or missing flag value"
                             : status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  options.seed = static_cast<uint64_t>(seed);
  options.trace = trace == 1;
  SetLogLevel(LogLevel::kWarning);
  std::filesystem::create_directories(options.work_dir);

  RunResult result;
  if (options.workload == "batch_100k") {
    RunBatch(options, &result);
  } else {
    RunServe(options, &result);
  }

  if (result.attempted > 0) {
    result.metrics["failed_share"] = static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted);
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  std::string json = std::string("{\"correct\":") +
                     (result.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    json += (first ? "\"" : ",\"") + name + "\":" + JsonNumber(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace hlm::perfbench

int main(int argc, char** argv) { return hlm::perfbench::Main(argc, argv); }
