// hlm_bench: unified perf-observability bench runner and regression
// checker. Runs a fixed suite of bench phases (corpus generation, model
// training, recommendation threshold sweep, similarity search, registry
// round-trip) under the standard observability stack — ScopedPhase wall
// times, percentile exports, and the resource profiler — and writes one
// schema-versioned BENCH_<suite>.json per run (a MetricsSnapshot with a
// `schema`/`suite`/`run_id` meta header).
//
//   hlm_bench --suite smoke --out BENCH_smoke.json       # measure
//   hlm_bench --suite smoke --check                      # vs baseline
//   hlm_bench --suite smoke --update_baseline            # refresh it
//
// --check compares the fresh run against a committed baseline
// (bench/baselines/<suite>.json by default) and exits non-zero on
// regression. Deterministic values (counters, gauges, histogram counts)
// must match the baseline exactly — the determinism contract makes them
// machine-independent — while `walltime.<phase>_seconds` meta entries
// pass when `current <= baseline * tolerance + slack`, absorbing
// machine noise without letting real slowdowns through.
// `--inject_slowdown F` stretches every phase by sleeping (F-1)x its
// measured time, which is how scripts/tier1.sh self-tests that the
// checker actually fails on a 2x regression.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/distance.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/status.h"
#include "corpus/generator.h"
#include "corpus/month.h"
#include "math/rng.h"
#include "math/simd/kernels.h"
#include "models/chh.h"
#include "models/lda.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "recsys/evaluation.h"
#include "recsys/similarity_search.h"
#include "repr/representation.h"
#include "serve/http_client.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace hlm {
namespace {

namespace fs = std::filesystem;

constexpr char kSchema[] = "hlm-bench/1";

double g_slowdown = 1.0;  // --inject_slowdown factor (1 = off)

/// Bench phase marker with slowdown injection: wraps bench::ScopedPhase
/// and, when --inject_slowdown F > 1 is set, sleeps (F-1) x the phase's
/// measured wall time before the inner marker closes — so the injected
/// latency lands inside the phase's histogram, walltime meta, and
/// resource profile exactly like a real regression would.
class Phase {
 public:
  explicit Phase(const std::string& name)
      : inner_(name), start_(std::chrono::steady_clock::now()) {}

  ~Phase() {
    if (g_slowdown > 1.0) {
      std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start_;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          (g_slowdown - 1.0) * elapsed.count()));
    }
  }

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  // Destruction order: the injected sleep in ~Phase runs before inner_
  // closes, so the stretch is observed by the phase instruments.
  bench::ScopedPhase inner_;
  std::chrono::steady_clock::time_point start_;
};

struct SuiteEnv {
  corpus::GeneratedCorpus world;
  std::vector<models::TokenSequence> train_seqs_pre2013;
  std::vector<models::TokenSequence> test_seqs;
};

SuiteEnv BuildEnv(long long companies, long long seed) {
  Phase phase("make_env");
  corpus::GeneratorConfig config;
  config.num_companies = static_cast<int>(companies);
  config.seed = static_cast<uint64_t>(seed);
  SuiteEnv env{corpus::SyntheticHgGenerator(config).Generate(), {}, {}};
  Rng split_rng(7);
  corpus::SplitIndices split = env.world.corpus.Split(0.7, 0.1, &split_rng);
  corpus::Corpus train = env.world.corpus.Subset(split.train);
  env.train_seqs_pre2013 =
      bench::TruncatedSequences(train, corpus::MakeMonth(2013, 1));
  env.test_seqs = env.world.corpus.Subset(split.test).Sequences();
  return env;
}

/// The serve-path phase: persist the trained LDA model and its company
/// representation, round-trip them through a registry manifest, Verify
/// (checksum walk) and lazily load both — the startup path a serving
/// process takes, instrumented by hlm.serve.* metrics.
void RunServeRegistry(const models::LdaModel& lda,
                      const std::vector<std::vector<double>>& rows,
                      const std::string& run_id) {
  Phase phase("serve_registry");
  fs::path dir = fs::temp_directory_path() / ("hlm_bench_" + run_id);
  fs::create_directories(dir);
  HLM_CHECK_OK(lda.SaveToFile((dir / "lda.snap").string()));
  HLM_CHECK_OK(repr::SaveRepresentation(rows, (dir / "repr.snap").string()));
  serve::ModelRegistry registry;
  HLM_CHECK_OK(registry.Register("lda", serve::ModelKind::kLda, "lda.snap"));
  HLM_CHECK_OK(registry.Register("repr", serve::ModelKind::kRepresentation,
                                 "repr.snap"));
  HLM_CHECK_OK(registry.SaveManifest((dir / "MANIFEST").string()));

  Result<serve::ModelRegistry> loaded =
      serve::ModelRegistry::FromManifest((dir / "MANIFEST").string());
  HLM_CHECK_OK(loaded.status());
  HLM_CHECK_OK(loaded->Verify("lda"));
  HLM_CHECK_OK(loaded->Verify("repr"));
  Result<const models::LdaModel*> lda_loaded = loaded->Lda("lda");
  HLM_CHECK_OK(lda_loaded.status());
  Result<const std::vector<std::vector<double>>*> rows_loaded =
      loaded->Representation("repr");
  HLM_CHECK_OK(rows_loaded.status());
  HLM_CHECK_EQ(static_cast<long long>((*rows_loaded)->size()),
               static_cast<long long>(rows.size()))
      << "representation round-trip changed the row count";
  fs::remove_all(dir);
}

/// serve suite: the online serving path end to end — snapshot a trained
/// model set, boot hlm::serve::Server on it, drive a fixed request mix
/// over one keep-alive connection, hot-swap a republished generation,
/// and drive the new generation. Request counts and the reload counter
/// are deterministic (exact-compare); per-request latencies land in the
/// per-route hlm.serve.http.<route>.request_seconds histograms, whose
/// percentiles export with the standard `_seconds` summary and whose
/// wall time is gated through the serve_requests phase walltime.
void RunServeSuite(const SuiteEnv& env, const std::string& run_id) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const int vocab = env.world.corpus.num_categories();
  const fs::path dir =
      fs::temp_directory_path() / ("hlm_bench_serve_" + run_id);
  const std::string manifest = (dir / "manifest.txt").string();

  {
    Phase phase("serve_snapshot");
    fs::create_directories(dir);
    models::LdaConfig config;
    config.num_topics = 4;
    models::LdaModel lda(vocab, config);
    HLM_CHECK_OK(lda.Train(env.train_seqs_pre2013));
    HLM_CHECK_OK(lda.SaveToFile((dir / "lda.snap").string()));
    HLM_CHECK_OK(repr::SaveRepresentation(
        repr::LdaRepresentation(lda, env.world.corpus),
        (dir / "lda_repr.snap").string()));
    serve::ModelRegistry registry;
    HLM_CHECK_OK(
        registry.Register("lda", serve::ModelKind::kLda, "lda.snap"));
    HLM_CHECK_OK(registry.Register(
        "lda-repr", serve::ModelKind::kRepresentation, "lda_repr.snap"));
    HLM_CHECK_OK(registry.SaveManifest(manifest));
  }

  std::unique_ptr<serve::Server> server = [&manifest] {
    Phase phase("serve_start");
    serve::ServerConfig config;
    config.manifest_path = manifest;  // watcher off: reloads are explicit
    Result<std::unique_ptr<serve::Server>> started =
        serve::Server::Start(config);
    HLM_CHECK_OK(started.status());
    return std::move(started.value());
  }();

  constexpr const char* kPaths[] = {
      "/v1/recommend?tokens=0,1&k=5",
      "/v1/similar?company=0&k=5",
      "/v1/topics?tokens=0,1",
  };
  auto drive = [&kPaths](serve::HttpClient& client, int requests) {
    long long ok = 0;
    for (int i = 0; i < requests; ++i) {
      Result<serve::HttpResponse> response = client.Get(kPaths[i % 3]);
      HLM_CHECK_OK(response.status());
      if (response->status_code == 200) ++ok;
    }
    return ok;
  };

  constexpr int kRequests = 1200;
  {
    Phase phase("serve_requests");
    Result<serve::HttpClient> client =
        serve::HttpClient::Connect("127.0.0.1", server->port());
    HLM_CHECK_OK(client.status());
    metrics.GetGauge("hlm.bench.serve_ok_responses")
        ->Set(static_cast<double>(drive(*client, kRequests)));
  }

  constexpr int kPostReloadRequests = 300;
  {
    Phase phase("serve_reload");
    // Republish the manifest byte-identically: the mtime component of
    // the stamp changes, which is exactly what a snapshot refresh into
    // the same directory looks like to the watcher.
    std::string bytes;
    {
      std::ifstream in(manifest, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      bytes = buffer.str();
    }
    {
      std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    Result<bool> swapped = server->ReloadIfChanged();
    HLM_CHECK_OK(swapped.status());
    HLM_CHECK(swapped.value()) << "republished manifest did not swap";
    Result<serve::HttpClient> client =
        serve::HttpClient::Connect("127.0.0.1", server->port());
    HLM_CHECK_OK(client.status());
    metrics.GetGauge("hlm.bench.serve_post_reload_ok_responses")
        ->Set(static_cast<double>(drive(*client, kPostReloadRequests)));
  }

  server->Stop();
  fs::remove_all(dir);
}

void RunSuite(const SuiteEnv& env, const std::string& run_id) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const int vocab = env.world.corpus.num_categories();

  models::LdaModel lda = [&] {
    Phase phase("train_lda");
    models::LdaConfig config;
    config.num_topics = 4;
    models::LdaModel model(vocab, config);
    HLM_CHECK_OK(model.Train(env.train_seqs_pre2013));
    return model;
  }();

  {
    Phase phase("lda_perplexity");
    metrics.GetGauge("hlm.bench.lda_test_perplexity")
        ->Set(lda.Perplexity(env.test_seqs));
  }

  models::ConditionalHeavyHitters chh = [&] {
    Phase phase("train_chh");
    models::ChhConfig config;
    config.context_depth = 2;
    models::ConditionalHeavyHitters model(vocab, config);
    model.Train(env.train_seqs_pre2013);
    return model;
  }();

  {
    Phase phase("recsys_eval");
    recsys::RecommendationEvalConfig eval_config;
    eval_config.thresholds = {0.05, 0.10, 0.15};
    double best_f1 = 0.0;
    for (const recsys::ThresholdEvaluation& eval :
         recsys::EvaluateRecommender(lda, env.world.corpus, eval_config)) {
      best_f1 = std::max(best_f1, eval.mean_f1);
    }
    metrics.GetGauge("hlm.bench.recsys_best_f1")->Set(best_f1);
    best_f1 = 0.0;
    for (const recsys::ThresholdEvaluation& eval :
         recsys::EvaluateRecommender(chh, env.world.corpus, eval_config)) {
      best_f1 = std::max(best_f1, eval.mean_f1);
    }
    metrics.GetGauge("hlm.bench.chh_best_f1")->Set(best_f1);
  }

  std::vector<std::vector<double>> rows;
  {
    Phase phase("similarity_search");
    rows = repr::LdaRepresentation(lda, env.world.corpus);
    recsys::SimilaritySearch search(rows, cluster::DistanceKind::kCosine);
    // Queries fan out over the pool; the ordered reduce adds hits in row
    // order, so the checksum is the serial loop's at any --threads.
    const double checksum = ParallelMapReduce(
        0, static_cast<size_t>(search.size()), 0, 0.0,
        [&search](size_t i) {
          Result<std::vector<recsys::Neighbor>> neighbors =
              search.TopK(static_cast<int>(i), 10);
          HLM_CHECK_OK(neighbors.status());
          return std::move(*neighbors);
        },
        [](double sum, std::vector<recsys::Neighbor> neighbors) {
          for (const recsys::Neighbor& n : neighbors) {
            sum += n.distance + static_cast<double>(n.company_id);
          }
          return sum;
        });
    metrics.GetGauge("hlm.bench.similarity_checksum")->Set(checksum);
  }

  RunServeRegistry(lda, rows, run_id);
}

// ---------------------------------------------------------------------
// kernels suite: micro-benchmarks of the dispatched SIMD kernels against
// plain sequential scalar references (deliberately NOT the lane-blocked
// portable kernels — the speedup column measures the dispatched path
// against pre-SIMD code). Checksum gauges accumulate dispatched kernel
// outputs and are compared exactly against the baseline: the lane-blocked
// summation contract makes them identical on every machine, whichever
// path is active. Speedups are machine-dependent and go to meta only.

double ScalarDot(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double ScalarSquaredDistance(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void ScalarMatVec(const double* a, size_t rows, size_t cols, const double* x,
                  double* y) {
  for (size_t r = 0; r < rows; ++r) {
    y[r] += ScalarDot(a + r * cols, x, cols);
  }
}

void ScalarScoreBlock(const double* queries, size_t num_queries,
                      const double* items, size_t num_items, size_t d,
                      double* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t j = 0; j < num_items; ++j) {
      out[q * num_items + j] = ScalarDot(queries + q * d, items + j * d, d);
    }
  }
}

template <typename F>
double TimeSeconds(int reps, F&& body) {
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) body();
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = 2.0 * rng->NextDouble() - 1.0;
  return v;
}

/// One timed comparison; `sink` defeats dead-code elimination and feeds
/// the checksum gauges.
struct KernelTiming {
  std::string name;
  size_t d = 0;
  double scalar_seconds = 0.0;
  double kernel_seconds = 0.0;
  double speedup() const {
    return kernel_seconds > 0.0 ? scalar_seconds / kernel_seconds : 0.0;
  }
};

/// Runs the micro-bench suite. Returns false when --min_speedup is set,
/// the AVX2 path is active, and any timed kernel at d >= 64 comes in
/// under the bar.
bool RunKernelsSuite(double min_speedup) {
  Phase suite_phase("kernels");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const std::vector<size_t> dims = {64, 256, 1024};
  constexpr size_t kMatRows = 128;
  constexpr size_t kBlockQueries = 8;
  constexpr size_t kBlockItems = 128;
  Rng rng(12345);
  volatile double sink = 0.0;

  std::vector<KernelTiming> timings;
  double dot_checksum = 0.0;
  double distance_checksum = 0.0;
  double matvec_checksum = 0.0;
  double score_block_checksum = 0.0;

  for (size_t d : dims) {
    std::vector<double> x = RandomVector(d, &rng);
    std::vector<double> y = RandomVector(d, &rng);
    std::vector<double> mat = RandomVector(kMatRows * d, &rng);
    std::vector<double> queries = RandomVector(kBlockQueries * d, &rng);
    std::vector<double> items = RandomVector(kBlockItems * d, &rng);
    std::vector<double> out(kMatRows, 0.0);
    std::vector<double> block(kBlockQueries * kBlockItems, 0.0);

    // Rep counts keep total work roughly constant across dims so every
    // measurement is milliseconds, not microseconds.
    const int vec_reps = static_cast<int>(4'000'000 / d);
    const int mat_reps = std::max(1, static_cast<int>(4'000'000 / (kMatRows * d)));
    const int block_reps = std::max(
        1, static_cast<int>(8'000'000 / (kBlockQueries * kBlockItems * d)));

    KernelTiming dot{"dot", d, 0.0, 0.0};
    dot.scalar_seconds = TimeSeconds(
        vec_reps, [&] { sink = sink + ScalarDot(x.data(), y.data(), d); });
    dot.kernel_seconds = TimeSeconds(
        vec_reps, [&] { sink = sink + simd::Dot(x.data(), y.data(), d); });
    dot_checksum += simd::Dot(x.data(), y.data(), d);
    timings.push_back(dot);

    KernelTiming dist{"distance", d, 0.0, 0.0};
    dist.scalar_seconds = TimeSeconds(vec_reps, [&] {
      sink = sink + ScalarSquaredDistance(x.data(), y.data(), d);
    });
    dist.kernel_seconds = TimeSeconds(vec_reps, [&] {
      sink = sink + simd::SquaredDistance(x.data(), y.data(), d);
    });
    distance_checksum += simd::SquaredDistance(x.data(), y.data(), d);
    timings.push_back(dist);

    KernelTiming matvec{"matvec", d, 0.0, 0.0};
    matvec.scalar_seconds = TimeSeconds(mat_reps, [&] {
      std::fill(out.begin(), out.end(), 0.0);
      ScalarMatVec(mat.data(), kMatRows, d, x.data(), out.data());
      sink = sink + out[0];
    });
    matvec.kernel_seconds = TimeSeconds(mat_reps, [&] {
      std::fill(out.begin(), out.end(), 0.0);
      simd::MatVec(mat.data(), kMatRows, d, x.data(), out.data());
      sink = sink + out[0];
    });
    std::fill(out.begin(), out.end(), 0.0);
    simd::MatVec(mat.data(), kMatRows, d, x.data(), out.data());
    matvec_checksum += simd::Sum(out.data(), out.size());
    timings.push_back(matvec);

    KernelTiming block_timing{"score_block", d, 0.0, 0.0};
    block_timing.scalar_seconds = TimeSeconds(block_reps, [&] {
      ScalarScoreBlock(queries.data(), kBlockQueries, items.data(),
                       kBlockItems, d, block.data());
      sink = sink + block[0];
    });
    block_timing.kernel_seconds = TimeSeconds(block_reps, [&] {
      simd::ScoreBlock(queries.data(), kBlockQueries, items.data(),
                       kBlockItems, d, block.data());
      sink = sink + block[0];
    });
    simd::ScoreBlock(queries.data(), kBlockQueries, items.data(), kBlockItems,
                     d, block.data());
    score_block_checksum += simd::Sum(block.data(), block.size());
    timings.push_back(block_timing);
  }

  // Untimed checksums for the remaining kernels, at an odd length so the
  // tail lanes are exercised too.
  {
    const size_t n = 257;
    std::vector<double> a = RandomVector(n, &rng);
    std::vector<double> b = RandomVector(n, &rng);
    std::vector<double> c = RandomVector(n, &rng);
    std::vector<double> buffer(n, 0.0);
    metrics.GetGauge("hlm.bench.kernels_norm_checksum")
        ->Set(simd::SquaredNorm(a.data(), n));
    metrics.GetGauge("hlm.bench.kernels_sum_checksum")
        ->Set(simd::Sum(a.data(), n));
    simd::Axpy(0.5, a.data(), buffer.data(), n);
    metrics.GetGauge("hlm.bench.kernels_axpy_checksum")
        ->Set(simd::Sum(buffer.data(), n));
    simd::ShiftedProduct(a.data(), 0.25, b.data(), buffer.data(), n);
    metrics.GetGauge("hlm.bench.kernels_shifted_product_checksum")
        ->Set(simd::Sum(buffer.data(), n));
    // GibbsScore divides by topic totals; keep them strictly positive.
    std::vector<double> totals(n);
    for (size_t i = 0; i < n; ++i) totals[i] = 1.0 + c[i] * c[i];
    simd::GibbsScore(a.data(), 0.1, b.data(), 0.01, totals.data(), 2.0,
                     buffer.data(), n);
    metrics.GetGauge("hlm.bench.kernels_gibbs_score_checksum")
        ->Set(simd::Sum(buffer.data(), n));
  }
  metrics.GetGauge("hlm.bench.kernels_dot_checksum")->Set(dot_checksum);
  metrics.GetGauge("hlm.bench.kernels_distance_checksum")
      ->Set(distance_checksum);
  metrics.GetGauge("hlm.bench.kernels_matvec_checksum")->Set(matvec_checksum);
  metrics.GetGauge("hlm.bench.kernels_score_block_checksum")
      ->Set(score_block_checksum);
  (void)sink;

  std::printf("%-12s | %6s | %10s | %10s | %8s\n", "kernel", "d",
              "scalar(s)", "simd(s)", "speedup");
  bool gate_ok = true;
  const bool avx2_active = simd::ActivePathName() == "avx2";
  for (const KernelTiming& t : timings) {
    std::printf("%-12s | %6zu | %10.6f | %10.6f | %7.2fx\n", t.name.c_str(),
                t.d, t.scalar_seconds, t.kernel_seconds, t.speedup());
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f", t.speedup());
    metrics.SetMeta(
        "kernels.speedup." + t.name + "_d" + std::to_string(t.d), buffer);
    if (min_speedup > 0.0 && avx2_active && t.d >= 64 &&
        t.speedup() < min_speedup) {
      std::fprintf(stderr,
                   "kernel '%s' d=%zu speedup %.2fx below --min_speedup "
                   "%.2fx\n",
                   t.name.c_str(), t.d, t.speedup(), min_speedup);
      gate_ok = false;
    }
  }
  return gate_ok;
}

/// Snapshot of the global registry with the resource profile attached
/// and per-phase walltime meta derived from the hlm.bench.*_seconds
/// histograms (same derivation as bench_util's --metrics_out writer).
obs::MetricsSnapshot BuildSnapshot() {
  obs::ResourceProfiler::Global().AttachTo(&obs::MetricsRegistry::Global());
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  const std::string prefix = "hlm.bench.";
  const std::string suffix = "_seconds";
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (name.size() > prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      std::string phase = name.substr(
          prefix.size(), name.size() - prefix.size() - suffix.size());
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.6f", histogram.sum);
      snapshot.meta["walltime." + phase + "_seconds"] = buffer;
    }
  }
  return snapshot;
}

/// Metrics whose values legitimately vary across machines or thread
/// counts: the parallel subsystem's task/chunk accounting depends on the
/// worker count, hlm.bench.threads records it directly, and the kernel
/// dispatch gauges reflect the host CPU's ISA. Everything else is
/// covered by the determinism contract and compared exactly — including
/// the kernels suite's checksum gauges, which the lane-blocked summation
/// contract makes bit-identical across the portable and AVX2 paths.
bool MachineDependent(const std::string& name) {
  return name.rfind("hlm.parallel.", 0) == 0 ||
         name.rfind("hlm.math.kernel.", 0) == 0 ||
         // Tail-sampling keep decisions hinge on measured request
         // latency (the slow-request threshold), so kept/slow counts
         // vary with host speed.
         name.rfind("hlm.serve.trace.", 0) == 0 ||
         name == "hlm.bench.threads" ||
         // The ephemeral listen port is the OS's pick, not a metric.
         name == "hlm.serve.server.port";
}

std::string MetaOr(const obs::MetricsSnapshot& snapshot,
                   const std::string& key, const std::string& fallback) {
  auto it = snapshot.meta.find(key);
  return it == snapshot.meta.end() ? fallback : it->second;
}

/// Compares a fresh run against a baseline snapshot. Returns regression
/// messages (empty = pass); config mismatches land in `config_errors`
/// instead, because comparing runs of different configurations is an
/// operator error rather than a perf regression.
std::vector<std::string> CompareSnapshots(
    const obs::MetricsSnapshot& baseline, const obs::MetricsSnapshot& current,
    double tolerance, double slack, std::vector<std::string>* config_errors) {
  std::vector<std::string> regressions;
  for (const char* key : {"schema", "suite", "seed", "companies"}) {
    std::string base = MetaOr(baseline, key, "<missing>");
    std::string cur = MetaOr(current, key, "<missing>");
    if (base != cur) {
      config_errors->push_back(std::string("meta '") + key +
                               "' differs: baseline=" + base +
                               " current=" + cur);
    }
  }
  if (!config_errors->empty()) return regressions;

  auto compare_keys = [&regressions](const std::string& section,
                                     const auto& base_map,
                                     const auto& cur_map, const auto& check) {
    std::set<std::string> names;
    for (const auto& [name, value] : base_map) names.insert(name);
    for (const auto& [name, value] : cur_map) names.insert(name);
    for (const std::string& name : names) {
      if (MachineDependent(name)) continue;
      auto base_it = base_map.find(name);
      auto cur_it = cur_map.find(name);
      if (base_it == base_map.end() || cur_it == cur_map.end()) {
        regressions.push_back(
            section + " '" + name + "' " +
            (base_it == base_map.end() ? "missing from baseline"
                                       : "missing from current run") +
            " (regenerate the baseline if the harness changed)");
        continue;
      }
      check(name, base_it->second, cur_it->second);
    }
  };

  compare_keys("counter", baseline.counters, current.counters,
               [&](const std::string& name, long long base, long long cur) {
                 if (base != cur) {
                   regressions.push_back(
                       "counter '" + name + "' changed: baseline=" +
                       std::to_string(base) + " current=" +
                       std::to_string(cur));
                 }
               });
  compare_keys("gauge", baseline.gauges, current.gauges,
               [&](const std::string& name, double base, double cur) {
                 if (base != cur) {
                   char buffer[160];
                   std::snprintf(buffer, sizeof(buffer),
                                 "gauge '%s' changed: baseline=%.17g "
                                 "current=%.17g",
                                 name.c_str(), base, cur);
                   regressions.push_back(buffer);
                 }
               });
  compare_keys(
      "histogram", baseline.histograms, current.histograms,
      [&](const std::string& name, const obs::HistogramSnapshot& base,
          const obs::HistogramSnapshot& cur) {
        // Only the observation count is deterministic; the observed
        // values are wall times and belong to the walltime tolerance
        // check below.
        if (base.count != cur.count) {
          regressions.push_back(
              "histogram '" + name + "' observation count changed: " +
              "baseline=" + std::to_string(base.count) +
              " current=" + std::to_string(cur.count));
        }
      });

  // Walltimes: noisy by nature, so a phase only fails when it exceeds
  // baseline * tolerance + slack (the additive slack keeps microsecond
  // phases from tripping on scheduler jitter).
  std::set<std::string> walltime_keys;
  for (const auto& [key, value] : baseline.meta) {
    if (key.rfind("walltime.", 0) == 0) walltime_keys.insert(key);
  }
  for (const auto& [key, value] : current.meta) {
    if (key.rfind("walltime.", 0) == 0) walltime_keys.insert(key);
  }
  for (const std::string& key : walltime_keys) {
    auto base_it = baseline.meta.find(key);
    auto cur_it = current.meta.find(key);
    if (base_it == baseline.meta.end() || cur_it == current.meta.end()) {
      regressions.push_back(
          "phase '" + key + "' " +
          (base_it == baseline.meta.end() ? "missing from baseline"
                                          : "missing from current run") +
          " (regenerate the baseline if the phase set changed)");
      continue;
    }
    double base = std::strtod(base_it->second.c_str(), nullptr);
    double cur = std::strtod(cur_it->second.c_str(), nullptr);
    double limit = base * tolerance + slack;
    if (cur > limit) {
      char buffer[200];
      std::snprintf(buffer, sizeof(buffer),
                    "%s regressed: baseline=%.6fs current=%.6fs "
                    "limit=%.6fs (tolerance %.2fx + %.3fs slack)",
                    key.c_str(), base, cur, limit, tolerance, slack);
      regressions.push_back(buffer);
    }
  }
  return regressions;
}

Result<obs::MetricsSnapshot> LoadSnapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open baseline: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return obs::MetricsSnapshot::FromJson(buffer.str());
}

int Main(int argc, char** argv) {
  FlagSet flags;
  std::string suite = "smoke";
  std::string out;
  std::string baseline_path;
  bool check = false;
  bool update_baseline = false;
  bool list = false;
  double walltime_tolerance = 1.6;
  double walltime_slack = 0.05;
  double inject_slowdown = 1.0;
  double min_speedup = 0.0;
  long long companies = 0;
  long long seed = 42;
  long long threads = 0;
  std::string simd_mode;
  flags.AddString("suite", &suite, "bench suite: smoke (fast, tier-1), "
                  "kernels (SIMD kernel micro-bench vs scalar "
                  "references), or serve (snapshot -> hlm_serve boot -> "
                  "request mix -> hot reload)");
  flags.AddString("out", &out,
                  "write the run's BENCH JSON here (default "
                  "BENCH_<suite>.json; 'none' skips the write)");
  flags.AddString("baseline", &baseline_path,
                  "baseline JSON for --check/--update_baseline (default "
                  "bench/baselines/<suite>.json)");
  flags.AddBool("check", &check,
                "compare this run against the baseline; exit 1 on "
                "regression");
  flags.AddBool("update_baseline", &update_baseline,
                "write this run's snapshot to the baseline path");
  flags.AddBool("list", &list, "list suites and phases, then exit");
  flags.AddDouble("walltime_tolerance", &walltime_tolerance,
                  "multiplicative walltime budget vs baseline");
  flags.AddDouble("walltime_slack", &walltime_slack,
                  "additive walltime budget in seconds (absorbs jitter on "
                  "sub-millisecond phases)");
  flags.AddDouble("inject_slowdown", &inject_slowdown,
                  "stretch every phase by this factor (self-test hook; "
                  "1 = off)");
  flags.AddInt64("companies", &companies,
                 "corpus size (0 = suite default: 300 smoke, 150 serve)");
  flags.AddInt64("seed", &seed, "corpus generator seed");
  flags.AddInt64("threads", &threads,
                 "worker threads (0 = HLM_THREADS env or all cores); "
                 "metric values are identical at any setting");
  flags.AddString("simd", &simd_mode,
                  "kernel dispatch path: auto, off, or avx2 (empty = "
                  "HLM_SIMD env, then auto); metric values are identical "
                  "on every path");
  flags.AddDouble("min_speedup", &min_speedup,
                  "kernels suite only: fail when any timed kernel at "
                  "d >= 64 beats the scalar reference by less than this "
                  "factor while the AVX2 path is active (0 = off)");
  Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (list) {
    std::printf("suites:\n"
                "  smoke    make_env train_lda lda_perplexity train_chh "
                "recsys_eval similarity_search serve_registry\n"
                "  kernels  dispatched SIMD kernels vs scalar references "
                "(dot, distance, matvec, score_block)\n"
                "  serve    make_env serve_snapshot serve_start "
                "serve_requests serve_reload\n");
    return 0;
  }
  if (suite != "smoke" && suite != "kernels" && suite != "serve") {
    std::fprintf(stderr,
                 "unknown --suite: %s (want smoke, kernels, or serve)\n",
                 suite.c_str());
    return 2;
  }
  if (inject_slowdown < 1.0) {
    std::fprintf(stderr, "--inject_slowdown must be >= 1\n");
    return 2;
  }
  if (companies <= 0 && suite != "kernels") {
    companies = suite == "serve" ? 150 : 300;
  }
  if (out.empty()) out = "BENCH_" + suite + ".json";
  if (baseline_path.empty()) baseline_path = "bench/baselines/" + suite +
                                             ".json";
  if (threads > 0) SetNumThreads(static_cast<int>(threads));
  g_slowdown = inject_slowdown;

  // Pin the kernel dispatch path before any kernel runs: an explicit
  // --simd wins over the HLM_SIMD env var.
  if (!simd_mode.empty()) {
    Result<simd::SimdMode> mode = simd::ParseSimdMode(simd_mode);
    if (!mode.ok()) {
      std::fprintf(stderr, "bad --simd: %s\n",
                   mode.status().ToString().c_str());
      return 2;
    }
    Status simd_status = simd::SetSimdMode(*mode);
    if (!simd_status.ok()) {
      std::fprintf(stderr, "--simd=%s rejected: %s\n", simd_mode.c_str(),
                   simd_status.ToString().c_str());
      return 2;
    }
  } else {
    simd::InitFromEnv();
  }

  const std::string run_id = obs::ComputeRunId(
      {"hlm_bench", suite, std::to_string(seed), std::to_string(companies),
       std::to_string(NumThreads())});
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.SetMeta("schema", kSchema);
  metrics.SetMeta("suite", suite);
  metrics.SetMeta("run_id", run_id);
  metrics.SetMeta("harness", "hlm_bench");
  metrics.SetMeta("seed", std::to_string(seed));
  metrics.SetMeta("companies", std::to_string(companies));
  metrics.SetMeta("threads", std::to_string(NumThreads()));
  metrics.SetMeta("host_cores",  // hlm-lint: allow(no-raw-thread)
                  std::to_string(std::thread::hardware_concurrency()));
  metrics.GetGauge("hlm.bench.companies")
      ->Set(static_cast<double>(companies));
  metrics.GetGauge("hlm.bench.seed")->Set(static_cast<double>(seed));
  metrics.GetGauge("hlm.bench.threads")
      ->Set(static_cast<double>(NumThreads()));
  metrics.SetMeta("simd.requested", simd_mode.empty() ? "env" : simd_mode);
  metrics.SetMeta("simd.active_path", simd::ActivePathName());
  metrics.SetMeta("simd.avx2_available",
                  simd::Avx2Available() ? "1" : "0");

  std::printf("hlm_bench: suite=%s companies=%lld seed=%lld threads=%d "
              "simd=%s run_id=%s\n",
              suite.c_str(), companies, seed, NumThreads(),
              simd::ActivePathName().c_str(), run_id.c_str());
  bool speedup_ok = true;
  if (suite == "kernels") {
    speedup_ok = RunKernelsSuite(min_speedup);
  } else if (suite == "serve") {
    SuiteEnv env = BuildEnv(companies, seed);
    RunServeSuite(env, run_id);
  } else {
    SuiteEnv env = BuildEnv(companies, seed);
    RunSuite(env, run_id);
  }

  obs::MetricsSnapshot snapshot = BuildSnapshot();
  if (out != "none") {
    std::ofstream out_stream(out);
    if (!out_stream) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 2;
    }
    out_stream << snapshot.ToJson();
    std::printf("bench snapshot written to %s\n", out.c_str());
  }
  if (update_baseline) {
    fs::path parent = fs::path(baseline_path).parent_path();
    if (!parent.empty()) fs::create_directories(parent);
    std::ofstream baseline_stream(baseline_path);
    if (!baseline_stream) {
      std::fprintf(stderr, "cannot write %s\n", baseline_path.c_str());
      return 2;
    }
    baseline_stream << snapshot.ToJson();
    std::printf("baseline updated: %s\n", baseline_path.c_str());
  }
  if (!speedup_ok) {
    std::fprintf(stderr, "kernels speedup gate FAILED (--min_speedup)\n");
    return 1;
  }
  if (!check) return 0;

  Result<obs::MetricsSnapshot> baseline = LoadSnapshot(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "check failed: %s\n",
                 baseline.status().ToString().c_str());
    return 2;
  }
  std::vector<std::string> config_errors;
  std::vector<std::string> regressions = CompareSnapshots(
      *baseline, snapshot, walltime_tolerance, walltime_slack,
      &config_errors);
  if (!config_errors.empty()) {
    for (const std::string& error : config_errors) {
      std::fprintf(stderr, "config mismatch: %s\n", error.c_str());
    }
    std::fprintf(stderr,
                 "check aborted: run configuration does not match the "
                 "baseline (%s)\n", baseline_path.c_str());
    return 2;
  }
  if (!regressions.empty()) {
    for (const std::string& regression : regressions) {
      std::fprintf(stderr, "REGRESSION: %s\n", regression.c_str());
    }
    std::fprintf(stderr, "check FAILED: %zu regression(s) vs %s\n",
                 regressions.size(), baseline_path.c_str());
    return 1;
  }
  std::printf("check OK: metrics match %s, walltimes within %.2fx + %.3fs\n",
              baseline_path.c_str(), walltime_tolerance, walltime_slack);
  return 0;
}

}  // namespace
}  // namespace hlm

int main(int argc, char** argv) { return hlm::Main(argc, argv); }
