#include "math/simd/kernels.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "common/logging.h"
#include "obs/metrics.h"

namespace hlm::simd {
namespace {

/// The table every kernel wrapper routes through. nullptr means "not yet
/// initialised"; the first kernel call (or an eager SetSimdMode /
/// InitFromEnv) fills it in. Relaxed ordering is enough: both candidate
/// tables are immutable function-static data, and mode changes are
/// documented as not-concurrent-with-kernels.
std::atomic<const internal::KernelTable*> g_active{nullptr};

bool CpuHasAvx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void UpdateDispatchMetrics() {
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("hlm.math.kernel.avx2_available")
      ->Set(Avx2Available() ? 1.0 : 0.0);
  registry.GetGauge("hlm.math.kernel.active_avx2")
      ->Set(ActivePathName() == "avx2" ? 1.0 : 0.0);
  registry.GetCounter("hlm.math.kernel.mode_sets_total")->Increment();
}

}  // namespace

Result<SimdMode> ParseSimdMode(const std::string& value) {
  if (value == "auto") return SimdMode::kAuto;
  if (value == "off") return SimdMode::kOff;
  if (value == "avx2") return SimdMode::kAvx2;
  return Status::InvalidArgument("unknown simd mode '" + value +
                                 "' (expected auto|off|avx2)");
}

bool Avx2Available() {
  static const bool available =
      internal::Avx2Table() != nullptr && CpuHasAvx2();
  return available;
}

Status SetSimdMode(SimdMode mode) {
  const internal::KernelTable* table = nullptr;
  switch (mode) {
    case SimdMode::kOff:
      table = &internal::PortableTable();
      break;
    case SimdMode::kAvx2:
      if (!Avx2Available()) {
        return Status::FailedPrecondition(
            "simd mode 'avx2' requested but AVX2 is unavailable (" +
            std::string(internal::Avx2Table() == nullptr
                            ? "build has no AVX2 kernels"
                            : "CPU lacks AVX2") +
            ")");
      }
      table = internal::Avx2Table();
      break;
    case SimdMode::kAuto:
      table = Avx2Available() ? internal::Avx2Table()
                              : &internal::PortableTable();
      break;
  }
  g_active.store(table, std::memory_order_relaxed);
  UpdateDispatchMetrics();
  return Status::OK();
}

void InitFromEnv() {
  static std::once_flag once;
  std::call_once(once, [] {
    // An explicit SetSimdMode before the first kernel call wins over the
    // environment.
    if (g_active.load(std::memory_order_relaxed) != nullptr) return;
    SimdMode mode = SimdMode::kAuto;
    const char* env = std::getenv("HLM_SIMD");
    if (env != nullptr && env[0] != '\0') {
      Result<SimdMode> parsed = ParseSimdMode(env);
      if (parsed.ok()) {
        mode = *parsed;
      } else {
        HLM_LOG(Warning) << "HLM_SIMD: " << parsed.status().message()
                         << "; falling back to auto";
      }
    }
    Status status = SetSimdMode(mode);
    if (!status.ok()) {
      HLM_LOG(Warning) << "HLM_SIMD: " << status.message()
                       << "; falling back to auto";
      // kAuto always selects a valid table; nothing to do on error.
      // hlm-lint: allow(unchecked-status)
      SetSimdMode(SimdMode::kAuto);
    }
  });
}

std::string ActivePathName() {
  return &internal::ActiveTable() == internal::Avx2Table() ? "avx2"
                                                           : "portable";
}

namespace internal {

const KernelTable& ActiveTable() {
  const KernelTable* table = g_active.load(std::memory_order_relaxed);
  if (table == nullptr) {
    InitFromEnv();
    table = g_active.load(std::memory_order_relaxed);
  }
  return *table;
}

}  // namespace internal

double Dot(const double* a, const double* b, size_t n) {
  return internal::ActiveTable().dot(a, b, n);
}

double SquaredNorm(const double* a, size_t n) {
  return internal::ActiveTable().squared_norm(a, n);
}

double Sum(const double* a, size_t n) {
  return internal::ActiveTable().sum(a, n);
}

double SquaredDistance(const double* a, const double* b, size_t n) {
  return internal::ActiveTable().squared_distance(a, b, n);
}

void Axpy(double scale, const double* x, double* y, size_t n) {
  internal::ActiveTable().axpy(scale, x, y, n);
}

void ShiftedProduct(const double* a, double shift, const double* b,
                    double* out, size_t n) {
  internal::ActiveTable().shifted_product(a, shift, b, out, n);
}

void GibbsScore(const double* doc_topic, double alpha,
                const double* word_topic, double beta,
                const double* topic_total, double v_beta, double* out,
                size_t n) {
  internal::ActiveTable().gibbs_score(doc_topic, alpha, word_topic, beta,
                                      topic_total, v_beta, out, n);
}

void MatVec(const double* a, size_t rows, size_t cols, const double* x,
            double* y) {
  internal::ActiveTable().matvec(a, rows, cols, x, y);
}

void ScoreBlock(const double* queries, size_t num_queries,
                const double* items, size_t num_items, size_t d,
                double* out) {
  internal::ActiveTable().score_block(queries, num_queries, items, num_items,
                                      d, out);
}

void CosineDistances(const double* dots, double query_norm,
                     const double* row_norms, double* out, size_t n) {
  internal::ActiveTable().cosine_distances(dots, query_norm, row_norms, out,
                                           n);
}

}  // namespace hlm::simd
