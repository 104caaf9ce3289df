#ifndef HLM_MATH_SIMD_KERNELS_H_
#define HLM_MATH_SIMD_KERNELS_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace hlm::simd {

/// Dense double-precision kernels behind every scoring/sampling hot path
/// (vector_ops, matrix matvecs, LDA Gibbs/perplexity scoring, BPMF factor
/// updates, similarity block scans). Two implementations ship: a portable
/// scalar path and an AVX2 path, selected once at runtime (CPUID +
/// HLM_SIMD). Both obey the same summation contract, so results are
/// bit-identical regardless of which path executes.
///
/// Determinism contract — lane-blocked summation (DESIGN.md §12):
/// every reducing kernel accumulates into four partial sums, lane
/// `i % 4`, over the first `n - n % 4` elements, reduces them as
/// `(s0 + s1) + (s2 + s3)`, then adds the at-most-3 tail terms in index
/// order. The AVX2 path gets this order for free from its 4-wide
/// registers; the portable path spells the same order out by hand. FMA
/// contraction is deliberately NOT used (and compiler contraction is
/// disabled for these translation units): fused multiply-add rounds
/// once where mul+add rounds twice, which would split the two paths
/// bit-wise. Element-wise kernels (Axpy, ShiftedProduct, GibbsScore,
/// CosineDistances) have no cross-element reduction and are trivially
/// order-identical.

/// Which instruction path the dispatcher may select.
enum class SimdMode {
  kAuto,  ///< AVX2 when the CPU supports it, portable otherwise.
  kOff,   ///< portable path, unconditionally.
  kAvx2,  ///< AVX2, failing when unsupported by build or CPU.
};

/// Parses "auto" / "off" / "avx2" (the --simd flag and HLM_SIMD values).
Result<SimdMode> ParseSimdMode(const std::string& value);

/// Selects the kernel path. Safe to call again (tests flip modes);
/// NOT safe concurrently with kernels running on other threads — set the
/// mode during startup or single-threaded test setup. kAvx2 on a host
/// without AVX2 (or a build without AVX2 support) returns
/// FailedPrecondition and leaves the active path unchanged. Updates the
/// hlm.math.kernel.* gauges.
Status SetSimdMode(SimdMode mode);

/// Resolves HLM_SIMD (unset/empty = auto) and applies it. Invalid or
/// unsupported values log a warning and fall back to auto — an env var
/// must not abort test binaries on older hardware. Called lazily by the
/// first kernel invocation; call it (or SetSimdMode) eagerly to control
/// when the dispatch gauges appear.
void InitFromEnv();

/// True when the running CPU and this build both support the AVX2 path.
bool Avx2Available();

/// Name of the path currently live: "portable" or "avx2".
std::string ActivePathName();

/// sum_i a[i] * b[i].
double Dot(const double* a, const double* b, size_t n);

/// sum_i a[i]^2.
double SquaredNorm(const double* a, size_t n);

/// sum_i a[i].
double Sum(const double* a, size_t n);

/// sum_i (a[i] - b[i])^2.
double SquaredDistance(const double* a, const double* b, size_t n);

/// y[i] += scale * x[i].
void Axpy(double scale, const double* x, double* y, size_t n);

/// out[i] = (a[i] + shift) * b[i]. The LDA inference scorer:
/// (doc_topic + alpha) * phi.
void ShiftedProduct(const double* a, double shift, const double* b,
                    double* out, size_t n);

/// out[t] = (doc_topic[t] + alpha) * (word_topic[t] + beta) /
///          (topic_total[t] + v_beta).
/// The collapsed-Gibbs topic scorer, one call per token.
void GibbsScore(const double* doc_topic, double alpha,
                const double* word_topic, double beta,
                const double* topic_total, double v_beta, double* out,
                size_t n);

/// y[r] += dot(A.row(r), x) for a row-major `rows` x `cols` matrix.
void MatVec(const double* a, size_t rows, size_t cols, const double* x,
            double* y);

/// out[q * num_items + j] = dot(queries.row(q), items.row(j)) over two
/// row-major blocks with a shared inner dimension d. The batched scoring
/// tile: a block of companies x a block of products in one call, each
/// (q, j) pair bit-identical to a standalone Dot.
void ScoreBlock(const double* queries, size_t num_queries,
                const double* items, size_t num_items, size_t d,
                double* out);

/// out[j] = (query_norm == 0 || row_norms[j] == 0)
///              ? 1.0
///              : 1.0 - dots[j] / (query_norm * row_norms[j]).
/// Cosine distances from a ScoreBlock row of dots and cached norms; a
/// zero-norm side scores 1 by convention. Element-wise, with correctly
/// rounded multiply, divide and subtract, so every path gives the bits
/// of the scalar expression.
void CosineDistances(const double* dots, double query_norm,
                     const double* row_norms, double* out, size_t n);

namespace internal {

/// The dispatch table one path exports. Kernel wrappers load the active
/// table with a relaxed atomic read — negligible next to any kernel body.
struct KernelTable {
  double (*dot)(const double*, const double*, size_t);
  double (*squared_norm)(const double*, size_t);
  double (*sum)(const double*, size_t);
  double (*squared_distance)(const double*, const double*, size_t);
  void (*axpy)(double, const double*, double*, size_t);
  void (*shifted_product)(const double*, double, const double*, double*,
                          size_t);
  void (*gibbs_score)(const double*, double, const double*, double,
                      const double*, double, double*, size_t);
  void (*matvec)(const double*, size_t, size_t, const double*, double*);
  void (*score_block)(const double*, size_t, const double*, size_t, size_t,
                      double*);
  void (*cosine_distances)(const double*, double, const double*, double*,
                           size_t);
};

/// The portable table (always available; also the parity reference for
/// the dispatch tests).
const KernelTable& PortableTable();

/// The AVX2 table, or nullptr when this build carries no AVX2 objects.
const KernelTable* Avx2Table();

/// The table the wrapper functions currently route to.
const KernelTable& ActiveTable();

}  // namespace internal

}  // namespace hlm::simd

#endif  // HLM_MATH_SIMD_KERNELS_H_
