// Portable kernel path: plain scalar code spelling out the lane-blocked
// summation contract by hand (kernels.h). Every reducing kernel keeps
// four partial sums — lane i % 4 over the aligned prefix — reduces them
// as (s0 + s1) + (s2 + s3), and adds the tail in index order, which is
// exactly the order the AVX2 path's 4-wide registers produce. This file
// is compiled with FP contraction disabled (src/math/CMakeLists.txt) so
// the compiler cannot fuse mul+add into FMA and split the two paths.

#include <cstddef>

#include "math/simd/kernels.h"

namespace hlm::simd {
namespace {

double PortableDot(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  const size_t n4 = n - n % 4;
  for (size_t i = 0; i < n4; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double total = (s0 + s1) + (s2 + s3);
  for (size_t i = n4; i < n; ++i) total += a[i] * b[i];
  return total;
}

double PortableSquaredNorm(const double* a, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  const size_t n4 = n - n % 4;
  for (size_t i = 0; i < n4; i += 4) {
    s0 += a[i] * a[i];
    s1 += a[i + 1] * a[i + 1];
    s2 += a[i + 2] * a[i + 2];
    s3 += a[i + 3] * a[i + 3];
  }
  double total = (s0 + s1) + (s2 + s3);
  for (size_t i = n4; i < n; ++i) total += a[i] * a[i];
  return total;
}

double PortableSum(const double* a, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  const size_t n4 = n - n % 4;
  for (size_t i = 0; i < n4; i += 4) {
    s0 += a[i];
    s1 += a[i + 1];
    s2 += a[i + 2];
    s3 += a[i + 3];
  }
  double total = (s0 + s1) + (s2 + s3);
  for (size_t i = n4; i < n; ++i) total += a[i];
  return total;
}

double PortableSquaredDistance(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  const size_t n4 = n - n % 4;
  for (size_t i = 0; i < n4; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double total = (s0 + s1) + (s2 + s3);
  for (size_t i = n4; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

void PortableAxpy(double scale, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += scale * x[i];
}

void PortableShiftedProduct(const double* a, double shift, const double* b,
                            double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = (a[i] + shift) * b[i];
}

void PortableGibbsScore(const double* doc_topic, double alpha,
                        const double* word_topic, double beta,
                        const double* topic_total, double v_beta,
                        double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = (doc_topic[i] + alpha) * (word_topic[i] + beta) /
             (topic_total[i] + v_beta);
  }
}

void PortableMatVec(const double* a, size_t rows, size_t cols,
                    const double* x, double* y) {
  for (size_t r = 0; r < rows; ++r) {
    y[r] += PortableDot(a + r * cols, x, cols);
  }
}

void PortableScoreBlock(const double* queries, size_t num_queries,
                        const double* items, size_t num_items, size_t d,
                        double* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    const double* query = queries + q * d;
    double* out_row = out + q * num_items;
    for (size_t j = 0; j < num_items; ++j) {
      out_row[j] = PortableDot(query, items + j * d, d);
    }
  }
}

void PortableCosineDistances(const double* dots, double query_norm,
                             const double* row_norms, double* out,
                             size_t n) {
  for (size_t j = 0; j < n; ++j) {
    out[j] = (query_norm == 0.0 || row_norms[j] == 0.0)
                 ? 1.0
                 : 1.0 - dots[j] / (query_norm * row_norms[j]);
  }
}

}  // namespace

namespace internal {

const KernelTable& PortableTable() {
  static const KernelTable table = {
      PortableDot,           PortableSquaredNorm, PortableSum,
      PortableSquaredDistance, PortableAxpy,      PortableShiftedProduct,
      PortableGibbsScore,    PortableMatVec,      PortableScoreBlock,
      PortableCosineDistances,
  };
  return table;
}

}  // namespace internal
}  // namespace hlm::simd
