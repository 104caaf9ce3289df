// AVX2 kernel path. This is the only translation unit (with its sibling
// files under src/math/simd/) allowed to include <immintrin.h> — lint
// rule `simd-isolation` enforces the boundary. The whole file is built
// with -mavx2 when the toolchain supports it (src/math/CMakeLists.txt
// defines HLM_BUILD_AVX2) and compiles to a nullptr table otherwise;
// the dispatcher additionally gates on CPUID at runtime, so these
// functions never execute on a host without AVX2.
//
// Summation contract: one 4-wide accumulator register IS the four
// lane-blocked partial sums of kernels.h; the horizontal reduction
// spells out (s0 + s1) + (s2 + s3), in scalar code or four registers at
// a time, and the tail is added in index order — bit-identical to the
// portable path. No FMA: mul+add intrinsics only, matching the portable
// path's two-rounding arithmetic.

#include "math/simd/kernels.h"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

namespace hlm::simd {
namespace {

/// (s0 + s1) + (s2 + s3) over the register's four lanes, in exactly the
/// contract's order.
inline double ReduceLanes(__m256d acc) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

/// ReduceLanes over four registers at once: lane j of the result is
/// (s0 + s1) + (s2 + s3) over acc_j's lanes, in the contract's order.
inline __m256d ReduceLanes4(__m256d acc0, __m256d acc1, __m256d acc2,
                            __m256d acc3) {
  // hadd: [acc0 s0+s1, acc1 s0+s1, acc0 s2+s3, acc1 s2+s3].
  const __m256d pairs01 = _mm256_hadd_pd(acc0, acc1);
  const __m256d pairs23 = _mm256_hadd_pd(acc2, acc3);
  // Low halves gather each item's s0+s1, high halves its s2+s3.
  const __m256d low = _mm256_permute2f128_pd(pairs01, pairs23, 0x20);
  const __m256d high = _mm256_permute2f128_pd(pairs01, pairs23, 0x31);
  return _mm256_add_pd(low, high);
}

double Avx2Dot(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const size_t n4 = n - n % 4;
  for (size_t i = 0; i < n4; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double total = ReduceLanes(acc);
  for (size_t i = n4; i < n; ++i) total += a[i] * b[i];
  return total;
}

double Avx2SquaredNorm(const double* a, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const size_t n4 = n - n % 4;
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d v = _mm256_loadu_pd(a + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  double total = ReduceLanes(acc);
  for (size_t i = n4; i < n; ++i) total += a[i] * a[i];
  return total;
}

double Avx2Sum(const double* a, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const size_t n4 = n - n % 4;
  for (size_t i = 0; i < n4; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(a + i));
  }
  double total = ReduceLanes(acc);
  for (size_t i = n4; i < n; ++i) total += a[i];
  return total;
}

double Avx2SquaredDistance(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const size_t n4 = n - n % 4;
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double total = ReduceLanes(acc);
  for (size_t i = n4; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

void Avx2Axpy(double scale, const double* x, double* y, size_t n) {
  const __m256d s = _mm256_set1_pd(scale);
  const size_t n4 = n - n % 4;
  for (size_t i = 0; i < n4; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(s, _mm256_loadu_pd(x + i))));
  }
  for (size_t i = n4; i < n; ++i) y[i] += scale * x[i];
}

void Avx2ShiftedProduct(const double* a, double shift, const double* b,
                        double* out, size_t n) {
  const __m256d s = _mm256_set1_pd(shift);
  const size_t n4 = n - n % 4;
  for (size_t i = 0; i < n4; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_mul_pd(_mm256_add_pd(_mm256_loadu_pd(a + i), s),
                               _mm256_loadu_pd(b + i)));
  }
  for (size_t i = n4; i < n; ++i) out[i] = (a[i] + shift) * b[i];
}

void Avx2GibbsScore(const double* doc_topic, double alpha,
                    const double* word_topic, double beta,
                    const double* topic_total, double v_beta, double* out,
                    size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vb = _mm256_set1_pd(beta);
  const __m256d vv = _mm256_set1_pd(v_beta);
  const size_t n4 = n - n % 4;
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d numer = _mm256_mul_pd(
        _mm256_add_pd(_mm256_loadu_pd(doc_topic + i), va),
        _mm256_add_pd(_mm256_loadu_pd(word_topic + i), vb));
    const __m256d denom =
        _mm256_add_pd(_mm256_loadu_pd(topic_total + i), vv);
    _mm256_storeu_pd(out + i, _mm256_div_pd(numer, denom));
  }
  for (size_t i = n4; i < n; ++i) {
    out[i] = (doc_topic[i] + alpha) * (word_topic[i] + beta) /
             (topic_total[i] + v_beta);
  }
}

void Avx2MatVec(const double* a, size_t rows, size_t cols, const double* x,
                double* y) {
  for (size_t r = 0; r < rows; ++r) {
    y[r] += Avx2Dot(a + r * cols, x, cols);
  }
}

void Avx2ScoreBlock(const double* queries, size_t num_queries,
                    const double* items, size_t num_items, size_t d,
                    double* out) {
  // Register tile: one query against four item rows per pass, sharing
  // every query load across four accumulators. Each (q, j) pair keeps
  // its own accumulator register, and ReduceLanes4 plus the lane-wise
  // tail add in the contract's order, so every cell is bit-identical to
  // a standalone Dot on the same operands.
  const size_t d4 = d - d % 4;
  for (size_t q = 0; q < num_queries; ++q) {
    const double* query = queries + q * d;
    double* out_row = out + q * num_items;
    size_t j = 0;
    for (; j + 4 <= num_items; j += 4) {
      const double* item0 = items + j * d;
      const double* item1 = item0 + d;
      const double* item2 = item1 + d;
      const double* item3 = item2 + d;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      for (size_t i = 0; i < d4; i += 4) {
        const __m256d qv = _mm256_loadu_pd(query + i);
        acc0 = _mm256_add_pd(acc0,
                             _mm256_mul_pd(qv, _mm256_loadu_pd(item0 + i)));
        acc1 = _mm256_add_pd(acc1,
                             _mm256_mul_pd(qv, _mm256_loadu_pd(item1 + i)));
        acc2 = _mm256_add_pd(acc2,
                             _mm256_mul_pd(qv, _mm256_loadu_pd(item2 + i)));
        acc3 = _mm256_add_pd(acc3,
                             _mm256_mul_pd(qv, _mm256_loadu_pd(item3 + i)));
      }
      __m256d dots = ReduceLanes4(acc0, acc1, acc2, acc3);
      // Tail terms in index order, one lane per item.
      for (size_t i = d4; i < d; ++i) {
        const __m256d tail = _mm256_set_pd(item3[i], item2[i], item1[i],
                                           item0[i]);
        dots = _mm256_add_pd(
            dots, _mm256_mul_pd(_mm256_set1_pd(query[i]), tail));
      }
      _mm256_storeu_pd(out_row + j, dots);
    }
    for (; j < num_items; ++j) {
      out_row[j] = Avx2Dot(query, items + j * d, d);
    }
  }
}

void Avx2CosineDistances(const double* dots, double query_norm,
                         const double* row_norms, double* out, size_t n) {
  if (query_norm == 0.0) {
    for (size_t j = 0; j < n; ++j) out[j] = 1.0;
    return;
  }
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d qn = _mm256_set1_pd(query_norm);
  const size_t n4 = n - n % 4;
  for (size_t j = 0; j < n4; j += 4) {
    const __m256d rn = _mm256_loadu_pd(row_norms + j);
    const __m256d distance = _mm256_sub_pd(
        one, _mm256_div_pd(_mm256_loadu_pd(dots + j), _mm256_mul_pd(qn, rn)));
    // Zero-norm rows take 1.0; the lanes they divided by zero are
    // discarded by the blend.
    const __m256d zero_norm = _mm256_cmp_pd(rn, zero, _CMP_EQ_OQ);
    _mm256_storeu_pd(out + j, _mm256_blendv_pd(distance, one, zero_norm));
  }
  for (size_t j = n4; j < n; ++j) {
    out[j] = row_norms[j] == 0.0
                 ? 1.0
                 : 1.0 - dots[j] / (query_norm * row_norms[j]);
  }
}

}  // namespace

namespace internal {

const KernelTable* Avx2Table() {
  static const KernelTable table = {
      Avx2Dot,           Avx2SquaredNorm, Avx2Sum,
      Avx2SquaredDistance, Avx2Axpy,      Avx2ShiftedProduct,
      Avx2GibbsScore,    Avx2MatVec,      Avx2ScoreBlock,
      Avx2CosineDistances,
  };
  return &table;
}

}  // namespace internal
}  // namespace hlm::simd

#else  // !(__AVX2__ && __x86_64__)

namespace hlm::simd::internal {

const KernelTable* Avx2Table() { return nullptr; }

}  // namespace hlm::simd::internal

#endif
