// Tests for the SIMD kernel layer (src/math/simd/): randomized parity of
// every kernel against a naive sequential reference across all tail
// residues, bitwise portable-vs-AVX2 equality (the lane-blocked summation
// contract of DESIGN.md §12), NaN/inf propagation, dispatch mode
// parsing/selection, and the Arena scratch allocator. scripts/tier1.sh
// runs this binary under both HLM_SIMD=off and HLM_SIMD=auto, so every
// assertion holds on whichever path the dispatcher picks.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/arena.h"
#include "gtest/gtest.h"
#include "math/rng.h"
#include "math/simd/kernels.h"

namespace hlm::simd {
namespace {

// Naive sequential references: deliberately NOT lane-blocked, so parity
// checks are approximate (the kernels reassociate the sum) while the
// portable-vs-AVX2 checks below are exact.
double NaiveDot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double NaiveSum(const std::vector<double>& a) {
  double s = 0.0;
  for (double v : a) s += v;
  return s;
}

double NaiveSquaredDistance(const std::vector<double>& a,
                            const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = 2.0 * rng->NextDouble() - 1.0;
  return v;
}

// Every tail residue against the 8-wide unrolling plus a zero-length
// vector and larger sizes that cross block boundaries.
std::vector<size_t> TestSizes() {
  std::vector<size_t> sizes = {0, 1, 2, 3, 4, 5, 6, 7};
  for (size_t base : {8u, 16u, 64u, 256u}) {
    for (size_t r = 0; r < 8; ++r) sizes.push_back(base + r);
  }
  return sizes;
}

constexpr double kRelTol = 1e-12;

void ExpectNear(double expected, double actual) {
  EXPECT_NEAR(expected, actual,
              kRelTol * (1.0 + std::fabs(expected)));
}

TEST(KernelParityTest, ReducingKernelsMatchNaiveAtAllResidues) {
  Rng rng(101);
  for (size_t n : TestSizes()) {
    std::vector<double> a = RandomVector(n, &rng);
    std::vector<double> b = RandomVector(n, &rng);
    ExpectNear(NaiveDot(a, b), Dot(a.data(), b.data(), n));
    ExpectNear(NaiveDot(a, a), SquaredNorm(a.data(), n));
    ExpectNear(NaiveSum(a), Sum(a.data(), n));
    ExpectNear(NaiveSquaredDistance(a, b),
               SquaredDistance(a.data(), b.data(), n));
  }
}

TEST(KernelParityTest, ElementwiseKernelsMatchNaiveAtAllResidues) {
  Rng rng(202);
  for (size_t n : TestSizes()) {
    std::vector<double> a = RandomVector(n, &rng);
    std::vector<double> b = RandomVector(n, &rng);
    std::vector<double> y = RandomVector(n, &rng);
    std::vector<double> y_kernel = y;
    Axpy(0.75, a.data(), y_kernel.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y[i] + 0.75 * a[i], y_kernel[i]);
    }

    std::vector<double> out(n, 0.0);
    ShiftedProduct(a.data(), 0.3, b.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ((a[i] + 0.3) * b[i], out[i]);
    }

    std::vector<double> totals(n);
    for (size_t i = 0; i < n; ++i) totals[i] = 1.0 + b[i] * b[i];
    GibbsScore(a.data(), 0.1, b.data(), 0.01, totals.data(), 2.0,
               out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ((a[i] + 0.1) * (b[i] + 0.01) / (totals[i] + 2.0), out[i]);
    }

    // Zero-norm rows and a zero-norm query score exactly 1.
    std::vector<double> norms(n);
    for (size_t i = 0; i < n; ++i) norms[i] = i % 3 == 1 ? 0.0 : totals[i];
    CosineDistances(a.data(), 1.75, norms.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(norms[i] == 0.0 ? 1.0 : 1.0 - a[i] / (1.75 * norms[i]),
                out[i]);
    }
    CosineDistances(a.data(), 0.0, norms.data(), out.data(), n);
    for (double distance : out) EXPECT_EQ(1.0, distance);
  }
}

TEST(KernelParityTest, MatVecAndScoreBlockMatchPerRowDot) {
  Rng rng(303);
  for (size_t d : {1u, 7u, 8u, 64u, 65u}) {
    const size_t rows = 5;
    std::vector<double> a = RandomVector(rows * d, &rng);
    std::vector<double> x = RandomVector(d, &rng);
    std::vector<double> y(rows, 1.5);
    MatVec(a.data(), rows, d, x.data(), y.data());
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(1.5 + Dot(a.data() + r * d, x.data(), d), y[r]);
    }

    const size_t num_queries = 3;
    const size_t num_items = 5;  // one 4-item tile plus a remainder row
    std::vector<double> queries = RandomVector(num_queries * d, &rng);
    std::vector<double> items = RandomVector(num_items * d, &rng);
    std::vector<double> out(num_queries * num_items, 0.0);
    ScoreBlock(queries.data(), num_queries, items.data(), num_items, d,
               out.data());
    for (size_t q = 0; q < num_queries; ++q) {
      for (size_t j = 0; j < num_items; ++j) {
        // The contract: each (q, j) cell bit-identical to a standalone Dot.
        EXPECT_EQ(Dot(queries.data() + q * d, items.data() + j * d, d),
                  out[q * num_items + j]);
      }
    }
  }
}

TEST(KernelBitExactTest, PortableAndAvx2AgreeBitwise) {
  const internal::KernelTable& portable = internal::PortableTable();
  const internal::KernelTable* avx2 = internal::Avx2Table();
  if (avx2 == nullptr || !Avx2Available()) {
    GTEST_SKIP() << "AVX2 path not available on this build/host";
  }
  Rng rng(404);
  for (size_t n : TestSizes()) {
    std::vector<double> a = RandomVector(n, &rng);
    std::vector<double> b = RandomVector(n, &rng);
    EXPECT_EQ(portable.dot(a.data(), b.data(), n),
              avx2->dot(a.data(), b.data(), n));
    EXPECT_EQ(portable.squared_norm(a.data(), n),
              avx2->squared_norm(a.data(), n));
    EXPECT_EQ(portable.sum(a.data(), n), avx2->sum(a.data(), n));
    EXPECT_EQ(portable.squared_distance(a.data(), b.data(), n),
              avx2->squared_distance(a.data(), b.data(), n));

    std::vector<double> y1 = RandomVector(n, &rng);
    std::vector<double> y2 = y1;
    portable.axpy(1.25, a.data(), y1.data(), n);
    avx2->axpy(1.25, a.data(), y2.data(), n);
    EXPECT_EQ(y1, y2);

    std::vector<double> o1(n, 0.0);
    std::vector<double> o2(n, 0.0);
    portable.shifted_product(a.data(), 0.5, b.data(), o1.data(), n);
    avx2->shifted_product(a.data(), 0.5, b.data(), o2.data(), n);
    EXPECT_EQ(o1, o2);

    std::vector<double> totals(n);
    for (size_t i = 0; i < n; ++i) totals[i] = 1.0 + a[i] * a[i];
    portable.gibbs_score(a.data(), 0.1, b.data(), 0.01, totals.data(), 2.0,
                         o1.data(), n);
    avx2->gibbs_score(a.data(), 0.1, b.data(), 0.01, totals.data(), 2.0,
                      o2.data(), n);
    EXPECT_EQ(o1, o2);
  }

  // Matrix-shaped kernels at a few (rows, cols) shapes.
  for (size_t d : {3u, 8u, 33u, 128u}) {
    const size_t rows = 6;
    std::vector<double> a = RandomVector(rows * d, &rng);
    std::vector<double> x = RandomVector(d, &rng);
    std::vector<double> y1(rows, 0.25);
    std::vector<double> y2 = y1;
    portable.matvec(a.data(), rows, d, x.data(), y1.data());
    avx2->matvec(a.data(), rows, d, x.data(), y2.data());
    EXPECT_EQ(y1, y2);

    std::vector<double> queries = RandomVector(2 * d, &rng);
    std::vector<double> items = RandomVector(5 * d, &rng);
    std::vector<double> b1(2 * 5, 0.0);
    std::vector<double> b2(2 * 5, 0.0);
    portable.score_block(queries.data(), 2, items.data(), 5, d, b1.data());
    avx2->score_block(queries.data(), 2, items.data(), 5, d, b2.data());
    EXPECT_EQ(b1, b2);
  }
}

// The similarity scan's two kernels: ScoreBlock's 4-item register tile
// (every remainder of num_items % 4 and every tail width d % 4) and
// CosineDistances over its dots, including zero rows and a zero query.
// The AVX2 tile must match the portable path bit for bit, and each
// distance must equal the scalar formula.
TEST(KernelBitExactTest, ScoreBlockTileAndCosineDistancesAgreeBitwise) {
  const internal::KernelTable& portable = internal::PortableTable();
  const internal::KernelTable* avx2 = internal::Avx2Table();
  if (avx2 == nullptr || !Avx2Available()) {
    GTEST_SKIP() << "AVX2 path not available on this build/host";
  }
  auto bits = [](const std::vector<double>& v) {
    std::vector<uint64_t> out;
    for (double x : v) out.push_back(std::bit_cast<uint64_t>(x));
    return out;
  };
  Rng rng(505);
  for (size_t d = 1; d <= 9; ++d) {
    for (size_t num_items : {0u, 1u, 2u, 3u, 4u, 5u, 127u, 128u, 129u}) {
      for (size_t num_queries : {1u, 3u}) {
        std::vector<double> queries = RandomVector(num_queries * d, &rng);
        std::vector<double> items = RandomVector(num_items * d, &rng);
        // Every fifth item is a zero row; with three queries the last
        // one is a zero query.
        for (size_t j = 2; j < num_items; j += 5) {
          std::fill_n(items.begin() + j * d, d, 0.0);
        }
        if (num_queries == 3) std::fill_n(queries.begin() + 2 * d, d, 0.0);

        std::vector<double> dots1(num_queries * num_items, -7.0);
        std::vector<double> dots2 = dots1;
        portable.score_block(queries.data(), num_queries, items.data(),
                             num_items, d, dots1.data());
        avx2->score_block(queries.data(), num_queries, items.data(),
                          num_items, d, dots2.data());
        ASSERT_EQ(bits(dots1), bits(dots2))
            << "d=" << d << " items=" << num_items
            << " queries=" << num_queries;

        std::vector<double> norms(num_items);
        for (size_t j = 0; j < num_items; ++j) {
          norms[j] = std::sqrt(portable.squared_norm(items.data() + j * d, d));
        }
        for (size_t q = 0; q < num_queries; ++q) {
          const double query_norm =
              std::sqrt(portable.squared_norm(queries.data() + q * d, d));
          const double* dots = dots1.data() + q * num_items;
          std::vector<double> out1(num_items, -7.0);
          std::vector<double> out2 = out1;
          portable.cosine_distances(dots, query_norm, norms.data(),
                                    out1.data(), num_items);
          avx2->cosine_distances(dots, query_norm, norms.data(), out2.data(),
                                 num_items);
          ASSERT_EQ(bits(out1), bits(out2))
              << "d=" << d << " items=" << num_items << " query=" << q;
          for (size_t j = 0; j < num_items; ++j) {
            const double expected =
                (query_norm == 0.0 || norms[j] == 0.0)
                    ? 1.0
                    : 1.0 - dots[j] / (query_norm * norms[j]);
            EXPECT_EQ(std::bit_cast<uint64_t>(expected),
                      std::bit_cast<uint64_t>(out1[j]));
          }
        }
      }
    }
  }
}

TEST(KernelSpecialValueTest, NanAndInfPropagate) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // NaN anywhere poisons a reduction, whichever lane or tail slot it
  // lands in.
  for (size_t n : {1u, 4u, 5u, 9u}) {
    for (size_t pos = 0; pos < n; ++pos) {
      std::vector<double> a(n, 1.0);
      std::vector<double> b(n, 2.0);
      a[pos] = nan;
      EXPECT_TRUE(std::isnan(Dot(a.data(), b.data(), n)));
      EXPECT_TRUE(std::isnan(Sum(a.data(), n)));
      EXPECT_TRUE(std::isnan(SquaredNorm(a.data(), n)));
      EXPECT_TRUE(std::isnan(SquaredDistance(a.data(), b.data(), n)));
    }
  }
  // Infinities flow through with their sign where no cancellation occurs.
  std::vector<double> a = {1.0, inf, 2.0, 3.0, 4.0};
  std::vector<double> ones(5, 1.0);
  EXPECT_EQ(Sum(a.data(), 5), inf);
  EXPECT_EQ(Dot(a.data(), ones.data(), 5), inf);
  a[1] = -inf;
  EXPECT_EQ(Sum(a.data(), 5), -inf);
  // inf - inf inside SquaredDistance is NaN, and it must stay NaN.  The
  // same-signed infinity must sit at a shared index so the subtraction
  // (not the squaring) produces the NaN.
  a[1] = inf;
  std::vector<double> c(5, inf);
  EXPECT_TRUE(std::isnan(SquaredDistance(a.data(), c.data(), 5)));

  std::vector<double> out(5, 0.0);
  std::vector<double> nan_in(5, 1.0);
  nan_in[3] = nan;
  ShiftedProduct(nan_in.data(), 0.5, ones.data(), out.data(), 5);
  EXPECT_TRUE(std::isnan(out[3]));
  EXPECT_EQ(out[0], 1.5);

  std::vector<double> y(5, 0.0);
  Axpy(2.0, nan_in.data(), y.data(), 5);
  EXPECT_TRUE(std::isnan(y[3]));
  EXPECT_EQ(y[0], 2.0);
}

TEST(KernelDispatchTest, ParseSimdModeAcceptsKnownValuesOnly) {
  Result<SimdMode> parsed = ParseSimdMode("auto");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, SimdMode::kAuto);
  ASSERT_TRUE(ParseSimdMode("off").ok());
  EXPECT_EQ(*ParseSimdMode("off"), SimdMode::kOff);
  ASSERT_TRUE(ParseSimdMode("avx2").ok());
  EXPECT_EQ(*ParseSimdMode("avx2"), SimdMode::kAvx2);
  EXPECT_FALSE(ParseSimdMode("").ok());
  EXPECT_FALSE(ParseSimdMode("sse2").ok());
  EXPECT_FALSE(ParseSimdMode("AVX2").ok());
}

TEST(KernelDispatchTest, ModeSelectionRoutesTheActiveTable) {
  // Remember the entry state so this test leaves dispatch as it found it.
  const bool was_avx2 = ActivePathName() == "avx2";

  ASSERT_TRUE(SetSimdMode(SimdMode::kOff).ok());
  EXPECT_EQ(ActivePathName(), "portable");
  EXPECT_EQ(&internal::ActiveTable(), &internal::PortableTable());

  if (Avx2Available()) {
    ASSERT_TRUE(SetSimdMode(SimdMode::kAvx2).ok());
    EXPECT_EQ(ActivePathName(), "avx2");
    EXPECT_EQ(&internal::ActiveTable(), internal::Avx2Table());
    ASSERT_TRUE(SetSimdMode(SimdMode::kAuto).ok());
    EXPECT_EQ(ActivePathName(), "avx2");
  } else {
    Status status = SetSimdMode(SimdMode::kAvx2);
    EXPECT_FALSE(status.ok());
    // A rejected request must not change the active path.
    EXPECT_EQ(ActivePathName(), "portable");
    ASSERT_TRUE(SetSimdMode(SimdMode::kAuto).ok());
  }

  ASSERT_TRUE(
      SetSimdMode(was_avx2 ? SimdMode::kAuto : SimdMode::kOff).ok());
}

TEST(ArenaTest, BumpAllocatesAndResetsWithoutShrinking) {
  Arena arena(64);
  EXPECT_EQ(arena.used_doubles(), 0u);
  double* a = arena.AllocDoubles(10);
  double* b = arena.AllocDoubles(20);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(arena.used_doubles(), 30u);
  // Distinct live buffers never overlap.
  a[9] = 1.0;
  b[0] = 2.0;
  EXPECT_EQ(a[9], 1.0);

  arena.Reset();
  EXPECT_EQ(arena.used_doubles(), 0u);
  size_t capacity = arena.capacity_doubles();
  EXPECT_GE(capacity, 30u);
  // Steady state: same request pattern, no further heap growth.
  long long grows = arena.grow_count();
  arena.AllocDoubles(10);
  arena.AllocDoubles(20);
  EXPECT_EQ(arena.grow_count(), grows);
  EXPECT_EQ(arena.capacity_doubles(), capacity);
}

TEST(ArenaTest, OverflowGrowsThenResetCoalesces) {
  Arena arena(16);
  arena.AllocDoubles(16);
  arena.AllocDoubles(100);  // forces a second block
  EXPECT_GE(arena.capacity_doubles(), 116u);
  long long grows_after_overflow = arena.grow_count();
  EXPECT_GE(grows_after_overflow, 2);

  arena.Reset();
  // Reset coalesces the chain into one combined block; the coalescing
  // allocation itself counts as one grow, after which requests of the
  // same total shape are served without growing again.
  long long grows_after_coalesce = arena.grow_count();
  EXPECT_EQ(grows_after_coalesce, grows_after_overflow + 1);
  double* p = arena.AllocDoubles(116);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.grow_count(), grows_after_coalesce);

  arena.Reset();  // single block: no further coalescing
  p = arena.AllocDoubles(116);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.grow_count(), grows_after_coalesce);
}

TEST(ArenaTest, ZeroSizedAllocationIsValid) {
  Arena arena;
  double* p = arena.AllocDoubles(0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.used_doubles(), 0u);
}

TEST(ArenaTest, ScratchArenaIsPerThreadAndReusable) {
  Arena& arena = ScratchArena();
  arena.Reset();
  double* p = arena.AllocDoubles(8);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(&ScratchArena(), &arena);
  arena.Reset();
}

}  // namespace
}  // namespace hlm::simd
