#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/parallel.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "models/lstm_cell.h"
#include "models/lstm_lm.h"

namespace hlm::models {
namespace {

// ------------------------------------------------------ LstmCell basics

TEST(LstmCellTest, ForwardShapesAndMaskPassThrough) {
  Rng rng(1);
  LstmCell cell(3, 4, &rng);
  Matrix x(2, 3, 0.5);
  Matrix h_prev(2, 4, 0.25);
  Matrix c_prev(2, 4, -0.5);
  std::vector<double> mask = {1.0, 0.0};
  LstmStepCache cache;
  cell.Forward(x, h_prev, c_prev, mask, &cache);
  EXPECT_EQ(cache.h.rows(), 2u);
  EXPECT_EQ(cache.h.cols(), 4u);
  // Masked row carries state through unchanged.
  for (int j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(cache.h(1, j), 0.25);
    EXPECT_DOUBLE_EQ(cache.c(1, j), -0.5);
  }
  // Active row changes state.
  bool changed = false;
  for (int j = 0; j < 4; ++j) changed |= cache.h(0, j) != 0.25;
  EXPECT_TRUE(changed);
}

TEST(LstmCellTest, ForgetGateBiasInitializedToOne) {
  Rng rng(2);
  LstmCell cell(3, 4, &rng);
  for (int j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(cell.params().bias[4 + j], 1.0);  // forget block
    EXPECT_DOUBLE_EQ(cell.params().bias[j], 0.0);      // input block
  }
}

TEST(LstmCellTest, NumParametersFormula) {
  Rng rng(3);
  LstmCell cell(10, 20, &rng);
  // Wx: 10*80, Wh: 20*80, bias: 80.
  EXPECT_EQ(cell.NumParameters(), 10 * 80 + 20 * 80 + 80);
}

// Satellite of the SIMD kernel PR: reusing caches and backward scratch
// across steps must be bit-identical to fresh allocations (DESIGN.md
// §12 workspace-reuse rules).
TEST(LstmCellTest, WarmCacheAndScratchBitIdenticalToFresh) {
  Rng rng(11);
  LstmCell cell(3, 4, &rng);
  Rng data_rng(12);
  Matrix x0 = Matrix::RandomGaussian(2, 3, 1.0, &data_rng);
  Matrix x1 = Matrix::RandomGaussian(2, 3, 1.0, &data_rng);
  Matrix h0(2, 4, 0.0);
  Matrix c0(2, 4, 0.0);
  std::vector<double> mask = {1.0, 1.0};

  // Fresh caches, one per step.
  LstmStepCache fresh0;
  LstmStepCache fresh1;
  cell.Forward(x0, h0, c0, mask, &fresh0);
  cell.Forward(x1, fresh0.h, fresh0.c, mask, &fresh1);

  // One warm cache pair reused across a prior run, then the same inputs.
  LstmStepCache warm0;
  LstmStepCache warm1;
  cell.Forward(x1, h0, c0, mask, &warm0);  // dirty the buffers
  cell.Forward(x0, warm0.h, warm0.c, mask, &warm1);
  cell.Forward(x0, h0, c0, mask, &warm0);
  cell.Forward(x1, warm0.h, warm0.c, mask, &warm1);
  for (size_t i = 0; i < fresh1.h.size(); ++i) {
    EXPECT_EQ(fresh1.h.data()[i], warm1.h.data()[i]);
    EXPECT_EQ(fresh1.c.data()[i], warm1.c.data()[i]);
  }

  // Backward with caller-owned scratch vs per-call locals.
  auto run_backward = [&](LstmBackwardScratch* scratch, LstmCellGrads* grads,
                          Matrix* dx) {
    Matrix dh(2, 4, 0.3);
    Matrix dc(2, 4, -0.1);
    grads->ZeroLike(cell.params());
    cell.Backward(fresh1, mask, &dh, &dc, dx, grads, scratch);
    cell.Backward(fresh0, mask, &dh, &dc, dx, grads, scratch);
  };
  LstmCellGrads grads_local;
  Matrix dx_local;
  run_backward(nullptr, &grads_local, &dx_local);
  LstmBackwardScratch scratch;
  LstmCellGrads grads_scratch;
  Matrix dx_scratch;
  run_backward(&scratch, &grads_scratch, &dx_scratch);
  for (size_t i = 0; i < grads_local.wx.size(); ++i) {
    EXPECT_EQ(grads_local.wx.data()[i], grads_scratch.wx.data()[i]);
  }
  for (size_t i = 0; i < grads_local.wh.size(); ++i) {
    EXPECT_EQ(grads_local.wh.data()[i], grads_scratch.wh.data()[i]);
  }
  for (size_t i = 0; i < grads_local.bias.size(); ++i) {
    EXPECT_EQ(grads_local.bias[i], grads_scratch.bias[i]);
  }
  for (size_t i = 0; i < dx_local.size(); ++i) {
    EXPECT_EQ(dx_local.data()[i], dx_scratch.data()[i]);
  }
}

// -------------------------------------------- Finite-difference gradcheck

// Scalar loss: weighted sums of h and c after two steps (the second step
// has one masked row), so the check covers recurrence and masking.
struct GradCheckSetup {
  LstmCell cell;
  Matrix x0, x1, h0, c0;
  std::vector<double> mask0, mask1;
  Matrix loss_wh, loss_wc;  // random positive weights

  explicit GradCheckSetup(Rng* rng)
      : cell(3, 4, rng),
        x0(Matrix::RandomGaussian(2, 3, 0.7, rng)),
        x1(Matrix::RandomGaussian(2, 3, 0.7, rng)),
        h0(Matrix::RandomGaussian(2, 4, 0.4, rng)),
        c0(Matrix::RandomGaussian(2, 4, 0.4, rng)),
        mask0({1.0, 1.0}),
        mask1({1.0, 0.0}),
        loss_wh(Matrix::RandomGaussian(2, 4, 1.0, rng)),
        loss_wc(Matrix::RandomGaussian(2, 4, 1.0, rng)) {}

  double Loss() const {
    LstmStepCache s0, s1;
    cell.Forward(x0, h0, c0, mask0, &s0);
    cell.Forward(x1, s0.h, s0.c, mask1, &s1);
    double loss = 0.0;
    for (size_t i = 0; i < s1.h.size(); ++i) {
      loss += s1.h.data()[i] * loss_wh.data()[i] +
              s1.c.data()[i] * loss_wc.data()[i];
    }
    return loss;
  }

  // Analytic gradients for all parameters plus x0.
  void Analytic(LstmCellGrads* grads, Matrix* dx0) {
    LstmStepCache s0, s1;
    cell.Forward(x0, h0, c0, mask0, &s0);
    cell.Forward(x1, s0.h, s0.c, mask1, &s1);
    grads->ZeroLike(cell.params());
    Matrix dh = loss_wh;
    Matrix dc = loss_wc;
    Matrix dx1;
    cell.Backward(s1, mask1, &dh, &dc, &dx1, grads);
    cell.Backward(s0, mask0, &dh, &dc, dx0, grads);
  }
};

TEST(LstmCellGradCheck, ParametersMatchFiniteDifferences) {
  Rng rng(42);
  GradCheckSetup setup(&rng);
  LstmCellGrads analytic;
  Matrix dx0;
  setup.Analytic(&analytic, &dx0);

  const double eps = 1e-5;
  auto check_tensor = [&](double* data, const double* grad, size_t n,
                          const char* name) {
    // Spot-check a deterministic subset to keep runtime sane.
    for (size_t i = 0; i < n; i += std::max<size_t>(1, n / 17)) {
      double saved = data[i];
      data[i] = saved + eps;
      double up = setup.Loss();
      data[i] = saved - eps;
      double down = setup.Loss();
      data[i] = saved;
      double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grad[i], numeric, 1e-5 * std::max(1.0, std::fabs(numeric)))
          << name << "[" << i << "]";
    }
  };

  LstmCellParams& params = setup.cell.params();
  check_tensor(params.wx.data(), analytic.wx.data(), params.wx.size(), "wx");
  check_tensor(params.wh.data(), analytic.wh.data(), params.wh.size(), "wh");
  check_tensor(params.bias.data(), analytic.bias.data(), params.bias.size(),
               "bias");
}

TEST(LstmCellGradCheck, InputGradientMatchesFiniteDifferences) {
  Rng rng(43);
  GradCheckSetup setup(&rng);
  LstmCellGrads analytic;
  Matrix dx0;
  setup.Analytic(&analytic, &dx0);

  const double eps = 1e-5;
  for (size_t i = 0; i < setup.x0.size(); ++i) {
    double saved = setup.x0.data()[i];
    setup.x0.data()[i] = saved + eps;
    double up = setup.Loss();
    setup.x0.data()[i] = saved - eps;
    double down = setup.Loss();
    setup.x0.data()[i] = saved;
    double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(dx0.data()[i], numeric,
                1e-5 * std::max(1.0, std::fabs(numeric)));
  }
}

// --------------------------------------------------- Language model level

std::vector<TokenSequence> DeterministicChains(int copies) {
  std::vector<TokenSequence> data;
  for (int i = 0; i < copies; ++i) {
    data.push_back({0, 1, 2, 3});
    data.push_back({4, 5, 6, 7});
  }
  return data;
}

TEST(LstmLmTest, MemorizesDeterministicChains) {
  LstmConfig config;
  config.hidden_size = 16;
  config.num_layers = 1;
  config.epochs = 60;
  config.dropout = 0.0;
  config.batch_size = 16;
  LstmLanguageModel lstm(8, config);
  auto data = DeterministicChains(16);
  lstm.Train(data, {});
  // After 0 the model must predict 1; after 4 -> 5.
  EXPECT_GT(lstm.NextProductDistribution({0})[1], 0.8);
  EXPECT_GT(lstm.NextProductDistribution({4})[5], 0.8);
  // Perplexity approaches the 2-way first-token uncertainty:
  // tokens 2-4 deterministic, token 1 is a coin flip -> ppl ~ 2^(1/4).
  double ppl = lstm.Perplexity(data);
  EXPECT_LT(ppl, 1.6);
}

TEST(LstmLmTest, TrainingReducesPerplexity) {
  LstmConfig config;
  config.hidden_size = 12;
  config.epochs = 25;
  config.dropout = 0.0;
  config.batch_size = 8;
  LstmLanguageModel lstm(8, config);
  auto data = DeterministicChains(20);
  double untrained = lstm.Perplexity(data);  // ~ vocabulary size
  auto history = lstm.Train(data, data);
  ASSERT_GE(history.size(), 2u);
  EXPECT_LT(lstm.Perplexity(data), untrained * 0.5);
  EXPECT_GT(untrained, 5.0);
}

TEST(LstmLmTest, PerplexityIdenticalAcrossThreadCounts) {
  // Eval batches score in parallel and reduce in batch order, so the
  // log-prob sum is the same at any thread count. Ragged lengths and an
  // empty sequence exercise the padding mask and the skip.
  LstmConfig config;
  config.hidden_size = 8;
  config.epochs = 2;
  config.batch_size = 3;
  LstmLanguageModel lstm(8, config);
  lstm.Train(DeterministicChains(4), {});
  std::vector<TokenSequence> data = DeterministicChains(5);
  data.push_back({});
  data.push_back({6, 2});
  data.push_back({1});
  SetNumThreads(1);
  const double serial = lstm.Perplexity(data);
  SetNumThreads(4);
  const double parallel = lstm.Perplexity(data);
  SetNumThreads(0);
  EXPECT_EQ(parallel, serial);
  EXPECT_GT(serial, 1.0);
}

TEST(LstmLmTest, DistributionNormalized) {
  LstmConfig config;
  config.hidden_size = 8;
  config.epochs = 2;
  LstmLanguageModel lstm(8, config);
  lstm.Train(DeterministicChains(4), {});
  for (const TokenSequence& history :
       {TokenSequence{}, TokenSequence{0}, TokenSequence{4, 5, 6}}) {
    auto dist = lstm.NextProductDistribution(history);
    double sum = 0.0;
    for (double p : dist) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(LstmLmTest, DeterministicInSeed) {
  LstmConfig config;
  config.hidden_size = 8;
  config.epochs = 3;
  config.seed = 123;
  auto data = DeterministicChains(8);
  LstmLanguageModel a(8, config), b(8, config);
  a.Train(data, {});
  b.Train(data, {});
  auto da = a.NextProductDistribution({0, 1});
  auto db = b.NextProductDistribution({0, 1});
  for (size_t i = 0; i < da.size(); ++i) EXPECT_DOUBLE_EQ(da[i], db[i]);
}

TEST(LstmLmTest, EarlyStoppingRestoresBestEpoch) {
  // Tiny training set + many epochs: validation worsens eventually; with
  // patience the restored model must score no worse than the best epoch
  // observed (up to tie).
  LstmConfig config;
  config.hidden_size = 24;
  config.epochs = 40;
  config.patience = 4;
  config.dropout = 0.0;
  config.seed = 9;
  LstmLanguageModel lstm(8, config);
  std::vector<TokenSequence> train = {{0, 1, 2, 3}, {4, 5, 6, 7},
                                      {0, 1, 2, 7}, {4, 5, 6, 3}};
  std::vector<TokenSequence> valid = {{0, 1, 2, 3}, {4, 5, 6, 7},
                                      {0, 5, 2, 3}};
  auto history = lstm.Train(train, valid);
  double best = 1e300;
  for (const auto& epoch : history) {
    best = std::min(best, epoch.valid_perplexity);
  }
  EXPECT_LT(history.size(), 41u);
  EXPECT_NEAR(lstm.Perplexity(valid), best, 1e-6);
}

TEST(LstmLmTest, EmbeddingsAndCompanyEmbeddingShapes) {
  LstmConfig config;
  config.hidden_size = 10;
  config.num_layers = 2;
  config.epochs = 1;
  LstmLanguageModel lstm(8, config);
  lstm.Train(DeterministicChains(4), {});
  auto embeddings = lstm.ProductEmbeddings();
  ASSERT_EQ(embeddings.size(), 8u);
  EXPECT_EQ(embeddings[0].size(), 10u);
  auto company = lstm.CompanyEmbedding({0, 1, 2});
  EXPECT_EQ(company.size(), 10u);
  // Different sequences produce different embeddings.
  auto other = lstm.CompanyEmbedding({4, 5, 6});
  EXPECT_NE(company, other);
}

TEST(LstmLmTest, ParameterCountDominatedByPaperFormula) {
  // The paper's §5 capacity argument: LSTM params dominated by
  // nc * (4 nc + no). Verify our count exceeds that bound.
  LstmConfig config;
  config.hidden_size = 100;
  config.num_layers = 1;
  LstmLanguageModel lstm(38, config);
  long long bound = 100LL * (4 * 100 + 38);
  EXPECT_GT(lstm.NumParameters(), bound);
  // And LDA's 156 parameters are orders of magnitude fewer.
  EXPECT_GT(lstm.NumParameters(), 156 * 100);
}

TEST(LstmLmTest, NameEncodesArchitecture) {
  LstmConfig config;
  config.hidden_size = 200;
  config.num_layers = 3;
  LstmLanguageModel lstm(8, config);
  EXPECT_EQ(lstm.name(), "lstm-3x200");
}

class LstmArchTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(LstmArchTest, TrainsAtAllPaperArchitectures) {
  auto [layers, hidden] = GetParam();
  LstmConfig config;
  config.hidden_size = hidden;
  config.num_layers = layers;
  config.epochs = 2;
  config.batch_size = 8;
  LstmLanguageModel lstm(8, config);
  auto history = lstm.Train(DeterministicChains(6), {});
  EXPECT_EQ(history.size(), 2u);
  EXPECT_GT(history[0].train_perplexity, history[1].train_perplexity * 0.5);
  auto dist = lstm.NextProductDistribution({0});
  EXPECT_EQ(dist.size(), 8u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, LstmArchTest,
    ::testing::Values(std::make_pair(1, 10), std::make_pair(2, 10),
                      std::make_pair(3, 10), std::make_pair(1, 32),
                      std::make_pair(2, 32)));

}  // namespace
}  // namespace hlm::models
