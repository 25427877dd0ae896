#include "lp/leverage_scores.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/laplacian.h"
#include "support/fixtures.h"

namespace bcclap::lp {
namespace {

using testsupport::test_context;

TEST(LeverageScores, SumEqualsRank) {
  rng::Stream stream(1);
  const auto a = testsupport::gaussian_matrix(40, 7, stream);
  const auto sigma = leverage_scores_exact(test_context(), a);
  double sum = 0.0;
  for (double s : sigma) {
    EXPECT_GE(s, -1e-10);
    EXPECT_LE(s, 1.0 + 1e-10);
    sum += s;
  }
  EXPECT_NEAR(sum, 7.0, 1e-8);  // sum sigma = rank(A)
}

TEST(LeverageScores, OrthogonalMatrixUniformScores) {
  // For A with orthonormal columns scaled rows... identity block: scores
  // are exactly 1 on the identity rows, 0 elsewhere.
  linalg::DenseMatrix a(5, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  const auto sigma = leverage_scores_exact(test_context(), a);
  EXPECT_NEAR(sigma[0], 1.0, 1e-10);
  EXPECT_NEAR(sigma[1], 1.0, 1e-10);
  EXPECT_NEAR(sigma[2], 0.0, 1e-10);
}

TEST(LeverageScores, IncidenceMatrixScoresAreEffectiveResistances) {
  // For the incidence matrix B of an unweighted graph,
  // sigma_e = effective resistance of e. On a tree every edge has
  // resistance 1; on a cycle of length L, 1 - 1/L... = (L-1)/L.
  const auto tree = graph::path(6);
  const auto bt = graph::incidence(tree).to_dense();
  // Grounded: drop a column to make full rank.
  linalg::DenseMatrix btg(bt.rows(), bt.cols() - 1);
  for (std::size_t r = 0; r < bt.rows(); ++r)
    for (std::size_t c = 0; c + 1 < bt.cols(); ++c) btg(r, c) = bt(r, c);
  const auto sigma_tree = leverage_scores_exact(test_context(), btg);
  for (double s : sigma_tree) EXPECT_NEAR(s, 1.0, 1e-9);

  const auto cyc = graph::cycle(5);
  const auto bc = graph::incidence(cyc).to_dense();
  linalg::DenseMatrix bcg(bc.rows(), bc.cols() - 1);
  for (std::size_t r = 0; r < bc.rows(); ++r)
    for (std::size_t c = 0; c + 1 < bc.cols(); ++c) bcg(r, c) = bc(r, c);
  const auto sigma_cyc = leverage_scores_exact(test_context(), bcg);
  for (double s : sigma_cyc) EXPECT_NEAR(s, 4.0 / 5.0, 1e-9);
}

class JlLeverage : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JlLeverage, ApproximatesExactScores) {
  rng::Stream stream(GetParam());
  const auto a = testsupport::gaussian_matrix(80, 6, stream);
  const auto exact = leverage_scores_exact(test_context(), a);
  LeverageOptions opt;
  opt.eta = 0.5;
  opt.jl_constant = 24.0;  // generous k for a deterministic test bound
  opt.seed = GetParam() * 31 + 7;
  const auto approx =
      leverage_scores_jl(test_context(), dense_oracle(test_context(), a), opt);
  int good = 0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    if (approx[i] >= (1 - 0.6) * exact[i] && approx[i] <= (1 + 0.6) * exact[i])
      ++good;
  }
  // Allow a few outliers (JL is probabilistic per coordinate).
  EXPECT_GE(good, static_cast<int>(exact.size()) - 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JlLeverage, ::testing::Values(1, 2, 3, 4));

TEST(LeverageScores, JlChargesSeedBroadcastRounds) {
  rng::Stream stream(9);
  const auto a = testsupport::gaussian_matrix(30, 4, stream);
  bcc::RoundAccountant acct;
  LeverageOptions opt;
  opt.eta = 0.9;
  (void)leverage_scores_jl(test_context(), dense_oracle(test_context(), a),
                           opt, &acct);
  EXPECT_GT(acct.total_for("leverage/seed"), 0);
  EXPECT_GT(acct.total_for("leverage/matvec"), 0);
  EXPECT_GT(acct.total_for("leverage/gram-solve"), 0);
}

TEST(LeverageScores, JlFullWidthPanelMatchesBatchedBitwise) {
  // probe_batch = 0 (one full-width panel, the default) against the PR 9
  // fixed 16-probe batching — and an awkward width that doesn't divide
  // the sketch dimension. The panel ops are column-wise independent and
  // sigma accumulates sequentially in probe order, so every batch width
  // must produce the same bytes.
  rng::Stream stream(12);
  const auto a = testsupport::gaussian_matrix(60, 5, stream);
  const auto o = dense_oracle(test_context(), a);
  LeverageOptions opt;
  opt.seed = 41;
  opt.probe_batch = 16;  // the old fixed batch width: the reference
  const auto batched = leverage_scores_jl(test_context(), o, opt);
  opt.probe_batch = 0;
  const auto full = leverage_scores_jl(test_context(), o, opt);
  opt.probe_batch = 7;
  const auto odd = leverage_scores_jl(test_context(), o, opt);
  ASSERT_EQ(full.size(), batched.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i], batched[i]) << "i=" << i;
    EXPECT_EQ(odd[i], batched[i]) << "i=" << i;
  }
}

TEST(LeverageScores, JlDeterministicInSeed) {
  rng::Stream stream(10);
  const auto a = testsupport::gaussian_matrix(25, 3, stream);
  LeverageOptions opt;
  opt.seed = 77;
  const auto o = dense_oracle(test_context(), a);
  EXPECT_EQ(leverage_scores_jl(test_context(), o, opt),
            leverage_scores_jl(test_context(), o, opt));
}

TEST(LeverageScores, ZeroColumnBesideHugeColumnIsDefined) {
  // M^T M = diag(3e16, 0) defeats the plain factorization and the
  // per-entry ridge; the max-diagonal ridge retry still factors it, and
  // every row carries column 0's leverage, 1/3.
  linalg::DenseMatrix m(3, 2);
  for (std::size_t i = 0; i < 3; ++i) m(i, 0) = 1e8;
  const auto sigma = leverage_scores_exact(test_context(), m);
  ASSERT_EQ(sigma.size(), 3u);
  for (double s : sigma) {
    ASSERT_TRUE(std::isfinite(s));
    EXPECT_NEAR(s, 1.0 / 3.0, 1e-9);
  }
}

}  // namespace
}  // namespace bcclap::lp
