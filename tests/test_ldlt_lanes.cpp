// The dense LDL^T trailing update at both register widths: the four-lane
// (AVX2) build must give the two-lane build's bytes, tile by tile, and
// the solves of factors whose trailing updates meet every block shape —
// interior 8 x 4 blocks, diagonal overhang, a ragged last group, tiles
// whose row count is not a multiple of 8 — are pinned to values recorded
// with the two-lane kernel alone. Inputs use no libm call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/runtime.h"
#include "linalg/cholesky.h"
#include "linalg/ldlt_kernel.h"
#include "support/fnv.h"

namespace bcclap::linalg {
namespace {

using testsupport::Fnv;

// Deterministic non-dyadic values in [-0.5, 0.5): their products round,
// so a change of summation order would show in the last bit.
double staged_value(std::size_t i) {
  const std::size_t r = (i * 2654435761u + 12345u) % 1000003u;
  return static_cast<double>(r) / 1000003.0 - 0.5;
}

TEST(Ldlt, WideTrailingUpdateMatchesPortable) {
  if (!ldlt_kernel::wide_lanes())
    GTEST_SKIP() << "CPU lacks AVX2: only the two-lane trailing update runs "
                    "here, and the factor pins cover it";
  using ldlt_kernel::kLanes;
  using ldlt_kernel::kLdltBlock;
  // Rows below the block column: one 8-row block, a ragged last group
  // (13 = 3 groups + 1 row), and one and two tiles deep with ragged ends.
  for (std::size_t ke : {std::size_t{64}, std::size_t{128}}) {
    for (std::size_t below : {8u, 13u, 70u, 141u}) {
      const std::size_t n = ke + below;
      SCOPED_TRACE(testing::Message() << "ke=" << ke << " n=" << n);
      const std::size_t groups = (below + kLanes - 1) / kLanes;
      std::vector<double> rows(groups * kLdltBlock * kLanes);
      std::vector<double> scaled(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i] = staged_value(i);
        scaled[i] = staged_value(i + rows.size());
      }
      std::vector<double> before(LdltFactor::packed_size(n));
      for (std::size_t i = 0; i < before.size(); ++i)
        before[i] = staged_value(3 * i + 7);

      // Per-entry scalar reference: the products summed from 0.0 in
      // ascending k, then subtracted once.
      const auto staged = [&](const std::vector<double>& panel,
                              std::size_t i, std::size_t k) {
        const std::size_t g = (i - ke) / kLanes;
        return panel[(g * kLdltBlock + k) * kLanes + (i - ke) % kLanes];
      };
      std::vector<double> want = before;
      for (std::size_t j = ke; j < n; ++j)
        for (std::size_t i = j; i < n; ++i) {
          double sum = 0.0;
          for (std::size_t k = 0; k < kLdltBlock; ++k)
            sum += staged(rows, i, k) * staged(scaled, j, k);
          want[LdltFactor::packed_index(n, i, j)] -= sum;
        }

      std::vector<double> portable = before;
      std::vector<double> wide = before;
      for (std::size_t ilo = ke; ilo < n; ilo += kLdltBlock)
        for (std::size_t jlo = ke; jlo <= ilo; jlo += kLdltBlock) {
          ldlt_kernel::update_tile(portable.data(), n, ke, rows.data(),
                                   scaled.data(), ilo, jlo, false);
          ldlt_kernel::update_tile(wide.data(), n, ke, rows.data(),
                                   scaled.data(), ilo, jlo, true);
        }
      EXPECT_EQ(std::memcmp(portable.data(), want.data(),
                            want.size() * sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(wide.data(), want.data(),
                            want.size() * sizeof(double)),
                0);
    }
  }
}

// Diagonally dominant, every off-diagonal entry nonzero, so each trailing
// update carries inexact products.
DenseMatrix lane_spd(std::size_t n) {
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const std::size_t lo = std::min(i, j);
      const std::size_t hi = std::max(i, j);
      const double v = -static_cast<double>((hi * 29 + lo * 17) % 11 + 1) / 8.0;
      a(i, j) = v;
      row_sum -= v;
    }
    a(i, i) = row_sum + 1.0 + static_cast<double>(i % 3) / 4.0;
  }
  return a;
}

DenseMatrix rhs_panel(std::size_t n, std::size_t k) {
  DenseMatrix b(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j)
      b(i, j) = static_cast<double>((i * 31 + j * 17 + 7) % 23) - 11.0;
  return b;
}

TEST(Ldlt, SolvesPinnedAcrossTrailingUpdateShapes) {
  struct Case {
    std::size_t n;
    std::uint64_t solve;       // one right-hand side
    std::uint64_t solve_many;  // a 5-column panel
  };
  const Case cases[] = {
      {65, 275012178819252951ull, 14706338558386803475ull},
      {68, 3772685045724028735ull, 92982917320038320ull},
      {72, 14853342719322229825ull, 6055584487589378882ull},
      {96, 11937844876021548599ull, 2118878772612277412ull},
      {127, 3347197640099195759ull, 7658144994865703514ull},
      {128, 6011541951967435472ull, 12952229601507871464ull},
      {129, 10655982429001554712ull, 1238210179233098339ull},
      {136, 13622594939405748321ull, 9049202966372280803ull},
      {257, 8290955439397567719ull, 7957160368242641287ull},
      {1031, 18331810202395913761ull, 9452227782850544474ull},
  };
  for (std::size_t threads : {1u, 3u, 4u}) {
    RuntimeOptions opts;
    opts.threads = threads;
    Runtime rt(opts);
    const auto ctx = rt.context();
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message() << "n=" << c.n << " threads=" << threads);
      const auto f = LdltFactor::factor(ctx, lane_spd(c.n));
      ASSERT_TRUE(f.has_value());
      Fnv single;
      single.feed(f->solve(rhs_panel(c.n, 1).column(0)));
      Fnv many;
      many.feed(f->solve_many(ctx, rhs_panel(c.n, 5)));
      EXPECT_EQ(single.value(), c.solve);
      EXPECT_EQ(many.value(), c.solve_many);
    }
  }
}

}  // namespace
}  // namespace bcclap::linalg
