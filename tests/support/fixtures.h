// Shared test fixtures: deterministic graphs, networks, RNG streams and
// right-hand sides used across the suites. Everything here is a thin,
// deterministic wrapper over the library's own generators so tests stay
// reproducible in the seed they name.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/network.h"
#include "common/context.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "linalg/cholesky.h"
#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"
#include "lp/lp_solver.h"
#include "sparsify/spectral_sparsify.h"

namespace bcclap::testsupport {

// Execution context the suites hand to the layer APIs: the context of one
// fixture-owned, defaulted Runtime (BCCLAP_THREADS-sized, so CI's 4-thread
// reruns exercise the multi-worker paths) with the given seed.
common::Context test_context(std::uint64_t seed = 0);

// Broadcast CONGEST network over the topology of g with the model-default
// Theta(log n) bandwidth — the setting used by nearly every suite.
bcc::Network bc_net(const graph::Graph& g);

// Broadcast Congested Clique network over n nodes, default bandwidth.
bcc::Network bcc_net(std::size_t n);

// Overloads on an explicit context, for suites that construct their own
// Runtime (the 1-vs-N-thread determinism experiments) instead of using
// test_context().
bcc::Network bc_net(const common::Context& ctx, const graph::Graph& g);
bcc::Network bcc_net(const common::Context& ctx, std::size_t n);

// Bench-scale sparsifier options (DESIGN.md section 6): small fixed bundle
// size t so suites finish in seconds while exercising the full pipeline.
sparsify::SparsifyOptions small_sparsify_options(double epsilon = 1.0,
                                                 std::size_t k = 2,
                                                 std::size_t t = 3);

// Rounds spectral_sparsify charges under "sparsify/fixpoint" on a
// connected g when it runs `iterations` of its cap L: one stop check after
// each iteration before L, each a convergecast and broadcast over a BFS
// tree rooted at vertex 0 (2 ecc(0) rounds), plus one BFS wave of ecc(0)
// rounds that builds the tree before the first check.
std::int64_t expected_fixpoint_rounds(const graph::Graph& g,
                                      std::size_t iterations, std::size_t L);

// The graph's edge weights as a dense vector indexed by EdgeId — the form
// the spanner/bundle entry points take.
std::vector<double> edge_weights(const graph::Graph& g);

// A copy of g with every edge weight multiplied by `factor` (same vertex
// set and edge order). L_{scale_weights(g, c)} = c * L_g.
graph::Graph scale_weights(const graph::Graph& g, double factor);

// The standard 4-variable "diamond" LP: two unit-sum constraints,
// min x1 + 3 x2 + 2 x3 + x4 over [0,1]^4; optimum (1,0,0,1), objective 2.
// Shared between the LP suite and the pipeline integration test.
lp::LpProblem diamond_lp();

// n iid standard normal entries drawn from `stream`.
linalg::Vec gaussian_vector(std::size_t n, rng::Stream& stream);

// Gaussian vector with the mean removed — a valid Laplacian right-hand
// side (b must be orthogonal to the all-ones kernel).
linalg::Vec zero_sum_gaussian(std::size_t n, rng::Stream& stream);

// rows x cols matrix of iid standard normal entries (row-major draw order).
linalg::DenseMatrix gaussian_matrix(std::size_t rows, std::size_t cols,
                                    rng::Stream& stream);

// Random symmetric positive-definite matrix: B^T B + n I.
linalg::DenseMatrix random_spd(std::size_t n, rng::Stream& stream);

// One right-hand side through the Laplacian factor's one solve body: b as
// an n x 1 panel on test_context(), returning column 0.
linalg::Vec solve_one(const linalg::ComponentLaplacianFactor& f,
                      const linalg::Vec& b);

// Test fixture owning a root RNG stream. Suites derive labelled child
// streams so each random quantity has its own independent, reproducible
// source: graphs(), rhs(), marks() are the conventional labels.
class SeededTest : public ::testing::Test {
 protected:
  explicit SeededTest(std::uint64_t seed = kDefaultSeed) : root_(seed) {}

  rng::Stream& root() { return root_; }
  rng::Stream stream(std::string_view label) const {
    return root_.child(label);
  }
  rng::Stream graphs() const { return stream("graphs"); }
  rng::Stream rhs() const { return stream("rhs"); }
  rng::Stream marks() const { return stream("marks"); }

  static constexpr std::uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ull;

 private:
  rng::Stream root_;
};

}  // namespace bcclap::testsupport
