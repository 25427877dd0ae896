// "exact-dense": grounded dense blocked LDL^T per connected component
// (linalg/cholesky.h with the dense backend pinned). The reference engine:
// exact to working precision, zero iterations, no preconditioner — models
// the local computation each node performs on a globally-known topology,
// so it charges no BCC rounds.
#include <utility>

#include "laplacian/engine.h"
#include "laplacian/engines/builtin.h"
#include "linalg/sparse_ldlt.h"

namespace bcclap::laplacian::engines {

void register_exact_dense(EngineRegistry& registry) {
  registry.register_engine(
      "exact-dense",
      [](const common::Context& ctx, const graph::Graph& g,
         const EngineOptions&) {
        return prepare_exact(ctx, g, linalg::FactorMode::kForceDense,
                             "exact-dense");
      },
      [](const common::Context& ctx, linalg::DenseMatrix m,
         const SddEngineOptions& opt) {
        return make_exact_sdd_engine(ctx, std::move(m), opt.network_n);
      });
}

}  // namespace bcclap::laplacian::engines
