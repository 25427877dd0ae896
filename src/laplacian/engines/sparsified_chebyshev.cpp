// "sparsified-chebyshev": the paper pipeline (Theorem 1.3) — spectral
// sparsifier preconditioner + preconditioned Chebyshev — as a registry
// engine. "auto" resolves here for every pre-registry anchor case
// (n < kSparseMinDim, eps above the exact cutoff), and the prepared
// artifact runs the byte-identical PR 6 code path.
#include <utility>

#include "laplacian/engine.h"
#include "laplacian/engines/builtin.h"

namespace bcclap::laplacian::engines {

void register_sparsified_chebyshev(EngineRegistry& registry) {
  registry.register_engine(
      "sparsified-chebyshev",
      [](const common::Context& ctx, const graph::Graph& g,
         const EngineOptions& opt) {
        return prepare_sparsified_chebyshev(ctx, g, opt.sparsify);
      },
      [](const common::Context& ctx, linalg::DenseMatrix m,
         const SddEngineOptions&) {
        return make_sparsified_sdd_engine(ctx, std::move(m));
      });
}

}  // namespace bcclap::laplacian::engines
