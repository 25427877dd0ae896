#include "laplacian/engine.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/env.h"
#include "laplacian/engines/builtin.h"
#include "linalg/sparse_ldlt.h"

namespace bcclap::laplacian {

namespace {

std::string join_keys(const std::vector<std::string>& keys) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << keys[i];
  }
  return oss.str();
}

// Stored-entry density of a dense-stored SDD matrix, for the SDD-side
// auto resolve: scan for exact zeros (assembled grams genuinely contain
// them for non-adjacent constraint pairs).
double dense_matrix_density(const linalg::DenseMatrix& m) {
  const std::size_t n = m.rows();
  if (n == 0) return 0.0;
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = m.row_data(i);
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (row[j] != 0.0) ++nnz;
  }
  return static_cast<double>(nnz) /
         (static_cast<double>(n) * static_cast<double>(m.cols()));
}

}  // namespace

// ---- LaplacianEngine base: the apply half of the prepare/apply split ----

bool LaplacianEngine::factor(const common::Context& ctx,
                             const graph::Graph& g) {
  prepared_ = prepare(ctx, g);
  prepared_here_ = true;
  return prepared_ && prepared_->usable();
}

void LaplacianEngine::adopt(std::shared_ptr<const PreparedLaplacian> artifact) {
  assert(artifact && artifact->usable() && "adopt() requires a usable artifact");
  prepared_ = std::move(artifact);
  prepared_here_ = false;
}

linalg::Vec LaplacianEngine::solve(const common::Context& ctx,
                                   const linalg::Vec& b) {
  assert(prepared_ && prepared_->usable() &&
         "factor()/adopt() must succeed before solve()");
  core::RunStats st;
  linalg::Vec x = prepared_->apply(ctx, b, opt_, &st);
  // Accumulate only the per-request counters; the artifact's prepare-phase
  // tallies (factor counts, sparsify count) are added once in report(),
  // never per solve.
  iterations_ += st.iterations;
  rounds_ += st.rounds;
  return x;
}

linalg::DenseMatrix LaplacianEngine::solve_many(const common::Context& ctx,
                                                const linalg::DenseMatrix& b) {
  assert(prepared_ && prepared_->usable() &&
         "factor()/adopt() must succeed before solve_many()");
  core::RunStats st;
  linalg::DenseMatrix x = prepared_->apply_many(ctx, b, opt_, &st);
  iterations_ += st.iterations;
  rounds_ += st.rounds;
  panels_ += st.panels;
  return x;
}

void LaplacianEngine::report(core::RunStats* stats) const {
  stats->engine = std::string(key());
  stats->iterations += iterations_;
  stats->rounds += rounds_;
  stats->panels += panels_;
  if (prepared_ && prepared_here_) {
    stats->dense_factors += prepared_->dense_factors();
    stats->sparse_factors += prepared_->sparse_factors();
    stats->sparsify_count += prepared_->sparsify_count();
    const linalg::SparseFactorPhases phases = prepared_->factor_phases();
    stats->supernodes += phases.supernodes;
    stats->factor_fill_nnz += phases.fill_nnz;
    stats->ordering_seconds += phases.ordering_seconds;
    stats->symbolic_seconds += phases.symbolic_seconds;
    stats->numeric_seconds += phases.numeric_seconds;
  }
}

const graph::Graph* LaplacianEngine::sparsifier() const {
  return prepared_ ? prepared_->sparsifier() : nullptr;
}

bool LaplacianEngine::tree_patched() const {
  return prepared_ && prepared_->tree_patched();
}

std::int64_t LaplacianEngine::preprocessing_rounds() const {
  return (prepared_ && prepared_here_) ? prepared_->preprocessing_rounds() : 0;
}

EngineRegistry& EngineRegistry::instance() {
  // Leaky singleton (never destroyed: engines may be created during other
  // statics' teardown in tests) with the built-ins registered before the
  // first caller can observe it.
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    engines::register_exact_dense(*r);
    engines::register_exact_sparse(*r);
    engines::register_sparsified_chebyshev(*r);
    engines::register_cg(*r);
    return r;
  }();
  return *registry;
}

void EngineRegistry::register_engine(std::string key,
                                     GraphFactory graph_factory,
                                     SddFactory sdd_factory) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing, entry] : entries_) {
    if (existing == key) {
      entry = Entry{std::move(graph_factory), std::move(sdd_factory)};
      return;
    }
  }
  entries_.emplace_back(
      std::move(key), Entry{std::move(graph_factory), std::move(sdd_factory)});
}

bool EngineRegistry::registered(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [existing, entry] : entries_)
    if (existing == key) return true;
  return false;
}

std::vector<std::string> EngineRegistry::keys() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string EngineRegistry::resolve(const std::string& requested,
                                    std::size_t n, double density,
                                    double eps) const {
  const bool is_auto = requested.empty() || requested == "auto";
  if (!is_auto) {
    if (!registered(requested)) throw_unknown_key(requested);
    return requested;
  }
  // BCCLAP_ENGINE is read live on every "auto" resolve (tests set and
  // unset it); accepted values are the registered keys plus "auto" (a
  // no-op spelling of the default), anything else warns once per distinct
  // value inside common::env::keyword and falls back to the tuner.
  std::vector<std::string> accepted = keys();
  accepted.push_back("auto");
  if (const auto env_key = common::env::keyword("BCCLAP_ENGINE", accepted,
                                                "falling back to auto")) {
    if (*env_key != "auto") return *env_key;
  }
  return auto_select(n, density, eps);
}

std::unique_ptr<LaplacianEngine> EngineRegistry::create(
    const std::string& key, const EngineOptions& opt) const {
  if (key == "auto") {
    throw std::invalid_argument(
        "laplacian::EngineRegistry::create: \"auto\" is a selector, not an "
        "engine — resolve(key, n, density, eps) it to a concrete key first");
  }
  return entry_or_throw(key).graph_factory(opt);
}

std::unique_ptr<SddEngine> EngineRegistry::create_sdd(
    const std::string& key, const common::Context& ctx, linalg::DenseMatrix m,
    const SddEngineOptions& opt) const {
  const SddFactory factory = sdd_factory(key, m, opt.eps_hint);
  return factory(ctx, std::move(m), opt);
}

EngineRegistry::SddFactory EngineRegistry::sdd_factory(
    const std::string& key, const linalg::DenseMatrix& m,
    double eps_hint) const {
  const std::string concrete =
      resolve(key, m.rows(), dense_matrix_density(m), eps_hint);
  Entry entry = entry_or_throw(concrete);
  if (!entry.sdd_factory) {
    throw std::invalid_argument(
        "laplacian::EngineRegistry::create_sdd: engine \"" + concrete +
        "\" has no SDD factory (registered: " + join_keys(keys()) + ")");
  }
  return std::move(entry.sdd_factory);
}

std::string EngineRegistry::auto_select(std::size_t n, double density,
                                        double eps) {
  if (n >= linalg::kSparseMinDim && density <= linalg::kSparseMaxDensity)
    return "exact-sparse";
  if (eps <= kAutoExactEps) return "exact-dense";
  return "sparsified-chebyshev";
}

double EngineRegistry::laplacian_density(const graph::Graph& g) {
  const std::size_t n = g.num_vertices();
  if (n == 0) return 0.0;
  // Stored entries of the CSR Laplacian: n diagonal + 2m off-diagonal.
  const double stored =
      static_cast<double>(n) + 2.0 * static_cast<double>(g.num_edges());
  return stored / (static_cast<double>(n) * static_cast<double>(n));
}

EngineRegistry::Entry EngineRegistry::entry_or_throw(
    const std::string& key) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [existing, entry] : entries_)
      if (existing == key) return entry;
  }
  throw_unknown_key(key);
}

void EngineRegistry::throw_unknown_key(const std::string& key) const {
  throw std::invalid_argument("laplacian::EngineRegistry: unknown engine key "
                              "\"" +
                              key + "\" (registered: " + join_keys(keys()) +
                              ", or auto)");
}

}  // namespace bcclap::laplacian
