#include "laplacian/engine.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

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

void EngineRegistry::register_engine(std::string key, PrepareFn prepare,
                                     SddFactory sdd_factory) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing, entry] : entries_) {
    if (existing == key) {
      entry = Entry{std::move(prepare), std::move(sdd_factory)};
      return;
    }
  }
  entries_.emplace_back(std::move(key),
                        Entry{std::move(prepare), std::move(sdd_factory)});
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
  if (requested.empty() || requested == "auto")
    return auto_select(n, density, eps);
  if (!registered(requested)) throw_unknown_key(requested);
  return requested;
}

std::shared_ptr<const PreparedLaplacian> EngineRegistry::prepare(
    const std::string& key, const common::Context& ctx, const graph::Graph& g,
    const EngineOptions& opt) const {
  if (key == "auto") {
    throw std::invalid_argument(
        "laplacian::EngineRegistry::prepare: \"auto\" is a selector, not an "
        "engine — resolve(key, n, density, eps) it to a concrete key first");
  }
  auto artifact = entry_or_throw(key).prepare(ctx, g, opt);
  if (!artifact) {
    throw std::runtime_error("laplacian::EngineRegistry::prepare: engine \"" +
                             key + "\" returned no artifact");
  }
  return artifact;
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
  if (linalg::sparse_path_preferred(n, density)) return "exact-sparse";
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
