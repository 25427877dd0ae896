#include "spanner/bundle.h"

namespace bcclap::spanner {

BundleResult bundle_spanner(const graph::Graph& g,
                            const std::vector<bool>& available,
                            const std::vector<double>& weights, std::size_t k,
                            std::size_t t, const ExistenceOracle& oracle,
                            rng::Stream& mark_stream, bcc::Network& net,
                            bool pure_oracle) {
  BundleResult out;
  std::vector<bool> avail = available;
  const std::int64_t start = net.accountant().mark();
  // One spanner object for all t runs: its scratch is allocated once.
  ProbabilisticSpanner spanner(g, k, weights, oracle, mark_stream, net,
                               pure_oracle);
  for (std::size_t i = 0; i < t; ++i) {
    const auto res = spanner.run(avail);
    out.deduction_consistent &= res.deduction_consistent;
    for (std::size_t j = 0; j < res.f_plus.size(); ++j) {
      out.bundle_edges.push_back(res.f_plus[j]);
      out.out_vertex.push_back(res.out_vertex[j]);
      avail[res.f_plus[j]] = false;
    }
    for (graph::EdgeId e : res.f_minus) {
      out.deleted_edges.push_back(e);
      avail[e] = false;
    }
  }
  out.rounds = net.accountant().since(start);
  return out;
}

}  // namespace bcclap::spanner
