#include "spanner/connect.h"

namespace bcclap::spanner {

ConnectResult connect(std::vector<Candidate> candidates,
                      const std::function<bool(graph::EdgeId)>& exists) {
  Candidate* first = candidates.data();
  const std::size_t rejected =
      connect_in_place(first, first + candidates.size(), exists);
  ConnectResult result;
  result.rejected.assign(first, first + rejected);
  if (rejected < candidates.size()) result.accepted = first[rejected];
  return result;
}

}  // namespace bcclap::spanner
