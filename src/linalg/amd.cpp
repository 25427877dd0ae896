#include "linalg/amd.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>

namespace bcclap::linalg {

namespace {

constexpr std::size_t kNoneIdx = static_cast<std::size_t>(-1);

// Deduplicated off-diagonal adjacency lists of the pattern, sorted
// ascending. Shared setup of both orderings.
std::vector<std::vector<std::size_t>> build_adjacency(
    const CscSymmetricMatrix& a) {
  const std::size_t n = a.dim();
  std::vector<std::vector<std::size_t>> adj(n);
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_index();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = cp[j]; k < cp[j + 1]; ++k) {
      const std::size_t i = ri[k];
      if (i == j) continue;
      adj[i].push_back(j);
      adj[j].push_back(i);
    }
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return adj;
}

// splitmix64 finalizer — filter hash for indistinguishable-variable
// detection (candidates still compare their lists exactly).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Ordering amd_order(const CscSymmetricMatrix& a) {
  const std::size_t n = a.dim();
  // Quotient-graph state. Vertex ids double as element ids: eliminating
  // the supervariable represented by p turns p into the element whose
  // boundary is the new clique — no separate id space needed.
  //
  //  vadj[v]  surviving explicit variable neighbours of rep v (sorted
  //           ascending; only pruned, never extended — new connections
  //           arise exclusively through elements);
  //  eadj[v]  elements whose boundary contains v, in creation order;
  //  ebound[e] boundary supervariables of element e (pruned lazily);
  //  nv[v]    vertex weight of supervariable v (0 once absorbed);
  //  members[v] original vertices merged into rep v; empty means {v}.
  std::vector<std::vector<std::size_t>> vadj = build_adjacency(a);
  std::vector<std::vector<std::size_t>> eadj(n);
  std::vector<std::vector<std::size_t>> ebound(n);
  std::vector<std::vector<std::size_t>> members(n);
  std::vector<std::size_t> nv(n, 1);
  enum : char { kLiveVar = 0, kElement = 1, kDeadElement = 2, kAbsorbed = 3 };
  std::vector<char> state(n, kLiveVar);
  std::vector<std::size_t> deg(n);
  std::vector<std::uint64_t> vhash(n, 0);
  std::vector<std::size_t> mark(n, 0);
  std::size_t tag = 0;
  std::vector<std::size_t> wstamp(n, 0);
  std::vector<std::size_t> wval(n, 0);
  std::size_t wtag = 0;
  std::vector<char> ordered(n, 0);

  // Degrees start exact (all weights are 1); the queue keys on
  // (approximate external degree in vertex units, representative id),
  // which preserves the exact-MD lowest-original-id tie-break. It is a
  // binary min-heap with lazy deletion: a degree update pushes a fresh
  // entry and leaves the old one in place, and an entry is skipped when
  // it reaches the top if its vertex is no longer a live variable or its
  // degree is no longer the entry's. The entries that survive that rule
  // are exactly {(deg[v], v) : v live} (a repeated push of an unchanged
  // degree only adds a duplicate), so the top is the same minimum an
  // ordered set of those pairs would give, at every step.
  using Entry = std::pair<std::size_t, std::size_t>;
  std::vector<Entry> heap;
  const auto push = [&](std::size_t v) {
    heap.emplace_back(deg[v], v);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  };
  const auto pop = [&] {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    heap.pop_back();
  };
  for (std::size_t v = 0; v < n; ++v) {
    deg[v] = vadj[v].size();
    push(v);
  }

  // Live weight of element e's boundary; prunes dead members in passing.
  auto element_weight = [&](std::size_t e) {
    auto& bd = ebound[e];
    std::size_t out = 0;
    std::size_t weight = 0;
    for (std::size_t u : bd) {
      if (state[u] != kLiveVar) continue;
      bd[out++] = u;
      weight += nv[u];
    }
    bd.resize(out);
    return weight;
  };
  auto emit_members = [&](std::size_t v, std::vector<std::size_t>& out) {
    if (members[v].empty()) {
      out.push_back(v);
      ordered[v] = 1;
      return;
    }
    for (std::size_t m : members[v]) {
      out.push_back(m);
      ordered[m] = 1;
    }
  };

  Ordering ord;
  ord.perm.reserve(n);
  std::vector<std::size_t> lp;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  std::size_t remaining = n;
  while (remaining > kOrderingMinTailDim) {
    // A live variable always holds a current entry, and remaining > 0
    // means one is live, so the heap cannot run dry here.
    while (state[heap.front().second] != kLiveVar ||
           deg[heap.front().second] != heap.front().first)
      pop();
    const std::size_t dmin = heap.front().first;
    const std::size_t p = heap.front().second;
    if (2 * dmin >= remaining) break;
    pop();

    // Form the pivot element: Lp = (A_p ∪ ⋃_{e ∈ E_p} L_e) \ {p}.
    // Every element reachable from p has its boundary inside Lp ∪ {p}
    // afterwards, so it is absorbed into the new element outright.
    ++tag;
    mark[p] = tag;
    lp.clear();
    for (std::size_t u : vadj[p]) {
      if (state[u] != kLiveVar) continue;
      if (mark[u] != tag) {
        mark[u] = tag;
        lp.push_back(u);
      }
    }
    for (std::size_t e : eadj[p]) {
      if (state[e] != kElement) continue;
      for (std::size_t u : ebound[e]) {
        if (state[u] != kLiveVar) continue;
        if (mark[u] != tag) {
          mark[u] = tag;
          lp.push_back(u);
        }
      }
      state[e] = kDeadElement;
      ebound[e].clear();
      ebound[e].shrink_to_fit();
    }
    emit_members(p, ord.perm);
    remaining -= nv[p];
    std::size_t lp_weight = 0;
    for (std::size_t v : lp) lp_weight += nv[v];
    vadj[p].clear();
    vadj[p].shrink_to_fit();
    eadj[p].clear();
    eadj[p].shrink_to_fit();
    if (lp.empty()) {
      state[p] = kDeadElement;
      continue;
    }
    state[p] = kElement;
    ebound[p] = lp;

    // Pass 1 — the set-difference trick: one sweep over the element
    // lists of Lp leaves wval[e] = |L_e \ Lp| in vertex-weight units for
    // every element touching Lp (each boundary member of e that lies in
    // Lp subtracts its weight exactly once). Dead elements are pruned
    // from the eadj lists in passing.
    ++wtag;
    for (std::size_t v : lp) {
      auto& ev = eadj[v];
      std::size_t out = 0;
      for (std::size_t e : ev) {
        if (state[e] != kElement) continue;
        ev[out++] = e;
        if (wstamp[e] != wtag) {
          wstamp[e] = wtag;
          wval[e] = element_weight(e);
        }
        wval[e] -= nv[v];
      }
      ev.resize(out);
    }

    // Pass 2 — approximate external degrees:
    //   d_v = |Lp \ v| + Σ_{u ∈ A_v \ Lp} nv[u] + Σ_{e ∈ E_v} |L_e \ Lp|
    // clamped by the old degree bound and the remaining weight. Variable
    // neighbours inside Lp are dropped from A_v (they are now reached
    // through element p — this is what keeps the lists from growing),
    // and elements with wval == 0 have L_e ⊆ Lp, so they are absorbed
    // aggressively. The surviving lists feed the supervariable hash.
    for (std::size_t v : lp) {
      auto& av = vadj[v];
      std::size_t out = 0;
      std::size_t dv = lp_weight - nv[v];
      std::uint64_t h = 0;
      for (std::size_t u : av) {
        if (state[u] != kLiveVar || mark[u] == tag) continue;
        av[out++] = u;
        dv += nv[u];
        h += mix64(u);
      }
      av.resize(out);
      auto& ev = eadj[v];
      std::size_t eo = 0;
      for (std::size_t e : ev) {
        if (state[e] != kElement) continue;
        if (wval[e] == 0) {
          state[e] = kDeadElement;
          ebound[e].clear();
          ebound[e].shrink_to_fit();
          continue;
        }
        ev[eo++] = e;
        dv += wval[e];
        h += mix64(e + n);
      }
      ev.resize(eo);
      ev.push_back(p);
      h += mix64(p + n);
      dv = std::min(dv, remaining - nv[v]);
      dv = std::min(dv, deg[v] + lp_weight - nv[v]);
      deg[v] = dv;
      vhash[v] = h ^ mix64((av.size() << 20) | (ev.size() + 1));
    }

    // Pass 3 — mass elimination setup: supervariables of Lp with
    // identical quotient-graph adjacency (same pruned variable list and
    // same element list — all include the new element p) are
    // indistinguishable: they will be eliminated together, so they merge
    // now into the earliest-seen representative. The merged rep's
    // external degree drops by the absorbed weight. Hash buckets keep
    // this linear; candidates still compare lists exactly (both lists
    // are canonical: vadj stays sorted because it is only ever pruned,
    // eadj holds live elements in creation order for every rep).
    buckets.clear();
    for (std::size_t v : lp) {
      auto& cand = buckets[vhash[v]];
      bool absorbed = false;
      for (std::size_t u : cand) {
        if (state[u] != kLiveVar) continue;
        if (vadj[u] != vadj[v] || eadj[u] != eadj[v]) continue;
        nv[u] += nv[v];
        deg[u] -= nv[v];
        state[v] = kAbsorbed;
        nv[v] = 0;
        if (members[u].empty()) members[u].push_back(u);
        if (members[v].empty()) {
          members[u].push_back(v);
        } else {
          members[u].insert(members[u].end(), members[v].begin(),
                            members[v].end());
          members[v].clear();
          members[v].shrink_to_fit();
        }
        vadj[v].clear();
        vadj[v].shrink_to_fit();
        eadj[v].clear();
        eadj[v].shrink_to_fit();
        absorbed = true;
        break;
      }
      if (!absorbed) cand.push_back(v);
    }
    for (std::size_t v : lp) {
      if (state[v] == kLiveVar) push(v);
    }
  }
  ord.t = ord.perm.size();
  // Tail vertices in ascending original id — deterministic, and keeps
  // the permuted tail block in a stable layout for the dense kernel.
  for (std::size_t v = 0; v < n; ++v) {
    if (ordered[v] == 0) ord.perm.push_back(v);
  }
  return ord;
}

// Minimum-degree ordering on the explicit elimination graph (PR 6
// implementation, verbatim): eliminating v fuses its neighbourhood into a
// clique, so every neighbour's list unions in the others. Exact degrees,
// but the clique materialization is what amd_order exists to avoid.
Ordering exact_min_degree_order(const CscSymmetricMatrix& a) {
  const std::size_t n = a.dim();
  std::vector<std::vector<std::size_t>> adj = build_adjacency(a);
  std::set<std::pair<std::size_t, std::size_t>> pq;  // (degree, vertex)
  for (std::size_t v = 0; v < n; ++v) pq.insert({adj[v].size(), v});
  std::vector<char> eliminated(n, 0);
  Ordering ord;
  ord.perm.reserve(n);
  std::size_t remaining = n;
  std::vector<std::size_t> merged;
  while (remaining > kOrderingMinTailDim) {
    const std::size_t deg = pq.begin()->first;
    const std::size_t v = pq.begin()->second;
    if (2 * deg >= remaining) break;
    pq.erase(pq.begin());
    eliminated[v] = 1;
    ord.perm.push_back(v);
    --remaining;
    const std::vector<std::size_t> nb = std::move(adj[v]);
    adj[v] = {};
    for (std::size_t u : nb) {
      std::vector<std::size_t>& au = adj[u];
      merged.clear();
      merged.reserve(au.size() + nb.size());
      std::size_t x = 0;
      std::size_t y = 0;
      while (x < au.size() && y < nb.size()) {
        if (au[x] == v) {
          ++x;
        } else if (nb[y] == u) {
          ++y;
        } else if (au[x] < nb[y]) {
          merged.push_back(au[x++]);
        } else if (nb[y] < au[x]) {
          merged.push_back(nb[y++]);
        } else {
          merged.push_back(au[x]);
          ++x;
          ++y;
        }
      }
      for (; x < au.size(); ++x)
        if (au[x] != v) merged.push_back(au[x]);
      for (; y < nb.size(); ++y)
        if (nb[y] != u) merged.push_back(nb[y]);
      pq.erase({au.size(), u});
      au = merged;
      pq.insert({au.size(), u});
    }
  }
  ord.t = ord.perm.size();
  for (std::size_t v = 0; v < n; ++v)
    if (eliminated[v] == 0) ord.perm.push_back(v);
  return ord;
}

std::size_t ordering_fill_nnz(const CscSymmetricMatrix& a,
                              const Ordering& ord) {
  const std::size_t n = a.dim();
  const std::size_t t = ord.t;
  std::vector<std::size_t> iperm(n);
  for (std::size_t k = 0; k < n; ++k) iperm[ord.perm[k]] = k;
  // Permuted upper-triangle pattern (entries unordered within a column,
  // duplicates kept — the flag guard below is immune to both).
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_index();
  std::vector<std::size_t> pcp(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = cp[j]; k < cp[j + 1]; ++k)
      ++pcp[std::max(iperm[ri[k]], iperm[j]) + 1];
  }
  for (std::size_t j = 0; j < n; ++j) pcp[j + 1] += pcp[j];
  std::vector<std::size_t> pri(pcp[n]);
  {
    std::vector<std::size_t> fill(pcp.begin(), pcp.end() - 1);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = cp[j]; k < cp[j + 1]; ++k) {
        std::size_t r = iperm[ri[k]];
        std::size_t c = iperm[j];
        if (r > c) std::swap(r, c);
        pri[fill[c]++] = r;
      }
    }
  }
  // Truncated-etree symbolic count — the same row-subtree traversal
  // SparseLdltFactor::factor runs (see sparse_ldlt.cpp for the contract).
  std::vector<std::size_t> parent(n, kNoneIdx);
  std::vector<std::size_t> flag(n, kNoneIdx);
  std::size_t nnz = 0;
  for (std::size_t k = 0; k < n; ++k) {
    flag[k] = k;
    for (std::size_t p = pcp[k]; p < pcp[k + 1]; ++p) {
      std::size_t i = pri[p];
      if (i >= k || i >= t) continue;
      while (flag[i] != k) {
        if (parent[i] == kNoneIdx) parent[i] = k;
        flag[i] = k;
        ++nnz;
        if (parent[i] >= t) break;
        i = parent[i];
      }
    }
  }
  return nnz;
}

}  // namespace bcclap::linalg
