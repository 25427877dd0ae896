#include "spanner/probabilistic_spanner.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "common/encoding.h"
#include "common/context.h"
#include "spanner/connect.h"

namespace bcclap::spanner {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Wire format of the per-step broadcasts. We model them as bcc::Message
// field sequences; `w` is the weight field, so one message is
// O(log n + log W) bits exactly as in Lemma 3.2.
//
// Step 2 message:    [has(1)] [joined_cluster(id)] [u(id)] [w]
//                    or [has=0] meaning (bot, W_v = inf).
// Step 3/4 message:  [cluster X(id)] [has(1)] [u(id)] [w]
//
// When every available weight of the run is an integer in [0, 2^63) (the
// sparsifier's case: integer inputs times powers of 4), w is the weight
// itself in bits_w bits, the (global) width of the largest one. Otherwise
// w is the weight's exact order-preserving 64-bit key (enc::order_key), so
// receivers compare against the decider's exact weight either way.
struct Decoded {
  bool has = false;
  std::size_t cluster = kNone;
  std::size_t u = kNone;
  double w = kInf;
};

}  // namespace

// Each superstep of the decider side runs as three engine phases:
//
//   A. build  (parallel)  — every node assembles and sorts its candidate
//      groups. Reads only pass-stable state (cluster membership, marks,
//      thresholds and decisions from *previous* steps), so nodes fan out
//      across the worker pool freely.
//   B. sample — nodes replay Connect over the pre-sorted candidates. This
//      is the only phase that consumes the existence oracle. For stateful
//      oracles (sequential RNG streams) the nodes are walked in id order,
//      which pins the oracle call order and makes runs byte-identical
//      regardless of thread count. When the caller declares the oracle
//      *pure* (opt.pure_oracle — the sparsifier's survival coins), the
//      decide step fans out across the worker pool instead: the oracle's
//      answers do not depend on call order, and within one superstep every
//      edge has a unique decider, so decision/belief writes are per-edge
//      disjoint. Either way a sequential commit step then appends to
//      F+/F- in exact (node, group, candidate) order, so both paths
//      produce identical results.
//   C. broadcast + deduce — the planned messages go through
//      Network::exchange, whose view names each sender's edge and message
//      slice, and recipients apply the Section 3.1 deduction rules
//      concurrently: receiver u only writes its own side's belief and
//      w_seen_ slots, so the fan-out is race-free. A receiver applies the
//      filters that do not depend on the message first, and in steps 3
//      and 4 then looks up the one message addressed to its own cluster
//      by binary search over the sender's slice, which is ascending by
//      cluster id.
//
// All per-node candidate, group and outbox buffers live in the object and
// are cleared, not reallocated, between supersteps and runs. Each run also
// builds a CSR of its live edges, so phase A scans only available edges.
//
// Phase A/B splitting is exact, not approximate: within one superstep each
// edge has a unique decider (step 2 deciders sit in unmarked clusters and
// their candidates in marked ones; steps 3/4 order the two sides by
// cluster id), so no node's candidate set depends on a decision taken by
// another node in the same superstep.
class ProbabilisticSpanner::Impl {
 public:
  Impl(const graph::Graph& g, std::size_t k,
       const std::vector<double>& weights, const ExistenceOracle& oracle,
       rng::Stream& mark_stream, bcc::Network& net, bool pure_oracle)
      : g_(g),
        oracle_(oracle),
        mark_stream_(mark_stream),
        net_(net),
        n_(g.num_vertices()),
        m_(g.num_edges()),
        k_(k),
        pure_oracle_(pure_oracle),
        weights_(&weights),
        scratch_(n_),
        planned_(n_) {
    if (net.model() != bcc::Model::kBroadcastCongest ||
        net.num_nodes() != n_) {
      throw std::invalid_argument(
          "spanner: the network must be Broadcast CONGEST over g");
    }
    if (weights.empty()) {
      graph_weights_.resize(m_);
      for (std::size_t e = 0; e < m_; ++e) {
        graph_weights_[e] = g_.edge(e).weight;
      }
      weights_ = &graph_weights_;
    }
  }

  ProbabilisticSpannerResult run(const std::vector<bool>& available) {
    if (available.empty()) {
      all_available_.assign(m_, true);
      avail_ = &all_available_;
    } else {
      avail_ = &available;
    }
    reset();
    const std::int64_t start = net_.accountant().mark();
    const double mark_prob =
        std::pow(static_cast<double>(n_), -1.0 / static_cast<double>(k_));

    for (std::size_t phase = 1; phase < k_; ++phase) {
      step1_mark_clusters(mark_prob, phase);
      step2_connect_to_marked();
      step3_connect_unmarked(/*lower_ids=*/true);
      step3_connect_unmarked(/*lower_ids=*/false);
      apply_pending_joins();
    }
    step4_final_joining();

    result_.rounds = net_.accountant().since(start);
    check_belief_consistency();
    return std::move(result_);
  }

 private:
  // One Connect invocation planned for a node this superstep: the target
  // cluster (kNone in step 2, where the broadcast carries the joined
  // cluster instead) and its candidates, the node's cands[begin, end).
  // After the decide step that range is in Connect order, and `rejected`
  // counts its leading entries that Connect sampled out of existence; the
  // entry after them, if any, is the accepted candidate.
  struct Group {
    std::size_t cluster;
    std::size_t begin;
    std::size_t end;
    std::size_t rejected = 0;

    bool accepted() const { return begin + rejected < end; }
  };

  // Per-node superstep scratch, written only by its node's task and kept
  // (cleared, capacity intact) across supersteps and runs.
  struct NodeScratch {
    std::vector<Candidate> cands;
    std::vector<Group> groups;
  };

  // Fresh per-run state; the buffers keep their capacity.
  void reset() {
    double wmax = 1.0;
    integer_weights_ = true;
    for (std::size_t e = 0; e < m_; ++e) {
      if (!available(e)) continue;
      const double w = weight(e);
      if (!std::isfinite(w)) {
        throw std::invalid_argument("spanner: edge weights must be finite");
      }
      integer_weights_ =
          integer_weights_ && w >= 0.0 && w < 0x1p63 && w == std::trunc(w);
      wmax = std::max(wmax, w);
    }
    bits_w_ = integer_weights_
                  ? enc::bit_width_u64(static_cast<std::uint64_t>(wmax))
                  : 64;
    // Live adjacency: node v's available edges in incident order, kept
    // branch-free like collect(). live_ has room for every incident entry.
    live_offsets_.assign(n_ + 1, 0);
    live_.resize(2 * m_);
    std::size_t kept = 0;
    for (std::size_t v = 0; v < n_; ++v) {
      for (graph::EdgeId e : g_.incident(v)) {
        const graph::Edge& ed = g_.edge(e);
        live_[kept] = {ed.u == v ? ed.v : ed.u, e, weight(e)};
        kept += static_cast<std::size_t>(available(e));
      }
      live_offsets_[v + 1] = kept;
    }
    decision_.assign(m_, EdgeDecision::kUndecided);
    in_f_plus_.assign(m_, false);
    belief_.assign(m_, {EdgeDecision::kUndecided, EdgeDecision::kUndecided});
    w_seen_.assign(m_, {kInf, kInf});
    cluster_.resize(n_);
    for (std::size_t v = 0; v < n_; ++v) cluster_[v] = v;
    marked_.assign(n_, false);
    w_threshold_.assign(n_, kInf);
    pending_join_.assign(n_, kNone);
    center_population_cache_.clear();
    result_ = {};
  }

  // --- shared helpers ---------------------------------------------------

  double weight(graph::EdgeId e) const { return (*weights_)[e]; }

  bool available(graph::EdgeId e) const { return (*avail_)[e]; }

  // For a live edge: not yet sampled out of existence.
  bool not_deleted(graph::EdgeId e) const {
    return decision_[e] != EdgeDecision::kDeleted;
  }

  // The belief_/w_seen_ side of endpoint `self` on any edge joining it to
  // `other`: graph edges store their lower endpoint first, on side 0.
  static std::size_t side(graph::VertexId self, graph::VertexId other) {
    return self < other ? 0 : 1;
  }

  void record_decider_belief(graph::VertexId v, const Candidate& c) {
    belief_[c.e][side(v, c.u)] = decision_[c.e];
  }

  // Commit-side F+ bookkeeping only; the decider's belief was already
  // recorded by decide_node (decide writes decisions/beliefs, commit
  // writes F+/F-).
  void accept_edge(graph::VertexId v, const Candidate& c) {
    if (!in_f_plus_[c.e]) {
      in_f_plus_[c.e] = true;
      result_.f_plus.push_back(c.e);
      result_.out_vertex.push_back(v);
    }
  }

  bool in_unmarked_cluster(graph::VertexId v) const {
    return cluster_[v] != kNone && !marked_[cluster_[v]];
  }
  bool in_marked_cluster(graph::VertexId v) const {
    return cluster_[v] != kNone && marked_[cluster_[v]];
  }

  // Phase A helper: node v's live candidates c with keep(c), in incident
  // order. Every candidate is stored and the cursor advances by the
  // predicate, so the data-dependent filter costs no branch.
  template <typename Keep>
  void collect(graph::VertexId v, NodeScratch& sc, Keep&& keep) const {
    const Candidate* first = live_.data() + live_offsets_[v];
    const std::size_t deg = live_offsets_[v + 1] - live_offsets_[v];
    sc.cands.resize(deg);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < deg; ++i) {
      sc.cands[kept] = first[i];
      kept += static_cast<std::size_t>(keep(first[i]));
    }
    sc.cands.resize(kept);
  }

  // Phase A helper for steps 3 and 4: groups node v's candidates (pushed in
  // incident order) by target cluster, ascending — the broadcast order.
  // Adjacency lists hold edge ids ascending, so sorting on (cluster, edge)
  // keeps each group in incident order, the order Connect's sort has
  // always been handed.
  void group_by_cluster(NodeScratch& sc) const {
    auto& cands = sc.cands;
    std::sort(cands.begin(), cands.end(),
              [this](const Candidate& a, const Candidate& b) {
                const std::size_t xa = cluster_[a.u];
                const std::size_t xb = cluster_[b.u];
                return xa != xb ? xa < xb : a.e < b.e;
              });
    for (std::size_t i = 0; i < cands.size();) {
      const std::size_t x = cluster_[cands[i].u];
      std::size_t j = i + 1;
      while (j < cands.size() && cluster_[cands[j].u] == x) ++j;
      sc.groups.push_back({x, i, j});
      i = j;
    }
  }

  // --- message encoding --------------------------------------------------

  std::uint64_t weight_field(double w) const {
    return integer_weights_ ? static_cast<std::uint64_t>(w)
                            : enc::order_key(w);
  }

  double weight_from_field(std::uint64_t f) const {
    return integer_weights_ ? static_cast<double>(f) : enc::from_order_key(f);
  }

  bcc::Message encode_step2(const Candidate* acc) const {
    bcc::Message msg;
    if (!acc) {
      msg.push_flag(false);
      return msg;
    }
    msg.push_flag(true);
    msg.push_id(cluster_[acc->u], n_);
    msg.push_id(acc->u, n_);
    msg.push(weight_field(acc->weight), bits_w_);
    return msg;
  }

  Decoded decode_step2(const bcc::Message& msg) const {
    Decoded d;
    d.has = msg.field(0) != 0;
    if (d.has) {
      d.cluster = msg.field(1);
      d.u = msg.field(2);
      d.w = weight_from_field(msg.field(3));
    }
    return d;
  }

  bcc::Message encode_cluster_msg(std::size_t x, const Candidate* acc) const {
    bcc::Message msg;
    msg.push_id(x, n_);
    if (!acc) {
      msg.push_flag(false);
      return msg;
    }
    msg.push_flag(true);
    msg.push_id(acc->u, n_);
    msg.push(weight_field(acc->weight), bits_w_);
    return msg;
  }

  static bool ascending_by_cluster(const bcc::Inboxes::Messages& msgs) {
    for (std::size_t i = 1; i < msgs.size(); ++i) {
      if (msgs[i - 1].field(0) >= msgs[i].field(0)) return false;
    }
    return true;
  }

  // The message in one sender's step-3/4 slice addressed to cluster x, or
  // null. The slice holds one message per target cluster, strictly
  // ascending: group_by_cluster sorts the groups and phase B emits them in
  // that order.
  static const bcc::Message* addressed_to(const bcc::Inboxes::Messages& msgs,
                                          std::size_t x) {
    assert(ascending_by_cluster(msgs));
    // Branch-free lower bound: the probe outcomes are data-dependent.
    const bcc::Message* base = msgs.begin();
    std::size_t len = msgs.size();
    while (len > 1) {
      const std::size_t half = len / 2;
      base = base[half - 1].field(0) < x ? base + half : base;
      len -= half;
    }
    return len == 1 && base->field(0) == x ? base : nullptr;
  }

  Decoded decode_cluster_msg(const bcc::Message& msg) const {
    Decoded d;
    d.cluster = msg.field(0);
    d.has = msg.field(1) != 0;
    if (d.has) {
      d.u = msg.field(2);
      d.w = weight_from_field(msg.field(3));
    }
    return d;
  }

  // --- deduction (the receiving side of Section 3.1) ---------------------
  //
  // Receiver u, sender v, edge e = (u, v), u eligible (u in the candidate
  // set N that v ran Connect over). The three rules of the paper:
  //   1. v broadcast bot           -> (u,v) deleted
  //   2. accepted u' with (w', u') after (w, u) in candidate order
  //                                -> (u,v) deleted
  //      (the sort would have reached u first, so u was sampled and failed)
  //   3. accepted u' == u          -> (u,v) exists
  //   otherwise (u' before u)      -> no information, edge stays undecided.
  // `slot` is u's belief about e.
  void deduce(EdgeDecision& slot, graph::VertexId u, graph::EdgeId e,
              const Decoded& d) const {
    if (!d.has) {
      slot = EdgeDecision::kDeleted;
      return;
    }
    if (d.u == u) {
      slot = EdgeDecision::kExists;
      return;
    }
    const Candidate mine{u, e, weight(e)};
    const Candidate theirs{d.u, kNone, d.w};
    if (candidate_less(mine, theirs)) slot = EdgeDecision::kDeleted;
    // else: u' precedes u, nothing learned.
  }

  // --- step 1: cluster marking -------------------------------------------

  void step1_mark_clusters(double mark_prob, std::size_t phase) {
    std::fill(marked_.begin(), marked_.end(), false);
    // Marking bits are drawn center-by-center in id order; this ordering is
    // what lets the a-priori sparsifier replay the identical bit stream
    // (Lemma 3.3's shared-randomness assumption). Sequential by design.
    for (std::size_t c = 0; c < n_; ++c) {
      if (!is_active_center(c)) continue;
      marked_[c] = mark_stream_.bernoulli(mark_prob);
    }
    // The center pushes the bit down its cluster tree: depth <= phase.
    net_.charge("spanner/step1", static_cast<std::int64_t>(phase));
  }

  bool is_active_center(std::size_t c) const {
    // A center is active if some vertex belongs to it. Cluster ids are
    // center vertex ids, so scan is O(n) overall via the cached counts.
    return center_population_cache_.empty()
               ? cluster_[c] == c
               : center_population_cache_[c] > 0;
  }

  void refresh_center_population() {
    center_population_cache_.assign(n_, 0);
    for (std::size_t v = 0; v < n_; ++v)
      if (cluster_[v] != kNone) ++center_population_cache_[cluster_[v]];
  }

  // Replays Connect over each of node v's planned groups, in place,
  // writing decisions into decision_ and the decider side of belief_
  // (per-edge disjoint within a superstep: every edge has a unique
  // decider). The outcome stays in the node's scratch for the commit step.
  // Runs concurrently for different nodes on the pure-oracle path; the
  // stateful path calls it in node id order, which pins the oracle stream.
  void decide_node(graph::VertexId v) {
    NodeScratch& sc = scratch_[v];
    for (Group& grp : sc.groups) {
      Candidate* first = sc.cands.data() + grp.begin;
      grp.rejected = connect_in_place(
          first, sc.cands.data() + grp.end, [&](graph::EdgeId e) {
            if (decision_[e] == EdgeDecision::kExists) return true;
            assert(decision_[e] == EdgeDecision::kUndecided);
            const bool exists = oracle_(e);
            decision_[e] =
                exists ? EdgeDecision::kExists : EdgeDecision::kDeleted;
            return exists;
          });
      for (std::size_t i = 0; i < grp.rejected; ++i) {
        record_decider_belief(v, first[i]);
      }
      if (grp.accepted()) record_decider_belief(v, first[grp.rejected]);
    }
  }

  // Phase B dispatcher: decide every node's groups (sequentially for
  // stateful oracles, fanned out for pure ones), then commit F-/F+
  // appends and invoke per_group(v, cluster, accepted-or-null) in exact
  // (node, group) order on the calling thread. The commit order — and the
  // first-accept dedup in accept_edge — is what keeps the two decide
  // strategies result-identical. Every node's outbox is cleared first, so
  // per_group appends to this superstep's messages only.
  template <typename PerGroup>
  void phase_b(PerGroup&& per_group) {
    if (pure_oracle_) {
      net_.context().parallel_for(0, n_,
                                  [&](std::size_t v) { decide_node(v); });
    } else {
      for (std::size_t v = 0; v < n_; ++v) decide_node(v);
    }
    for (std::size_t v = 0; v < n_; ++v) {
      planned_[v].clear();
      const NodeScratch& sc = scratch_[v];
      for (const Group& grp : sc.groups) {
        const Candidate* first = sc.cands.data() + grp.begin;
        // Connect only ever rejects edges the oracle sampled away.
        for (std::size_t i = 0; i < grp.rejected; ++i) {
          result_.f_minus.push_back(first[i].e);
        }
        const Candidate* acc = grp.accepted() ? first + grp.rejected : nullptr;
        if (acc) accept_edge(v, *acc);
        per_group(v, grp.cluster, acc);
      }
    }
  }

  // --- step 2: connect to marked clusters ---------------------------------

  void step2_connect_to_marked() {
    std::fill(w_threshold_.begin(), w_threshold_.end(), kInf);
    std::fill(pending_join_.begin(), pending_join_.end(), kNone);

    // Phase A (parallel): candidates of each unmarked-cluster node into
    // marked clusters — one group per eligible node (its broadcast carries
    // the joined cluster, so the group has no target cluster of its own).
    net_.context().parallel_for(0, n_, [&](std::size_t v) {
      NodeScratch& sc = scratch_[v];
      sc.cands.clear();
      sc.groups.clear();
      if (!in_unmarked_cluster(v)) return;
      collect(v, sc, [&](const Candidate& c) {
        const bool marked = in_marked_cluster(c.u);
        return not_deleted(c.e) & marked;
      });
      sc.groups.push_back({kNone, 0, sc.cands.size()});
    });

    // Phase B: the only oracle phase.
    phase_b([&](graph::VertexId v, std::size_t /*cluster*/,
                const Candidate* acc) {
      if (acc) {
        w_threshold_[v] = acc->weight;
        pending_join_[v] = cluster_[acc->u];
      }
      planned_[v].push_back(encode_step2(acc));
    });

    // Phase C: broadcast, deduce in parallel. Receiver u writes only its
    // own side of each edge's belief and w_seen_ slots.
    const bcc::Inboxes inboxes = net_.exchange(planned_, "spanner/step2");
    net_.context().parallel_for(0, n_, [&](std::size_t u) {
      const bool eligible = in_marked_cluster(u);
      for (const bcc::Inboxes::FromSender& from : inboxes.from(u)) {
        const graph::EdgeId e = from.edge;
        const std::size_t s = side(u, from.sender);
        EdgeDecision& slot = belief_[e][s];
        for (const bcc::Message& msg : from.messages) {
          const Decoded d = decode_step2(msg);
          // Every neighbour learns W_v (needed for step-3 eligibility).
          w_seen_[e][s] = d.has ? d.w : kInf;
          // Deduction applies only if u was in v's candidate set: u in a
          // marked cluster and the edge not already settled as deleted.
          if (!eligible || !available(e)) continue;
          if (slot == EdgeDecision::kDeleted) continue;
          deduce(slot, u, e, d);
        }
      }
    });
  }

  // --- step 3: connections between unmarked clusters ----------------------

  void step3_connect_unmarked(bool lower_ids) {
    // Phase A (parallel): eligible candidates grouped by target cluster,
    // ascending cluster id (the broadcast order).
    net_.context().parallel_for(0, n_, [&](std::size_t v) {
      NodeScratch& sc = scratch_[v];
      sc.cands.clear();
      sc.groups.clear();
      if (!in_unmarked_cluster(v)) return;
      // Target clusters x with lo <= x < hi: below or above v's own.
      const std::size_t own = cluster_[v];
      const std::size_t lo = lower_ids ? 0 : own + 1;
      const std::size_t hi = lower_ids ? own : kNone;
      const double threshold = w_threshold_[v];
      collect(v, sc, [&](const Candidate& c) {
        const std::size_t x = cluster_[c.u];
        const bool eligible = not_deleted(c.e) & (c.weight <= threshold) &
                              (x >= lo) & (x < hi);
        return eligible && !marked_[x];
      });
      group_by_cluster(sc);
    });

    // Phase B: Connect per group in node, then cluster order.
    phase_b([&](graph::VertexId v, std::size_t cluster,
                const Candidate* acc) {
      planned_[v].push_back(encode_cluster_msg(cluster, acc));
    });

    // Phase C: broadcast + parallel deduction.
    const bcc::Inboxes inboxes = net_.exchange(
        planned_, lower_ids ? "spanner/step3.1" : "spanner/step3.2");
    net_.context().parallel_for(0, n_, [&](std::size_t u) {
      if (!in_unmarked_cluster(u)) return;
      const std::size_t own = cluster_[u];
      for (const bcc::Inboxes::FromSender& from : inboxes.from(u)) {
        const graph::EdgeId e = from.edge;
        const std::size_t s = side(u, from.sender);
        EdgeDecision& slot = belief_[e][s];
        // Eligibility: w(u,v) <= W_v, learned from v's step-2 broadcast.
        // The three filters are plain loads, combined without branching.
        const bool live = available(e);
        const bool light = weight(e) <= w_seen_[e][s];
        const bool open = slot != EdgeDecision::kDeleted;
        if (!(live & light & open)) continue;
        if (const bcc::Message* msg = addressed_to(from.messages, own)) {
          deduce(slot, u, e, decode_cluster_msg(*msg));
        }
      }
    });
  }

  void apply_pending_joins() {
    for (std::size_t v = 0; v < n_; ++v) {
      if (!in_unmarked_cluster(v)) continue;
      cluster_[v] = pending_join_[v];  // kNone if v failed to join
    }
    refresh_center_population();
  }

  // --- step 4: final joining to R_k clusters -------------------------------

  void step4_final_joining() {
    // Substep 4.1: unclustered vertices; 4.2: clustered, lower ids;
    // 4.3: clustered, higher ids.
    for (int sub = 1; sub <= 3; ++sub) {
      // Phase A (parallel).
      net_.context().parallel_for(0, n_, [&](std::size_t v) {
        NodeScratch& sc = scratch_[v];
        sc.cands.clear();
        sc.groups.clear();
        const std::size_t own = cluster_[v];
        if ((sub == 1) != (own == kNone)) return;
        // Target clusters x with lo <= x < hi: any cluster for an
        // unclustered node, else those below (4.2) or above (4.3) its own.
        const std::size_t lo = sub == 3 ? own + 1 : 0;
        const std::size_t hi = sub == 2 ? own : kNone;
        collect(v, sc, [&](const Candidate& c) {
          const std::size_t x = cluster_[c.u];
          return not_deleted(c.e) & (x >= lo) & (x < hi);
        });
        group_by_cluster(sc);
      });

      // Phase B.
      phase_b([&](graph::VertexId v, std::size_t cluster,
                  const Candidate* acc) {
        planned_[v].push_back(encode_cluster_msg(cluster, acc));
      });

      // Phase C.
      const bcc::Inboxes inboxes = net_.exchange(planned_, "spanner/step4");
      net_.context().parallel_for(0, n_, [&](std::size_t u) {
        const std::size_t own = cluster_[u];
        if (own == kNone) return;
        for (const bcc::Inboxes::FromSender& from : inboxes.from(u)) {
          const graph::EdgeId e = from.edge;
          EdgeDecision& slot = belief_[e][side(u, from.sender)];
          const bool live = available(e);
          const bool open = slot != EdgeDecision::kDeleted;
          if (!(live & open)) continue;
          if (const bcc::Message* msg = addressed_to(from.messages, own)) {
            deduce(slot, u, e, decode_cluster_msg(*msg));
          }
        }
      });
    }
  }

  // --- end-of-run verification ---------------------------------------------

  void check_belief_consistency() {
    for (std::size_t e = 0; e < m_; ++e) {
      if (!available(e)) continue;
      if (decision_[e] == EdgeDecision::kUndecided) {
        if (belief_[e][0] != EdgeDecision::kUndecided ||
            belief_[e][1] != EdgeDecision::kUndecided) {
          result_.deduction_consistent = false;
        }
        continue;
      }
      if (belief_[e][0] != decision_[e] || belief_[e][1] != decision_[e]) {
        result_.deduction_consistent = false;
      }
    }
  }

  const graph::Graph& g_;
  const ExistenceOracle& oracle_;
  rng::Stream& mark_stream_;
  bcc::Network& net_;
  std::size_t n_;
  std::size_t m_;
  std::size_t k_;
  bool pure_oracle_ = false;
  // Weight field: the integer weight in bits_w_ bits when integer_weights_,
  // else the 64-bit order key.
  bool integer_weights_ = true;
  int bits_w_ = 1;

  // Current weights: the caller's vector, or graph_weights_ when the caller
  // passed none.
  const std::vector<double>* weights_;
  std::vector<double> graph_weights_;
  // This run's eligible edges: the caller's vector, or all_available_.
  const std::vector<bool>* avail_ = nullptr;
  std::vector<bool> all_available_;
  // This run's live adjacency: node v's available edges, as (neighbour,
  // edge, weight) candidates in incident order, at
  // live_[live_offsets_[v] .. live_offsets_[v + 1]).
  std::vector<std::size_t> live_offsets_;
  std::vector<Candidate> live_;

  std::vector<EdgeDecision> decision_;
  std::vector<bool> in_f_plus_;
  // belief_[e][side]: what each endpoint believes about e's existence,
  // maintained exclusively through own decisions and deductions. Each side
  // is written only by the endpoint owning it, so the receive fan-out never
  // races.
  std::vector<std::array<EdgeDecision, 2>> belief_;
  // w_seen_[e][side]: W_v that the endpoint on `side` observed in v's
  // step-2 broadcast, filed under the edge the broadcast arrived on.
  // Written only by that endpoint; infinity until it hears one.
  std::vector<std::array<double, 2>> w_seen_;

  std::vector<std::size_t> cluster_;  // center id or kNone
  std::vector<bool> marked_;          // indexed by center id
  std::vector<std::size_t> pending_join_;
  std::vector<double> w_threshold_;  // W_v^(i), decider view
  std::vector<std::size_t> center_population_cache_;

  std::vector<NodeScratch> scratch_;
  // planned_[v]: node v's outbox for the current superstep.
  std::vector<std::vector<bcc::Message>> planned_;

  ProbabilisticSpannerResult result_;
};

ProbabilisticSpanner::ProbabilisticSpanner(
    const graph::Graph& g, std::size_t k, const std::vector<double>& weights,
    const ExistenceOracle& oracle, rng::Stream& mark_stream,
    bcc::Network& net, bool pure_oracle)
    : impl_(std::make_unique<Impl>(g, k, weights, oracle, mark_stream, net,
                                   pure_oracle)) {}

ProbabilisticSpanner::~ProbabilisticSpanner() = default;

ProbabilisticSpannerResult ProbabilisticSpanner::run(
    const std::vector<bool>& available) {
  return impl_->run(available);
}

ProbabilisticSpannerResult spanner_with_probabilistic_edges(
    const graph::Graph& g, const ProbabilisticSpannerOptions& opt,
    const ExistenceOracle& oracle, rng::Stream& mark_stream,
    bcc::Network& net) {
  return ProbabilisticSpanner(g, opt.k, opt.weights, oracle, mark_stream, net,
                              opt.pure_oracle)
      .run(opt.available);
}

}  // namespace bcclap::spanner
