// Deterministic replay (service/journal.h): journal a request stream to
// disk, re-run it, byte-compare the replies.
//
// The acceptance contract of the solver service: replaying the same
// journal at 1 worker, at 4 workers, against a cold cache and against a
// warm one produces bitwise-identical reply payload bytes per request.
// The journal itself round-trips exactly — doubles travel as 64-bit hex
// patterns — and malformed input fails loudly.
#include "service/journal.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "service/request.h"
#include "service/solver_service.h"
#include "support/fixtures.h"

namespace bcclap {
namespace {

using linalg::Vec;
using service::ReplayResult;
using service::Request;
using service::RequestType;
using service::ServiceOptions;
using service::SolverService;

Vec gaussian_rhs(std::size_t n, std::uint64_t seed) {
  rng::Stream stream(seed);
  Vec b(n);
  for (auto& v : b) v = stream.next_gaussian();
  return b;
}

// A mixed synthetic stream: repeated-topology solves (the coalescing +
// warm-cache fodder), a panel, a sparsify and an exact mcmf.
std::vector<Request> synthetic_stream() {
  rng::Stream gstream(11);
  const graph::Graph g = graph::random_regularish(48, 4, 8, gstream);
  const std::size_t n = g.num_vertices();

  std::vector<Request> stream;
  for (std::uint64_t rhs = 1; rhs <= 3; ++rhs) {
    Request req;
    req.type = RequestType::kSolve;
    req.seed = 19;
    req.engine = "sparsified-chebyshev";
    req.sparsify = testsupport::small_sparsify_options();
    req.graph = g;
    req.b = gaussian_rhs(n, rhs);
    stream.push_back(std::move(req));
  }
  {
    Request req;
    req.type = RequestType::kSolveMany;
    req.seed = 19;
    req.engine = "sparsified-chebyshev";
    req.sparsify = testsupport::small_sparsify_options();
    req.graph = g;
    req.panel = linalg::DenseMatrix(n, 2);
    req.panel.set_column(0, gaussian_rhs(n, 21));
    req.panel.set_column(1, gaussian_rhs(n, 22));
    stream.push_back(std::move(req));
  }
  {
    Request req;
    req.type = RequestType::kSparsify;
    req.seed = 19;
    req.sparsify = testsupport::small_sparsify_options();
    req.graph = g;
    stream.push_back(std::move(req));
  }
  {
    Request req;
    req.type = RequestType::kMcmf;
    req.seed = 19;
    req.network = graph::Digraph(4);
    req.network.add_arc(0, 1, 2, 1);
    req.network.add_arc(1, 3, 2, 1);
    req.network.add_arc(0, 2, 2, 4);
    req.network.add_arc(2, 3, 2, 4);
    req.source = 0;
    req.sink = 3;
    stream.push_back(std::move(req));
  }
  return stream;
}

ReplayResult replay_fresh(const std::vector<Request>& stream,
                          std::size_t workers) {
  ServiceOptions opts;
  opts.workers = workers;
  SolverService service(opts);
  ReplayResult out = service::replay(service, stream);
  service.shutdown();
  return out;
}

TEST(ServiceJournal, RoundTripsTheStreamExactly) {
  const std::vector<Request> stream = synthetic_stream();
  std::ostringstream first;
  service::write_journal(first, stream);

  std::istringstream in(first.str());
  const std::vector<Request> back = service::read_journal(in);
  ASSERT_EQ(back.size(), stream.size());

  // A reserialized journal is byte-identical — the fixed point every
  // exact round-trip format has.
  std::ostringstream second;
  service::write_journal(second, back);
  EXPECT_EQ(first.str(), second.str());

  // Spot-check the payloads came back bit for bit.
  EXPECT_EQ(back[0].type, RequestType::kSolve);
  EXPECT_EQ(back[0].seed, 19u);
  EXPECT_EQ(back[0].engine, "sparsified-chebyshev");
  EXPECT_EQ(back[0].b, stream[0].b);
  EXPECT_EQ(back[0].graph.num_edges(), stream[0].graph.num_edges());
  EXPECT_EQ(back[3].panel.rows(), stream[3].panel.rows());
  EXPECT_EQ(back[3].panel.cols(), stream[3].panel.cols());
  EXPECT_EQ(back[5].network.num_arcs(), stream[5].network.num_arcs());
  EXPECT_EQ(back[5].sink, 3u);
}

TEST(ServiceJournal, FileRoundTripViaTempDir) {
  const std::vector<Request> stream = synthetic_stream();
  const std::string path = ::testing::TempDir() + "bcclap_journal_test.txt";
  ASSERT_TRUE(service::write_journal_file(path, stream));
  const std::vector<Request> back = service::read_journal_file(path);
  ASSERT_EQ(back.size(), stream.size());

  std::ostringstream a, b;
  service::write_journal(a, stream);
  service::write_journal(b, back);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ServiceJournal, MalformedInputThrows) {
  {
    std::istringstream in("not-a-journal 1");
    EXPECT_THROW(service::read_journal(in), std::runtime_error);
  }
  {
    std::istringstream in("bcclap-journal 2\nrequests 0\n");
    EXPECT_THROW(service::read_journal(in), std::runtime_error);
  }
  {
    // Truncated mid-request.
    std::istringstream in("bcclap-journal 1\nrequests 1\nrequest solve\n");
    EXPECT_THROW(service::read_journal(in), std::runtime_error);
  }
  {
    std::istringstream in(
        "bcclap-journal 1\nrequests 1\nrequest teleport\n");
    EXPECT_THROW(service::read_journal(in), std::runtime_error);
  }
  {
    std::istringstream in("");
    EXPECT_THROW(service::read_journal(in), std::runtime_error);
  }
  // A flow-network arc that Digraph::add_arc rejects (an endpoint past
  // the vertex count, a self-loop, a capacity <= 0) is malformed input;
  // the same request with a valid arc parses.
  const auto mcmf_journal = [](const std::string& arc) {
    return "bcclap-journal 1\nrequests 1\nrequest mcmf\nseed 19\n"
           "network 4 1\n" +
           arc + "\nflow 0 3 42 4\nend\n";
  };
  {
    std::istringstream in(mcmf_journal("0 3 2 1"));
    const auto stream = service::read_journal(in);
    ASSERT_EQ(stream.size(), 1u);
    EXPECT_EQ(stream[0].network.num_arcs(), 1u);
  }
  for (const char* arc : {"900 3 2 1", "2 2 2 1", "0 3 0 1"}) {
    std::istringstream in(mcmf_journal(arc));
    try {
      service::read_journal(in);
      ADD_FAILURE() << "arc '" << arc << "' parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed input"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ServiceJournal, BadGraphEdgeIsMalformedInput) {
  // A solve-request edge that Graph::add_edge rejects (an endpoint past
  // the vertex count, a self-loop) is malformed input; the same request
  // with a valid edge parses.
  const auto solve_journal = [](const std::string& edge) {
    return "bcclap-journal 1\nrequests 1\nrequest solve\nseed 19\n"
           "engine auto\neps 3e45798ee2308c3a\n"
           "sparsify 3ff0000000000000 2 3 3ff0000000000000 0 0\n"
           "graph 4 1\n" +
           edge + " 3ff0000000000000\nrhs 4\n" +
           "3ff0000000000000 0 0 bff0000000000000\nend\n";
  };
  {
    std::istringstream in(solve_journal("0 3"));
    const auto stream = service::read_journal(in);
    ASSERT_EQ(stream.size(), 1u);
    EXPECT_EQ(stream[0].graph.num_edges(), 1u);
  }
  for (const char* edge : {"900 2", "2 2"}) {
    std::istringstream in(solve_journal(edge));
    try {
      service::read_journal(in);
      ADD_FAILURE() << "edge '" << edge << "' parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed input"),
                std::string::npos)
          << e.what();
    }
  }
  // The bad request fails alone: journals read one after another around
  // it still replay, and the service sees no failure.
  std::vector<Request> served;
  for (const char* edge : {"0 3", "900 2", "1 3"}) {
    std::istringstream in(solve_journal(edge));
    try {
      for (Request& req : service::read_journal(in)) {
        served.push_back(std::move(req));
      }
    } catch (const std::runtime_error&) {
      EXPECT_EQ(std::string(edge), "900 2");
    }
  }
  ASSERT_EQ(served.size(), 2u);
  ServiceOptions opts;
  opts.workers = 0;
  SolverService service(opts);
  const ReplayResult out = service::replay(service, served);
  ASSERT_EQ(out.payloads.size(), 2u);
  EXPECT_EQ(service.stats().failed, 0u);
  EXPECT_EQ(service.stats().served, 2u);
}

TEST(ServiceReplay, SameJournalSameBytesAcrossRunsAndWorkerCounts) {
  const std::vector<Request> stream = synthetic_stream();

  const ReplayResult once = replay_fresh(stream, 1);
  ASSERT_EQ(once.payloads.size(), stream.size());
  for (const auto& payload : once.payloads) {
    EXPECT_NE(payload.find(" ok"), std::string::npos) << payload;
  }

  // Re-run of the identical journal: bitwise-identical payloads.
  const ReplayResult again = replay_fresh(stream, 1);
  EXPECT_EQ(once.payloads, again.payloads);

  // Worker count is wall-time, never bytes.
  const ReplayResult wide = replay_fresh(stream, 4);
  EXPECT_EQ(once.payloads, wide.payloads);
}

TEST(ServiceReplay, WarmCacheReplayMatchesColdBytes) {
  const std::vector<Request> stream = synthetic_stream();
  ServiceOptions opts;
  opts.workers = 1;
  SolverService service(opts);

  const ReplayResult cold = service::replay(service, stream);
  const auto cold_stats = service.stats();
  const ReplayResult warm = service::replay(service, stream);
  const auto warm_stats = service.stats();
  service.shutdown();

  // Same bytes, but the second pass was served from the shared cache:
  // every Laplacian request hit, and no new prepare-phase work ran (the
  // engine sparsify/factor counters stand still between the passes).
  EXPECT_EQ(cold.payloads, warm.payloads);
  EXPECT_GT(warm_stats.cache.hits, cold_stats.cache.hits);
  EXPECT_EQ(warm_stats.cache.misses, cold_stats.cache.misses);
  EXPECT_EQ(warm_stats.totals.sparsify_count, cold_stats.totals.sparsify_count);
  EXPECT_EQ(warm_stats.totals.dense_factors, cold_stats.totals.dense_factors);
  EXPECT_EQ(warm_stats.totals.sparse_factors,
            cold_stats.totals.sparse_factors);
}

TEST(ServiceReplay, HonorsBackpressureWithATinyQueue) {
  const std::vector<Request> stream = synthetic_stream();
  ServiceOptions opts;
  opts.workers = 0;  // caller-driven: replay() drains inline to make room
  opts.queue_capacity = 1;
  SolverService service(opts);

  const ReplayResult out = service::replay(service, stream);
  service.shutdown();
  ASSERT_EQ(out.payloads.size(), stream.size());
  EXPECT_GT(out.resubmissions, 0u);

  // The tiny-queue replies still match an unconstrained run's bytes.
  const ReplayResult wide = replay_fresh(stream, 1);
  EXPECT_EQ(out.payloads, wide.payloads);
}

}  // namespace
}  // namespace bcclap
