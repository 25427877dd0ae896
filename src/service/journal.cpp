#include "service/journal.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace bcclap::service {

namespace {

constexpr const char* kMagic = "bcclap-journal";
constexpr int kVersion = 1;

std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

double bits_hex(const std::string& token) {
  const std::uint64_t bits = std::stoull(token, nullptr, 16);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("bcclap journal: malformed input: " + what);
}

std::string next_token(std::istream& in, const std::string& what) {
  std::string token;
  if (!(in >> token)) malformed("expected " + what);
  return token;
}

std::uint64_t next_u64(std::istream& in, const std::string& what) {
  std::uint64_t v = 0;
  if (!(in >> v)) malformed("expected " + what);
  return v;
}

std::int64_t next_i64(std::istream& in, const std::string& what) {
  std::int64_t v = 0;
  if (!(in >> v)) malformed("expected " + what);
  return v;
}

double next_double_bits(std::istream& in, const std::string& what) {
  return bits_hex(next_token(in, what));
}

void expect_token(std::istream& in, const std::string& expected) {
  const std::string token = next_token(in, "'" + expected + "'");
  if (token != expected) {
    malformed("expected '" + expected + "', got '" + token + "'");
  }
}

void write_graph(std::ostream& out, const graph::Graph& g) {
  out << "graph " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& e : g.edges()) {
    out << e.u << ' ' << e.v << ' ' << hex_bits(e.weight) << '\n';
  }
}

graph::Graph read_graph(std::istream& in) {
  expect_token(in, "graph");
  const std::size_t n = next_u64(in, "vertex count");
  const std::size_t m = next_u64(in, "edge count");
  graph::Graph g(n);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t u = next_u64(in, "edge endpoint");
    const std::size_t v = next_u64(in, "edge endpoint");
    const double w = next_double_bits(in, "edge weight");
    g.add_edge(u, v, w);
  }
  return g;
}

void write_sparsify_options(std::ostream& out,
                            const sparsify::SparsifyOptions& opt) {
  out << "sparsify " << hex_bits(opt.epsilon) << ' ' << opt.k << ' ' << opt.t
      << ' ' << hex_bits(opt.t_constant) << ' ' << opt.iterations << ' '
      << (opt.growing_t ? 1 : 0) << '\n';
}

sparsify::SparsifyOptions read_sparsify_options(std::istream& in) {
  expect_token(in, "sparsify");
  sparsify::SparsifyOptions opt;
  opt.epsilon = next_double_bits(in, "sparsify epsilon");
  opt.k = next_u64(in, "sparsify k");
  opt.t = next_u64(in, "sparsify t");
  opt.t_constant = next_double_bits(in, "sparsify t_constant");
  opt.iterations = next_u64(in, "sparsify iterations");
  opt.growing_t = next_u64(in, "sparsify growing_t") != 0;
  return opt;
}

void write_vec(std::ostream& out, const char* tag, const linalg::Vec& v) {
  out << tag << ' ' << v.size() << '\n';
  for (std::size_t i = 0; i < v.size(); ++i) {
    out << hex_bits(v[i]) << ((i + 1) % 8 == 0 ? '\n' : ' ');
  }
  if (v.size() % 8 != 0) out << '\n';
}

linalg::Vec read_vec(std::istream& in, const char* tag) {
  expect_token(in, tag);
  const std::size_t n = next_u64(in, "vector length");
  linalg::Vec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = next_double_bits(in, "vector entry");
  }
  return v;
}

}  // namespace

void write_journal(std::ostream& out, const std::vector<Request>& stream) {
  out << kMagic << ' ' << kVersion << '\n';
  out << "requests " << stream.size() << '\n';
  for (const auto& req : stream) {
    out << "request " << request_type_name(req.type) << '\n';
    out << "seed " << req.seed << '\n';
    switch (req.type) {
      case RequestType::kSolve:
        out << "engine " << req.engine << '\n';
        out << "eps " << hex_bits(req.eps) << '\n';
        write_sparsify_options(out, req.sparsify);
        write_graph(out, req.graph);
        write_vec(out, "rhs", req.b);
        break;
      case RequestType::kSolveMany: {
        out << "engine " << req.engine << '\n';
        out << "eps " << hex_bits(req.eps) << '\n';
        write_sparsify_options(out, req.sparsify);
        write_graph(out, req.graph);
        out << "panel " << req.panel.rows() << ' ' << req.panel.cols() << '\n';
        for (std::size_t i = 0; i < req.panel.rows(); ++i) {
          for (std::size_t j = 0; j < req.panel.cols(); ++j) {
            out << hex_bits(req.panel(i, j))
                << (j + 1 == req.panel.cols() ? '\n' : ' ');
          }
        }
        break;
      }
      case RequestType::kSparsify:
        write_sparsify_options(out, req.sparsify);
        write_graph(out, req.graph);
        break;
      case RequestType::kMcmf: {
        out << "network " << req.network.num_vertices() << ' '
            << req.network.num_arcs() << '\n';
        for (const auto& arc : req.network.arcs()) {
          out << arc.tail << ' ' << arc.head << ' ' << arc.capacity << ' '
              << arc.cost << '\n';
        }
        out << "flow " << req.source << ' ' << req.sink << ' '
            << req.mcmf.seed << ' ' << req.mcmf.max_retries << '\n';
        break;
      }
    }
    out << "end\n";
  }
}

bool write_journal_file(const std::string& path,
                        const std::vector<Request>& stream) {
  std::ofstream out(path);
  if (!out) return false;
  write_journal(out, stream);
  return static_cast<bool>(out);
}

std::vector<Request> read_journal(std::istream& in) {
  expect_token(in, kMagic);
  const std::uint64_t version = next_u64(in, "journal version");
  if (version != static_cast<std::uint64_t>(kVersion)) {
    malformed("unsupported version " + std::to_string(version));
  }
  expect_token(in, "requests");
  const std::size_t count = next_u64(in, "request count");
  std::vector<Request> stream;
  stream.reserve(count);
  for (std::size_t r = 0; r < count; ++r) {
    expect_token(in, "request");
    const std::string type = next_token(in, "request type");
    Request req;
    if (type == "solve") {
      req.type = RequestType::kSolve;
    } else if (type == "solve_many") {
      req.type = RequestType::kSolveMany;
    } else if (type == "sparsify") {
      req.type = RequestType::kSparsify;
    } else if (type == "mcmf") {
      req.type = RequestType::kMcmf;
    } else {
      malformed("unknown request type '" + type + "'");
    }
    expect_token(in, "seed");
    req.seed = next_u64(in, "seed");
    switch (req.type) {
      case RequestType::kSolve:
        expect_token(in, "engine");
        req.engine = next_token(in, "engine key");
        expect_token(in, "eps");
        req.eps = next_double_bits(in, "eps");
        req.sparsify = read_sparsify_options(in);
        req.graph = read_graph(in);
        req.b = read_vec(in, "rhs");
        break;
      case RequestType::kSolveMany: {
        expect_token(in, "engine");
        req.engine = next_token(in, "engine key");
        expect_token(in, "eps");
        req.eps = next_double_bits(in, "eps");
        req.sparsify = read_sparsify_options(in);
        req.graph = read_graph(in);
        expect_token(in, "panel");
        const std::size_t rows = next_u64(in, "panel rows");
        const std::size_t cols = next_u64(in, "panel cols");
        req.panel = linalg::DenseMatrix(rows, cols);
        for (std::size_t i = 0; i < rows; ++i) {
          for (std::size_t j = 0; j < cols; ++j) {
            req.panel(i, j) = next_double_bits(in, "panel entry");
          }
        }
        break;
      }
      case RequestType::kSparsify:
        req.sparsify = read_sparsify_options(in);
        req.graph = read_graph(in);
        break;
      case RequestType::kMcmf: {
        expect_token(in, "network");
        const std::size_t n = next_u64(in, "network vertex count");
        const std::size_t m = next_u64(in, "network arc count");
        req.network = graph::Digraph(n);
        for (std::size_t a = 0; a < m; ++a) {
          const std::size_t tail = next_u64(in, "arc tail");
          const std::size_t head = next_u64(in, "arc head");
          const std::int64_t capacity = next_i64(in, "arc capacity");
          const std::int64_t cost = next_i64(in, "arc cost");
          try {
            req.network.add_arc(tail, head, capacity, cost);
          } catch (const std::invalid_argument& e) {
            malformed(e.what());
          }
        }
        expect_token(in, "flow");
        req.source = next_u64(in, "source");
        req.sink = next_u64(in, "sink");
        req.mcmf.seed = next_u64(in, "mcmf seed");
        req.mcmf.max_retries = next_u64(in, "mcmf max_retries");
        break;
      }
    }
    expect_token(in, "end");
    stream.push_back(std::move(req));
  }
  return stream;
}

std::vector<Request> read_journal_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("bcclap journal: cannot open " + path);
  }
  return read_journal(in);
}

std::string reply_payload_bytes(const Reply& reply) {
  std::ostringstream out;
  out << "reply " << request_type_name(reply.type) << ' '
      << (reply.status == ReplyStatus::kOk ? "ok" : "failed") << '\n';
  if (reply.status != ReplyStatus::kOk) return out.str();
  switch (reply.type) {
    case RequestType::kSolve:
      write_vec(out, "x", reply.x);
      break;
    case RequestType::kSolveMany:
      out << "panel " << reply.panel.rows() << ' ' << reply.panel.cols()
          << '\n';
      for (std::size_t i = 0; i < reply.panel.rows(); ++i) {
        for (std::size_t j = 0; j < reply.panel.cols(); ++j) {
          out << hex_bits(reply.panel(i, j))
              << (j + 1 == reply.panel.cols() ? '\n' : ' ');
        }
      }
      break;
    case RequestType::kSparsify: {
      const graph::Graph& h = reply.sparsify.sparsifier;
      out << "sparsifier " << h.num_vertices() << ' ' << h.num_edges() << '\n';
      for (std::size_t e = 0; e < h.num_edges(); ++e) {
        const auto& edge = h.edge(e);
        out << edge.u << ' ' << edge.v << ' ' << hex_bits(edge.weight) << ' '
            << reply.sparsify.original_edge[e] << ' '
            << reply.sparsify.out_vertex[e] << '\n';
      }
      break;
    }
    case RequestType::kMcmf:
      out << "flow " << (reply.mcmf.exact ? 1 : 0) << ' '
          << reply.mcmf.flow.value << ' ' << reply.mcmf.flow.cost << '\n';
      for (std::size_t a = 0; a < reply.mcmf.flow.flow.size(); ++a) {
        out << reply.mcmf.flow.flow[a]
            << (a + 1 == reply.mcmf.flow.flow.size() ? '\n' : ' ');
      }
      break;
  }
  return out.str();
}

ReplayResult replay(SolverService& service,
                    const std::vector<Request>& stream) {
  ReplayResult out;
  std::vector<std::shared_ptr<PendingReply>> pending;
  pending.reserve(stream.size());
  for (const auto& req : stream) {
    for (;;) {
      Submission sub = service.submit(req);
      if (sub.accepted()) {
        pending.push_back(sub.reply);
        break;
      }
      if (sub.admission != Admission::kRejectedQueueFull) {
        throw std::runtime_error(std::string("bcclap replay: rejected: ") +
                                 sub.reason());
      }
      ++out.resubmissions;
      if (service.options().workers == 0) {
        // Caller-driven service: make room by serving one request inline.
        service.drain(1);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  // A caller-driven service has no one else to serve what is still
  // queued; drain it here so every pending reply is fulfilled.
  if (service.options().workers == 0) service.drain();
  out.payloads.reserve(pending.size());
  for (auto& handle : pending) {
    out.payloads.push_back(reply_payload_bytes(handle->wait()));
  }
  return out;
}

}  // namespace bcclap::service
