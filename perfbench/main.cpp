// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <paper_solve|service_stream|flow_exact>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints a diagnostics line and then, as the last line of standard output,
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// perfbench/run.py builds this program and is the command to run.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "graph/laplacian.h"

namespace perfbench {

std::size_t op_count(double ops_per_second, double seconds,
                     std::size_t min_ops) {
  const double n = std::round(ops_per_second * seconds);
  return std::max(min_ops, static_cast<std::size_t>(n));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

LatencySummary summarize_latency(std::vector<double> samples) {
  LatencySummary out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  out.p50 = median(samples);
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t beyond = std::min<std::size_t>(10, n - 1);
  out.tail = samples[n - 1 - beyond];
  out.tail_percentile =
      100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  return out;
}

double relative_residual(const bcclap::common::Context& ctx,
                         const bcclap::graph::Graph& g,
                         const bcclap::linalg::Vec& b,
                         const bcclap::linalg::Vec& x) {
  double mean_b = 0.0;
  for (double v : b) mean_b += v;
  mean_b /= static_cast<double>(b.size());
  const bcclap::linalg::Vec lx = bcclap::graph::apply_laplacian(ctx, g, x);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < lx.size(); ++i) {
    const double pb = b[i] - mean_b;
    num += (lx[i] - pb) * (lx[i] - pb);
    den += pb * pb;
  }
  return std::sqrt(num / den);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double reference_loop_s() {
  // A 96x96 dense matrix-vector chain: fixed flops, cache-resident data.
  constexpr std::size_t kDim = 96;
  constexpr int kReps = 16000;
  std::vector<double> a(kDim * kDim), x(kDim, 1.0), y(kDim, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = 1.0 / static_cast<double>(i % 97 + kDim);
  const auto start = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < kDim; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < kDim; ++j) s += a[i * kDim + j] * x[j];
      y[i] = s;
    }
    double norm = 0.0;
    for (double v : y) norm += v * v;
    const double inv = 1.0 / std::sqrt(norm);
    for (std::size_t i = 0; i < kDim; ++i) x[i] = y[i] * inv;
  }
  const double elapsed = seconds_since(start);
  if (!std::isfinite(x[0])) std::abort();  // keeps the loop observable
  return elapsed;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Result::diag(std::string key, double value) {
  diagnostics.emplace_back(std::move(key), number(value));
}

void add_reference_diagnostics(Result& r, double before_s, double after_s) {
  r.diag("reference_loop_before_s", before_s);
  r.diag("reference_loop_after_s", after_s);
}

void add_end_to_end(Result& r, double wall_s,
                    const std::vector<double>& latency,
                    const std::vector<double>& setup_s, double peak_rss_mb) {
  const LatencySummary lat = summarize_latency(latency);
  r.diag("latency_tail_percentile", lat.tail_percentile);
  r.diag("latency_samples", static_cast<double>(lat.samples));
  r.diag("setup_samples", static_cast<double>(setup_s.size()));
  r.metric("throughput_ops_s", static_cast<double>(latency.size()) / wall_s,
           "1/s");
  r.metric("latency_p50_s", lat.p50, "s");
  r.metric("latency_tail_s", lat.tail, "s");
  r.metric("setup_s", median(setup_s), "s");
  r.metric("peak_rss_mb", peak_rss_mb, "MB");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"trace.overhead_ratio", "ratio"},
      {"trace.attributed_share", "ratio"},
      {"bcc.rounds_per_op", "count"},
      {"sparsify.busy_s", "s"},
      {"sparsify.rounds", "count"},
      {"sparsify.kept_edge_ratio", "ratio"},
      {"laplacian.prepare_s", "s"},
      {"linalg.factor_s", "s"},
      {"laplacian.apply_s", "s"},
      {"laplacian.iterations", "count"},
      {"core.facade_other_s", "s"},
      {"service.queue_wait_p50_s", "s"},
      {"service.queue_wait_tail_s", "s"},
      {"service.serve_p50_s", "s"},
      {"service.warm_admit_ratio", "ratio"},
      {"service.coalesced_ratio", "ratio"},
      {"service.queue_high_water", "count"},
      {"core.cache_hit_ratio", "ratio"},
      {"core.prepares", "count"},
      {"linalg.sparse_factor_s", "s"},
      {"linalg.dense_tail_share", "ratio"},
      {"linalg.fill_nnz", "count"},
      {"laplacian.apply_many_s_per_rhs", "s"},
      {"flow.mcmf_s", "s"},
      {"lp.gram_factor_s", "s"},
      {"lp.gram_systems", "count"},
      {"lp.newton_solve_s", "s"},
      {"lp.ipm_other_s", "s"},
      {"lp.path_steps", "count"},
      {"lp.newton_steps", "count"},
      {"flow.retries", "count"},
  };
  return kMetrics;
}

void complete_per_layer(Result& r) {
  std::map<std::string, Metric> have;
  for (auto& m : r.metrics) have[m.name] = m;
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : per_layer_metrics()) {
    auto it = have.find(name);
    ordered.push_back(it != have.end() ? it->second : Metric{name, 0.0, unit});
  }
  r.metrics = std::move(ordered);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_solve|service_stream|flow_exact> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag");
      }
    } catch (const std::logic_error&) {
      usage("malformed value");
    }
  }
  if (!(args.seconds > 0.0) || args.seconds > 600.0) usage("bad --seconds");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Result r;
  try {
    if (args.workload == "paper_solve") {
      r = perfbench::run_paper_solve(args);
    } else if (args.workload == "service_stream") {
      r = perfbench::run_service_stream(args);
    } else if (args.workload == "flow_exact") {
      r = perfbench::run_flow_exact(args);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (args.trace) perfbench::complete_per_layer(r);

  std::string diag = "{";
  for (std::size_t i = 0; i < r.diagnostics.size(); ++i) {
    if (i) diag += ", ";
    diag += perfbench::quoted(r.diagnostics[i].first) + ": " +
            r.diagnostics[i].second;
  }
  std::printf("# diagnostics %s}\n", diag.c_str());

  std::string metrics = "{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i) metrics += ", ";
    metrics += perfbench::quoted(m.name) + ": {\"value\": " +
               perfbench::number(m.value) +
               ", \"unit\": " + perfbench::quoted(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}}\n",
      r.correct ? "true" : "false", r.attempted, r.failed, metrics.c_str());
  return 0;
}
