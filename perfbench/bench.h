// Shared plumbing of the repository benchmark: arguments, timing, latency
// summaries, answer fingerprints and the result line.
//
// Every workload follows the same shape:
//   1. generate its inputs and reference answers from --seed (untimed, in
//      no metric);
//   2. set up the program several times — half before and half after the
//      timed phase, so the median spans the run — and report the median;
//   3. run untimed warm-up ops;
//   4. time a fixed reference loop, run the fixed op list (the timed
//      phase), time the reference loop again;
//   5. check every answer, and print one JSON result line.
// With --trace 1 the op list runs twice, untraced and then traced, and the
// result carries the per-layer metrics instead of the end-to-end ones.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/context.h"
#include "graph/graph.h"
#include "linalg/vector_ops.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Fixed op-list length for a timed phase of about `seconds` at the rate
// the workload sustains on a 4-core x86 VM. The list is a function of the
// arguments only, never of measured time, so two runs with equal
// arguments do equal work.
std::size_t op_count(double ops_per_second, double seconds,
                     std::size_t min_ops);

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

// Median and the highest percentile that still has at least ten samples
// above it (the 11th-largest sample), with the percentile it stands for.
struct LatencySummary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
  std::size_t samples = 0;
};
LatencySummary summarize_latency(std::vector<double> samples);

// ||L_G x - P b|| / ||P b||, P the projection onto range(L_G), which for a
// connected G is the complement of the all-ones vector: the check every
// Laplacian answer must pass.
double relative_residual(const bcclap::common::Context& ctx,
                         const bcclap::graph::Graph& g,
                         const bcclap::linalg::Vec& b,
                         const bcclap::linalg::Vec& x);

// Peak resident set of this process, in MiB (getrusage).
double peak_rss_mb();

// A benchmark-owned loop of fixed arithmetic, timed before and after each
// timed phase. It is a diagnostic only: a change in it between runs is a
// change in the machine's speed, not in the program.
double reference_loop_s();

// FNV-1a over raw bytes; used to compare answers of two passes byte for
// byte without keeping them.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 14695981039346656037ull);
template <typename T>
std::uint64_t fnv1a_vec(const std::vector<T>& v,
                        std::uint64_t h = 14695981039346656037ull) {
  return fnv1a(v.data(), v.size() * sizeof(T), h);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  // Printed on the line before the result: tail percentile, sample
  // counts, reference-loop timings and the like.
  std::vector<std::pair<std::string, std::string>> diagnostics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void diag(std::string key, double value);
  // Records one op's check; a failed check fails the op and the run.
  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

// Reference-loop timings around the timed phase, as diagnostics.
void add_reference_diagnostics(Result& r, double before_s, double after_s);

// The end-to-end metrics of an untraced run: throughput and latency of the
// timed phase, median set-up, peak resident memory.
void add_end_to_end(Result& r, double wall_s,
                    const std::vector<double>& latency,
                    const std::vector<double>& setup_s, double peak_rss_mb);

// Per-layer metric names a traced run of every workload reports; a layer
// the workload never calls reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
// Fills every per-layer metric missing from r with 0 in its unit, and
// orders r.metrics as per_layer_metrics() lists them.
void complete_per_layer(Result& r);

Result run_paper_solve(const Args& args);
Result run_service_stream(const Args& args);
Result run_flow_exact(const Args& args);

}  // namespace perfbench
