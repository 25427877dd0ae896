// Shared bench harness: warmup/repeat wall-clock timing with named
// counters and machine-readable JSON emission.
//
// The Google Benchmark binaries remain for micro-benchmarks; this harness
// exists so the repo's *benchmark trajectory* (BENCH_*.json) is produced by
// code the repo owns: fixed warmup/repeat counts, deterministic
// per-iteration seeds, and a JSON schema that records the thread count —
// the quantity this PR's engine varies.
//
// Usage:
//   int main(int argc, char** argv) {
//     bcclap::bench::Harness h("bench_pipeline");
//     h.add("pipeline/n=24", [](bcclap::bench::State& s) { ... });
//     return h.run(argc, argv);
//   }
//
// Flags: --json <path>   write results as JSON
//        --repeats <n>   measured repetitions per case (default 3)
//        --warmup <n>    unmeasured repetitions per case (default 1)
//        --filter <sub>  run only cases whose name contains <sub>
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/context.h"

namespace bcclap::bench {

// Execution context bench bodies hand to the layer APIs: the context of
// one harness-owned, defaulted Runtime (sized by BCCLAP_THREADS — the knob
// scripts/bench.sh varies) with the given seed.
common::Context bench_context(std::uint64_t seed = 0);

// Passed to the case body once per repetition (warmup and measured).
class State {
 public:
  State(std::size_t iteration, bool warmup)
      : iteration_(iteration), warmup_(warmup) {}

  // Global 0-based repetition index (warmups first). Deterministic, so
  // bodies can derive per-iteration seeds from it and produce identical
  // results in every run of the same configuration.
  std::size_t iteration() const { return iteration_; }
  bool is_warmup() const { return warmup_; }

  // Named result counter; the value from the last measured repetition is
  // reported. Counters double as determinism fingerprints: two configs
  // (e.g. 1 vs 4 threads) must report identical counters.
  void counter(const std::string& name, double value) {
    counters_[name] = value;
  }

  // Named wall-clock reading in milliseconds (e.g. a phase split of the
  // case's own wall time). Emitted as a separate "timings" JSON object,
  // NEVER under "counters": timings are real clocks and legitimately
  // differ run to run, so they must stay outside the counter-determinism
  // gate scripts/bench.sh diffs across thread counts.
  void timing(const std::string& name, double ms) { timings_[name] = ms; }

  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, double>& timings() const { return timings_; }

 private:
  std::size_t iteration_;
  bool warmup_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> timings_;
};

struct CaseResult {
  std::string name;
  std::size_t repeats = 0;
  double wall_ms_mean = 0.0;
  double wall_ms_min = 0.0;
  double wall_ms_max = 0.0;
  std::map<std::string, double> counters;
  std::map<std::string, double> timings;  // last measured repetition's
};

class Harness {
 public:
  explicit Harness(std::string binary_name);

  // Registers a case. repeats_override > 0 pins the measured repetitions
  // for this case regardless of --repeats, and warmup_override (when not
  // kNoOverride) pins the warmup count — together they let an expensive
  // end-to-end case run exactly once per invocation.
  static constexpr std::size_t kNoOverride =
      static_cast<std::size_t>(-1);
  void add(const std::string& name, std::function<void(State&)> body,
           std::size_t repeats_override = 0,
           std::size_t warmup_override = kNoOverride);

  // Parses flags, runs every (filtered) case, prints a table to stdout and
  // optionally writes JSON. Returns a process exit code.
  int run(int argc, char** argv);

 private:
  struct Case {
    std::string name;
    std::function<void(State&)> body;
    std::size_t repeats_override;
    std::size_t warmup_override;
  };
  std::string binary_name_;
  std::vector<Case> cases_;
};

// JSON string escaping for names/labels (quotes, backslashes, control
// characters). Exposed for the emitter and its tests.
std::string json_escape(const std::string& s);

}  // namespace bcclap::bench
