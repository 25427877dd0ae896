#include "support/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/runtime.h"

namespace bcclap::bench {

namespace {

// The one Runtime every bench body runs on, built on first use with
// RuntimeOptions{} so BCCLAP_THREADS sizes it.
Runtime& bench_runtime() {
  static Runtime rt;
  return rt;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Fixed-precision double formatting that round-trips cleanly for the
// counter values we emit (round counts, sizes, epsilons). JSON has no
// NaN/Inf literals; non-finite values (e.g. a diverged error ratio) emit
// null so the trajectory file stays parseable.
std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

common::Context bench_context(std::uint64_t seed) {
  return bench_runtime().context().with_seed(seed);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Harness::Harness(std::string binary_name)
    : binary_name_(std::move(binary_name)) {}

void Harness::add(const std::string& name, std::function<void(State&)> body,
                  std::size_t repeats_override,
                  std::size_t warmup_override) {
  cases_.push_back({name, std::move(body), repeats_override, warmup_override});
}

int Harness::run(int argc, char** argv) {
  std::size_t repeats = 3;
  std::size_t warmup = 1;
  std::string json_path;
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    const auto needs_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::cerr << flag << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = needs_value("--json");
    } else if (std::strcmp(argv[i], "--repeats") == 0) {
      repeats = static_cast<std::size_t>(
          std::max(1L, std::atol(needs_value("--repeats"))));
    } else if (std::strcmp(argv[i], "--warmup") == 0) {
      warmup = static_cast<std::size_t>(
          std::max(0L, std::atol(needs_value("--warmup"))));
    } else if (std::strcmp(argv[i], "--filter") == 0) {
      filter = needs_value("--filter");
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n"
                << "usage: " << binary_name_
                << " [--json path] [--repeats n] [--warmup n]"
                   " [--filter substring]\n";
      return 2;
    }
  }

  // bench_context runs on the same Runtime, so this is also the thread
  // count every case ran with.
  const std::size_t threads = bench_runtime().num_threads();
  std::vector<CaseResult> results;
  std::printf("%-44s %10s %10s %10s  (threads=%zu)\n", "case", "mean_ms",
              "min_ms", "max_ms", threads);
  for (const Case& c : cases_) {
    if (!filter.empty() && c.name.find(filter) == std::string::npos) continue;
    const std::size_t reps =
        c.repeats_override > 0 ? c.repeats_override : repeats;
    const std::size_t warmups =
        c.warmup_override != kNoOverride ? c.warmup_override : warmup;

    CaseResult r;
    r.name = c.name;
    r.repeats = reps;
    r.wall_ms_min = 0.0;
    std::size_t iteration = 0;
    for (std::size_t w = 0; w < warmups; ++w) {
      State s(iteration++, /*warmup=*/true);
      c.body(s);
    }
    double total = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      State s(iteration++, /*warmup=*/false);
      const double t0 = now_ms();
      c.body(s);
      const double elapsed = now_ms() - t0;
      total += elapsed;
      if (rep == 0 || elapsed < r.wall_ms_min) r.wall_ms_min = elapsed;
      if (rep == 0 || elapsed > r.wall_ms_max) r.wall_ms_max = elapsed;
      if (rep + 1 == reps) {
        r.counters = s.counters();
        r.timings = s.timings();
      }
    }
    r.wall_ms_mean = total / static_cast<double>(reps);
    std::printf("%-44s %10.3f %10.3f %10.3f\n", r.name.c_str(),
                r.wall_ms_mean, r.wall_ms_min, r.wall_ms_max);
    for (const auto& [k, v] : r.counters) {
      std::printf("    %-24s %.6g\n", k.c_str(), v);
    }
    for (const auto& [k, v] : r.timings) {
      std::printf("    %-24s %.3f ms\n", k.c_str(), v);
    }
    results.push_back(std::move(r));
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << "{\n";
    out << "  \"binary\": \"" << json_escape(binary_name_) << "\",\n";
    out << "  \"threads\": " << threads << ",\n";
    out << "  \"repeats\": " << repeats << ",\n";
    out << "  \"warmup\": " << warmup << ",\n";
    out << "  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      out << "    {\"name\": \"" << json_escape(r.name) << "\", "
          << "\"repeats\": " << r.repeats << ", "
          << "\"wall_ms\": {\"mean\": " << fmt_double(r.wall_ms_mean)
          << ", \"min\": " << fmt_double(r.wall_ms_min)
          << ", \"max\": " << fmt_double(r.wall_ms_max) << "}, "
          << "\"counters\": {";
      bool first = true;
      for (const auto& [k, v] : r.counters) {
        if (!first) out << ", ";
        first = false;
        out << "\"" << json_escape(k) << "\": " << fmt_double(v);
      }
      // "timings" comes after the closed "counters" object on purpose:
      // the determinism gate extracts counters up to their closing brace,
      // so clock readings here never enter the cross-config diff.
      out << "}, \"timings\": {";
      first = true;
      for (const auto& [k, v] : r.timings) {
        if (!first) out << ", ";
        first = false;
        out << "\"" << json_escape(k) << "\": " << fmt_double(v);
      }
      out << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  return 0;
}

}  // namespace bcclap::bench
