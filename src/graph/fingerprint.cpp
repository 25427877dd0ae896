#include "graph/fingerprint.h"

#include <algorithm>
#include <cstring>

namespace bcclap::graph {

namespace {

constexpr std::uint64_t kHiSeed = 0x8c511cb4d3f8e502ULL;
constexpr std::uint64_t kLoSeed = 0x2545f4914f6cdd1dULL;

// splitmix64 finalizer: the standard 64-bit avalanche permutation.
std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t h, std::uint64_t token) {
  return splitmix(h ^ token);
}

std::uint64_t weight_bits(double w) {
  // +0.0 and -0.0 share a value but not a bit pattern; normalize so the
  // two spellings of a zero-weight edge hash equal.
  if (w == 0.0) w = 0.0;
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(w), "double must be 64-bit");
  std::memcpy(&bits, &w, sizeof(bits));
  return bits;
}

}  // namespace

Fingerprint fingerprint(const Graph& g) {
  // Each lane sums (mod 2^64) one digest per edge, so the result does not
  // depend on edge order and a repeated parallel edge adds twice.
  std::uint64_t hi_sum = 0;
  std::uint64_t lo_sum = 0;
  for (const Edge& e : g.edges()) {
    const std::uint64_t a = std::min<std::uint64_t>(e.u, e.v);
    const std::uint64_t b = std::max<std::uint64_t>(e.u, e.v);
    const std::uint64_t w = weight_bits(e.weight);
    hi_sum += mix(mix(mix(kHiSeed, a), b), w);
    lo_sum += mix(mix(mix(kLoSeed, a), b), w);
  }

  Fingerprint fp;
  fp.vertices = g.num_vertices();
  fp.edges = g.num_edges();
  fp.hi = mix(mix(mix(kHiSeed, fp.vertices), fp.edges), hi_sum);
  fp.lo = mix(mix(mix(kLoSeed, fp.vertices), fp.edges), lo_sum);
  return fp;
}

}  // namespace bcclap::graph
