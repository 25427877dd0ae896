#include "common/encoding.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace bcclap::enc {

namespace {

// C++17 stand-in for std::bit_width (C++20): position of the highest set bit
// plus one, i.e. the number of bits needed to represent v > 0.
int bit_width_nonzero(std::uint64_t v) {
  int width = 0;
  while (v != 0) {
    ++width;
    v >>= 1;
  }
  return width;
}

}  // namespace

int bit_width_u64(std::uint64_t v) {
  return v == 0 ? 1 : bit_width_nonzero(v);
}

int bit_width_i64(std::int64_t v) {
  const std::uint64_t mag = v < 0 ? static_cast<std::uint64_t>(-(v + 1)) + 1
                                  : static_cast<std::uint64_t>(v);
  return 1 + bit_width_u64(mag);
}

int id_bits(std::size_t n) {
  return n <= 1 ? 1 : bit_width_nonzero(n - 1);
}

int real_bits(double max_abs, double eps) {
  const double m = std::max(1.0, std::abs(max_abs));
  const double e = std::clamp(eps, 1e-30, 1.0);
  const int int_bits = static_cast<int>(std::ceil(std::log2(m + 1.0)));
  const int frac_bits = static_cast<int>(std::ceil(std::log2(1.0 / e)));
  return 1 + int_bits + frac_bits;
}

std::uint64_t order_key(double x) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  // Negatives reverse their magnitude order; positives sit above them.
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

double from_order_key(std::uint64_t key) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const std::uint64_t bits = (key & kSign) != 0 ? key & ~kSign : ~key;
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

std::int64_t rounds_for_bits(std::int64_t bits, std::int64_t bandwidth) {
  if (bits <= 0) return 0;
  if (bandwidth <= 0) bandwidth = 1;
  return (bits + bandwidth - 1) / bandwidth;
}

}  // namespace bcclap::enc
