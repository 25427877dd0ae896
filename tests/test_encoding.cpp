#include "common/encoding.h"

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>

#include <gtest/gtest.h>

namespace bcclap::enc {
namespace {

TEST(Encoding, BitWidthU64) {
  EXPECT_EQ(bit_width_u64(0), 1);
  EXPECT_EQ(bit_width_u64(1), 1);
  EXPECT_EQ(bit_width_u64(2), 2);
  EXPECT_EQ(bit_width_u64(3), 2);
  EXPECT_EQ(bit_width_u64(255), 8);
  EXPECT_EQ(bit_width_u64(256), 9);
}

TEST(Encoding, BitWidthI64) {
  EXPECT_EQ(bit_width_i64(0), 2);   // sign + 1
  EXPECT_EQ(bit_width_i64(-1), 2);
  EXPECT_EQ(bit_width_i64(7), 4);
  EXPECT_EQ(bit_width_i64(-8), 5);
}

TEST(Encoding, IdBits) {
  EXPECT_EQ(id_bits(1), 1);
  EXPECT_EQ(id_bits(2), 1);
  EXPECT_EQ(id_bits(3), 2);
  EXPECT_EQ(id_bits(1024), 10);
  EXPECT_EQ(id_bits(1025), 11);
}

TEST(Encoding, RealBitsGrowsWithPrecision) {
  EXPECT_LT(real_bits(100.0, 1e-3), real_bits(100.0, 1e-9));
  EXPECT_LT(real_bits(10.0, 1e-6), real_bits(1e6, 1e-6));
}

TEST(Encoding, RoundsForBits) {
  EXPECT_EQ(rounds_for_bits(0, 16), 0);
  EXPECT_EQ(rounds_for_bits(1, 16), 1);
  EXPECT_EQ(rounds_for_bits(16, 16), 1);
  EXPECT_EQ(rounds_for_bits(17, 16), 2);
  EXPECT_EQ(rounds_for_bits(10, 0), 10);  // degenerate bandwidth clamps to 1
}

TEST(Encoding, MaxWidthEncodings) {
  EXPECT_EQ(bit_width_u64(std::numeric_limits<std::uint64_t>::max()), 64);
  EXPECT_EQ(bit_width_u64(std::uint64_t{1} << 63), 64);
  EXPECT_EQ(bit_width_u64((std::uint64_t{1} << 63) - 1), 63);
  // Signed widths: sign bit + magnitude; INT64_MIN's magnitude is 2^63.
  EXPECT_EQ(bit_width_i64(std::numeric_limits<std::int64_t>::max()), 64);
  EXPECT_EQ(bit_width_i64(std::numeric_limits<std::int64_t>::min()), 65);
}

TEST(Encoding, IdBitsAtExtremes) {
  EXPECT_EQ(id_bits(0), 1);  // degenerate: no ids, still 1 bit
  const auto big = std::size_t{1} << 40;
  EXPECT_EQ(id_bits(big), 40);
  EXPECT_EQ(id_bits(big + 1), 41);
}

TEST(Encoding, RealBitsClampsDegeneratePrecision) {
  // eps outside (0, 1] is clamped, so widths stay finite and positive.
  EXPECT_GT(real_bits(1.0, 0.0), 0);
  EXPECT_LE(real_bits(1.0, 0.0), real_bits(1.0, 1e-30) + 1);
  EXPECT_EQ(real_bits(1.0, 2.0), real_bits(1.0, 1.0));
  // |max_abs| below 1 behaves as 1 (a value range never costs < 1 int bit).
  EXPECT_EQ(real_bits(0.25, 1e-3), real_bits(1.0, 1e-3));
}

TEST(Encoding, EmptyPayloadCostsNoRounds) {
  // Zero-bit payloads are free at every bandwidth, including degenerate
  // ones — the invariant behind zero-message supersteps costing 0 rounds.
  for (std::int64_t bw : {-1, 0, 1, 16, 1024}) {
    EXPECT_EQ(rounds_for_bits(0, bw), 0) << "bandwidth " << bw;
    EXPECT_EQ(rounds_for_bits(-5, bw), 0) << "bandwidth " << bw;
  }
}

TEST(Encoding, OrderKeyIsExactAndMonotone) {
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {-inf,  -1e300, -2.5, -1e-300, -0.0, 0.0,
                           1e-300, 1e-3,  0.25, 1.0,     1.25, 3.0,
                           1e300,  inf};
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const std::uint64_t key = order_key(values[i]);
    const double back = from_order_key(key);
    EXPECT_EQ(std::signbit(back), std::signbit(values[i])) << i;
    EXPECT_EQ(back, values[i]) << i;
    if (i > 0) {
      EXPECT_LT(order_key(values[i - 1]), key) << i;
    }
  }
}

}  // namespace
}  // namespace bcclap::enc
