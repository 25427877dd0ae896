// FNV-1a over 64-bit words, each fed as 8 little-endian bytes: the hash
// the golden-pin suites record output bytes with. Doubles are fed as their
// bit patterns, so a pin changes with any change of the last bit.
#pragma once

#include <cstdint>
#include <cstring>

#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"

namespace bcclap::testsupport {

class Fnv {
 public:
  void feed(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void feed(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    feed(bits);
  }
  void feed(const linalg::Vec& v) {
    for (double x : v) feed(x);
  }
  // Row-major.
  void feed(const linalg::DenseMatrix& m) {
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < m.cols(); ++j) feed(m(i, j));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace bcclap::testsupport
