// The trailing update of the blocked dense LDL^T kernel (linalg/ldlt.h),
// one tile at a time. Private to the kernel: cholesky.cpp runs the
// factorization through it, and the lane-identity test
// (tests/test_ldlt_lanes.cpp) runs both register widths on the same
// operands through it.
#pragma once

#include <cstddef>

namespace bcclap::linalg::ldlt_kernel {

// Tile edge of the blocked factorization, and rows per staged group.
inline constexpr std::size_t kLdltBlock = 64;
inline constexpr std::size_t kLanes = 4;

// Whether this CPU runs the four-lane (AVX2) build of the trailing-update
// micro-kernel. Read once per process; false off x86.
bool wide_lanes();

// Subtracts the block column's contribution from tile (ilo, jlo) of the
// packed n x n triangle p: entry (i, j), jlo <= j < jlo + kLdltBlock,
// max(ilo, j) <= i < min(n, ilo + kLdltBlock), loses
// sum_k rows(i, k) scaled(j, k) over k in [0, kLdltBlock), the sum taken
// from 0.0 in ascending k. rows and scaled hold the n - ke rows below the
// block column in staged groups of kLanes, each group k-major:
// rows[(g * kLdltBlock + k) * kLanes + c] is row ke + g * kLanes + c.
// `wide` runs interior 8 x 4 register blocks in four-lane registers (it
// requires wide_lanes()); the bytes are the same either way.
void update_tile(double* p, std::size_t n, std::size_t ke, const double* rows,
                 const double* scaled, std::size_t ilo, std::size_t jlo,
                 bool wide);

}  // namespace bcclap::linalg::ldlt_kernel
