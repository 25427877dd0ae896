#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/csc_matrix.h"
#include "linalg/ldlt_kernel.h"

namespace bcclap::linalg {

namespace {

// kLdltBlock, the tile edge of the blocked right-looking factorization, is
// fixed — never derived from the worker count — so tile boundaries, and
// with them the floating-point grouping of every trailing update, are
// identical at any thread count. For n <= kLdltBlock the whole matrix is
// one diagonal block and the arithmetic is exactly the classic unblocked
// sweep. kLanes rows make one staged group, and kLanes columns one
// register block of the lane kernels.
using ldlt_kernel::kLanes;
using ldlt_kernel::kLdltBlock;

// Two doubles in one SIMD register, and four (GCC/Clang vector extension,
// no intrinsics): Lane2 is SSE2 on the x86-64 baseline; Lane4 is used only
// inside the target("avx2") wrapper of the trailing update. Lane
// arithmetic is plain IEEE per lane, and the build pins -ffp-contract=off,
// so a lane runs exactly the mul-then-sub sequence of the scalar code it
// replaces: the kernels below only interleave independent accumulation
// chains, never reorder one, and their outputs are byte-identical to a
// per-entry scalar loop at either width.
using Lane2 = double __attribute__((vector_size(16)));
using Lane4 = double __attribute__((vector_size(32)));

Lane2 load2(const double* p) {
  Lane2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(double* p, Lane2 v) { std::memcpy(p, &v, sizeof v); }

Lane2 splat(double x) { return Lane2{x, x}; }

// Column j of the packed lower triangle of an n x n matrix, indexed by
// row: column(p, n, j)[i] is entry (i, j) for j <= i < n.
template <typename T>
T* column(T* p, std::size_t n, std::size_t j) {
  return p + LdltFactor::packed_index(n, 0, j);
}

// Rows [i, i + 2 * kPairs) of column j in the diagonal block that starts
// at column kb, as kPairs two-lane chains: each entry subtracts
// L(i, k) L(j, k) D(k) in ascending k, D(k) read from column k's diagonal
// slot, and is then divided by D(j) = dj in the register. Walking from
// column k to k + 1 advances n - 1 - k doubles.
template <std::size_t kPairs>
void diagonal_block_rows(double* p, std::size_t n, std::size_t kb,
                         std::size_t j, std::size_t i, double dj) {
  double* cj = column(p, n, j);
  Lane2 v[kPairs];
  for (std::size_t h = 0; h < kPairs; ++h) v[h] = load2(cj + i + 2 * h);
  const double* ck = column(p, n, kb);
  for (std::size_t k = kb; k < j; ck += n - 1 - k, ++k) {
    const Lane2 ljk = splat(ck[j]);
    const Lane2 dk = splat(ck[k]);
    for (std::size_t h = 0; h < kPairs; ++h)
      v[h] = v[h] - load2(ck + i + 2 * h) * ljk * dk;
  }
  const Lane2 d = splat(dj);
  for (std::size_t h = 0; h < kPairs; ++h) store2(cj + i + 2 * h, v[h] / d);
}

// One register block of the trailing update: rows [i0, i0 + 2 w) against
// columns [j0, j0 + kLanes), w the lanes of Lane. ai is the staged group
// of row i0 and bj the D-scaled group of column j0; cols[c] is packed
// column j0 + c. Rows are lanes — two w-row halves loaded per k, the
// second starting w rows on (the next lanes of the group for Lane2, the
// next group for Lane4) — and columns are broadcast from bj, so the block
// keeps eight accumulators: 4 x 4 for Lane2, 8 x 4 for Lane4. Each entry
// sums its products from 0.0 in ascending k and is then subtracted once
// from its packed slot. A block that overhangs the diagonal or the matrix
// edge stores only the entries with j0 + c <= i < n. Always inlined, so
// the Lane4 build is compiled inside its target("avx2") caller and no
// 32-byte vector crosses a call boundary.
template <typename Lane>
[[gnu::always_inline]] inline void update_block(
    const double* ai, const double* bj, double* const* cols, std::size_t n,
    std::size_t j0, std::size_t i0) {
  constexpr std::size_t w = sizeof(Lane) / sizeof(double);
  constexpr std::size_t half = w / kLanes * kLdltBlock * kLanes + w % kLanes;
  Lane acc[kLanes][2] = {};
  for (std::size_t k = 0; k < kLdltBlock; ++k) {
    Lane a0;
    Lane a1;
    std::memcpy(&a0, ai + k * kLanes, sizeof a0);
    std::memcpy(&a1, ai + half + k * kLanes, sizeof a1);
    for (std::size_t c = 0; c < kLanes; ++c) {
      // Scalar minus the zero vector: a broadcast at any width, exact for
      // every value (x - 0 is x, -0 included).
      const Lane b = bj[k * kLanes + c] - Lane{};
      acc[c][0] = acc[c][0] + a0 * b;
      acc[c][1] = acc[c][1] + a1 * b;
    }
  }
  if (j0 + kLanes <= i0 + 1 && i0 + 2 * w <= n) {
    for (std::size_t c = 0; c < kLanes; ++c)
      for (std::size_t h = 0; h < 2; ++h) {
        double* wp = cols[c] + i0 + h * w;
        Lane v;
        std::memcpy(&v, wp, sizeof v);
        v = v - acc[c][h];
        std::memcpy(wp, &v, sizeof v);
      }
  } else {
    for (std::size_t c = 0; c < kLanes; ++c)
      for (std::size_t r = 0; r < 2 * w; ++r) {
        const std::size_t i = i0 + r;
        if (i < n && j0 + c <= i) cols[c][i] -= acc[c][r / w][r % w];
      }
  }
}

// The four-lane build: an interior 8 x 4 block (no diagonal overhang, no
// ragged rows). Without "fma" in the target, and with -ffp-contract=off,
// every multiply and add still rounds on its own.
#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]]
#endif
void update_block_wide(const double* ai, const double* bj, double* const* cols,
                       std::size_t n, std::size_t j0, std::size_t i0) {
  update_block<Lane4>(ai, bj, cols, n, j0, i0);
}

void require_square(const CsrMatrix& laplacian) {
  if (laplacian.rows() != laplacian.cols()) {
    throw std::invalid_argument(
        "Laplacian factor: matrix is " + std::to_string(laplacian.rows()) +
        " x " + std::to_string(laplacian.cols()) + ", expected square");
  }
}

[[noreturn]] void throw_dim_mismatch(const char* where, std::size_t got,
                                     std::size_t want) {
  throw std::invalid_argument(std::string(where) + ": right-hand side has " +
                              std::to_string(got) + " rows, factor expects " +
                              std::to_string(want));
}

}  // namespace

bool ldlt_kernel::wide_lanes() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  return avx2;
#else
  return false;
#endif
}

void ldlt_kernel::update_tile(double* p, std::size_t n, std::size_t ke,
                              const double* rows, const double* scaled,
                              std::size_t ilo, std::size_t jlo, bool wide) {
  const std::size_t ihi = std::min(n, ilo + kLdltBlock);
  const std::size_t jhi = std::min(ihi, jlo + kLdltBlock);
  const auto staged = [&](const double* panel, std::size_t i) {
    return panel + (i - ke) / kLanes * kLdltBlock * kLanes;
  };
  for (std::size_t j0 = jlo; j0 < jhi; j0 += kLanes) {
    const double* bj = staged(scaled, j0);
    double* cols[kLanes];
    for (std::size_t c = 0; c < kLanes; ++c)
      cols[c] = column(p, n, std::min(j0 + c, n - 1));
    std::size_t i0 = std::max(ilo, j0);
    if (wide) {
      // The block on the diagonal overhangs it, and a last group with
      // fewer than eight rows left in the tile (ragged or not) cannot
      // pair, so both stay on the two-lane build; every block between
      // takes two staged groups at once.
      if (i0 == j0) {
        update_block<Lane2>(staged(rows, i0), bj, cols, n, j0, i0);
        i0 += kLanes;
      }
      for (; i0 + 2 * kLanes <= ihi; i0 += 2 * kLanes)
        update_block_wide(staged(rows, i0), bj, cols, n, j0, i0);
    }
    for (; i0 < ihi; i0 += kLanes)
      update_block<Lane2>(staged(rows, i0), bj, cols, n, j0, i0);
  }
}

std::optional<LdltFactor> LdltFactor::factor(const common::Context& ctx,
                                             const DenseMatrix& a,
                                             double pivot_tol) {
  LdltFactor f;
  if (!f.refactor(ctx, a, pivot_tol)) return std::nullopt;
  return f;
}

std::optional<LdltFactor> LdltFactor::factor_packed(const common::Context& ctx,
                                                    std::size_t n,
                                                    std::vector<double> lower,
                                                    double pivot_tol) {
  if (lower.size() != packed_size(n)) {
    throw std::invalid_argument(
        "LdltFactor::factor_packed: buffer holds " +
        std::to_string(lower.size()) + " doubles, a packed " +
        std::to_string(n) + " x " + std::to_string(n) + " triangle needs " +
        std::to_string(packed_size(n)));
  }
  LdltFactor f;
  f.l_ = std::move(lower);
  if (!f.factor_in_place(ctx, n, pivot_tol)) return std::nullopt;
  return f;
}

bool LdltFactor::refactor(const common::Context& ctx, const DenseMatrix& a,
                          double pivot_tol) {
  n_ = 0;
  if (a.rows() != a.cols()) {
    throw std::invalid_argument(
        "LdltFactor::factor: matrix is " + std::to_string(a.rows()) + " x " +
        std::to_string(a.cols()) + ", expected square");
  }
  const std::size_t n = a.rows();
  // Every packed entry is overwritten by the copy below, so storage kept
  // from an earlier factorization of the same size needs no reset; a new
  // size gets a fresh buffer (a shrunk vector would keep its old capacity
  // resident behind resident_bytes()'s back).
  if (l_.size() != packed_size(n)) l_ = std::vector<double>(packed_size(n));
  // The copy is a transpose (packed columns from a row-major matrix) and
  // O(n^2) against the kernel's O(n^3); it runs on the calling thread,
  // which keeps the small systems the IPM refactors at every Newton step
  // off the pool.
  double* p = l_.data();
  for (std::size_t j = 0; j < n; ++j) {
    double* cj = column(p, n, j);
    for (std::size_t i = j; i < n; ++i) cj[i] = a(i, j);
  }
  return factor_in_place(ctx, n, pivot_tol);
}

bool LdltFactor::factor_in_place(const common::Context& ctx, std::size_t n,
                                 double pivot_tol) {
  double* p = l_.data();
  // Relative pivot threshold: matrices arriving here can be scaled by
  // anything from barrier Hessians (1e-16 .. 1e16), so an absolute
  // tolerance would reject legitimately tiny-but-positive pivots.
  double diag_scale = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    diag_scale = std::max(diag_scale, std::abs(column(p, n, j)[j]));
  // Degenerate inputs are "not PD" explicitly: a 0x0 system has nothing to
  // factor, and an all-zero diagonal admits no positive pivot — without
  // this guard the zero matrix would race `0 <= pivot_tol * 1e-300`
  // against double underflow instead of being rejected by design.
  if (n == 0 || diag_scale == 0.0) return false;
  const double threshold = pivot_tol * diag_scale;

  // The packed triangle starts as the lower triangle of the matrix and is
  // transformed block column by block column into the factor: L below the
  // diagonal, D on it. Trailing entries hold the partially updated matrix
  // until their own block column comes up.
  //
  // Below the diagonal block, the block column is worked on in a staged
  // copy, because its packed columns lie ~n doubles apart: the rows below
  // the block in groups of kLanes, each group stored k-major —
  // rows[(g * kLdltBlock + k) * kLanes + c] holds L(ke + g * kLanes + c,
  // kb + k) and scaled[...] at the same index that entry times D(kb + k),
  // the left and right operands of the trailing update. The lanes of a
  // ragged last group alias row n - 1, so every group runs full width and
  // only the valid lanes are stored back. `diag` is a row-major copy of
  // the factored diagonal block (L below the diagonal, D on it), the
  // panel's shared operand. Sized once for the first (largest) panel:
  // every block column that reaches the panel has bw == kLdltBlock (the
  // final, possibly ragged block breaks out before it), so one buffer
  // serves the whole factorization; for n <= kLdltBlock it stays empty.
  const std::size_t max_groups =
      n > kLdltBlock ? (n - kLdltBlock + kLanes - 1) / kLanes : 0;
  const std::size_t panel_size = max_groups * kLdltBlock * kLanes;
  std::vector<double> work(
      n > kLdltBlock ? 2 * panel_size + kLdltBlock * kLdltBlock : 0);
  double* const rows = work.data();
  double* const scaled = rows + panel_size;
  double* const diag = scaled + panel_size;

  for (std::size_t kb = 0; kb < n; kb += kLdltBlock) {
    const std::size_t ke = std::min(n, kb + kLdltBlock);
    const std::size_t bw = ke - kb;

    // (1) Unblocked LDLT of the diagonal block, left-looking down its
    // packed columns: entry (i, j) subtracts L(i, k) L(j, k) D(k) over the
    // block's earlier columns in ascending k (earlier block columns were
    // already applied by their trailing updates), then is divided by
    // D(j). The diagonal entry takes the same chain first and becomes
    // D(j); the rows below it run as independent two-lane chains, four
    // and then two at a time, dividing in the register, and a last odd
    // row alone.
    for (std::size_t j = kb; j < ke; ++j) {
      double* cj = column(p, n, j);
      const double* ck = column(p, n, kb);
      for (std::size_t k = kb; k < j; ck += n - 1 - k, ++k)
        cj[j] -= ck[j] * ck[j] * ck[k];
      const double dj = cj[j];
      if (dj <= threshold) return false;
      std::size_t i = j + 1;
      for (; i + kLanes <= ke; i += kLanes)
        diagonal_block_rows<2>(p, n, kb, j, i, dj);
      if (i + 2 <= ke) {
        diagonal_block_rows<1>(p, n, kb, j, i, dj);
        i += 2;
      }
      if (i < ke) {
        ck = column(p, n, kb);
        for (std::size_t k = kb; k < j; ck += n - 1 - k, ++k)
          cj[i] -= ck[i] * ck[j] * ck[k];
        cj[i] /= dj;
      }
    }
    if (ke == n) break;
    for (std::size_t j = 0; j < kLdltBlock; ++j)
      for (std::size_t k = 0; k <= j; ++k)
        diag[j * kLdltBlock + k] = column(p, n, kb + k)[kb + j];

    // (2) Panel: every row below the block receives its final L entries
    // for columns [kb, ke) by the diagonal block's per-entry sequence.
    // Rows are independent; they fan out across the pool in groups of
    // kLanes, each group gathered into its staged slot, run in two-lane
    // SIMD registers, written back to the packed columns, its D-scaled
    // copy landing in the right operand of the trailing update.
    const std::size_t groups = (n - ke + kLanes - 1) / kLanes;
    ctx.parallel_for_chunks(
        0, groups, ctx.grain(groups, kLanes * (bw * bw / 2 + bw)),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t g = lo; g < hi; ++g) {
            const std::size_t i0 = ke + g * kLanes;
            const std::size_t nr = std::min(kLanes, n - i0);
            double* rg = rows + g * kLdltBlock * kLanes;
            double* sg = scaled + g * kLdltBlock * kLanes;
            for (std::size_t j = 0; j < kLdltBlock; ++j) {
              const double* cj = column(p, n, kb + j);
              for (std::size_t c = 0; c < kLanes; ++c)
                rg[j * kLanes + c] = cj[std::min(i0 + c, n - 1)];
            }
            for (std::size_t j = 0; j < kLdltBlock; ++j) {
              const double* lj = diag + j * kLdltBlock;
              Lane2 v0 = load2(rg + j * kLanes);
              Lane2 v1 = load2(rg + j * kLanes + 2);
              for (std::size_t k = 0; k < j; ++k) {
                const Lane2 ljk = splat(lj[k]);
                const Lane2 dk = splat(diag[k * kLdltBlock + k]);
                v0 = v0 - load2(rg + k * kLanes) * ljk * dk;
                v1 = v1 - load2(rg + k * kLanes + 2) * ljk * dk;
              }
              const Lane2 dj = splat(lj[j]);
              v0 = v0 / dj;
              v1 = v1 / dj;
              store2(rg + j * kLanes, v0);
              store2(rg + j * kLanes + 2, v1);
              store2(sg + j * kLanes, v0 * dj);
              store2(sg + j * kLanes + 2, v1 * dj);
            }
            for (std::size_t j = 0; j < kLdltBlock; ++j)
              std::memcpy(column(p, n, kb + j) + i0, rg + j * kLanes,
                          nr * sizeof(double));
          }
        });

    // (3) Trailing update: W(i, j) -= sum_k L(i, k) D(k) L(j, k) over the
    // block's columns, for ke <= j <= i < n. The trailing triangle is cut
    // into kLdltBlock-square tiles; every tile is one unit of work with a
    // fixed interior loop order and a disjoint write range, so the fan-out
    // needs no merge step to stay deterministic. Inside a tile
    // (ldlt_kernel::update_tile) a register block keeps eight
    // accumulators, rows as lanes loaded from the staged groups and
    // columns broadcast from the D-scaled operand. On a CPU with AVX2 —
    // decided once per process — interior blocks are 8 rows x 4 columns
    // in four-lane registers; the block on the diagonal, an unpaired last
    // group of a tile and every block on a CPU without AVX2 are 4 x 4 in
    // two-lane registers.
    // Both widths are one templated body, and each (i, j) entry still
    // sums its products from 0.0 in ascending k and is then subtracted
    // once, down its packed column, so the width never shows in the
    // bytes.
    struct Tile {
      std::size_t ilo, jlo;
    };
    std::vector<Tile> tiles;
    for (std::size_t ilo = ke; ilo < n; ilo += kLdltBlock)
      for (std::size_t jlo = ke; jlo <= ilo; jlo += kLdltBlock)
        tiles.push_back({ilo, jlo});
    const bool wide = ldlt_kernel::wide_lanes();
    ctx.parallel_for_chunks(
        0, tiles.size(), 1, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t)
            ldlt_kernel::update_tile(p, n, ke, rows, scaled, tiles[t].ilo,
                                     tiles[t].jlo, wide);
        });
  }
  n_ = n;
  return true;
}

void LdltFactor::solve_in_place(double* y) const {
  const std::size_t n = n_;
  const double* p = l_.data();
  // Forward, L z = b, right-looking: once y_k is final it is subtracted
  // from every later row, reading column k of L contiguously. Columns go
  // kLanes at a time — the block's own triangle first, then one pass over
  // the rows below that takes the block's terms in order — so each row
  // still subtracts its terms in ascending k, exactly as a row-by-row
  // substitution would.
  for (std::size_t k0 = 0; k0 < n; k0 += kLanes) {
    const std::size_t ke = std::min(n, k0 + kLanes);
    for (std::size_t k = k0; k < ke; ++k) {
      const double* ck = column(p, n, k);
      for (std::size_t i = k + 1; i < ke; ++i) y[i] -= ck[i] * y[k];
    }
    if (ke == n) break;
    const double* c0 = column(p, n, k0);
    const double* c1 = column(p, n, k0 + 1);
    const double* c2 = column(p, n, k0 + 2);
    const double* c3 = column(p, n, k0 + 3);
    const double y0 = y[k0], y1 = y[k0 + 1], y2 = y[k0 + 2], y3 = y[k0 + 3];
    for (std::size_t i = ke; i < n; ++i)
      y[i] = y[i] - c0[i] * y0 - c1[i] * y1 - c2[i] * y2 - c3[i] * y3;
  }
  for (std::size_t i = 0; i < n; ++i) y[i] /= column(p, n, i)[i];
  // Backward, L^T x = z: column i of L read downward, in ascending k. The
  // chain is serial by nature — row i - 1 starts with the freshly solved
  // x_i.
  for (std::size_t i = n; i-- > 0;) {
    const double* ci = column(p, n, i);
    double v = y[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= ci[k] * y[k];
    y[i] = v;
  }
}

void LdltFactor::solve_panel_in_place(double* p) const {
  // p is n x kLanes row-major, one right-hand side per lane column; each
  // column of L is read once for all four right-hand sides, and every
  // column runs solve_in_place's arithmetic sequence in its own lane.
  constexpr std::size_t w = kLanes;
  const std::size_t n = n_;
  const double* l = l_.data();
  for (std::size_t k0 = 0; k0 < n; k0 += kLanes) {
    const std::size_t ke = std::min(n, k0 + kLanes);
    for (std::size_t k = k0; k < ke; ++k) {
      const double* ck = column(l, n, k);
      const Lane2 p0 = load2(p + k * w);
      const Lane2 p1 = load2(p + k * w + 2);
      for (std::size_t i = k + 1; i < ke; ++i) {
        const Lane2 lk = splat(ck[i]);
        store2(p + i * w, load2(p + i * w) - lk * p0);
        store2(p + i * w + 2, load2(p + i * w + 2) - lk * p1);
      }
    }
    if (ke == n) break;
    const double* ck[kLanes];
    Lane2 pk[kLanes][2];
    for (std::size_t c = 0; c < kLanes; ++c) {
      ck[c] = column(l, n, k0 + c);
      pk[c][0] = load2(p + (k0 + c) * w);
      pk[c][1] = load2(p + (k0 + c) * w + 2);
    }
    for (std::size_t i = ke; i < n; ++i) {
      Lane2 v0 = load2(p + i * w);
      Lane2 v1 = load2(p + i * w + 2);
      for (std::size_t c = 0; c < kLanes; ++c) {
        const Lane2 lk = splat(ck[c][i]);
        v0 = v0 - lk * pk[c][0];
        v1 = v1 - lk * pk[c][1];
      }
      store2(p + i * w, v0);
      store2(p + i * w + 2, v1);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Lane2 di = splat(column(l, n, i)[i]);
    store2(p + i * w, load2(p + i * w) / di);
    store2(p + i * w + 2, load2(p + i * w + 2) / di);
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* ci = column(l, n, i);
    Lane2 v0 = load2(p + i * w);
    Lane2 v1 = load2(p + i * w + 2);
    for (std::size_t k = i + 1; k < n; ++k) {
      const Lane2 lk = splat(ci[k]);
      v0 = v0 - lk * load2(p + k * w);
      v1 = v1 - lk * load2(p + k * w + 2);
    }
    store2(p + i * w, v0);
    store2(p + i * w + 2, v1);
  }
}

Vec LdltFactor::solve(const Vec& b) const {
  if (b.size() != n_) throw_dim_mismatch("LdltFactor::solve", b.size(), n_);
  Vec y(b);
  solve_in_place(y.data());
  return y;
}

DenseMatrix LdltFactor::solve_many(const common::Context& ctx,
                                   const DenseMatrix& b) const {
  if (b.rows() != n_)
    throw_dim_mismatch("LdltFactor::solve_many", b.rows(), n_);
  const std::size_t k = b.cols();
  if (k == 1) {
    // An n x 1 panel is one contiguous vector.
    DenseMatrix x(b);
    solve_in_place(x.data());
    return x;
  }
  DenseMatrix x(n_, k);
  // Columns go through the panel kernel kLanes at a time (a lone trailing
  // column through the single-RHS sweeps, unpadded). Column grouping never
  // touches the arithmetic, so the panel is byte-identical to k sequential
  // solve() calls; groups own disjoint output columns and fan out over
  // the pool.
  const std::size_t groups = (k + kLanes - 1) / kLanes;
  ctx.parallel_for(0, groups, [&](std::size_t g) {
    const std::size_t c0 = g * kLanes;
    const std::size_t w = std::min(kLanes, k - c0);
    if (w == 1) {
      Vec y = b.column(c0);
      solve_in_place(y.data());
      x.set_column(c0, y);
      return;
    }
    std::vector<double> p(n_ * kLanes, 0.0);
    for (std::size_t i = 0; i < n_; ++i)
      for (std::size_t c = 0; c < w; ++c) p[i * kLanes + c] = b(i, c0 + c);
    solve_panel_in_place(p.data());
    for (std::size_t i = 0; i < n_; ++i)
      for (std::size_t c = 0; c < w; ++c) x(i, c0 + c) = p[i * kLanes + c];
  });
  return x;
}

std::optional<ComponentLaplacianFactor> ComponentLaplacianFactor::factor(
    const common::Context& ctx, const CsrMatrix& laplacian, FactorMode mode) {
  require_square(laplacian);
  const std::size_t n = laplacian.rows();
  ComponentLaplacianFactor f;
  f.n_ = n;
  // Connected components over the nonzero off-diagonal pattern.
  f.component_of_.assign(n, static_cast<std::size_t>(-1));
  const auto& rp = laplacian.row_ptr();
  const auto& ci = laplacian.col_index();
  const auto& vals = laplacian.values();
  for (std::size_t start = 0; start < n; ++start) {
    if (f.component_of_[start] != static_cast<std::size_t>(-1)) continue;
    const std::size_t comp = f.component_vertices_.size();
    f.component_vertices_.emplace_back();
    std::vector<std::size_t> stack{start};
    f.component_of_[start] = comp;
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      f.component_vertices_[comp].push_back(v);
      for (std::size_t k = rp[v]; k < rp[v + 1]; ++k) {
        const std::size_t u = ci[k];
        if (u == v || vals[k] == 0.0) continue;
        if (f.component_of_[u] == static_cast<std::size_t>(-1)) {
          f.component_of_[u] = comp;
          stack.push_back(u);
        }
      }
    }
  }
  // Local index of every vertex within its component's vertex list,
  // computed in one O(n) pass (the old per-component rebuild was O(n)
  // per component and would serialize the fan-out below).
  const std::size_t num_comps = f.component_vertices_.size();
  std::vector<std::size_t> local(n, 0);
  for (std::size_t c = 0; c < num_comps; ++c) {
    const auto& verts = f.component_vertices_[c];
    for (std::size_t i = 0; i < verts.size(); ++i) local[verts[i]] = i;
  }
  // Factor each component (grounded on its last local vertex) on the
  // backend the dispatch heuristic picks for its size and fill. Components
  // are independent and every slot of factors_ is written by exactly one
  // index, so the fan-out is race-free and byte-deterministic; a failed
  // component leaves its slot empty and is distinguished from a singleton
  // by size below.
  f.factors_.resize(num_comps);
  ctx.parallel_for(0, num_comps, [&](std::size_t c) {
    const auto& verts = f.component_vertices_[c];
    if (verts.size() < 2) return;
    const std::size_t dim = verts.size() - 1;
    // Stored entries of the grounded component matrix (one scan; vertices
    // whose local index is dim are the grounded one, and zero-valued
    // entries may reference other components — invisible to the BFS).
    std::size_t grounded_nnz = 0;
    for (std::size_t i = 0; i + 1 < verts.size(); ++i) {
      const std::size_t v = verts[i];
      for (std::size_t k = rp[v]; k < rp[v + 1]; ++k) {
        const std::size_t u = ci[k];
        if (f.component_of_[u] == c && local[u] < dim) ++grounded_nnz;
      }
    }
    if (sparse_path_selected(dim, grounded_nnz, mode)) {
      // Symmetric triplets in component-local indices; the CSC builder
      // keeps the upper triangle and coalesces duplicates additively.
      std::vector<Triplet> trips;
      trips.reserve(grounded_nnz);
      for (std::size_t i = 0; i + 1 < verts.size(); ++i) {
        const std::size_t v = verts[i];
        for (std::size_t k = rp[v]; k < rp[v + 1]; ++k) {
          const std::size_t u = ci[k];
          if (f.component_of_[u] != c || local[u] >= dim) continue;
          trips.push_back({i, local[u], vals[k]});
        }
      }
      auto sf = SparseLdltFactor::factor(
          ctx, CscSymmetricMatrix(dim, std::move(trips)));
      if (sf) f.factors_[c] = Grounded{std::move(*sf)};
      return;
    }
    // The dense kernel reads only the lower triangle, so only that is
    // assembled, straight into the factor's packed storage.
    std::vector<double> g(LdltFactor::packed_size(dim), 0.0);
    for (std::size_t i = 0; i + 1 < verts.size(); ++i) {
      const std::size_t v = verts[i];
      for (std::size_t k = rp[v]; k < rp[v + 1]; ++k) {
        const std::size_t u = ci[k];
        if (f.component_of_[u] != c || local[u] > i) continue;
        g[LdltFactor::packed_index(dim, i, local[u])] += vals[k];
      }
    }
    auto ldlt = LdltFactor::factor_packed(ctx, dim, std::move(g));
    if (ldlt) f.factors_[c] = Grounded{std::move(*ldlt)};
  });
  for (std::size_t c = 0; c < num_comps; ++c) {
    if (f.component_vertices_[c].size() >= 2 && !f.factors_[c])
      return std::nullopt;
  }
  return f;
}

std::size_t ComponentLaplacianFactor::dense_factor_count() const {
  std::size_t count = 0;
  for (const auto& fac : factors_)
    if (fac && std::holds_alternative<LdltFactor>(*fac)) ++count;
  return count;
}

std::size_t ComponentLaplacianFactor::sparse_factor_count() const {
  std::size_t count = 0;
  for (const auto& fac : factors_)
    if (fac && std::holds_alternative<SparseLdltFactor>(*fac)) ++count;
  return count;
}

DenseMatrix ComponentLaplacianFactor::solve_many(const common::Context& ctx,
                                                 const DenseMatrix& b) const {
  if (b.rows() != n_)
    throw_dim_mismatch("ComponentLaplacianFactor::solve_many", b.rows(), n_);
  const std::size_t k = b.cols();
  DenseMatrix x(n_, k);
  // Per component: project every column onto the component's zero-sum
  // subspace, one panel solve through the component factor's solve_many
  // (which fans out over ctx's pool), then re-project the grounded
  // solution to zero component mean. No step mixes columns, so the panel
  // is byte-identical to k one-column panels.
  for (std::size_t c = 0; c < component_vertices_.size(); ++c) {
    const auto& verts = component_vertices_[c];
    if (verts.size() < 2) continue;  // singleton: L row is zero, x = 0
    const std::size_t size = verts.size();
    DenseMatrix local(size - 1, k);
    for (std::size_t j = 0; j < k; ++j) {
      double mean = 0.0;
      for (std::size_t v : verts) mean += b(v, j);
      mean /= static_cast<double>(size);
      for (std::size_t i = 0; i + 1 < size; ++i)
        local(i, j) = b(verts[i], j) - mean;
    }
    const DenseMatrix sol = std::visit(
        [&](const auto& fac) { return fac.solve_many(ctx, local); },
        *factors_[c]);
    for (std::size_t j = 0; j < k; ++j) {
      double xmean = 0.0;
      for (std::size_t i = 0; i + 1 < size; ++i) xmean += sol(i, j);
      xmean /= static_cast<double>(size);
      for (std::size_t i = 0; i + 1 < size; ++i)
        x(verts[i], j) = sol(i, j) - xmean;
      x(verts.back(), j) = -xmean;
    }
  }
  return x;
}

}  // namespace bcclap::linalg
