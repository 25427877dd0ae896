#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/csc_matrix.h"

namespace bcclap::linalg {

namespace {

// Tile edge of the blocked right-looking factorization. Fixed — never
// derived from the worker count — so tile boundaries, and with them the
// floating-point grouping of every trailing update, are identical at any
// thread count. For n <= kLdltBlock the whole matrix is one diagonal
// block and the arithmetic is exactly the classic unblocked sweep.
constexpr std::size_t kLdltBlock = 64;

// Rows (and packed columns) per register block of the lane kernels.
constexpr std::size_t kLanes = 4;

// Two doubles in one SIMD register (GCC/Clang vector extension; SSE2 on
// the x86-64 baseline, no intrinsics). Lane arithmetic is plain IEEE
// per lane, and the build pins -ffp-contract=off, so a lane runs exactly
// the mul-then-sub sequence of the scalar code it replaces: the kernels
// below only interleave independent accumulation chains, never reorder
// one, and their outputs are byte-identical to a per-entry scalar loop.
using Lane2 = double __attribute__((vector_size(16)));

Lane2 load2(const double* p) {
  Lane2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(double* p, Lane2 v) { std::memcpy(p, &v, sizeof v); }

Lane2 splat(double x) { return Lane2{x, x}; }

// Row pointers of a kLanes-row block starting at row i0 of `l`; rows past
// `end` alias row end - 1, so ragged edges run the full-width kernel and
// the caller simply drops the aliased lanes' results.
template <typename Matrix, typename Ptr>
void block_rows(Matrix& l, std::size_t i0, std::size_t end,
                Ptr (&rows)[kLanes]) {
  for (std::size_t r = 0; r < kLanes; ++r)
    rows[r] = l.row_data(std::min(i0 + r, end - 1));
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

std::optional<LdltFactor> LdltFactor::factor(const common::Context& ctx,
                                             const DenseMatrix& a,
                                             double pivot_tol) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument(
        "LdltFactor::factor: matrix is " + std::to_string(a.rows()) + " x " +
        std::to_string(a.cols()) + ", expected square");
  }
  const std::size_t n = a.rows();
  // Relative pivot threshold: matrices arriving here can be scaled by
  // anything from barrier Hessians (1e-16 .. 1e16), so an absolute
  // tolerance would reject legitimately tiny-but-positive pivots.
  double diag_scale = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    diag_scale = std::max(diag_scale, std::abs(a(j, j)));
  // Degenerate inputs are "not PD" explicitly: a 0x0 system has nothing to
  // factor, and an all-zero diagonal admits no positive pivot — without
  // this guard the zero matrix would race `0 <= pivot_tol * 1e-300`
  // against double underflow instead of being rejected by design.
  if (n == 0 || diag_scale == 0.0) return std::nullopt;
  const double threshold = pivot_tol * diag_scale;

  LdltFactor f;
  f.n_ = n;
  f.l_ = DenseMatrix(n, n);
  f.d_.assign(n, 0.0);
  DenseMatrix& l = f.l_;
  Vec& d = f.d_;

  // Working storage: the lower triangle of `l` starts as the lower
  // triangle of `a` and is transformed block column by block column into
  // the unit-lower factor; the diagonal slots hold trailing-matrix values
  // until the final pass pins them to 1. The strict upper triangle is
  // never read during the factorization: as soon as an entry L(i, j) is
  // final, steps (1) and (2) mirror it to l(j, i), so the finished factor
  // holds L^T there and the backward sweeps read row i contiguously. The
  // mirror is written while the block column is in cache; a separate
  // transpose pass afterwards costs an extra sweep (and, below n = 64, a
  // measurable share of the many tiny IPM factorizations).
  ctx.parallel_for_chunks(
      0, n, ctx.grain(n, n / 2 + 1), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          double* li = l.row_data(i);
          const double* ai = a.row_data(i);
          for (std::size_t j = 0; j <= i; ++j) li[j] = ai[j];
        }
      });

  // Packed D-scaled panel, the right-hand operand of the trailing update:
  // the rows below a block column in groups of kLanes, each group stored
  // k-major — packed[(g * kLdltBlock + k) * kLanes + c] holds
  // L(ke + g * kLanes + c, kb + k) * D(kb + k). Sized once for the first
  // (largest) panel: every block column that reaches the trailing update
  // has bw == kLdltBlock (the final, possibly ragged block breaks out
  // before using it), so one buffer serves the whole factorization.
  const std::size_t max_groups =
      n > kLdltBlock ? (n - kLdltBlock + kLanes - 1) / kLanes : 0;
  std::vector<double> packed(max_groups * kLdltBlock * kLanes);

  for (std::size_t kb = 0; kb < n; kb += kLdltBlock) {
    const std::size_t ke = std::min(n, kb + kLdltBlock);
    const std::size_t bw = ke - kb;

    // (1) Unblocked LDLT of the diagonal block, mirroring each entry.
    // Contributions of earlier block columns were already applied by their
    // trailing updates, so only within-block corrections remain.
    for (std::size_t j = kb; j < ke; ++j) {
      double* lj = l.row_data(j);
      double dj = lj[j];
      for (std::size_t k = kb; k < j; ++k) dj -= lj[k] * lj[k] * d[k];
      if (dj <= threshold) return std::nullopt;
      d[j] = dj;
      for (std::size_t i = j + 1; i < ke; ++i) {
        double* li = l.row_data(i);
        double v = li[j];
        for (std::size_t k = kb; k < j; ++k) v -= li[k] * lj[k] * d[k];
        li[j] = v / dj;
        lj[i] = li[j];
      }
    }
    if (ke == n) break;

    // (2) Panel: every row below the block receives its final L entries
    // for columns [kb, ke). Rows are independent; they fan out across the
    // pool in groups of kLanes, each group staged k-major in a register-
    // friendly buffer (lanes = rows) and written back, to its rows and
    // mirrored into the block rows' upper triangle, its D-scaled copy
    // landing straight in the packed operand of the trailing update.
    const std::size_t groups = (n - ke + kLanes - 1) / kLanes;
    ctx.parallel_for_chunks(
        0, groups, ctx.grain(groups, kLanes * (bw * bw / 2 + bw)),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t g = lo; g < hi; ++g) {
            const std::size_t i0 = ke + g * kLanes;
            const std::size_t nr = std::min(kLanes, n - i0);
            double* rows[kLanes];
            block_rows(l, i0, n, rows);
            double* pg = packed.data() + g * kLdltBlock * kLanes;
            double stage[kLdltBlock * kLanes];
            for (std::size_t j = 0; j < bw; ++j)
              for (std::size_t r = 0; r < kLanes; ++r)
                stage[j * kLanes + r] = rows[r][kb + j];
            for (std::size_t j = 0; j < bw; ++j) {
              const double* lj = l.row_data(kb + j);
              Lane2 v0 = load2(stage + j * kLanes);
              Lane2 v1 = load2(stage + j * kLanes + 2);
              for (std::size_t k = 0; k < j; ++k) {
                const Lane2 ljk = splat(lj[kb + k]);
                const Lane2 dk = splat(d[kb + k]);
                v0 = v0 - load2(stage + k * kLanes) * ljk * dk;
                v1 = v1 - load2(stage + k * kLanes + 2) * ljk * dk;
              }
              const Lane2 dj = splat(d[kb + j]);
              v0 = v0 / dj;
              v1 = v1 / dj;
              store2(stage + j * kLanes, v0);
              store2(stage + j * kLanes + 2, v1);
              store2(pg + j * kLanes, v0 * dj);
              store2(pg + j * kLanes + 2, v1 * dj);
            }
            for (std::size_t r = 0; r < nr; ++r)
              for (std::size_t j = 0; j < bw; ++j)
                rows[r][kb + j] = stage[j * kLanes + r];
            for (std::size_t j = 0; j < bw; ++j)
              std::memcpy(l.row_data(kb + j) + i0, stage + j * kLanes,
                          nr * sizeof(double));
          }
        });

    // (3) Trailing update: W(i, j) -= sum_k L(i, k) D(k) L(j, k) over the
    // block's columns, for ke <= j <= i < n. The trailing triangle is cut
    // into kLdltBlock-square tiles; every tile is one unit of work with a
    // fixed interior loop order and a disjoint write range, so the fan-out
    // needs no merge step to stay deterministic. Inside a tile a 4-row x
    // 4-column micro-kernel keeps eight two-lane accumulators in
    // registers; each (i, j) entry still sums its products from 0.0 in
    // ascending k and is then subtracted once. Blocks overhanging the
    // triangle or the matrix edge compute the full 4 x 4 and store only
    // the entries with j <= i < n.
    struct Tile {
      std::size_t ilo, jlo;
    };
    std::vector<Tile> tiles;
    for (std::size_t ilo = ke; ilo < n; ilo += kLdltBlock)
      for (std::size_t jlo = ke; jlo <= ilo; jlo += kLdltBlock)
        tiles.push_back({ilo, jlo});
    ctx.parallel_for_chunks(
        0, tiles.size(), 1, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t) {
            const std::size_t ihi = std::min(n, tiles[t].ilo + kLdltBlock);
            const std::size_t jcap = std::min(n, tiles[t].jlo + kLdltBlock);
            for (std::size_t i0 = tiles[t].ilo; i0 < ihi; i0 += kLanes) {
              double* rows[kLanes];
              block_rows(l, i0, ihi, rows);
              const std::size_t jblock = std::min(jcap, i0 + kLanes);
              for (std::size_t j0 = tiles[t].jlo; j0 < jblock; j0 += kLanes) {
                const double* pj =
                    packed.data() + (j0 - ke) / kLanes * kLdltBlock * kLanes;
                Lane2 acc[kLanes][2] = {};
                for (std::size_t k = 0; k < kLdltBlock; ++k) {
                  const Lane2 b0 = load2(pj + k * kLanes);
                  const Lane2 b1 = load2(pj + k * kLanes + 2);
                  for (std::size_t r = 0; r < kLanes; ++r) {
                    const Lane2 ar = splat(rows[r][kb + k]);
                    acc[r][0] = acc[r][0] + ar * b0;
                    acc[r][1] = acc[r][1] + ar * b1;
                  }
                }
                for (std::size_t r = 0; r < kLanes && i0 + r < ihi; ++r) {
                  const std::size_t jend = std::min(jcap, i0 + r + 1);
                  for (std::size_t c = 0; c < kLanes && j0 + c < jend; ++c)
                    rows[r][j0 + c] -= acc[r][c / 2][c % 2];
                }
              }
            }
          }
        });
  }

  for (std::size_t j = 0; j < n; ++j) l(j, j) = 1.0;
  return f;
}

void LdltFactor::solve_in_place(double* y) const {
  // Forward, L y = b: rows in blocks of kLanes share the prefix k < i0 as
  // four independent chains, then finish the in-block triangle in order.
  // Every row subtracts its terms in ascending k exactly as a row-by-row
  // substitution would.
  for (std::size_t i0 = 0; i0 < n_; i0 += kLanes) {
    const double* rows[kLanes];
    block_rows(l_, i0, n_, rows);
    const std::size_t ie = std::min(n_, i0 + kLanes);
    double v[kLanes];
    for (std::size_t r = 0; r < kLanes; ++r) v[r] = y[std::min(i0 + r, ie - 1)];
    for (std::size_t k = 0; k < i0; ++k) {
      const double yk = y[k];
      for (std::size_t r = 0; r < kLanes; ++r) v[r] -= rows[r][k] * yk;
    }
    for (std::size_t i = i0; i < ie; ++i) {
      double vi = v[i - i0];
      for (std::size_t k = i0; k < i; ++k) vi -= rows[i - i0][k] * y[k];
      y[i] = vi;
    }
  }
  for (std::size_t i = 0; i < n_; ++i) y[i] /= d_[i];
  // Backward, L^T x = z: row i of the mirrored upper triangle holds
  // column i of L, read contiguously in ascending k. The chain is serial
  // by nature — row i - 1 starts with the freshly solved x_i.
  for (std::size_t i = n_; i-- > 0;) {
    const double* ui = l_.row_data(i);
    double v = y[i];
    for (std::size_t k = i + 1; k < n_; ++k) v -= ui[k] * y[k];
    y[i] = v;
  }
}

void LdltFactor::solve_panel_in_place(double* p) const {
  // p is n x kLanes row-major, one right-hand side per lane column; each
  // row of L is read once for all four columns, and every column runs
  // solve_in_place's arithmetic sequence in its own lane.
  constexpr std::size_t w = kLanes;
  for (std::size_t i0 = 0; i0 < n_; i0 += kLanes) {
    const double* rows[kLanes];
    block_rows(l_, i0, n_, rows);
    const std::size_t ie = std::min(n_, i0 + kLanes);
    Lane2 v[kLanes][2];
    for (std::size_t r = 0; r < kLanes; ++r) {
      const double* pr = p + std::min(i0 + r, ie - 1) * w;
      v[r][0] = load2(pr);
      v[r][1] = load2(pr + 2);
    }
    for (std::size_t k = 0; k < i0; ++k) {
      const Lane2 p0 = load2(p + k * w);
      const Lane2 p1 = load2(p + k * w + 2);
      for (std::size_t r = 0; r < kLanes; ++r) {
        const Lane2 lk = splat(rows[r][k]);
        v[r][0] = v[r][0] - lk * p0;
        v[r][1] = v[r][1] - lk * p1;
      }
    }
    for (std::size_t i = i0; i < ie; ++i) {
      Lane2 v0 = v[i - i0][0];
      Lane2 v1 = v[i - i0][1];
      for (std::size_t k = i0; k < i; ++k) {
        const Lane2 lk = splat(rows[i - i0][k]);
        v0 = v0 - lk * load2(p + k * w);
        v1 = v1 - lk * load2(p + k * w + 2);
      }
      store2(p + i * w, v0);
      store2(p + i * w + 2, v1);
    }
  }
  for (std::size_t i = 0; i < n_; ++i) {
    const Lane2 di = splat(d_[i]);
    store2(p + i * w, load2(p + i * w) / di);
    store2(p + i * w + 2, load2(p + i * w + 2) / di);
  }
  for (std::size_t i = n_; i-- > 0;) {
    const double* ui = l_.row_data(i);
    Lane2 v0 = load2(p + i * w);
    Lane2 v1 = load2(p + i * w + 2);
    for (std::size_t k = i + 1; k < n_; ++k) {
      const Lane2 uk = splat(ui[k]);
      v0 = v0 - uk * load2(p + k * w);
      v1 = v1 - uk * load2(p + k * w + 2);
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

// GCC 12 flags the bytes of the variant's *inactive* alternatives when the
// LaplacianFactor temporary is moved into the optional return (visible only
// under the sanitizer build's inlining) — a known false positive for
// std::variant inside std::optional; every alternative is fully constructed
// before the move.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
std::optional<LaplacianFactor> LaplacianFactor::factor(
    const common::Context& ctx, const CsrMatrix& laplacian, FactorMode mode) {
  require_square(laplacian);
  const std::size_t n = laplacian.rows();
  if (n == 0) return std::nullopt;
  // One vertex: L = 0, every rhs projects to zero and x = 0. A valid
  // factor with nothing to hold — previously rejected, which turned
  // 1-node graphs into a null deref downstream (ExactLaplacianSolver).
  if (n == 1) return LaplacianFactor(1);
  const auto& rp = laplacian.row_ptr();
  const auto& ci = laplacian.col_index();
  const auto& vals = laplacian.values();
  // Stored-entry count of the grounded matrix, for the backend dispatch.
  std::size_t grounded_nnz = 0;
  for (std::size_t r = 0; r + 1 < n; ++r) {
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      if (ci[k] + 1 < n) ++grounded_nnz;
    }
  }
  if (sparse_path_selected(n - 1, grounded_nnz, mode)) {
    // Grounded upper triangle straight from the symmetric CSR — no dense
    // detour on this path.
    auto sf = SparseLdltFactor::factor(
        ctx, CscSymmetricMatrix::from_symmetric_csr(laplacian, 1));
    if (!sf) return std::nullopt;
    return LaplacianFactor(n, Reduced{std::move(*sf)});
  }
  // Grounded matrix: drop last row/column. Accumulate (rather than assign)
  // so duplicate CSR entries sum exactly as CsrMatrix::multiply applies
  // them; assignment would silently drop all but the last duplicate.
  DenseMatrix g(n - 1, n - 1);
  for (std::size_t r = 0; r + 1 < n; ++r) {
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      if (ci[k] + 1 < n) g(r, ci[k]) += vals[k];
    }
  }
  auto f = LdltFactor::factor(ctx, g);
  if (!f) return std::nullopt;
  return LaplacianFactor(n, Reduced{std::move(*f)});
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

FactorKind LaplacianFactor::path() const {
  if (std::holds_alternative<LdltFactor>(reduced_)) return FactorKind::kDense;
  if (std::holds_alternative<SparseLdltFactor>(reduced_))
    return FactorKind::kSparse;
  return FactorKind::kNone;
}

Vec LaplacianFactor::solve(const Vec& b) const {
  if (b.size() != n_) throw_dim_mismatch("LaplacianFactor::solve", b.size(), n_);
  if (n_ == 1) return Vec{0.0};  // L = 0: projected rhs is 0, x = 0
  Vec rhs(b);
  remove_mean(rhs);
  Vec reduced(rhs.begin(), rhs.end() - 1);
  Vec xr = std::holds_alternative<LdltFactor>(reduced_)
               ? std::get<LdltFactor>(reduced_).solve(reduced)
               : std::get<SparseLdltFactor>(reduced_).solve(reduced);
  Vec x(n_, 0.0);
  for (std::size_t i = 0; i + 1 < n_; ++i) x[i] = xr[i];
  remove_mean(x);
  return x;
}

DenseMatrix LaplacianFactor::solve_many(const common::Context& ctx,
                                        const DenseMatrix& b) const {
  if (b.rows() != n_)
    throw_dim_mismatch("LaplacianFactor::solve_many", b.rows(), n_);
  const std::size_t k = b.cols();
  DenseMatrix x(n_, k);
  if (n_ == 1) return x;  // L = 0: every column solves to 0
  // solve()'s projection per column, one grounded panel solve through the
  // backend's solve_many, then solve()'s re-projection per column.
  DenseMatrix reduced(n_ - 1, k);
  for (std::size_t j = 0; j < k; ++j) {
    Vec rhs = b.column(j);
    remove_mean(rhs);
    for (std::size_t i = 0; i + 1 < n_; ++i) reduced(i, j) = rhs[i];
  }
  const DenseMatrix xr = std::holds_alternative<LdltFactor>(reduced_)
                             ? std::get<LdltFactor>(reduced_).solve_many(
                                   ctx, reduced)
                             : std::get<SparseLdltFactor>(reduced_).solve_many(
                                   ctx, reduced);
  for (std::size_t j = 0; j < k; ++j) {
    Vec col(n_, 0.0);
    for (std::size_t i = 0; i + 1 < n_; ++i) col[i] = xr(i, j);
    remove_mean(col);
    x.set_column(j, col);
  }
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
    DenseMatrix g(dim, dim);
    for (std::size_t i = 0; i + 1 < verts.size(); ++i) {
      const std::size_t v = verts[i];
      for (std::size_t k = rp[v]; k < rp[v + 1]; ++k) {
        const std::size_t u = ci[k];
        if (f.component_of_[u] != c || local[u] >= dim) continue;
        g(i, local[u]) += vals[k];
      }
    }
    auto ldlt = LdltFactor::factor(ctx, g);
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

Vec ComponentLaplacianFactor::solve(const common::Context& ctx,
                                    const Vec& b) const {
  if (b.size() != n_)
    throw_dim_mismatch("ComponentLaplacianFactor::solve", b.size(), n_);
  Vec x(n_, 0.0);
  // Per-component solves touch disjoint slots of x, so they fan out over
  // the caller's pool.
  ctx.parallel_for(0, component_vertices_.size(), [&](std::size_t c) {
    const auto& verts = component_vertices_[c];
    if (verts.size() < 2) return;  // singleton: L row is zero, x = 0
    // Project rhs onto the component's zero-sum subspace.
    double mean = 0.0;
    for (std::size_t v : verts) mean += b[v];
    mean /= static_cast<double>(verts.size());
    Vec local(verts.size() - 1);
    for (std::size_t i = 0; i + 1 < verts.size(); ++i)
      local[i] = b[verts[i]] - mean;
    const Vec sol = std::visit(
        [&](const auto& fac) { return fac.solve(local); }, *factors_[c]);
    double xmean = 0.0;
    for (double v : sol) xmean += v;
    xmean /= static_cast<double>(verts.size());
    for (std::size_t i = 0; i + 1 < verts.size(); ++i)
      x[verts[i]] = sol[i] - xmean;
    x[verts.back()] = -xmean;
  });
  return x;
}

DenseMatrix ComponentLaplacianFactor::solve_many(const common::Context& ctx,
                                                 const DenseMatrix& b) const {
  if (b.rows() != n_)
    throw_dim_mismatch("ComponentLaplacianFactor::solve_many", b.rows(), n_);
  const std::size_t k = b.cols();
  DenseMatrix x(n_, k);
  // Per component: solve()'s projection on every column, one panel solve
  // through the component factor's solve_many (which fans out over ctx's
  // pool), then solve()'s re-projection. Each column sees exactly the
  // arithmetic of solve(), so the panel is byte-identical to k sequential
  // solves.
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
