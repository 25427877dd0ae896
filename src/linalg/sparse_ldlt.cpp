#include "linalg/sparse_ldlt.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/amd.h"

namespace bcclap::linalg {

namespace {

constexpr std::size_t kNoneIdx = static_cast<std::size_t>(-1);

using Clock = std::chrono::steady_clock;

double seconds_since(const Clock::time_point& start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Permuted upper triangle P A P^T in CSC. Contract: entries within a
// column come out in input order — unordered, and duplicates are kept —
// so every consumer must accumulate additively (or flag-guard pattern
// walks) and may only rely on the row range, rows <= column, which the
// max() below guarantees by construction.
void build_permuted_upper(const CscSymmetricMatrix& a,
                          const std::vector<std::size_t>& iperm,
                          std::vector<std::size_t>& pcp,
                          std::vector<std::size_t>& pri,
                          std::vector<double>* pv) {
  const std::size_t n = a.dim();
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_index();
  const auto& av = a.values();
  pcp.assign(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = cp[j]; k < cp[j + 1]; ++k)
      ++pcp[std::max(iperm[ri[k]], iperm[j]) + 1];
  }
  for (std::size_t j = 0; j < n; ++j) pcp[j + 1] += pcp[j];
  pri.assign(pcp[n], 0);
  if (pv != nullptr) pv->assign(pcp[n], 0.0);
  std::vector<std::size_t> fill(pcp.begin(), pcp.end() - 1);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = cp[j]; k < cp[j + 1]; ++k) {
      std::size_t r = iperm[ri[k]];
      std::size_t c = iperm[j];
      if (r > c) std::swap(r, c);
      pri[fill[c]] = r;
      if (pv != nullptr) (*pv)[fill[c]] = av[k];
      ++fill[c];
    }
  }
}

// Elimination forest over the sparse prefix [0, t) by the union-find
// ancestor walk; parent[i] >= t (or kNoneIdx) marks a root whose
// remaining coupling lives entirely in the dense tail.
std::vector<std::size_t> truncated_etree(const std::vector<std::size_t>& pcp,
                                         const std::vector<std::size_t>& pri,
                                         std::size_t n, std::size_t t) {
  std::vector<std::size_t> parent(t, kNoneIdx);
  std::vector<std::size_t> anc(t, kNoneIdx);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t p = pcp[k]; p < pcp[k + 1]; ++p) {
      std::size_t i = pri[p];
      while (i < t && i < k) {
        const std::size_t next = anc[i];
        anc[i] = k;
        if (next == kNoneIdx) {
          parent[i] = k;
          break;
        }
        i = next;
      }
    }
  }
  return parent;
}

// Postorder of the elimination forest over [0, t); roots and children are
// visited in ascending order, so the result is a pure function of the
// forest (determinism anchor).
std::vector<std::size_t> postorder_forest(
    const std::vector<std::size_t>& parent, std::size_t t) {
  std::vector<std::size_t> head(t, kNoneIdx);
  std::vector<std::size_t> sibling(t, kNoneIdx);
  for (std::size_t j = t; j-- > 0;) {
    if (parent[j] == kNoneIdx || parent[j] >= t) continue;
    sibling[j] = head[parent[j]];
    head[parent[j]] = j;
  }
  std::vector<std::size_t> post;
  post.reserve(t);
  std::vector<std::size_t> stack;
  for (std::size_t r = 0; r < t; ++r) {
    if (parent[r] != kNoneIdx && parent[r] < t) continue;
    stack.push_back(r);
    while (!stack.empty()) {
      const std::size_t j = stack.back();
      const std::size_t c = head[j];
      if (c != kNoneIdx) {
        head[j] = sibling[c];
        stack.push_back(c);
      } else {
        post.push_back(j);
        stack.pop_back();
      }
    }
  }
  return post;
}

}  // namespace

bool sparse_path_preferred(std::size_t dim, double density) {
  return dim >= kSparseMinDim && density <= kSparseMaxDensity;
}

bool sparse_path_selected(std::size_t dim, std::size_t nnz, FactorMode mode) {
  switch (mode) {
    case FactorMode::kForceDense:
      return false;
    case FactorMode::kForceSparse:
      return true;
    case FactorMode::kAuto:
      break;
  }
  return sparse_path_preferred(
      dim, static_cast<double>(nnz) /
               (static_cast<double>(dim) * static_cast<double>(dim)));
}

std::optional<SparseLdltFactor> SparseLdltFactor::factor(
    const common::Context& ctx, const CscSymmetricMatrix& a,
    double pivot_tol) {
  const std::size_t n = a.dim();
  double diag_scale = 0.0;
  for (double v : a.diagonal()) diag_scale = std::max(diag_scale, std::abs(v));
  // Same degenerate-input contract as the dense kernel (linalg/ldlt.h).
  if (n == 0 || diag_scale == 0.0) return std::nullopt;
  const double threshold = pivot_tol * diag_scale;

  SparseLdltFactor f;
  f.n_ = n;
  const auto ordering_start = Clock::now();
  Ordering ord = amd_order(a);
  f.phases_.ordering_seconds = seconds_since(ordering_start);

  const auto symbolic_start = Clock::now();
  const std::size_t t = ord.t;
  const std::size_t tail = n - t;
  f.t_ = t;

  // Postorder the AMD order along its own elimination forest: an
  // etree-respecting permutation of the sparse prefix leaves the fill
  // (and the tail split) invariant, but makes fundamental supernodes —
  // chains of columns whose patterns nest exactly — contiguous, which
  // the blocked numeric phase and the solves below rely on.
  {
    std::vector<std::size_t> iperm0(n);
    for (std::size_t k = 0; k < n; ++k) iperm0[ord.perm[k]] = k;
    std::vector<std::size_t> pcp0;
    std::vector<std::size_t> pri0;
    build_permuted_upper(a, iperm0, pcp0, pri0, nullptr);
    const std::vector<std::size_t> parent0 = truncated_etree(pcp0, pri0, n, t);
    const std::vector<std::size_t> post = postorder_forest(parent0, t);
    std::vector<std::size_t> reordered(t);
    for (std::size_t k = 0; k < t; ++k) reordered[k] = ord.perm[post[k]];
    std::copy(reordered.begin(), reordered.end(), ord.perm.begin());
  }
  f.perm_ = std::move(ord.perm);
  f.iperm_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) f.iperm_[f.perm_[k]] = k;

  std::vector<std::size_t> pcp;
  std::vector<std::size_t> pri;
  std::vector<double> pv;
  build_permuted_upper(a, f.iperm_, pcp, pri, &pv);

  // Symbolic analysis: elimination tree (parent[i] = first later row
  // whose L pattern reaches column i) and exact fill counts, by the
  // standard row-subtree traversal. Walks truncate at the first node >= t
  // — etree parents strictly increase, so every ancestor past that node
  // is also >= t, i.e. a tail column whose coupling lives entirely in the
  // dense Schur complement; the truncation loses nothing. tcnt[i] counts
  // the tail rows that reach column i — the column's L21 pattern size,
  // which the supernode criterion below needs alongside lcnt.
  std::vector<std::size_t> parent(t, kNoneIdx);
  std::vector<std::size_t> flag(n, kNoneIdx);
  std::vector<std::size_t> lcnt(t, 0);       // strictly-lower nnz of L11 col
  std::vector<std::size_t> tcnt(t, 0);       // tail rows reaching the col
  std::vector<std::size_t> l21cnt(tail, 0);  // nnz of L21 row
  for (std::size_t k = 0; k < n; ++k) {
    flag[k] = k;
    for (std::size_t p = pcp[k]; p < pcp[k + 1]; ++p) {
      std::size_t i = pri[p];
      if (i >= k || i >= t) continue;  // diagonal, or tail-tail block
      while (flag[i] != k) {
        if (parent[i] == kNoneIdx) parent[i] = k;
        flag[i] = k;
        if (k < t) {
          ++lcnt[i];
        } else {
          ++l21cnt[k - t];
          ++tcnt[i];
        }
        if (parent[i] >= t) break;  // truncated: rest of the path is tail
        i = parent[i];
      }
    }
  }

  // Fundamental supernodes: columns j-1, j share a panel iff j is j-1's
  // etree parent and the patterns nest exactly. parent[j-1] == j already
  // forces pattern(j-1) \ {j} ⊆ pattern(j) — every row subtree that
  // walks through j-1 continues into its parent — so matching counts
  // (lcnt off by exactly the in-panel row j, tail counts equal) upgrade
  // both subset relations to equality. Postorder made such chains
  // consecutive, so this linear scan finds every fundamental supernode.
  f.sn_ptr_.clear();
  f.sn_ptr_.push_back(0);
  for (std::size_t j = 1; j < t; ++j) {
    if (parent[j - 1] != j || lcnt[j - 1] != lcnt[j] + 1 ||
        tcnt[j - 1] != tcnt[j]) {
      f.sn_ptr_.push_back(j);
    }
  }
  if (t > 0) f.sn_ptr_.push_back(t);
  f.phases_.supernodes = f.supernode_count();

  f.l_colp_.assign(t + 1, 0);
  for (std::size_t j = 0; j < t; ++j) f.l_colp_[j + 1] = f.l_colp_[j] + lcnt[j];
  f.l_rows_.resize(f.l_colp_[t]);
  f.l_vals_.resize(f.l_colp_[t]);
  f.d_.assign(t, 0.0);
  f.l21_rowp_.assign(tail + 1, 0);
  for (std::size_t i = 0; i < tail; ++i)
    f.l21_rowp_[i + 1] = f.l21_rowp_[i] + l21cnt[i];
  f.l21_cols_.resize(f.l21_rowp_[tail]);
  f.l21_vals_.resize(f.l21_rowp_[tail]);
  f.phases_.symbolic_seconds = seconds_since(symbolic_start);

  // Numeric phase: up-looking row-by-row sparse triangular solves
  // (Davis's LDL algorithm). Row k < t solves
  //   L11(0:k, 0:k) D1 l^T = a(0:k, k)
  // over its fill pattern and appends itself to the touched columns; row
  // k >= t runs the same solve restricted to columns < t, yielding its
  // L21 row. The pattern stack replays the symbolic traversal, so the
  // reserved column slots fill exactly.
  const auto numeric_start = Clock::now();
  std::vector<std::size_t> lnz(t, 0);
  std::vector<std::size_t> pat(t);
  Vec y(t, 0.0);
  std::fill(flag.begin(), flag.end(), kNoneIdx);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t top = t;
    double dk = 0.0;
    flag[k] = k;
    for (std::size_t p = pcp[k]; p < pcp[k + 1]; ++p) {
      std::size_t i = pri[p];
      if (k < t) {
        if (i == k) {
          dk += pv[p];
          continue;
        }
      } else if (i >= t) {
        continue;  // A22 entry: assembled into the Schur complement below
      }
      y[i] += pv[p];
      std::size_t len = 0;
      while (flag[i] != k) {
        pat[len++] = i;
        flag[i] = k;
        if (parent[i] >= t) break;
        i = parent[i];
      }
      // Reverse the path onto the stack: [top, t) ends up topologically
      // ordered (children before ancestors), the order the solve needs.
      while (len > 0) pat[--top] = pat[--len];
    }
    if (k < t) {
      for (std::size_t p = top; p < t; ++p) {
        const std::size_t i = pat[p];
        const double yi = y[i];
        y[i] = 0.0;
        const std::size_t q2 = f.l_colp_[i] + lnz[i];
        for (std::size_t q = f.l_colp_[i]; q < q2; ++q)
          y[f.l_rows_[q]] -= f.l_vals_[q] * yi;
        const double lki = yi / f.d_[i];
        dk -= lki * yi;
        f.l_rows_[q2] = k;
        f.l_vals_[q2] = lki;
        ++lnz[i];
      }
      if (dk <= threshold) return std::nullopt;
      f.d_[k] = dk;
    } else {
      std::size_t out = f.l21_rowp_[k - t];
      for (std::size_t p = top; p < t; ++p) {
        const std::size_t i = pat[p];
        const double yi = y[i];
        y[i] = 0.0;
        const std::size_t q2 = f.l_colp_[i] + lnz[i];
        for (std::size_t q = f.l_colp_[i]; q < q2; ++q)
          y[f.l_rows_[q]] -= f.l_vals_[q] * yi;
        f.l21_cols_[out] = i;
        f.l21_vals_[out] = yi / f.d_[i];
        ++out;
      }
      // Internal invariant, thrown instead of asserted: in a Release
      // build a divergence here would otherwise corrupt the neighbouring
      // L21 row silently (see ldlt.h on the public-surface convention).
      if (out != f.l21_rowp_[k - t + 1]) {
        throw std::runtime_error(
            "SparseLdltFactor: numeric L21 fill diverged from the symbolic "
            "count");
      }
    }
  }

  if (tail > 0) {
    // Schur complement S = A22 - L21 D1 L21^T, assembled as the packed
    // lower triangle the dense kernel factors in place: this buffer
    // becomes the tail factor's storage, so S is never held twice.
    std::vector<double> s(LdltFactor::packed_size(tail), 0.0);
    for (std::size_t k = t; k < n; ++k) {
      for (std::size_t p = pcp[k]; p < pcp[k + 1]; ++p)
        if (pri[p] >= t)
          s[LdltFactor::packed_index(tail, k - t, pri[p] - t)] += pv[p];
    }
    // Column-major copy of L21 (rows ascending: the fill loop scans rows
    // in order). Within a supernode the columns carry one shared row
    // set, so the slice for columns [j0, j1) is a dense r x w panel.
    std::vector<std::size_t> ccolp(t + 1, 0);
    for (std::size_t q = 0; q < f.l21_cols_.size(); ++q)
      ++ccolp[f.l21_cols_[q] + 1];
    for (std::size_t j = 0; j < t; ++j) ccolp[j + 1] += ccolp[j];
    std::vector<std::size_t> crows(f.l21_cols_.size());
    std::vector<double> cvals(f.l21_cols_.size());
    {
      std::vector<std::size_t> fill(ccolp.begin(), ccolp.end() - 1);
      for (std::size_t i = 0; i < tail; ++i) {
        for (std::size_t p = f.l21_rowp_[i]; p < f.l21_rowp_[i + 1]; ++p) {
          const std::size_t j = f.l21_cols_[p];
          crows[fill[j]] = i;
          cvals[fill[j]] = f.l21_vals_[p];
          ++fill[j];
        }
      }
    }
    const std::size_t nsn = f.supernode_count();
    // The blocked kernels below stand on the symbolic guarantee that a
    // panel's columns agree on the row pattern; a violation would read
    // rows against the wrong columns, so it is checked outright.
    for (std::size_t si = 0; si < nsn; ++si) {
      const std::size_t j0 = f.sn_ptr_[si];
      const std::size_t r = ccolp[j0 + 1] - ccolp[j0];
      for (std::size_t j = j0 + 1; j < f.sn_ptr_[si + 1]; ++j) {
        if (ccolp[j + 1] - ccolp[j] != r) {
          throw std::runtime_error(
              "SparseLdltFactor: supernode columns disagree on the L21 row "
              "pattern");
        }
      }
    }
    // Row-major mirror of each panel plus a D-scaled copy: the rank-w
    // subtraction then reads contiguous length-w rows instead of
    // scattering column by column. Disjoint per-panel writes, pure copy:
    // byte-deterministic at any worker count.
    std::vector<double> pnl(cvals.size());
    std::vector<double> pnld(cvals.size());
    ctx.parallel_for(0, nsn, [&](std::size_t si) {
      const std::size_t j0 = f.sn_ptr_[si];
      const std::size_t j1 = f.sn_ptr_[si + 1];
      const std::size_t w = j1 - j0;
      const std::size_t base = ccolp[j0];
      const std::size_t r = (ccolp[j1] - base) / w;
      for (std::size_t k = 0; k < w; ++k) {
        const double dj = f.d_[j0 + k];
        const std::size_t cb = ccolp[j0 + k];
        for (std::size_t ia = 0; ia < r; ++ia) {
          const double v = cvals[cb + ia];
          pnl[base + ia * w + k] = v;
          pnld[base + ia * w + k] = v * dj;
        }
      }
    });
    // The subtraction fans out over fixed 64-column bands of S: each band
    // scans every panel in order and owns its columns outright, so the
    // floating-point grouping never depends on the worker count. Each
    // (row, row') pair within a panel's shared row set takes one fused
    // rank-w dot product — the supernode-blocked replacement for the old
    // per-column scatter — and a band's writes run down its packed
    // columns.
    constexpr std::size_t kBand = 64;
    const std::size_t nbands = (tail + kBand - 1) / kBand;
    ctx.parallel_for(0, nbands, [&](std::size_t band) {
      const std::size_t blo = band * kBand;
      const std::size_t bhi = std::min(tail, blo + kBand);
      for (std::size_t si = 0; si < nsn; ++si) {
        const std::size_t j0 = f.sn_ptr_[si];
        const std::size_t j1 = f.sn_ptr_[si + 1];
        const std::size_t w = j1 - j0;
        const std::size_t base = ccolp[j0];
        const std::size_t r = (ccolp[j1] - base) / w;
        if (r == 0) continue;
        const std::size_t* rows = crows.data() + base;
        const std::size_t start = static_cast<std::size_t>(
            std::lower_bound(rows, rows + r, blo) - rows);
        for (std::size_t ib = start; ib < r && rows[ib] < bhi; ++ib) {
          double* scol = s.data() + LdltFactor::packed_index(tail, 0, rows[ib]);
          const double* brow = pnld.data() + base + ib * w;
          for (std::size_t ia = ib; ia < r; ++ia) {
            const double* arow = pnl.data() + base + ia * w;
            double acc = 0.0;
            for (std::size_t k = 0; k < w; ++k) acc += arow[k] * brow[k];
            scol[rows[ia]] -= acc;
          }
        }
      }
    });
    auto tf = LdltFactor::factor_packed(ctx, tail, std::move(s), pivot_tol);
    if (!tf) return std::nullopt;
    f.tail_ = std::move(*tf);
  }
  f.phases_.numeric_seconds = seconds_since(numeric_start);
  f.phases_.fill_nnz = f.fill_nnz();
  return f;
}

void SparseLdltFactor::head_forward(Vec& y) const {
  const std::size_t t = t_;
  const std::size_t tail = n_ - t;
  const std::size_t nsn = supernode_count();
  // Forward: supernode panels in ascending order — the in-panel triangle
  // column by column (a panel column's leading entries are exactly the
  // later panel columns), then one pass over the panel's shared below
  // rows with a fused length-w dot per row.
  for (std::size_t s = 0; s < nsn; ++s) {
    const std::size_t j0 = sn_ptr_[s];
    const std::size_t j1 = sn_ptr_[s + 1];
    const std::size_t w = j1 - j0;
    for (std::size_t j = j0; j < j1; ++j) {
      const double yj = y[j];
      const std::size_t cb = l_colp_[j];
      const std::size_t tri = j1 - 1 - j;
      for (std::size_t q = 0; q < tri; ++q)
        y[l_rows_[cb + q]] -= l_vals_[cb + q] * yj;
    }
    const std::size_t cb0 = l_colp_[j0];
    const std::size_t lead0 = j1 - 1 - j0;
    const std::size_t shared = (l_colp_[j0 + 1] - cb0) - lead0;
    for (std::size_t q = 0; q < shared; ++q) {
      const std::size_t row = l_rows_[cb0 + lead0 + q];
      double acc = 0.0;
      for (std::size_t k = 0; k < w; ++k) {
        const std::size_t j = j0 + k;
        acc += l_vals_[l_colp_[j] + (j1 - 1 - j) + q] * y[j];
      }
      y[row] -= acc;
    }
  }
  // The L21 rows couple the solved head into the tail equations; the head
  // pivots divide out.
  for (std::size_t i = 0; i < tail; ++i) {
    double v = y[t + i];
    for (std::size_t p = l21_rowp_[i]; p < l21_rowp_[i + 1]; ++p)
      v -= l21_vals_[p] * y[l21_cols_[p]];
    y[t + i] = v;
  }
  for (std::size_t j = 0; j < t; ++j) y[j] /= d_[j];
}

void SparseLdltFactor::head_backward(Vec& y) const {
  const std::size_t t = t_;
  const std::size_t tail = n_ - t;
  const std::size_t nsn = supernode_count();
  // Backward: the solved tail feeds back through L21^T, then the panels
  // run in descending order — each gathers its columns' shared-row dots
  // first (those rows are beyond the panel, so they are final), then
  // resolves the in-panel triangle descending.
  for (std::size_t i = 0; i < tail; ++i) {
    const double xi = y[t + i];
    for (std::size_t p = l21_rowp_[i]; p < l21_rowp_[i + 1]; ++p)
      y[l21_cols_[p]] -= l21_vals_[p] * xi;
  }
  for (std::size_t s = nsn; s-- > 0;) {
    const std::size_t j0 = sn_ptr_[s];
    const std::size_t j1 = sn_ptr_[s + 1];
    const std::size_t cb0 = l_colp_[j0];
    const std::size_t lead0 = j1 - 1 - j0;
    const std::size_t shared = (l_colp_[j0 + 1] - cb0) - lead0;
    // Fixed-width column chunks bound the accumulator buffer; the chunk
    // grouping is a constant of the layout, never of the thread count.
    constexpr std::size_t kChunk = 32;
    double acc[kChunk];
    for (std::size_t c0 = j0; c0 < j1; c0 += kChunk) {
      const std::size_t m = std::min(j1, c0 + kChunk) - c0;
      for (std::size_t k = 0; k < m; ++k) acc[k] = 0.0;
      for (std::size_t q = 0; q < shared; ++q) {
        const double xr = y[l_rows_[cb0 + lead0 + q]];
        for (std::size_t k = 0; k < m; ++k) {
          const std::size_t j = c0 + k;
          acc[k] += l_vals_[l_colp_[j] + (j1 - 1 - j) + q] * xr;
        }
      }
      for (std::size_t k = 0; k < m; ++k) y[c0 + k] -= acc[k];
    }
    for (std::size_t j = j1; j-- > j0;) {
      double v = y[j];
      const std::size_t cb = l_colp_[j];
      const std::size_t tri = j1 - 1 - j;
      for (std::size_t q = 0; q < tri; ++q)
        v -= l_vals_[cb + q] * y[l_rows_[cb + q]];
      y[j] = v;
    }
  }
}

Vec SparseLdltFactor::solve(const Vec& b) const {
  if (b.size() != n_) {
    throw std::invalid_argument(
        "SparseLdltFactor::solve: right-hand side has " +
        std::to_string(b.size()) + " rows, factor expects " +
        std::to_string(n_));
  }
  Vec y(n_);
  for (std::size_t k = 0; k < n_; ++k) y[k] = b[perm_[k]];
  head_forward(y);
  if (tail_) tail_->solve_in_place(y.data() + t_);
  head_backward(y);
  Vec x(n_);
  for (std::size_t k = 0; k < n_; ++k) x[perm_[k]] = y[k];
  return x;
}

DenseMatrix SparseLdltFactor::solve_many(const common::Context& ctx,
                                         const DenseMatrix& b) const {
  if (b.rows() != n_) {
    throw std::invalid_argument(
        "SparseLdltFactor::solve_many: right-hand side has " +
        std::to_string(b.rows()) + " rows, factor expects " +
        std::to_string(n_));
  }
  const std::size_t k = b.cols();
  const std::size_t tail = n_ - t_;
  // The sparse head halves run per column (disjoint columns, fanned out);
  // the dense tail runs once on the whole tail x k panel, so each row of
  // the tail factor is read once per four columns. Every column sees
  // exactly solve()'s arithmetic: byte-identical to sequential solve()
  // calls at any thread count.
  std::vector<Vec> ys(k);
  ctx.parallel_for(0, k, [&](std::size_t j) {
    Vec& y = ys[j];
    y.resize(n_);
    for (std::size_t q = 0; q < n_; ++q) y[q] = b(perm_[q], j);
    head_forward(y);
  });
  if (tail_) {
    DenseMatrix z(tail, k);
    for (std::size_t i = 0; i < tail; ++i)
      for (std::size_t j = 0; j < k; ++j) z(i, j) = ys[j][t_ + i];
    z = tail_->solve_many(ctx, z);
    for (std::size_t i = 0; i < tail; ++i)
      for (std::size_t j = 0; j < k; ++j) ys[j][t_ + i] = z(i, j);
  }
  DenseMatrix x(n_, k);
  ctx.parallel_for(0, k, [&](std::size_t j) {
    head_backward(ys[j]);
    for (std::size_t q = 0; q < n_; ++q) x(perm_[q], j) = ys[j][q];
  });
  return x;
}

}  // namespace bcclap::linalg
