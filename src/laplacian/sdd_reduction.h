// Gremban reduction from SDD systems to Laplacian systems (Section 5,
// following Kelner et al.'s notation).
//
// Given symmetric diagonally dominant M (n x n), builds the Laplacian L of
// a virtual graph on 2n vertices such that solving L [x1; x2] = [y; -y]
// yields M x = y with x = (x1 - x2) / 2. In the BCC each physical vertex
// simulates both of its virtual copies (two rounds per virtual round).
#pragma once

#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"

namespace bcclap::laplacian {

struct SddReduction {
  // The 2n-vertex virtual graph whose Laplacian realizes M.
  graph::Graph virtual_graph;
  bool valid = false;
};

// M must be SDD with symmetric structure. Entries with |value| < tol are
// treated as zero.
SddReduction gremban_reduce(const linalg::DenseMatrix& m, double tol = 1e-12);

// Panel lift and projection (a single right-hand side is a k = 1 panel):
// column j of lift_rhs_many's output is [y_j; -y_j]; column j of
// project_solution_many's output is x_j = (x1_j - x2_j) / 2. The SDD
// engines solve the lifted panel on `virtual_graph` through the prepared
// sparsified-chebyshev artifact (laplacian/prepared.h) and project back.
linalg::DenseMatrix lift_rhs_many(const linalg::DenseMatrix& y);
linalg::DenseMatrix project_solution_many(const linalg::DenseMatrix& x12);

}  // namespace bcclap::laplacian
