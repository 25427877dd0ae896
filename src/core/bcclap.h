// Umbrella header: the public API of the BCC Laplacian-paradigm library.
//
// Layering (Figure 1 of the paper):
//   spanner  ->  sparsify  ->  laplacian  ->  lp  ->  flow
// on top of the substrates bcc (model simulator), graph, linalg. The
// service layer (service/solver_service.h) sits above the Runtime facade:
// a request loop multiplexing worker Runtimes over a shared FactorCache.
//
// Typical usage (the Runtime facade, core/runtime.h):
//   #include "core/bcclap.h"
//   bcclap::RuntimeOptions opts;
//   opts.threads = 4;
//   opts.seed = 7;
//   bcclap::Runtime rt(opts);
//   auto g = bcclap::graph::random_connected_gnp(...);
//   auto res = rt.solve_laplacian(g, b);
//   // res.x, res.stats.rounds / .iterations / .wall_seconds
// Layer APIs remain available for fine-grained control; pass them
// rt.context().
#pragma once

#include "bcc/message.h"          // IWYU pragma: export
#include "bcc/network.h"          // IWYU pragma: export
#include "bcc/round_accountant.h" // IWYU pragma: export
#include "common/context.h"       // IWYU pragma: export
#include "common/rng.h"           // IWYU pragma: export
#include "core/runtime.h"         // IWYU pragma: export
#include "core/stats.h"           // IWYU pragma: export
#include "flow/dinic.h"           // IWYU pragma: export
#include "flow/mcmf_lp.h"         // IWYU pragma: export
#include "flow/mcmf_solver.h"     // IWYU pragma: export
#include "flow/ssp.h"             // IWYU pragma: export
#include "graph/digraph.h"        // IWYU pragma: export
#include "graph/generators.h"     // IWYU pragma: export
#include "graph/graph.h"          // IWYU pragma: export
#include "graph/laplacian.h"      // IWYU pragma: export
#include "laplacian/bcc_solver.h" // IWYU pragma: export
#include "laplacian/sdd_reduction.h"  // IWYU pragma: export
#include "laplacian/solver.h"     // IWYU pragma: export
#include "linalg/chebyshev.h"     // IWYU pragma: export
#include "linalg/jl_transform.h"  // IWYU pragma: export
#include "lp/lp_solver.h"         // IWYU pragma: export
#include "lp/project_mixed_ball.h"  // IWYU pragma: export
#include "service/journal.h"      // IWYU pragma: export
#include "service/solver_service.h"  // IWYU pragma: export
#include "sparsify/spectral_sparsify.h"  // IWYU pragma: export
#include "sparsify/verifier.h"    // IWYU pragma: export
#include "spanner/baswana_sen.h"  // IWYU pragma: export
#include "spanner/bundle.h"       // IWYU pragma: export
#include "spanner/probabilistic_spanner.h"  // IWYU pragma: export
