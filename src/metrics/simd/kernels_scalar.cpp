// Scalar kernel variants: the grid expression as a plain loop, shared by
// kGridScalar (the portable fallback and the bitwise reference for the
// vector TUs) and kScalarReference (what EPSERVE_FORCE_SCALAR=1 selects).
// Compiled with the project's baseline ISA flags — nothing here requires
// AVX2/NEON.
#include <algorithm>

#include "metrics/simd/grid_eval.h"
#include "metrics/simd/kernels.h"
#include "util/contracts.h"

namespace epserve::metrics::kernels {

// Bitwise equal to InterpolationTable::knot_u[0..9] (0.0 then kLoadLevels
// 0.1..0.9): the same literals, so the same doubles.
const double kRowU0[FleetGridView::kRowBins] = {0.0, 0.1, 0.2, 0.3, 0.4,
                                                0.5, 0.6, 0.7, 0.8, 0.9};

namespace detail {

void utilization_out_of_range() {
  epserve::detail::contract_fail("precondition",
                                 "utilization >= 0.0 && utilization <= 1.0",
                                 __FILE__, __LINE__);
}

}  // namespace detail

namespace {

void grid_batch_scalar(const GridView& grid, const double* utils, double* out,
                       std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = detail::grid_eval_checked(grid, utils[k]);
  }
}

void fleet_batch_scalar(const FleetGridView& fleet, const double* utils,
                        double* out) {
  for (std::size_t i = 0; i < fleet.servers; ++i) {
    out[i] = detail::fleet_eval_checked(fleet, i, utils[i]);
  }
}

void row_batch_scalar(const FleetGridView& fleet, std::size_t i,
                      const double* utils, double* out, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = detail::fleet_eval_checked(fleet, i, utils[k]);
  }
}

void row_matrix_scalar(const FleetGridView& fleet, std::size_t i0,
                       std::size_t count, const double* utils, double* out,
                       std::size_t slots) {
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t d = 0; d < slots; ++d) {
      out[r * slots + d] =
          detail::fleet_eval_checked(fleet, i0 + r, utils[r * slots + d]);
    }
  }
}

void clamp01_scalar(const double* in, double* out, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double v = in[k];
    out[k] = v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
  }
}

void axpy_scalar(double* acc, const double* x, double s, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    acc[k] += x[k] * s;
  }
}

}  // namespace

// kScalarReference shares these loops: the scalar grid expression IS the
// knot-walk expression at the fleet's native resolution (same u == 1.0
// case, same truncating segment index, kRowU0 bitwise equal to the knot
// utilisations, same mul/sub/add/mul order), so cluster::Fleet evaluates
// every variant over its grid rows and forced-scalar output reproduces
// PowerCurve::normalized_power bitwise (tests/cluster_fleet_test.cpp).
extern const Kernels kScalarReferenceKernels;
const Kernels kScalarReferenceKernels = {
    Variant::kScalarReference, "scalar-reference", grid_batch_scalar,
    fleet_batch_scalar,        row_batch_scalar,   row_matrix_scalar,
    clamp01_scalar,            axpy_scalar,
};

extern const Kernels kGridScalarKernels;
const Kernels kGridScalarKernels = {
    Variant::kGridScalar, "grid-scalar",    grid_batch_scalar,
    fleet_batch_scalar,   row_batch_scalar, row_matrix_scalar,
    clamp01_scalar,       axpy_scalar,
};

}  // namespace epserve::metrics::kernels
