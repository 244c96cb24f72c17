// The group kernel of the exact group walk (docs/PERF.md §10). It is its
// own translation unit so that its compile flag (-fno-math-errno, see
// src/CMakeLists.txt) leaves `evaluate`, which the simulator runs, as it is.
#include <bit>
#include <cmath>

#include "bh/forcekernel.hpp"

namespace ptb::bh {

void GroupList::grow() {
  const std::size_t cap = x_.empty() ? 1024 : x_.size() * 2;
  x_.resize(cap);
  y_.resize(cap);
  z_.resize(cap);
  m_.resize(cap);
  members_.resize(cap);
}

namespace {

/// kLaneBits[mask][k]: all ones when member k is in `mask`, else zero. An
/// AND with it selects a lane's term or +0 without a branch, and one row is
/// a contiguous load, so the member lanes vectorize as a block.
constexpr auto kLaneBits = [] {
  std::array<std::array<std::uint64_t, kGroupSize>, std::size_t{1} << kGroupSize> t{};
  for (std::size_t mask = 0; mask < t.size(); ++mask)
    for (std::size_t k = 0; k < kGroupSize; ++k)
      t[mask][k] = ((mask >> k) & 1u) != 0 ? ~std::uint64_t{0} : 0;
  return t;
}();

}  // namespace

void evaluate_group(const GroupList& gl, const std::array<Vec3, kGroupSize>& pos,
                    double eps2, std::array<Vec3, kGroupSize>& acc) {
  constexpr std::size_t G = kGroupSize;
  // Lane-major copies so the per-entry loop over members vectorizes; each
  // lane's accumulators fold in list order, as evaluate's single lane does.
  alignas(64) double px[G], py[G], pz[G];
  alignas(64) double ax[G] = {}, ay[G] = {}, az[G] = {};
  for (std::size_t k = 0; k < G; ++k) {
    px[k] = pos[k].x;
    py[k] = pos[k].y;
    pz[k] = pos[k].z;
  }
  const double* x = gl.x();
  const double* y = gl.y();
  const double* z = gl.z();
  const double* m = gl.m();
  const GroupMask* members = gl.members();
  const std::size_t n = gl.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& on = kLaneBits[members[i]];
    for (std::size_t k = 0; k < G; ++k) {
      const double ddx = x[i] - px[k];
      const double ddy = y[i] - py[k];
      const double ddz = z[i] - pz[k];
      const double r2 = ddx * ddx + ddy * ddy + ddz * ddz + eps2;
      const double term = m[i] * (1.0 / (r2 * std::sqrt(r2)));
      // A select, not a multiply by the bit: a masked lane's term may be
      // NaN, and it must leave the accumulator untouched. acc never holds
      // -0 (it starts at +0), so adding the select's +0 changes no bit.
      const double s = std::bit_cast<double>(std::bit_cast<std::uint64_t>(term) & on[k]);
      ax[k] += ddx * s;
      ay[k] += ddy * s;
      az[k] += ddz * s;
    }
  }
  for (std::size_t k = 0; k < G; ++k) acc[k] = Vec3{ax[k], ay[k], az[k]};
}

}  // namespace ptb::bh
