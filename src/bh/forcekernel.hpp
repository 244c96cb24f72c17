// Batched interaction-list force kernel.
//
// The classic Barnes–Hut force loop computes each acceleration term *inside*
// the tree walk, so the expensive r^-3 math is interleaved with pointer
// chasing and per-node simulator charges. The fast path splits the two
// halves: the walk only *gathers* the interaction partners (approximated
// cells and direct bodies) into a flat structure-of-arrays list — issuing
// exactly the same memory charges, in exactly the same order, as the scalar
// walk — and `evaluate` then burns through the list with a blocked,
// vectorizable loop.
//
// Oracle contract (docs/PERF.md "The interaction-list oracle"): with
// PTB_FORCE_SLOWPATH=1 the force phase falls back to the scalar in-walk
// accumulation, and the two paths must agree bit-for-bit on interaction
// counts, every memory charge and every virtual time — and, on default
// builds, on the accelerations themselves. `evaluate` folds terms into the
// accumulator sequentially in list (= walk) order, so the only codegen
// freedom left is FMA contraction, which applies to both paths alike; under
// -DPTB_NATIVE_OPT the last ulp is compiler's choice either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bh/vec3.hpp"
#include "support/aligned.hpp"

namespace ptb::bh {

/// True when PTB_FORCE_SLOWPATH selects the scalar in-walk reference path.
/// Deliberately not cached in a static: equivalence tests flip the variable
/// between runs within one process (same contract as mem_slowpath_enabled).
bool force_slowpath_enabled();

/// One body's gathered interaction partners, in tree-walk order. Cells and
/// direct bodies share the list (a partner is just a point mass once the
/// opening criterion has spoken); the kind split is kept only for the
/// `forces.interactions{kind=...}` metrics. Capacity is retained across
/// clear(), i.e. across the bodies of one phase call. Hold the list as a local
/// of that call: side-by-side per-processor lists false-share (docs/PERF.md §9).
class InteractionList {
 public:
  void clear() {
    n_ = 0;
    cells_ = 0;
    bodies_ = 0;
  }

  void push_cell(const Vec3& com, double mass) {
    push(com, mass);
    ++cells_;
  }
  void push_body(const Vec3& pos, double mass) {
    push(pos, mass);
    ++bodies_;
  }

  std::size_t size() const { return n_; }
  std::uint64_t cells() const { return cells_; }
  std::uint64_t bodies() const { return bodies_; }

  const double* x() const { return x_.data(); }
  const double* y() const { return y_.data(); }
  const double* z() const { return z_.data(); }
  const double* m() const { return m_.data(); }

 private:
  void push(const Vec3& p, double mass) {
    if (n_ == x_.size()) grow();
    x_[n_] = p.x;
    y_[n_] = p.y;
    z_[n_] = p.z;
    m_[n_] = mass;
    ++n_;
  }
  void grow();

  AlignedVec<double> x_, y_, z_, m_;
  std::size_t n_ = 0;
  std::uint64_t cells_ = 0;
  std::uint64_t bodies_ = 0;
};

/// Evaluates the list against a body at `pos`: blocks of 8 independent
/// lanes for the subtract/square/rsqrt math, then a sequential fold in list
/// order so the accumulation order matches the scalar walk exactly.
Vec3 evaluate(const InteractionList& il, const Vec3& pos, double eps2);

}  // namespace ptb::bh
