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
// Runtimes that charge nothing (NativeProc, OmpProc) go one step further and
// walk once per *group* of kGroupSize consecutive bodies (docs/PERF.md §10):
// the walk gathers the union of the members' lists into a GroupList whose
// entries are tagged with the members they belong to, and `evaluate_group`
// computes every member per entry and folds each member's tagged entries in
// list order. A member's tagged subsequence IS its per-body list, so the
// accelerations and counts are those of the per-body path, bit for bit.
// GroupList and evaluate_group live in group_kernel.cpp, whose compile flags
// leave `evaluate` (the simulator's kernel) untouched.
//
// Oracle contract (docs/PERF.md "The interaction-list oracle"): with
// PTB_FORCE_SLOWPATH=1 the force phase falls back to the scalar in-walk
// accumulation on every runtime, and the paths must agree bit-for-bit on
// interaction counts, every memory charge and every virtual time — and, on
// default builds, on the accelerations themselves. Both kernels fold terms
// into the accumulator sequentially in list (= walk) order, so the only
// codegen freedom left is FMA contraction, which applies to every path
// alike; under -DPTB_NATIVE_OPT the last ulp is compiler's choice either way.
#pragma once

#include <array>
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

/// Bodies per group of the exact group walk. Chosen by measurement
/// (docs/PERF.md §10): larger groups share more of the walk but waste more
/// evaluate lanes on entries that only some members use.
inline constexpr std::size_t kGroupSize = 4;

/// Member bitmask of a group: bit k stands for member k.
using GroupMask = std::uint8_t;
static_assert(kGroupSize <= 8 * sizeof(GroupMask));

/// The union of a group's per-body interaction lists, in group-walk order.
/// Each entry carries the mask of the members it applies to; member k's
/// entries, in order, are exactly its per-body InteractionList. Per-member
/// kind counts replace InteractionList's. Hold it as a local of the phase
/// call, like InteractionList (docs/PERF.md §9).
class GroupList {
 public:
  void clear() {
    n_ = 0;
    cells_.fill(0);
    bodies_.fill(0);
  }

  void push_cell(const Vec3& com, double mass, GroupMask members) {
    push(com, mass, members);
    count(cells_, members);
  }
  void push_body(const Vec3& pos, double mass, GroupMask members) {
    push(pos, mass, members);
    count(bodies_, members);
  }

  std::size_t size() const { return n_; }
  std::uint64_t cells(std::size_t k) const { return cells_[k]; }
  std::uint64_t bodies(std::size_t k) const { return bodies_[k]; }

  const double* x() const { return x_.data(); }
  const double* y() const { return y_.data(); }
  const double* z() const { return z_.data(); }
  const double* m() const { return m_.data(); }
  const GroupMask* members() const { return members_.data(); }

 private:
  using Counts = std::array<std::uint64_t, kGroupSize>;

  static void count(Counts& c, GroupMask members) {
    for (std::size_t k = 0; k < c.size(); ++k) c[k] += (members >> k) & 1u;
  }
  void push(const Vec3& p, double mass, GroupMask members) {
    if (n_ == x_.size()) grow();
    x_[n_] = p.x;
    y_[n_] = p.y;
    z_[n_] = p.z;
    m_[n_] = mass;
    members_[n_] = members;
    ++n_;
  }
  void grow();

  AlignedVec<double> x_, y_, z_, m_;
  AlignedVec<GroupMask> members_;
  std::size_t n_ = 0;
  Counts cells_{};
  Counts bodies_{};
};

/// Evaluates the group list against the members at `pos` and returns their
/// accelerations in `acc`. Every member is computed for every entry (G
/// independent lanes); each lane then adds its term only where the entry's
/// mask has its bit, in list order, so member k gets exactly
/// evaluate(its per-body list, pos[k]). A masked lane adds nothing, even
/// when its term is not finite (a member meeting itself at eps = 0).
void evaluate_group(const GroupList& gl, const std::array<Vec3, kGroupSize>& pos,
                    double eps2, std::array<Vec3, kGroupSize>& acc);

}  // namespace ptb::bh
