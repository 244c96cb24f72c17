// The phases of a Barnes–Hut time-step that are IDENTICAL across all five
// tree-building algorithms (paper: "the force calculation and update phases
// are the same in all cases"): the bottom-up center-of-mass pass, the
// costzones partitioner, the force computation and the leapfrog update.
#pragma once

#include <algorithm>
#include <array>

#include "bh/forcekernel.hpp"
#include "harness/state.hpp"
#include "support/check.hpp"
#include "trace/trace.hpp"
#include "treebuild/annotate.hpp"

namespace ptb {

// ---------------------------------------------------------------------------
// Moments (center of mass) — bottom-up, level by level; every processor
// computes the moments of the cells it created (paper §2.1).
// ---------------------------------------------------------------------------

namespace detail {

template <class RT>
void node_moments(RT& rt, AppState& st, Node* n) {
  Vec3 weighted{};
  double mass = 0.0;
  double cost = 0.0;
  if (n->is_leaf(std::memory_order_relaxed)) {
    rt.read(&n->nbodies, 8);
    for (int i = 0; i < n->nbodies; ++i) {
      const Body& b = st.bodies[static_cast<std::size_t>(n->bodies[i])];
      rt.read(st.body_charge(n->bodies[i]), 48);
      rt.compute(work::kMomentsPerChild);
      weighted += b.mass * b.pos;
      mass += b.mass;
      cost += std::max(1.0, b.cost);
    }
  } else {
    rt.read(&n->child[0], sizeof(Node*) * 8);
    for (int o = 0; o < 8; ++o) {
      const Node* c = n->get_child(o, std::memory_order_relaxed);
      if (c == nullptr) continue;
      rt.read(&c->com, 56);  // child's com/mass/cost
      rt.compute(work::kMomentsPerChild);
      weighted += c->mass * c->com;
      mass += c->mass;
      cost += c->cost;
    }
  }
  n->mass = mass;
  n->cost = cost;
  n->com = mass > 0.0 ? (1.0 / mass) * weighted : n->cube.center;
  rt.write(&n->com, 56);
}

}  // namespace detail

/// Level-synchronized bottom-up moments pass. Ends on a barrier.
template <class RT>
void moments_phase(RT& rt, AppState& st) {
  const auto pi = static_cast<std::size_t>(rt.self());

  // Reduce the global max level through the shared slots.
  std::int64_t local_max = 0;
  for (const Node* n : st.tree.created[pi])
    if (!n->dead && n->level > local_max) local_max = n->level;
  st.tree.reduce[pi].value = local_max;
  rt.write(&st.tree.reduce[pi].value, sizeof(std::int64_t));
  rt.barrier();
  std::int64_t gmax = 0;
  for (int q = 0; q < rt.nprocs(); ++q) {
    rt.read(&st.tree.reduce[static_cast<std::size_t>(q)].value, sizeof(std::int64_t));
    gmax = std::max(gmax, st.tree.reduce[static_cast<std::size_t>(q)].value);
  }

  // Bucket my nodes by level (host-side index; node traffic is charged where
  // nodes are read/written).
  std::vector<std::vector<Node*>> by_level(static_cast<std::size_t>(gmax) + 1);
  for (Node* n : st.tree.created[pi])
    if (!n->dead) by_level[n->level].push_back(n);

  for (std::int64_t lvl = gmax; lvl >= 0; --lvl) {
    for (Node* n : by_level[static_cast<std::size_t>(lvl)]) detail::node_moments(rt, st, n);
    rt.barrier();
  }
}

// ---------------------------------------------------------------------------
// Costzones partitioning (Singh et al.): split the in-order traversal of the
// tree into nprocs zones of equal cost; each processor walks the tree
// (read-only) and claims the bodies whose cumulative-cost midpoint falls in
// its zone.
// ---------------------------------------------------------------------------

namespace detail {

template <class RT>
void costzone_walk(RT& rt, AppState& st, Node* n, double base, double lo, double hi,
                   int p) {
  rt.read_shared(&n->cost, 8);
  rt.compute(work::kPartitionPerNode);
  if (base >= hi || base + n->cost <= lo) return;  // zone disjoint: prune
  if (n->is_leaf(std::memory_order_relaxed)) {
    double c = base;
    for (int i = 0; i < n->nbodies; ++i) {
      const std::int32_t bi = n->bodies[i];
      Body& b = st.bodies[static_cast<std::size_t>(bi)];
      rt.read_shared(st.body_charge(bi), 8);
      const double bc = std::max(1.0, b.cost);
      const double mid = c + 0.5 * bc;
      if (mid >= lo && mid < hi) {
        b.proc = p;
        // Claiming the body migrates it into this processor's slice of the
        // shadow arena (the SPLASH codes physically move the Body struct;
        // see AppState::body_arena) and pays for the copy.
        auto& zone = st.partition[static_cast<std::size_t>(p)];
        const std::int32_t chunk = st.arena_chunk();
        st.body_slot[static_cast<std::size_t>(bi)] =
            static_cast<std::int32_t>(p) * chunk +
            std::min(static_cast<std::int32_t>(zone.size()), chunk - 1);
        zone.push_back(bi);
        rt.write(st.body_charge(bi), sizeof(Body));
      }
      c += bc;
    }
    return;
  }
  double c = base;
  for (int o = 0; o < 8; ++o) {
    Node* ch = n->get_child(o, std::memory_order_relaxed);
    if (ch == nullptr) continue;
    rt.read_shared(&ch->cost, 8);
    costzone_walk(rt, st, ch, c, lo, hi, p);
    c += ch->cost;
  }
}

}  // namespace detail

/// Recomputes st.partition. Ends on a barrier.
template <class RT>
void partition_phase(RT& rt, AppState& st) {
  const int p = rt.self();
  const auto pi = static_cast<std::size_t>(p);
  Node* root = st.tree.root;
  rt.read(&st.tree.root, sizeof(Node*));
  rt.read_shared(&root->cost, 8);
  const double total = root->cost;
  const double lo = total * static_cast<double>(p) / rt.nprocs();
  const double hi = total * static_cast<double>(p + 1) / rt.nprocs();
  st.partition[pi].clear();
  detail::costzone_walk(rt, st, root, 0.0, lo, hi, p);
  rt.barrier();
}

// ---------------------------------------------------------------------------
// Force computation (Barnes–Hut walk with the s/d < theta opening criterion).
// ---------------------------------------------------------------------------

namespace detail {

inline Vec3 pair_accel(const Vec3& from, const Vec3& to, double mass, double eps2) {
  const Vec3 d = to - from;
  const double r2 = norm2(d) + eps2;
  const double inv = 1.0 / (r2 * std::sqrt(r2));
  return (mass * inv) * d;
}

/// Reference (PTB_FORCE_SLOWPATH=1) path: the classic in-walk accumulation.
/// Kept verbatim as the oracle for the gather/evaluate split below — same
/// memory charges, same compute total, same accumulation order.
template <class RT>
void force_walk(RT& rt, AppState& st, Node* n, const Vec3& pos, std::int32_t self_idx,
                double theta2, double eps2, Vec3& acc, std::uint64_t& cells,
                std::uint64_t& bodies) {
  rt.read_shared(n, 72);  // cube + com + mass
  rt.compute(work::kTraversalStep);
  if (n->is_leaf(std::memory_order_relaxed)) {
    // The leaf's claimed bodies are mostly arena-consecutive: batch their
    // charges (the whole walk is read_shared/compute-only, so the span
    // contract applies).
    annotate::read_bodies_spanned(
        rt, st, n->bodies, static_cast<std::size_t>(n->nbodies), 48, self_idx,
        [&](std::int32_t bj) {
          const Body& other = st.bodies[static_cast<std::size_t>(bj)];
          rt.compute(work::kBodyBodyInteraction);
          acc += pair_accel(pos, other.pos, other.mass, eps2);
          ++bodies;
        });
    return;
  }
  const Vec3 d = n->com - pos;
  const double side = 2.0 * n->cube.half;
  if (side * side < theta2 * norm2(d)) {
    // Far enough: the whole subtree is approximated by its center of mass.
    rt.compute(work::kBodyCellInteraction);
    acc += pair_accel(pos, n->com, n->mass, eps2);
    ++cells;
    return;
  }
  rt.read_shared(&n->child[0], sizeof(Node*) * 8);
  for (int o = 0; o < 8; ++o) {
    Node* c = n->get_child(o, std::memory_order_relaxed);
    if (c != nullptr) force_walk(rt, st, c, pos, self_idx, theta2, eps2, acc, cells, bodies);
  }
}

/// Fast-path gather: the SAME walk — every branch, every memory charge, in
/// the same order — but interaction partners go into the list instead of
/// being evaluated in place, and the per-interaction compute charges are
/// batched by the caller (compute_n; pending adds commute, docs/PERF.md).
template <class RT>
void gather_walk(RT& rt, AppState& st, Node* n, const Vec3& pos, std::int32_t self_idx,
                 double theta2, bh::InteractionList& il) {
  rt.read_shared(n, 72);  // cube + com + mass
  rt.compute(work::kTraversalStep);
  if (n->is_leaf(std::memory_order_relaxed)) {
    annotate::read_bodies_spanned(
        rt, st, n->bodies, static_cast<std::size_t>(n->nbodies), 48, self_idx,
        [&](std::int32_t bj) {
          const Body& other = st.bodies[static_cast<std::size_t>(bj)];
          il.push_body(other.pos, other.mass);
        });
    return;
  }
  const Vec3 d = n->com - pos;
  const double side = 2.0 * n->cube.half;
  if (side * side < theta2 * norm2(d)) {
    il.push_cell(n->com, n->mass);
    return;
  }
  rt.read_shared(&n->child[0], sizeof(Node*) * 8);
  for (int o = 0; o < 8; ++o) {
    Node* c = n->get_child(o, std::memory_order_relaxed);
    if (c != nullptr) gather_walk(rt, st, c, pos, self_idx, theta2, il);
  }
}

/// Up to kGroupSize consecutive bodies of one partition. Lanes past the last
/// member hold id -1 and member 0's position; no mask ever names them.
struct ForceGroup {
  std::array<std::int32_t, bh::kGroupSize> id;
  std::array<Vec3, bh::kGroupSize> pos;
};

/// Exact group gather, for runtimes that charge nothing: gather_walk for
/// every member at once, with no annotations. `live` holds the members
/// still descending. Each applies gather_walk's own opening test at every
/// cell; those that accept share one cell entry tagged with their bits, the
/// rest descend. A leaf's bodies are pushed once, tagged with the live
/// members minus the member that is that body — left out by id, as
/// gather_walk skips self_idx, because its own term is not zero at eps = 0.
/// Member k's tagged entries are therefore its gather_walk list, in order
/// (docs/PERF.md §10).
inline void group_walk(const AppState& st, const Node* n, const ForceGroup& g,
                       bh::GroupMask live, double theta2, bh::GroupList& gl) {
  if (n->is_leaf(std::memory_order_relaxed)) {
    for (int i = 0; i < n->nbodies; ++i) {
      const std::int32_t bj = n->bodies[i];
      bh::GroupMask tag = live;
      for (std::size_t k = 0; k < bh::kGroupSize; ++k)
        if (g.id[k] == bj) tag = static_cast<bh::GroupMask>(tag & ~(1u << k));
      if (tag == 0) continue;
      const Body& other = st.bodies[static_cast<std::size_t>(bj)];
      gl.push_body(other.pos, other.mass, tag);
    }
    return;
  }
  const double side = 2.0 * n->cube.half;
  unsigned accept = 0;
  for (std::size_t k = 0; k < bh::kGroupSize; ++k) {
    const Vec3 d = n->com - g.pos[k];
    if (side * side < theta2 * norm2(d)) accept |= 1u << k;
  }
  accept &= live;
  if (accept != 0) gl.push_cell(n->com, n->mass, static_cast<bh::GroupMask>(accept));
  const auto open = static_cast<bh::GroupMask>(live & ~accept);
  if (open == 0) return;
  for (int o = 0; o < 8; ++o) {
    const Node* c = n->get_child(o, std::memory_order_relaxed);
    if (c != nullptr) group_walk(st, c, g, open, theta2, gl);
  }
}

/// forces_phase on runtimes that charge nothing, when the scalar oracle is
/// off: one group_walk + evaluate_group per kGroupSize consecutive bodies
/// of the partition, with the per-body path's results to the bit. Costzones
/// order is tree order, so a group is spatial neighbours sharing most of
/// their walk. Its scratch lives in this call's frame (docs/PERF.md §9).
template <class RT>
void group_forces_phase(RT& rt, AppState& st) {
  static_assert(!RT::kCharges, "the simulator charges the per-body walk");
  const auto pi = static_cast<std::size_t>(rt.self());
  const auto& part = st.partition[pi];
  const double theta2 = st.cfg.theta * st.cfg.theta;
  const double eps2 = st.cfg.eps * st.cfg.eps;
  std::uint64_t cells = 0;
  std::uint64_t bodies = 0;
  trace::Tracer* const tr = rt.tracer();
  bh::GroupList gl;
  ForceGroup g;
  std::array<Vec3, bh::kGroupSize> acc;
  for (std::size_t i0 = 0; i0 < part.size(); i0 += bh::kGroupSize) {
    const std::size_t ng = std::min(bh::kGroupSize, part.size() - i0);
    for (std::size_t k = 0; k < bh::kGroupSize; ++k) {
      g.id[k] = k < ng ? part[i0 + k] : -1;
      g.pos[k] = k < ng ? st.bodies[static_cast<std::size_t>(g.id[k])].pos : g.pos[0];
    }
    gl.clear();
    const std::uint64_t t0 = tr != nullptr ? rt.trace_now() : 0;
    group_walk(st, st.tree.root, g, static_cast<bh::GroupMask>((1u << ng) - 1), theta2, gl);
    const std::uint64_t t1 = tr != nullptr ? rt.trace_now() : 0;
    bh::evaluate_group(gl, g.pos, eps2, acc);
    if (tr != nullptr) {
      const std::uint64_t t2 = rt.trace_now();
      tr->span(rt.self(), trace::kCatPhase, "force-gather", t0, t1);
      tr->span(rt.self(), trace::kCatPhase, "force-evaluate", t1, t2);
    }
    for (std::size_t k = 0; k < ng; ++k) {
      Body& b = st.bodies[static_cast<std::size_t>(g.id[k])];
      b.acc = acc[k];
      b.cost = static_cast<double>(gl.cells(k) + gl.bodies(k));
      cells += gl.cells(k);
      bodies += gl.bodies(k);
    }
  }
  st.interactions[pi] = cells + bodies;
  st.interactions_cell[pi] = cells;
  st.interactions_body[pi] = bodies;
}

}  // namespace detail

/// Computes accelerations for this processor's bodies; stores each body's
/// interaction count as its cost for the next costzones pass. Ends on a
/// barrier in the driver (not here).
///
/// Three paths, one result: the accelerations, the costs and the per-kind
/// interaction counts are the same to the bit on each (docs/PERF.md §8, §10).
///   * PTB_FORCE_SLOWPATH=1: the scalar in-walk force_walk, the oracle.
///   * Runtimes that charge nothing (NativeProc, OmpProc, SeqProc:
///     RT::kCharges == false): detail::group_forces_phase, one walk per
///     group of bh::kGroupSize neighbouring bodies.
///   * Runtimes that charge (the simulator): gather_walk + evaluate per
///     body. Its per-node, per-body charges are the modelled SPLASH walk,
///     so it is the walk the virtual times describe.
///
/// The whole per-body loop is one unordered section: it reads only the tree
/// and body data (read_shared) and writes only this processor's own bodies,
/// so the parallel backend may overlap processors for real. The ordered
/// write-back charges are deferred to a loop after the section — the store
/// buffer drains at the end of the walk, so to speak — which keeps the
/// section pure and charges exactly one ordered write of 32 bytes (acc +
/// cost) per body either way.
template <class RT>
void forces_phase(RT& rt, AppState& st) {
  if constexpr (!RT::kCharges) {
    if (!bh::force_slowpath_enabled()) return detail::group_forces_phase(rt, st);
  }
  const auto pi = static_cast<std::size_t>(rt.self());
  const double theta2 = st.cfg.theta * st.cfg.theta;
  const double eps2 = st.cfg.eps * st.cfg.eps;
  std::uint64_t cells = 0;
  std::uint64_t bodies = 0;
  Node* root = st.tree.root;
  const bool slow = bh::force_slowpath_enabled();
  bh::InteractionList il;  // this call's own scratch: see docs/PERF.md §9
  trace::Tracer* const tr = rt.tracer();
  rt.unordered([&] {
    for (std::int32_t bi : st.partition[pi]) {
      Body& b = st.bodies[static_cast<std::size_t>(bi)];
      rt.read_shared(st.body_charge(bi), 48);
      Vec3 acc{};
      std::uint64_t nc = 0;
      std::uint64_t nb = 0;
      if (slow) {
        detail::force_walk(rt, st, root, b.pos, bi, theta2, eps2, acc, nc, nb);
      } else {
        // Traced runs bracket the same work into per-body gather/evaluate
        // sub-spans. The interaction compute is charged after the gather
        // timestamp so its cost lands in the evaluate span.
        il.clear();
        const std::uint64_t t0 = tr != nullptr ? rt.trace_now() : 0;
        detail::gather_walk(rt, st, root, b.pos, bi, theta2, il);
        const std::uint64_t t1 = tr != nullptr ? rt.trace_now() : 0;
        nc = il.cells();
        nb = il.bodies();
        rt.compute_n(work::kBodyCellInteraction, nc);
        rt.compute_n(work::kBodyBodyInteraction, nb);
        acc = bh::evaluate(il, b.pos, eps2);
        if (tr != nullptr) {
          const std::uint64_t t2 = rt.trace_now();
          tr->span(rt.self(), trace::kCatPhase, "force-gather", t0, t1);
          tr->span(rt.self(), trace::kCatPhase, "force-evaluate", t1, t2);
        }
      }
      b.acc = acc;
      b.cost = static_cast<double>(nc + nb);
      cells += nc;
      bodies += nb;
    }
  });
  for (std::int32_t bi : st.partition[pi]) rt.write(st.body_charge(bi), 32);
  st.interactions[pi] = cells + bodies;
  st.interactions_cell[pi] = cells;
  st.interactions_body[pi] = bodies;
}

// ---------------------------------------------------------------------------
// Update (leapfrog integration), as in SPLASH-2 BARNES.
// ---------------------------------------------------------------------------

template <class RT>
void integrate_phase(RT& rt, AppState& st) {
  const auto pi = static_cast<std::size_t>(rt.self());
  const double dt = st.cfg.dt;
  for (std::int32_t bi : st.partition[pi]) {
    Body& b = st.bodies[static_cast<std::size_t>(bi)];
    rt.read(st.body_charge(bi), 96);
    rt.compute(work::kIntegrateBody);
    b.vel += dt * b.acc;
    b.pos += dt * b.vel;
    rt.write(st.body_charge(bi), 96);
  }
}

}  // namespace ptb
