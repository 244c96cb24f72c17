// The exact group walk against the per-body oracles.
//
// On runtimes that charge nothing, forces_phase walks the tree once per
// group of bh::kGroupSize consecutive bodies and evaluates the tagged union
// list (docs/PERF.md §10). Each member keeps its own opening test and its
// entries keep walk order, so every acceleration, every cost and every
// per-processor, per-kind interaction count must equal, to the bit, both
//   * the scalar in-walk oracle (PTB_FORCE_SLOWPATH=1) on the same runtime,
//   * and the simulator's per-body gather/evaluate path (SimContext),
// over the same tree and the same partition. The tests are named NativeRt.*
// and OmpRt.* so that CI's TSan job runs them; under TSan the SimContext leg
// is left out, because TSan cannot follow the simulator's fibers.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bh/forcekernel.hpp"
#include "bh/generate.hpp"
#include "harness/app.hpp"
#include "rt/native_rt.hpp"
#include "sim/sim_rt.hpp"
#include "support/rng.hpp"
#include "treebuild/dispatch.hpp"
#ifdef PTB_HAVE_OPENMP
#include "rt/omp_rt.hpp"
#endif

#if defined(__SANITIZE_THREAD__)
#define PTB_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PTB_TEST_TSAN 1
#endif
#endif

namespace ptb {
namespace {

#ifdef PTB_TEST_TSAN
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif

/// Scoped PTB_FORCE_SLOWPATH toggle (the flag is read per force phase).
struct ScopedForceSlowpath {
  ScopedForceSlowpath() { ::setenv("PTB_FORCE_SLOWPATH", "1", 1); }
  ~ScopedForceSlowpath() { ::unsetenv("PTB_FORCE_SLOWPATH"); }
};

/// Everything the force phase produces, as bits.
struct ForceBits {
  std::vector<std::uint64_t> body;  // acc.x, acc.y, acc.z, cost of each body
  std::vector<std::uint64_t> cells;   // per processor
  std::vector<std::uint64_t> bodies;  // per processor
};

ForceBits capture(const AppState& st) {
  ForceBits r;
  for (const Body& b : st.bodies)
    for (const double v : {b.acc.x, b.acc.y, b.acc.z, b.cost})
      r.body.push_back(std::bit_cast<std::uint64_t>(v));
  r.cells.assign(st.interactions_cell.begin(), st.interactions_cell.end());
  r.bodies.assign(st.interactions_body.begin(), st.interactions_body.end());
  return r;
}

void expect_same(const ForceBits& group, const ForceBits& oracle, const char* which) {
  SCOPED_TRACE(which);
  EXPECT_EQ(group.cells, oracle.cells);
  EXPECT_EQ(group.bodies, oracle.bodies);
  ASSERT_EQ(group.body.size(), oracle.body.size());
  for (std::size_t i = 0; i < group.body.size(); ++i) {
    if (group.body[i] == oracle.body[i]) continue;
    static constexpr const char* kField[] = {"acc.x", "acc.y", "acc.z", "cost"};
    ADD_FAILURE() << "body " << i / 4 << " " << kField[i % 4] << ": group "
                  << std::bit_cast<double>(group.body[i]) << " vs oracle "
                  << std::bit_cast<double>(oracle.body[i]);
    return;  // the first difference is enough
  }
}

enum class Part { kInitial, kCostzones, kOrb };

/// Builds one tree with `alg` on Ctx(np), partitions it as `part` says, then
/// runs forces_phase on the group path, on the scalar oracle and on the
/// simulator's per-body path, and compares the three.
template <class Ctx>
void expect_group_walk_exact(Algorithm alg, int np, Bodies bodies, const BHConfig& cfg,
                             Part part = Part::kCostzones) {
  SCOPED_TRACE(std::string(algorithm_name(alg)) + " p=" + std::to_string(np));
  AppState st;
  st.cfg = cfg;
  st.init(std::move(bodies), np);
  with_builder(alg, st, [&](auto& builder) {
    builder.reset();
    Ctx(np).run([&](auto& rt) {
      builder.build(rt);
      rt.barrier();
      moments_phase(rt, st);
      if (part == Part::kCostzones) partition_phase(rt, st);
      if (part == Part::kOrb) partition_orb_phase(rt, st);
    });
    const auto forces = [&](auto& ctx) {
      for (Body& b : st.bodies) {
        b.acc = Vec3{std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0};
        b.cost = -1.0;
      }
      ctx.run([&](auto& rt) { forces_phase(rt, st); });
      return capture(st);
    };
    Ctx group_ctx(np);
    const ForceBits group = forces(group_ctx);
    {
      ScopedForceSlowpath slow;
      Ctx oracle_ctx(np);
      expect_same(group, forces(oracle_ctx), "PTB_FORCE_SLOWPATH=1");
    }
    if constexpr (!kTsan) {
      SimContext sim(PlatformSpec::ideal(), np);
      register_common_regions(sim, st);
      builder.register_regions(sim);
      expect_same(group, forces(sim), "SimContext per-body path");
    }
  });
}

/// All builders x {1, 2, 4} threads x {Plummer, colliding pair, uniform}.
template <class Ctx>
void expect_group_walk_exact_matrix() {
  struct Dist {
    const char* name;
    Bodies (*make)(int, std::uint64_t);
  };
  const Dist dists[] = {{"plummer", make_plummer},
                        {"colliding-pair", make_colliding_pair},
                        {"uniform", make_uniform_cube}};
  BHConfig cfg;
  cfg.n = 1203;  // no thread count splits it into whole groups
  for (const Dist& d : dists) {
    SCOPED_TRACE(d.name);
    for (const Algorithm alg : all_algorithms())
      for (const int np : {1, 2, 4})
        expect_group_walk_exact<Ctx>(alg, np, d.make(cfg.n, 7), cfg);
  }
}

/// A tight clump of near-coincident bodies (spacing 1e-9 of the box) inside
/// a sparse Plummer halo: deep single-child chains and, for RADIX, the
/// fallback below Morton level 21.
Bodies make_clump(int n, std::uint64_t seed) {
  Bodies b = make_plummer(n, seed);
  Rng rng(seed + 1);
  for (int i = 0; i < n / 2; ++i) {
    Body& c = b[static_cast<std::size_t>(i)];
    c.pos = Vec3{0.1 + 1e-9 * rng.next_double(), 0.2 + 1e-9 * rng.next_double(),
                 0.3 + 1e-9 * rng.next_double()};
  }
  return b;
}

/// The edge inputs, on every builder.
template <class Ctx>
void expect_group_walk_exact_edges() {
  BHConfig base;
  for (const Algorithm alg : all_algorithms()) {
    BHConfig cfg = base;
    {
      SCOPED_TRACE("n=1");
      cfg.n = 1;
      expect_group_walk_exact<Ctx>(alg, 1, make_plummer(1, 3), cfg);
    }
    {
      SCOPED_TRACE("n < group size");
      cfg.n = bh::kGroupSize - 1;
      expect_group_walk_exact<Ctx>(alg, 1, make_plummer(cfg.n, 3), cfg);
    }
    {
      SCOPED_TRACE("ragged partitions");
      cfg.n = 4 * bh::kGroupSize * 25 + 3;
      for (const int np : {2, 3})
        expect_group_walk_exact<Ctx>(alg, np, make_plummer(cfg.n, 5), cfg);
    }
    {
      SCOPED_TRACE("first step: i % p partition");
      cfg.n = 700;
      expect_group_walk_exact<Ctx>(alg, 3, make_plummer(cfg.n, 9), cfg, Part::kInitial);
    }
    {
      SCOPED_TRACE("ORB partitioner");
      cfg.n = 700;
      cfg.partitioner = Partitioner::kOrb;
      expect_group_walk_exact<Ctx>(alg, 4, make_plummer(cfg.n, 11), cfg, Part::kOrb);
      cfg.partitioner = base.partitioner;
    }
    {
      SCOPED_TRACE("theta = 0");
      cfg.n = 300;
      cfg.theta = 0.0;
      expect_group_walk_exact<Ctx>(alg, 2, make_uniform_cube(cfg.n, 13), cfg);
      cfg.theta = base.theta;
    }
    {
      SCOPED_TRACE("eps = 0");
      cfg.n = 500;
      cfg.eps = 0.0;
      expect_group_walk_exact<Ctx>(alg, 2, make_colliding_pair(cfg.n, 17), cfg);
      cfg.eps = base.eps;
    }
    {
      SCOPED_TRACE("near-coincident clump");
      cfg.n = 400;
      expect_group_walk_exact<Ctx>(alg, 2, make_clump(cfg.n, 19), cfg);
    }
  }
}

TEST(NativeRt, GroupWalkBitIdenticalToPerBodyOracles) {
  expect_group_walk_exact_matrix<NativeContext>();
}

TEST(NativeRt, GroupWalkBitIdenticalOnEdgeInputs) {
  expect_group_walk_exact_edges<NativeContext>();
}

#ifdef PTB_HAVE_OPENMP
TEST(OmpRt, GroupWalkBitIdenticalToPerBodyOracles) {
  expect_group_walk_exact_matrix<OmpContext>();
}

TEST(OmpRt, GroupWalkBitIdenticalOnEdgeInputs) {
  expect_group_walk_exact_edges<OmpContext>();
}
#endif

}  // namespace
}  // namespace ptb
