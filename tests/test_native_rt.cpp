// NativeRT: the same builders under REAL std::thread concurrency. These are
// stress tests of the lock/atomic protocol (the simulator serializes shared
// operations, so only native runs exercise true interleavings).
#include <gtest/gtest.h>

#include "bh/seqtree.hpp"
#include "bh/verify.hpp"
#include "forces_across_threads.hpp"
#include "harness/app.hpp"
#include "rt/native_rt.hpp"
#include "treebuild/local.hpp"
#include "treebuild/orig.hpp"
#include "treebuild/partree.hpp"
#include "treebuild/space.hpp"
#include "treebuild/update.hpp"

namespace ptb {
namespace {

std::uint64_t reference_hash(const AppState& st) {
  NodePool pool;
  pool.init(static_cast<std::size_t>(st.cfg.n) * 2 + 1024);
  Node* root = SeqTree::build(st.bodies, st.cfg, pool);
  return canonical_hash(root, st.bodies);
}

template <class Builder>
void stress_build(int n, int np, int repeats, std::uint64_t seed) {
  BHConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  for (int r = 0; r < repeats; ++r) {
    AppState st = make_app_state(cfg, np);
    NativeContext ctx(np);
    Builder builder(st);
    builder.register_regions(ctx);  // no-op, but part of the contract
    ctx.run([&](NativeProc& rt) {
      builder.build(rt);
      rt.barrier();
    });
    const TreeCheckResult res = check_tree(st.tree.root, st.bodies, st.cfg);
    ASSERT_TRUE(res.ok) << res.error << " (repeat " << r << ")";
    ASSERT_EQ(res.body_count, n);
    ASSERT_EQ(canonical_hash(st.tree.root, st.bodies), reference_hash(st))
        << "native parallel tree differs from reference (repeat " << r << ")";
  }
}

TEST(NativeRt, OrigStress) { stress_build<OrigBuilder>(5000, 8, 3, 101); }
TEST(NativeRt, LocalStress) { stress_build<LocalBuilder>(5000, 8, 3, 102); }
TEST(NativeRt, PartreeStress) { stress_build<PartreeBuilder>(5000, 8, 3, 103); }
TEST(NativeRt, SpaceStress) { stress_build<SpaceBuilder>(5000, 8, 3, 104); }
TEST(NativeRt, UpdateInitialStress) { stress_build<UpdateBuilder>(5000, 8, 3, 105); }

TEST(NativeRt, FullPipelineSeveralSteps) {
  BHConfig cfg;
  cfg.n = 3000;
  AppState st = make_app_state(cfg, 8);
  NativeContext ctx(8);
  LocalBuilder builder(st);
  ctx.run([&](NativeProc& rt) {
    for (int s = 0; s < 3; ++s) timestep(rt, st, builder, true);
    builder.build(rt);
    rt.barrier();
  });
  const TreeCheckResult res = check_tree(st.tree.root, st.bodies, st.cfg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.body_count, cfg.n);
}

TEST(NativeRt, UpdateIncrementalUnderThreads) {
  BHConfig cfg;
  cfg.n = 2500;
  cfg.dt = 0.05;
  AppState st = make_app_state(cfg, 8);
  NativeContext ctx(8);
  UpdateBuilder builder(st);
  builder.register_regions(ctx);
  ctx.run([&](NativeProc& rt) {
    for (int s = 0; s < 4; ++s) timestep(rt, st, builder, true);
    rt.begin_phase(Phase::kTreeBuild);
    builder.build(rt);
    rt.barrier();
  });
  const TreeCheckResult res = check_tree(st.tree.root, st.bodies, st.cfg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.body_count, cfg.n);
}

TEST(NativeRt, ForcesMatchSimulatorRun) {
  // Physics must not depend on the runtime: native threads and the DES
  // produce bit-identical accelerations (same tree, same traversal).
  BHConfig cfg;
  cfg.n = 1000;
  AppState native_st = make_app_state(cfg, 4);
  {
    NativeContext ctx(4);
    LocalBuilder builder(native_st);
    ctx.run([&](NativeProc& rt) { timestep(rt, native_st, builder, true); });
  }
  AppState seq_st = make_app_state(cfg, 1);
  {
    NativeContext ctx(1);
    LocalBuilder builder(seq_st);
    ctx.run([&](NativeProc& rt) { timestep(rt, seq_st, builder, true); });
  }
  for (std::size_t i = 0; i < native_st.bodies.size(); ++i) {
    // Leaf-internal body order differs with thread count, so summation order
    // (and the last ulp) may differ; positions agree to reassociation noise.
    ASSERT_LT(norm(native_st.bodies[i].pos - seq_st.bodies[i].pos), 1e-12);
  }
}

TEST(NativeRt, ForcesBitIdenticalAcrossThreadCounts) {
  test::expect_forces_bit_identical_across_thread_counts<NativeContext>();
}

TEST(NativeRt, StatsTrackLocksAndBarriers) {
  BHConfig cfg;
  cfg.n = 2000;
  AppState st = make_app_state(cfg, 4);
  NativeContext ctx(4);
  OrigBuilder builder(st);
  ctx.run([&](NativeProc& rt) {
    rt.begin_phase(Phase::kTreeBuild);
    builder.build(rt);
    rt.barrier();
    rt.begin_phase(Phase::kOther);
  });
  std::uint64_t locks = 0, barriers = 0;
  for (const auto& ps : ctx.stats()) {
    locks += ps.lock_acquires[static_cast<int>(Phase::kTreeBuild)];
    barriers += ps.barriers;
  }
  EXPECT_GT(locks, 1000u);  // ORIG locks per inserted body
  EXPECT_GE(barriers, 4u * 3u);
}

}  // namespace
}  // namespace ptb
