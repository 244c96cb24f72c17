// OpenMP runtime: the builders under an OpenMP team, cross-checked against
// the sequential reference and the std::thread runtime.
#include <gtest/gtest.h>

#ifdef PTB_HAVE_OPENMP

#include "bh/seqtree.hpp"
#include "bh/verify.hpp"
#include "forces_across_threads.hpp"
#include "harness/app.hpp"
#include "rt/omp_rt.hpp"
#include "treebuild/local.hpp"
#include "treebuild/orig.hpp"
#include "treebuild/space.hpp"

namespace ptb {
namespace {

std::uint64_t reference_hash(const AppState& st) {
  NodePool pool;
  pool.init(static_cast<std::size_t>(st.cfg.n) * 2 + 1024);
  Node* root = SeqTree::build(st.bodies, st.cfg, pool);
  return canonical_hash(root, st.bodies);
}

template <class Builder>
void omp_build_matches_reference(int n, int np) {
  BHConfig cfg;
  cfg.n = n;
  AppState st = make_app_state(cfg, np);
  OmpContext ctx(np);
  Builder builder(st);
  builder.register_regions(ctx);
  ctx.run([&](OmpProc& rt) {
    builder.build(rt);
    rt.barrier();
  });
  const TreeCheckResult check = check_tree(st.tree.root, st.bodies, st.cfg);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(canonical_hash(st.tree.root, st.bodies), reference_hash(st));
}

TEST(OmpRt, OrigBuild) { omp_build_matches_reference<OrigBuilder>(4000, 4); }
TEST(OmpRt, LocalBuild) { omp_build_matches_reference<LocalBuilder>(4000, 4); }
TEST(OmpRt, SpaceBuild) { omp_build_matches_reference<SpaceBuilder>(4000, 4); }

TEST(OmpRt, FullTimestepPipeline) {
  BHConfig cfg;
  cfg.n = 2000;
  AppState st = make_app_state(cfg, 4);
  OmpContext ctx(4);
  LocalBuilder builder(st);
  ctx.run([&](OmpProc& rt) {
    for (int s = 0; s < 2; ++s) timestep(rt, st, builder, true);
    builder.build(rt);
    rt.barrier();
  });
  const TreeCheckResult check = check_tree(st.tree.root, st.bodies, st.cfg);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.body_count, cfg.n);
}

TEST(OmpRt, ForcesBitIdenticalAcrossThreadCounts) {
  test::expect_forces_bit_identical_across_thread_counts<OmpContext>();
}

TEST(OmpRt, StatsAreTracked) {
  BHConfig cfg;
  cfg.n = 1000;
  AppState st = make_app_state(cfg, 4);
  OmpContext ctx(4);
  OrigBuilder builder(st);
  ctx.run([&](OmpProc& rt) {
    rt.begin_phase(Phase::kTreeBuild);
    builder.build(rt);
    rt.barrier();
    rt.begin_phase(Phase::kOther);
  });
  std::uint64_t locks = 0;
  for (const auto& ps : ctx.stats())
    locks += ps.lock_acquires[static_cast<int>(Phase::kTreeBuild)];
  EXPECT_GT(locks, 500u);
}

}  // namespace
}  // namespace ptb

#endif  // PTB_HAVE_OPENMP
