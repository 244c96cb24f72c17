// Quickstart: the smallest useful program against the public API.
//
// Generates a Plummer galaxy, builds the Barnes–Hut octree in parallel with
// the lock-free SPACE algorithm on real threads, runs one force computation,
// and prints a few summary numbers.
//
//   ./examples/quickstart [--n 16384] [--threads 4]
#include <cstdio>

#include "bh/verify.hpp"
#include "harness/app.hpp"
#include "rt/native_rt.hpp"
#include "support/cli.hpp"
#include "treebuild/space.hpp"

int main(int argc, char** argv) {
  using namespace ptb;
  Cli cli(argc, argv);
  const int n = cli.get_int("n", 16384, "number of bodies", 1);
  const int threads = cli.get_int("threads", 4, "worker threads", 1, kMaxNativeThreads);
  cli.finish();

  // 1. Problem setup: a Plummer-model galaxy and a shared application state.
  BHConfig cfg;
  cfg.n = n;
  AppState st = make_app_state(cfg, threads);

  // 2. One full time-step on real threads: tree build (SPACE: no locks at
  //    all) -> center of mass -> costzones partition -> forces -> update.
  //    The update phase moves the bodies, which would make the tree stale
  //    against the NEW positions, so rebuild once at the end for inspection.
  NativeContext ctx(threads);
  SpaceBuilder builder(st);
  ctx.run([&](NativeProc& rt) {
    timestep(rt, st, builder, /*measured=*/true);
    builder.build(rt);
    rt.barrier();
  });

  // 3. Inspect the results.
  const TreeCheckResult check = check_tree(st.tree.root, st.bodies, st.cfg);
  std::uint64_t interactions = 0;
  for (auto v : st.interactions) interactions += v;
  std::printf("bodies:        %d\n", n);
  std::printf("threads:       %d\n", threads);
  std::printf("tree nodes:    %d (%d leaves, depth %d)\n", check.node_count,
              check.leaf_count, check.max_depth);
  std::printf("tree valid:    %s\n", check.ok ? "yes" : check.error.c_str());
  std::printf("interactions:  %llu (%.1f per body)\n",
              static_cast<unsigned long long>(interactions),
              static_cast<double>(interactions) / n);
  double wall_ms = 0.0;
  for (const auto& ps : ctx.stats()) wall_ms = std::max(wall_ms, ps.total_ns() * 1e-6);
  std::printf("step time:     %.1f ms\n", wall_ms);
  return check.ok ? 0 : 1;
}
