// Native (google-benchmark) micro-benchmarks: real wall-clock throughput of
// the tree builders and phases on the host machine with std::thread.
// These complement the platform simulations — they measure the library as a
// production parallel library on commodity multicore hardware.
#include <benchmark/benchmark.h>

#include "bh/seqtree.hpp"
#include "harness/app.hpp"
#include "rt/native_rt.hpp"
#include "treebuild/local.hpp"
#include "treebuild/orig.hpp"
#include "treebuild/partree.hpp"
#include "treebuild/radix.hpp"
#include "treebuild/space.hpp"
#include "treebuild/update.hpp"

namespace ptb {
namespace {

template <class Builder>
void BM_NativeBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int np = static_cast<int>(state.range(1));
  BHConfig cfg;
  cfg.n = n;
  AppState st = make_app_state(cfg, np);
  NativeContext ctx(np);
  Builder builder(st);
  for (auto _ : state) {
    builder.reset();  // UPDATE: a full build each time, not an update of bodies at rest
    ctx.run([&](NativeProc& rt) {
      builder.build(rt);
      rt.barrier();
    });
    benchmark::DoNotOptimize(st.tree.root);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_SeqReferenceBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  BHConfig cfg;
  cfg.n = n;
  const Bodies bodies = make_plummer(n, cfg.seed);
  NodePool pool;
  pool.init(static_cast<std::size_t>(n) * 2 + 1024);
  for (auto _ : state) {
    Node* root = SeqTree::build(bodies, cfg, pool);
    benchmark::DoNotOptimize(root);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

/// The force phase on np threads over a costzones partition, as in a
/// timestep. One thread cannot show contention between processors' scratch
/// (false sharing), so the rows sweep the thread count.
void BM_ForcePhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int np = static_cast<int>(state.range(1));
  BHConfig cfg;
  cfg.n = n;
  AppState st = make_app_state(cfg, np);
  NativeContext ctx(np);
  LocalBuilder builder(st);
  ctx.run([&](NativeProc& rt) {
    builder.build(rt);
    rt.barrier();
    moments_phase(rt, st);
    forces_phase(rt, st);  // bodies' costs become their interaction counts
    rt.barrier();
    moments_phase(rt, st);  // folded into the cells for costzones
    partition_phase(rt, st);
  });
  for (auto _ : state) {
    ctx.run([&](NativeProc& rt) { forces_phase(rt, st); });
    benchmark::DoNotOptimize(st.bodies.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

BENCHMARK(BM_SeqReferenceBuild)->Arg(16384)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ForcePhase)
    ->ArgNames({"n", "threads"})
    ->Args({16384, 1})
    ->Args({16384, 2})
    ->Args({16384, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_TEMPLATE(BM_NativeBuild, OrigBuilder)
    ->Args({16384, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Name("BM_NativeBuild<ORIG>");
BENCHMARK_TEMPLATE(BM_NativeBuild, LocalBuilder)
    ->Args({16384, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Name("BM_NativeBuild<LOCAL>");
BENCHMARK_TEMPLATE(BM_NativeBuild, PartreeBuilder)
    ->Args({16384, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Name("BM_NativeBuild<PARTREE>");
BENCHMARK_TEMPLATE(BM_NativeBuild, SpaceBuilder)
    ->Args({16384, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Name("BM_NativeBuild<SPACE>");
BENCHMARK_TEMPLATE(BM_NativeBuild, UpdateBuilder)
    ->Args({16384, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Name("BM_NativeBuild<UPDATE>");
BENCHMARK_TEMPLATE(BM_NativeBuild, RadixBuilder)
    ->Args({16384, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Name("BM_NativeBuild<RADIX>");

}  // namespace
}  // namespace ptb

BENCHMARK_MAIN();
