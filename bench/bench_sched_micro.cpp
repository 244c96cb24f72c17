// Scheduler microbenchmark: host-side cost of the DES turn-taking hot path.
//
// Every ordered operation (here: fetch_add on a shared counter) must wait
// until its processor's virtual clock is the minimum over all active
// processors. This binary drives a synthetic workload of ordered ops +
// periodic barriers through both scheduler backends and reports host-side
// ordered-ops/second. The parallel backend runs the same fiber scheduler
// (its section pool is idle here — this workload is all ordered ops) so it
// must track fibers closely; both backends must agree bit-for-bit on every
// virtual result.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "support/cli.hpp"

namespace {

using namespace ptb;
using namespace ptb::bench;

struct MicroResult {
  double seconds = 0.0;
  std::uint64_t ordered_ops = 0;
  std::int64_t counter = 0;
  std::vector<std::uint64_t> clocks;
};

MicroResult run_backend(SimBackend backend, int nprocs, int ops_per_proc) {
  SimContext ctx(PlatformSpec::ideal(), nprocs, backend);
  std::atomic<std::int64_t> counter{0};
  WallTimer wall;
  ctx.run([&](SimProc& rt) {
    for (int i = 0; i < ops_per_proc; ++i) {
      rt.compute(1.0 + (rt.self() % 4));  // skewed clocks keep the heap busy
      rt.fetch_add(counter, 1);
      if (i % 1024 == 1023) rt.barrier();
    }
    rt.barrier();
  });
  MicroResult r;
  r.seconds = wall.seconds();
  r.ordered_ops = static_cast<std::uint64_t>(nprocs) * static_cast<std::uint64_t>(ops_per_proc);
  r.counter = counter.load();
  for (int p = 0; p < nprocs; ++p) r.clocks.push_back(ctx.clock_ns(p));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ptb;
  using namespace ptb::bench;
  Cli cli(argc, argv);
  const int nprocs = cli.get_int("procs", 16, "simulated processor count", 1, kMaxSimProcs);
  const int ops = cli.get_int("ops", 20000, "ordered operations per simulated processor", 1);
  const int reps = cli.get_int("reps", 3, "repetitions (best kept)", 1);
  const std::string json_path =
      cli.get_string("json", "BENCH_sched.json", "JSON output path (empty disables)");
  cli.finish();

  banner("sched micro", "host-side ordered-ops/sec of the scheduler backends");
  std::printf("%d simulated processors, %d ordered ops each, best of %d reps\n\n",
              nprocs, ops, reps);

  JsonReport json;
  json.set_path(json_path);
  json.context("git_sha", support::git_sha()).context("build_type", support::build_type());

  MicroResult best[2];
  const SimBackend backends[2] = {SimBackend::kFibers, SimBackend::kParallel};
  for (int b = 0; b < 2; ++b) {
    run_backend(backends[b], nprocs, ops / 10 + 1);  // warm-up
    for (int rep = 0; rep < reps; ++rep) {
      MicroResult r = run_backend(backends[b], nprocs, ops);
      if (rep == 0 || r.seconds < best[b].seconds) best[b] = r;
    }
    const double rate = static_cast<double>(best[b].ordered_ops) / best[b].seconds;
    std::printf("%-8s %10.3f ms   %12.0f ordered ops/s\n", to_string(backends[b]),
                best[b].seconds * 1e3, rate);
    json.row()
        .field("bench", std::string("sched_micro"))
        .field("backend", to_string(backends[b]))
        .field("procs", static_cast<std::int64_t>(nprocs))
        .field("ops_per_proc", static_cast<std::int64_t>(ops))
        .field("host_seconds", best[b].seconds)
        .field("ordered_ops_per_sec", rate);
  }

  // Cross-backend agreement: virtual results must be bit-identical.
  const bool identical =
      best[0].clocks == best[1].clocks && best[0].counter == best[1].counter;
  std::printf("\nfibers vs parallel: virtual results %s\n",
              identical ? "identical" : "DIVERGED");
  json.row()
      .field("bench", std::string("sched_micro_summary"))
      .field("procs", static_cast<std::int64_t>(nprocs))
      .field("virtual_results_identical", std::string(identical ? "yes" : "no"));
  json.save();

  if (!identical) {
    std::fprintf(stderr, "FAIL: backends disagree on virtual results\n");
    return 1;
  }
  return 0;
}
