// Anatomy micro/identity bench: cost and bit-identity of the speedup-loss
// ledger.
//
// For every algorithm the same (challenge, n, p) cell is run with the ledger
// off and on: the virtual results must be bit-identical (the ledger is a
// pure observer — that identity is the license for leaving it attachable to
// every run), and the host-side throughput of ledgered runs is the gated
// perf metric. A p-sweep per algorithm then prints the speedup-loss
// waterfall the ledger exists for.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "anatomy/sweep.hpp"
#include "bench_common.hpp"
#include "support/cli.hpp"

namespace {

using namespace ptb;
using namespace ptb::bench;

bool same_virtual_results(const RunResult& a, const RunResult& b) {
  if (a.total_ns != b.total_ns) return false;
  if (a.proc_stats.size() != b.proc_stats.size()) return false;
  for (std::size_t p = 0; p < a.proc_stats.size(); ++p) {
    const ProcStats& x = a.proc_stats[p];
    const ProcStats& y = b.proc_stats[p];
    for (int ph = 0; ph < kNumPhases; ++ph) {
      if (x.phase_ns[ph] != y.phase_ns[ph]) return false;
      if (x.mem_stall_ns[ph] != y.mem_stall_ns[ph]) return false;
      if (x.lock_wait_phase_ns[ph] != y.lock_wait_phase_ns[ph]) return false;
      if (x.barrier_wait_phase_ns[ph] != y.barrier_wait_phase_ns[ph]) return false;
      if (x.lock_acquires[ph] != y.lock_acquires[ph]) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int n = cli.get_int("n", 2048, "bodies per cell", 1);
  const int np = cli.get_int("procs", 4, "sweep endpoint processors", 1, kMaxSimProcs);
  const int reps = cli.get_int("reps", 3, "repetitions (best kept)", 1);
  const std::string json_path =
      cli.get_string("json", "BENCH_anatomy.json", "JSON output path (empty disables)");
  cli.finish();

  banner("anatomy micro", "speedup-loss ledger: overhead and bit-identity");
  std::printf("challenge, n=%d, p=%d vs p=1, best of %d reps\n\n", n, np, reps);

  JsonReport json;
  json.set_path(json_path);
  json.context("git_sha", support::git_sha()).context("build_type", support::build_type());

  ExperimentRunner runner;
  bool identical = true;
  Table t("ledgered runs (anatomy on; identity checked against anatomy off)");
  t.set_header({"algorithm", "virtual total", "busy share", "loss attributed",
                "runs/s (host)", "identical"});
  for (Algorithm alg : all_algorithms()) {
    ExperimentSpec spec;
    spec.platform = "challenge";
    spec.algorithm = alg;
    spec.n = n;
    spec.nprocs = np;
    spec.warmup_steps = 1;
    spec.measured_steps = 2;

    spec.anatomy = false;
    const ExperimentResult off = runner.run(spec);
    spec.anatomy = true;
    ExperimentResult on;
    double best_s = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer wall;
      on = runner.run(spec);
      const double s = wall.seconds();
      if (rep == 0 || s < best_s) best_s = s;
    }
    const bool same = same_virtual_results(off.run, on.run);
    identical = identical && same;

    // The waterfall against a p=1 reference: its category deltas must
    // attribute the whole loss (asserted inside build_waterfall).
    ExperimentSpec ref = spec;
    ref.nprocs = 1;
    const ExperimentResult r1 = runner.run(ref);
    const anatomy::Waterfall wf = anatomy::build_waterfall(r1.anatomy, on.anatomy);

    const double pt = static_cast<double>(np) * on.anatomy.total_ns;
    const double busy_share =
        pt > 0.0 ? on.anatomy.category_ns(anatomy::Category::kBusy) / pt : 0.0;
    const double rate = best_s > 0.0 ? 1.0 / best_s : 0.0;
    t.add_row({algorithm_name(alg), fmt_seconds(on.run.total_ns * 1e-9),
               fmt_percent(busy_share), fmt_seconds(wf.loss_ns * 1e-9),
               Table::num(rate, 2), same ? "yes" : "NO"});

    json.row()
        .field("bench", std::string("anatomy_sweep"))
        .field("platform", std::string("challenge"))
        .field("algorithm", std::string(algorithm_name(alg)))
        .field("n", static_cast<std::int64_t>(n))
        .field("procs", static_cast<std::int64_t>(np))
        .field("virtual_total_ns", on.run.total_ns)
        .field("loss_ns", wf.loss_ns)
        .field("busy_share", busy_share)
        .field("imbalance_ns", on.anatomy.imbalance_ns())
        .field("lock_wait_ns", on.anatomy.category_ns(anatomy::Category::kLockWait))
        .field("host_seconds", best_s)
        .field("ledgered_runs_per_sec", rate);
  }
  t.print();

  std::printf("\nanatomy on vs off: virtual results %s\n",
              identical ? "identical" : "DIVERGED");
  json.row()
      .field("bench", std::string("anatomy_summary"))
      .field("procs", static_cast<std::int64_t>(np))
      .field("virtual_results_identical", std::string(identical ? "yes" : "no"));
  json.save();

  if (!identical) {
    std::fprintf(stderr, "FAIL: the anatomy ledger perturbed virtual results\n");
    return 1;
  }
  return 0;
}
