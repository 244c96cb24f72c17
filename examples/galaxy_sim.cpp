// A full galaxy simulation driver on native threads: choose a tree-building
// algorithm, run many time-steps, and watch the per-phase time breakdown —
// the downstream-user view of this library.
//
//   ./examples/galaxy_sim --n 32768 --threads 8 --steps 10 --algorithm SPACE
#include <cstdio>

#include "bh/diagnostics.hpp"
#include "bh/verify.hpp"
#include "harness/app.hpp"
#include "harness/report.hpp"
#include "rt/native_rt.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "treebuild/dispatch.hpp"

namespace {

void run(ptb::Algorithm alg, ptb::AppState& st, int threads, int steps) {
  using namespace ptb;
  NativeContext ctx(threads);
  with_builder(alg, st, [&](auto& builder) {
    ctx.run([&](NativeProc& rt) {
      for (int s = 0; s < steps; ++s) timestep(rt, st, builder, true);
    });
  });

  Table t("per-phase wall time (max over threads)");
  t.set_header({"phase", "seconds", "share"});
  double total = 0.0;
  std::array<double, kNumPhases> phase_s{};
  for (int ph = 0; ph < kNumPhases; ++ph) {
    for (const auto& ps : ctx.stats())
      phase_s[static_cast<std::size_t>(ph)] =
          std::max(phase_s[static_cast<std::size_t>(ph)], ps.phase_ns[ph] * 1e-9);
    if (ph != static_cast<int>(Phase::kOther))
      total += phase_s[static_cast<std::size_t>(ph)];
  }
  for (int ph = 0; ph < kNumPhases; ++ph) {
    if (ph == static_cast<int>(Phase::kOther)) continue;
    t.add_row({phase_name(static_cast<Phase>(ph)),
               Table::num(phase_s[static_cast<std::size_t>(ph)], 3),
               fmt_percent(phase_s[static_cast<std::size_t>(ph)] / total)});
  }
  t.add_row({"TOTAL", Table::num(total, 3), ""});
  t.print();

  std::uint64_t locks = 0;
  for (const auto& ps : ctx.stats())
    locks += ps.lock_acquires[static_cast<int>(Phase::kTreeBuild)];
  std::printf("tree-build lock acquisitions: %llu\n",
              static_cast<unsigned long long>(locks));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ptb;
  Cli cli(argc, argv);
  const int n = cli.get_int("n", 32768, "number of bodies", 1);
  const int threads = cli.get_int("threads", 4, "worker threads", 1, kMaxNativeThreads);
  const int steps = cli.get_int("steps", 8, "time-steps", 0);
  const std::string alg = cli.get_string("algorithm", "SPACE",
                                         algorithm_names_joined().c_str());
  const double theta = cli.get_double("theta", 1.0, "opening criterion", 0.0);
  cli.finish();

  BHConfig cfg;
  cfg.n = n;
  cfg.theta = theta;
  AppState st = make_app_state(cfg, threads);
  std::printf("galaxy_sim: n=%d threads=%d steps=%d algorithm=%s theta=%.2f\n\n", n,
              threads, steps, alg.c_str(), theta);
  const EnergyReport e0 = total_energy(st.bodies, cfg.eps);
  std::printf("initial energy: T=%.4f U=%.4f E=%.4f (virial ratio %.2f)\n\n", e0.kinetic,
              e0.potential, e0.total(), e0.virial_ratio());

  run(algorithm_from_name(alg), st, threads, steps);

  // Physics sanity: energy drift over the run.
  const EnergyReport e1 = total_energy(st.bodies, st.cfg.eps);
  std::printf("\nfinal energy:   T=%.4f U=%.4f E=%.4f (drift %.2f%%)\n", e1.kinetic,
              e1.potential, e1.total(),
              100.0 * relative_drift(e0.total(), e1.total()));
  return 0;
}
