// Performance portability explorer: run one problem configuration across all
// five simulated platforms x all five tree-building algorithms and print the
// portability matrix the paper's conclusions are about ("no single version
// always delivers absolutely the best performance on all platforms").
//
//   ./examples/platform_explorer --n 8192 --procs 16
#include <cstdio>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace ptb;
  Cli cli(argc, argv);
  const int n = cli.get_int("n", 8192, "number of bodies", 1);
  const int np = cli.get_int("procs", 16, "simulated processors", 1, kMaxSimProcs);
  const int steps = cli.get_int("steps", 2, "measured time-steps", 1);
  cli.finish();

  std::printf("platform_explorer: n=%d, %d simulated processors, %d measured steps\n\n",
              n, np, steps);

  ExperimentRunner runner;
  const std::vector<std::string> platforms = {"challenge", "origin2000", "typhoon0_sc",
                                              "typhoon0_hlrc", "paragon"};

  Table t("whole-application speedup (rows: platform, columns: algorithm)");
  t.set_header({"platform", "ORIG", "LOCAL", "UPDATE", "PARTREE", "SPACE", "best"});
  for (const auto& platform : platforms) {
    std::vector<std::string> row = {platform};
    double best = 0.0;
    std::string best_name;
    for (Algorithm alg : all_algorithms()) {
      ExperimentSpec spec;
      spec.platform = platform;
      spec.algorithm = alg;
      spec.n = n;
      spec.nprocs = np;
      spec.warmup_steps = 1;
      spec.measured_steps = steps;
      const ExperimentResult r = runner.run(spec);
      row.push_back(fmt_speedup(r.speedup));
      if (r.speedup > best) {
        best = r.speedup;
        best_name = algorithm_name(alg);
      }
    }
    row.push_back(best_name);
    t.add_row(row);
  }
  t.print();

  std::printf(
      "\nReading guide: on the hardware-coherent machines (top rows) the\n"
      "algorithms are close; on the SVM machines (bottom rows) only SPACE —\n"
      "the paper's contribution — delivers a real speedup. SPACE is the most\n"
      "performance-portable choice overall.\n");
  return 0;
}
