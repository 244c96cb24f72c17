// Force-kernel microbenchmark: host-side cost of the force phase's two
// layers, and the end-to-end payoff of the fast paths.
//
// Part 1 (micro): synthetic interaction lists at three body counts, each
// evaluated by the reference scalar loop (the in-walk accumulation shape)
// and by the blocked 8-wide kernel (bh::evaluate) — best-of-3 timed passes,
// reporting interactions/second. The two must agree bit-for-bit on the
// accumulated acceleration (the kernel folds in list order; see
// docs/PERF.md "The interaction-list oracle").
//
// Part 2 (e2e): one full ptbsim-shaped experiment (challenge, SPACE) timed
// four ways — {walk, kernel} × {fibers, parallel} — asserting that every
// virtual time and memory counter is bit-identical across all four, and
// reporting the kernel, parallel-backend and combined host-time speedups.
// The combined number is the tracked headline in BENCH_force.json
// (tools/check_regression.py force).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bh/forcekernel.hpp"
#include "support/cli.hpp"

namespace {

using namespace ptb;
using namespace ptb::bench;

struct ScopedForceSlowpath {
  explicit ScopedForceSlowpath(bool on) {
    if (on)
      ::setenv("PTB_FORCE_SLOWPATH", "1", 1);
    else
      ::unsetenv("PTB_FORCE_SLOWPATH");
  }
  ~ScopedForceSlowpath() { ::unsetenv("PTB_FORCE_SLOWPATH"); }
};

/// The in-walk accumulation shape: one fused subtract/square/rsqrt/fold per
/// partner, exactly what detail::force_walk does per interaction.
Vec3 scalar_evaluate(const bh::InteractionList& il, const Vec3& pos, double eps2) {
  Vec3 acc{};
  for (std::size_t i = 0; i < il.size(); ++i) {
    const double dx = il.x()[i] - pos.x;
    const double dy = il.y()[i] - pos.y;
    const double dz = il.z()[i] - pos.z;
    const double r2 = dx * dx + dy * dy + dz * dz + eps2;
    const double inv = 1.0 / (r2 * std::sqrt(r2));
    const double s = il.m()[i] * inv;
    acc.x += dx * s;
    acc.y += dy * s;
    acc.z += dz * s;
  }
  return acc;
}

struct MicroResult {
  double seconds = 0.0;
  std::uint64_t interactions = 0;
  Vec3 acc{};  // checksum: both paths must produce the same bits
};

MicroResult run_micro(const bh::InteractionList& il, bool batched, int reps) {
  const Vec3 pos{0.1, -0.2, 0.3};
  const double eps2 = 0.05 * 0.05;
  MicroResult best;
  // One untimed warm-up pass, then best-of-3 timed passes.
  for (int pass = -1; pass < 3; ++pass) {
    WallTimer wall;
    Vec3 acc{};
    for (int rep = 0; rep < reps; ++rep)
      acc += batched ? bh::evaluate(il, pos, eps2) : scalar_evaluate(il, pos, eps2);
    const double s = wall.seconds();
    if (pass < 0) continue;
    best.acc = acc;
    if (best.seconds == 0.0 || s < best.seconds) best.seconds = s;
  }
  best.interactions = static_cast<std::uint64_t>(il.size()) * static_cast<std::uint64_t>(reps);
  return best;
}

struct E2eResult {
  double host_seconds = 0.0;
  ExperimentResult res;
};

E2eResult run_e2e(int n, int nprocs, bool slowpath, SimBackend backend, int workers) {
  ScopedForceSlowpath env(slowpath);
  ExperimentRunner runner;  // fresh runner: no cross-path baseline cache
  ExperimentSpec spec;
  spec.platform = "challenge";
  spec.algorithm = Algorithm::kSpace;
  spec.n = n;
  spec.nprocs = nprocs;
  spec.warmup_steps = 1;
  spec.measured_steps = 1;
  spec.backend = backend;
  spec.sim_workers = workers;
  E2eResult out;
  WallTimer wall;
  out.res = runner.run(spec);
  out.host_seconds = wall.seconds();
  return out;
}

bool virtually_identical(const ExperimentResult& a, const ExperimentResult& b) {
  return a.par_seconds == b.par_seconds && a.seq_seconds == b.seq_seconds &&
         a.treebuild_seconds == b.treebuild_seconds && a.mem.reads == b.mem.reads &&
         a.mem.read_misses == b.mem.read_misses &&
         a.mem.remote_misses == b.mem.remote_misses &&
         a.mem.invalidations_sent == b.mem.invalidations_sent &&
         a.mem.page_faults == b.mem.page_faults &&
         a.metrics.sum("forces.interactions") == b.metrics.sum("forces.interactions");
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int reps = cli.get_int("reps", 2000, "micro-loop repetitions", 1);
  const int n = cli.get_int("n", 16384, "e2e body count", 1);
  const int nprocs = cli.get_int("procs", 16, "e2e processor count", 1, kMaxSimProcs);
  const int workers = cli.get_int(
      "workers", 0, "host workers for the parallel backend (0 = auto)", 0, kMaxSimWorkers);
  const bool skip_e2e = cli.get_bool("micro-only", false, "skip the e2e experiments");
  const std::string json_path =
      cli.get_string("json", "BENCH_force.json", "JSON output path (empty disables)");
  cli.finish();

  banner("force micro", "host-side interactions/sec of the force-evaluation hot path");

  JsonReport json;
  json.set_path(json_path);
  json.context("git_sha", support::git_sha()).context("build_type", support::build_type());

  // Deterministic synthetic partner cloud (xorshift), the same across paths.
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<double>(rng % 100000) / 50000.0 - 1.0;
  };

  std::printf("%-10s %9s %14s %16s %9s\n", "list_len", "path", "host_ms",
              "interactions/s", "speedup");
  for (const std::size_t len : {std::size_t{1024}, std::size_t{8192}, std::size_t{65536}}) {
    bh::InteractionList il;
    for (std::size_t i = 0; i < len; ++i)
      il.push_body(Vec3{next(), next(), next()}, 1.0 + 0.5 * next());
    // Scale reps down with list length so each cell does similar total work.
    const int cell_reps = std::max(1, static_cast<int>(
                                          static_cast<std::size_t>(reps) * 1024 / len));
    const MicroResult scalar = run_micro(il, /*batched=*/false, cell_reps);
    const MicroResult batched = run_micro(il, /*batched=*/true, cell_reps);
    if (scalar.acc.x != batched.acc.x || scalar.acc.y != batched.acc.y ||
        scalar.acc.z != batched.acc.z) {
      std::fprintf(stderr, "FAIL: scalar and batched evaluation disagree at len=%zu\n",
                   len);
      return 1;
    }
    const double scalar_rate = static_cast<double>(scalar.interactions) / scalar.seconds;
    const double batched_rate =
        static_cast<double>(batched.interactions) / batched.seconds;
    for (const char* path : {"scalar", "batched"}) {
      const MicroResult& r = std::string(path) == "batched" ? batched : scalar;
      const double rate = std::string(path) == "batched" ? batched_rate : scalar_rate;
      std::printf("%-10zu %9s %14.3f %16.0f %8.2fx\n", len, path, r.seconds * 1e3, rate,
                  rate / scalar_rate);
      json.row()
          .field("bench", std::string("force_micro"))
          .field("list_len", static_cast<std::int64_t>(len))
          .field("path", std::string(path))
          .field("host_seconds", r.seconds)
          .field("interactions_per_sec", rate);
    }
  }

  if (!skip_e2e) {
    std::printf("\ne2e: challenge / SPACE / n=%d / p=%d — {walk,kernel} x {fibers,parallel}\n",
                n, nprocs);
    // Slowest first so later runs are not flattered by host warm-up.
    const E2eResult walk_fib = run_e2e(n, nprocs, /*slowpath=*/true, SimBackend::kFibers, 0);
    const E2eResult kern_fib = run_e2e(n, nprocs, /*slowpath=*/false, SimBackend::kFibers, 0);
    const E2eResult kern_par =
        run_e2e(n, nprocs, /*slowpath=*/false, SimBackend::kParallel, workers);
    const bool identical = virtually_identical(walk_fib.res, kern_fib.res) &&
                           virtually_identical(walk_fib.res, kern_par.res);
    const double speedup_kernel = walk_fib.host_seconds / kern_fib.host_seconds;
    const double speedup_parallel = kern_fib.host_seconds / kern_par.host_seconds;
    const double speedup_combined = walk_fib.host_seconds / kern_par.host_seconds;
    std::printf("  walk+fibers    %8.3fs   (reference)\n", walk_fib.host_seconds);
    std::printf("  kernel+fibers  %8.3fs   %5.2fx vs walk\n", kern_fib.host_seconds,
                speedup_kernel);
    std::printf("  kernel+parallel%8.3fs   %5.2fx vs kernel+fibers, %5.2fx combined\n",
                kern_par.host_seconds, speedup_parallel, speedup_combined);
    std::printf("  virtual results %s\n", identical ? "identical" : "DIVERGED");
    struct Row {
      const char* path;
      const char* backend;
      const E2eResult* r;
    };
    for (const Row row : {Row{"walk", "fibers", &walk_fib}, Row{"kernel", "fibers", &kern_fib},
                          Row{"kernel", "parallel", &kern_par}}) {
      json.row()
          .field("bench", std::string("force_e2e"))
          .field("platform", std::string("challenge"))
          .field("algorithm", std::string("SPACE"))
          .field("n", static_cast<std::int64_t>(n))
          .field("procs", static_cast<std::int64_t>(nprocs))
          .field("path", std::string(row.path))
          .field("backend", std::string(row.backend))
          .field("host_seconds", row.r->host_seconds);
    }
    json.row()
        .field("bench", std::string("force_e2e_summary"))
        .field("n", static_cast<std::int64_t>(n))
        .field("procs", static_cast<std::int64_t>(nprocs))
        .field("workers", static_cast<std::int64_t>(workers))
        .field("host_cpus", static_cast<std::int64_t>(std::thread::hardware_concurrency()))
        .field("speedup_kernel", speedup_kernel)
        .field("speedup_parallel", speedup_parallel)
        .field("speedup_combined", speedup_combined)
        .field("virtual_results_identical", std::string(identical ? "yes" : "no"));
    if (!identical) {
      json.save();
      std::fprintf(stderr,
                   "FAIL: walk/kernel or fibers/parallel disagree on virtual results\n");
      return 1;
    }
  }

  json.save();
  return 0;
}
