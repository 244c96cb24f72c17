// Memory-system microbenchmark: host-side cost of the per-access charge path.
//
// Part 1 (micro): drives each protocol model directly with the access shapes
// the force phase produces — hot scalar re-reads (tree nodes), strided span
// walks over a body arena (leaf interaction lists) — and reports host-side
// charges/second for the fast path and for the PTB_MEM_SLOWPATH=1 reference
// path (virtual dispatch, no line lookasides, spans decayed to per-element
// calls).
//
// Part 2 (e2e): one full ptbsim-shaped experiment (challenge, SPACE) timed
// on both paths, asserting that every virtual time and memory counter is
// bit-identical — the equivalence the fast path is licensed by (see
// tests/test_mem_equiv.cpp for the exhaustive matrix) — and reporting the
// host-time speedup. The slow path is architecturally the pre-optimization
// charge path, so this speedup is the tracked number in BENCH_mem.json.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mem/model.hpp"
#include "platform/spec.hpp"
#include "support/cli.hpp"

namespace {

using namespace ptb;
using namespace ptb::bench;

struct ScopedSlowpath {
  explicit ScopedSlowpath(bool on) {
    if (on)
      ::setenv("PTB_MEM_SLOWPATH", "1", 1);
    else
      ::unsetenv("PTB_MEM_SLOWPATH");
  }
  ~ScopedSlowpath() { ::unsetenv("PTB_MEM_SLOWPATH"); }
};

struct MicroResult {
  double seconds = 0.0;
  std::uint64_t charges = 0;  // model calls issued
  std::uint64_t reads = 0;    // accesses the model accounted (checksum)
  std::uint64_t cost = 0;     // summed virtual cost (checksum)
};

/// Body-arena shaped region: 16k 96-byte records, ~1.5 MB (bigger than the
/// challenge cache, so the miss path stays exercised).
constexpr std::size_t kRecord = 96;
constexpr std::size_t kRecords = 16384;

/// Hot scalar re-reads: the tree-node pattern. A small working set of
/// addresses read over and over — lookaside hits, cache hits.
MicroResult run_scalar(MemModel& m, const char* arena, int reps) {
  MicroResult r;
  WallTimer wall;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < 512; ++i)
      r.cost += m.on_read_shared(0, arena + i * kRecord, 72);
  }
  r.seconds = wall.seconds();
  r.charges = static_cast<std::uint64_t>(reps) * 512;
  r.reads = m.proc_stats(0).reads;
  return r;
}

/// Strided span walks: the leaf interaction-list pattern. Each call charges
/// a contiguous run of records in one span.
MicroResult run_span(MemModel& m, const char* arena, int reps) {
  MicroResult r;
  constexpr std::size_t kRun = 32;  // records per span (typical leaf run)
  WallTimer wall;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t start = 0; start + kRun <= kRecords; start += kRun)
      r.cost += m.on_read_shared_span(0, arena + start * kRecord, 48, kRecord, kRun);
  }
  r.seconds = wall.seconds();
  r.charges = static_cast<std::uint64_t>(reps) * (kRecords / kRun) * kRun;
  r.reads = m.proc_stats(0).reads;
  return r;
}

MicroResult run_shape(const PlatformSpec& spec, const std::vector<char>& arena,
                      const std::string& shape, bool slowpath, int reps) {
  ScopedSlowpath env(slowpath);
  std::unique_ptr<MemModel> m = make_mem_model(spec, 16);
  // The fast configuration matches what the simulator's fiber backend runs:
  // serialized execution → eager-invalidation caches (sim_rt.cpp).
  if (!slowpath) m->set_serialized(true);
  m->register_region(arena.data(), arena.size(), HomePolicy::kInterleavedBlock, 0,
                     "bodies");
  auto* fn = shape == "scalar" ? &run_scalar : &run_span;
  // Warm the protocol state and host caches once, untimed; then best-of-3
  // timed passes — single passes are only a few milliseconds and at the
  // mercy of scheduler preemption. Checksums accumulate over every pass so
  // the fast/slow comparison still covers all the work done.
  (*fn)(*m, arena.data(), 1);
  MicroResult best;
  for (int pass = 0; pass < 3; ++pass) {
    MicroResult r = (*fn)(*m, arena.data(), reps);
    best.cost += r.cost;
    best.charges = r.charges;
    if (best.seconds == 0.0 || r.seconds < best.seconds) best.seconds = r.seconds;
  }
  best.reads = m->proc_stats(0).reads;
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int reps = cli.get_int("reps", 200, "micro-loop repetitions", 1);
  const int n = cli.get_int("n", 16384, "e2e body count", 1);
  const int nprocs = cli.get_int("procs", 16, "e2e processor count", 1, kMaxSimProcs);
  const bool skip_e2e = cli.get_bool("micro-only", false, "skip the e2e experiment");
  const std::string json_path =
      cli.get_string("json", "BENCH_mem.json", "JSON output path (empty disables)");
  cli.finish();

  banner("mem micro", "host-side charges/sec of the memory-system hot path");

  JsonReport json;
  json.set_path(json_path);
  json.context("git_sha", support::git_sha()).context("build_type", support::build_type());

  std::vector<char> arena(kRecords * kRecord, 1);

  std::printf("%-14s %-7s %9s %14s %14s %9s\n", "platform", "shape", "path",
              "host_ms", "charges/s", "speedup");
  for (const char* platform : {"ideal", "challenge", "typhoon0_hlrc"}) {
    const PlatformSpec spec = PlatformSpec::by_name(platform);
    for (const char* shape : {"scalar", "span"}) {
      MicroResult fast;
      MicroResult slow;
      // Slow first so the fast numbers are not flattered by host warm-up.
      slow = run_shape(spec, arena, shape, /*slowpath=*/true, reps);
      fast = run_shape(spec, arena, shape, /*slowpath=*/false, reps);
      if (fast.reads != slow.reads || fast.cost != slow.cost) {
        std::fprintf(stderr,
                     "FAIL: %s/%s fast and slow paths disagree "
                     "(reads %llu vs %llu, cost %llu vs %llu)\n",
                     platform, shape, (unsigned long long)fast.reads,
                     (unsigned long long)slow.reads, (unsigned long long)fast.cost,
                     (unsigned long long)slow.cost);
        return 1;
      }
      const double fast_rate = static_cast<double>(fast.charges) / fast.seconds;
      const double slow_rate = static_cast<double>(slow.charges) / slow.seconds;
      for (const char* path : {"fast", "slowpath"}) {
        const MicroResult& r = std::string(path) == "fast" ? fast : slow;
        const double rate = std::string(path) == "fast" ? fast_rate : slow_rate;
        std::printf("%-14s %-7s %9s %14.3f %14.0f %8.2fx\n", platform, shape, path,
                    r.seconds * 1e3, rate,
                    std::string(path) == "fast" ? fast_rate / slow_rate : 1.0);
        json.row()
            .field("bench", std::string("mem_micro"))
            .field("platform", std::string(platform))
            .field("shape", std::string(shape))
            .field("path", std::string(path))
            .field("host_seconds", r.seconds)
            .field("charges_per_sec", rate)
            .field("accesses_accounted", static_cast<std::int64_t>(r.reads));
      }
    }
  }

  if (!skip_e2e) {
    std::printf("\ne2e: challenge / SPACE / n=%d / p=%d (tree build + force phases)\n",
                n, nprocs);
    double host_fast = 0.0;
    double host_slow = 0.0;
    ExperimentResult res_fast;
    ExperimentResult res_slow;
    for (const bool slow : {true, false}) {  // slow first: same warm-up logic
      ScopedSlowpath env(slow);
      ExperimentRunner runner;  // fresh runner: no cross-path baseline cache
      ExperimentSpec spec;
      spec.platform = "challenge";
      spec.algorithm = Algorithm::kSpace;
      spec.n = n;
      spec.nprocs = nprocs;
      spec.warmup_steps = 1;
      spec.measured_steps = 1;
      WallTimer wall;
      ExperimentResult r = runner.run(spec);
      (slow ? host_slow : host_fast) = wall.seconds();
      (slow ? res_slow : res_fast) = std::move(r);
    }
    const bool identical =
        res_fast.par_seconds == res_slow.par_seconds &&
        res_fast.seq_seconds == res_slow.seq_seconds &&
        res_fast.treebuild_seconds == res_slow.treebuild_seconds &&
        res_fast.mem.reads == res_slow.mem.reads &&
        res_fast.mem.read_misses == res_slow.mem.read_misses &&
        res_fast.mem.remote_misses == res_slow.mem.remote_misses &&
        res_fast.mem.invalidations_sent == res_slow.mem.invalidations_sent &&
        res_fast.mem.page_faults == res_slow.mem.page_faults;
    const double speedup = host_slow / host_fast;
    std::printf("  fast %.3fs   slowpath %.3fs   speedup %.2fx   virtual results %s\n",
                host_fast, host_slow, speedup, identical ? "identical" : "DIVERGED");
    std::printf("  charged accesses: %llu reads (%llu misses), %llu writes\n",
                (unsigned long long)res_fast.mem.reads,
                (unsigned long long)res_fast.mem.read_misses,
                (unsigned long long)res_fast.mem.writes);
    json.row()
        .field("bench", std::string("mem_e2e"))
        .field("platform", std::string("challenge"))
        .field("algorithm", std::string("SPACE"))
        .field("n", static_cast<std::int64_t>(n))
        .field("procs", static_cast<std::int64_t>(nprocs))
        .field("host_seconds_fast", host_fast)
        .field("host_seconds_slowpath", host_slow)
        .field("speedup", speedup)
        .field("virtual_results_identical", std::string(identical ? "yes" : "no"));
    if (!identical) {
      json.save();
      std::fprintf(stderr, "FAIL: fast and slow paths disagree on virtual results\n");
      return 1;
    }
  }

  json.save();
  return 0;
}
