// Simulator parts: the same application code charged to virtual clocks.
//
// sim-paper runs three (platform, builder) cells the way the paper's tables
// use the simulator: one sequential baseline plus one p=16 parallel run,
// each 1 warm-up + 1 measured step. Each cell is one operation: its
// accelerations are checked against direct summation, its virtual results
// must repeat bit for bit within the run, and run.py compares them with the
// values recorded for the default seed.
//
// sim-observed runs two cells through ExperimentRunner::run with observers
// off and with all five attached, after the runner's sequential baseline;
// an observed run must leave every virtual result bit-identical, report no
// race, and keep the anatomy ledger exact.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bh/generate.hpp"
#include "common.hpp"
#include "harness/app.hpp"
#include "harness/experiment.hpp"
#include "platform/spec.hpp"
#include "rt/native_rt.hpp"
#include "sim/sim_rt.hpp"
#include "treebuild/dispatch.hpp"

namespace perfbench {
namespace {

using ptb::Algorithm;

constexpr int kProcs = 16;
// A simulator set-up takes only milliseconds, and its speed on a shared
// host switches between states lasting tens of milliseconds; so set-ups are
// timed this many times before every operation, spread over the whole run.
constexpr int kSetupReps = 6;
const ptb::RunConfig kSteps{1, 1};  // warm-up, measured

struct Cell {
  const char* name;  // static: used as a span category
  const char* platform;
  Algorithm alg;
};

constexpr Cell kPaperCells[] = {
    {"challenge.SPACE", "challenge", Algorithm::kSpace},   // bus, lock-free
    {"origin2000.RADIX", "origin2000", Algorithm::kRadix}, // directory, atomics + sort
    {"paragon.ORIG", "paragon", Algorithm::kOrig},         // HLRC pages, lock dilation
};
constexpr Cell kObservedCells[] = {
    {"challenge.ORIG", "challenge", Algorithm::kOrig},
    {"paragon.SPACE", "paragon", Algorithm::kSpace},
};

/// Simulated body-steps of one run (parallel or sequential), warm-up included.
double run_body_steps(int n) {
  return static_cast<double>(n) * (kSteps.warmup_steps + kSteps.measured_steps);
}

/// Virtual results of a run as canonical JSON: equal strings <=> bit-equal.
std::string virtual_json(const ptb::RunResult& run, const ptb::MemProcStats& mem,
                         double baseline_s, std::uint64_t interactions) {
  std::string s = "{\"total_ns\": ";
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += buf;
  };
  num(run.total_ns);
  s += ", \"baseline_s\": ";
  num(baseline_s);
  s += ", \"phase_ns\": [";
  for (int ph = 0; ph < ptb::kNumPhases; ++ph) {
    if (ph > 0) s += ", ";
    num(run.phase_ns[static_cast<std::size_t>(ph)]);
  }
  s += "], \"proc_phase_ns\": [";
  for (std::size_t p = 0; p < run.proc_stats.size(); ++p) {
    for (int ph = 0; ph < ptb::kNumPhases; ++ph) {
      if (p + static_cast<std::size_t>(ph) > 0) s += ", ";
      num(run.proc_stats[p].phase_ns[static_cast<std::size_t>(ph)]);
    }
  }
  s += "]";
  for (const ptb::MemCounterDesc& c : ptb::kMemCounters) {
    s += std::string(", \"mem.") + c.metric + "\": ";
    num(static_cast<double>(mem.*c.field));
  }
  s += ", \"interactions\": ";
  num(static_cast<double>(interactions));
  s += "}";
  return s;
}

struct SyncCounts {
  std::uint64_t lock_acquires = 0, barriers = 0, fetch_adds = 0;
};

SyncCounts sync_counts(const std::vector<ptb::ProcStats>& stats) {
  SyncCounts c;
  for (const auto& ps : stats) {
    for (std::uint64_t v : ps.lock_acquires) c.lock_acquires += v;
    c.barriers += ps.barriers;
    c.fetch_adds += ps.fetch_adds;
  }
  return c;
}

/// One parallel cell on SimContext + run_simulation over the benchmark's
/// bodies. `bodies` are left as the run leaves them.
struct SimRun {
  ptb::RunResult run;
  ptb::MemProcStats mem;
  std::uint64_t interactions = 0;
};

SimRun simulate(const ptb::PlatformSpec& platform, Algorithm alg, ptb::Bodies& bodies,
                const ptb::BHConfig& cfg) {
  ptb::AppState st;
  st.cfg = cfg;
  st.init(bodies, kProcs);
  ptb::SimContext ctx(platform, kProcs, kSimBackend, false, false);
  SimRun out;
  ptb::with_builder(alg, st,
                    [&](auto& b) { out.run = ptb::run_simulation(ctx, st, b, kSteps); });
  for (int p = 0; p < kProcs; ++p) {
    const ptb::MemProcStats& m = ctx.mem().proc_stats(p);
    for (const ptb::MemCounterDesc& c : ptb::kMemCounters) out.mem.*c.field += m.*c.field;
  }
  for (std::uint64_t v : st.interactions) out.interactions += v;
  bodies = std::move(st.bodies);
  return out;
}

/// The application alone: the same builder and steps on one native thread.
void app_only(Algorithm alg, const ptb::Bodies& bodies, const ptb::BHConfig& cfg) {
  ptb::AppState st;
  st.cfg = cfg;
  st.init(bodies, 1);
  ptb::NativeContext ctx(1);
  ptb::with_builder(alg, st, [&](auto& b) { ptb::run_simulation(ctx, st, b, kSteps); });
}

/// Accelerations of the last force phase against direct summation. The run
/// ends with an integrate step, so positions are rewound by dt * vel first.
ForceErrors last_force_errors(const ForceCheck& fc, ptb::Bodies bodies,
                              const ptb::BHConfig& cfg) {
  for (ptb::Body& b : bodies) b.pos -= cfg.dt * b.vel;
  return fc.errors(bodies, cfg.eps);
}

/// One set-up of a simulator workload: input generation plus the
/// construction of each cell's AppState and SimContext; returns the inputs.
/// Cell i runs on input_seed(seed, i): the first cell on the seed's own
/// input, the others on independent ones (so the force-error p99, which
/// varies ~10% between realizations, pools several).
template <std::size_t N>
std::vector<ptb::Bodies> sim_setup(const Cell (&cells)[N], int n, std::uint64_t seed) {
  std::vector<ptb::Bodies> inputs;
  for (std::size_t i = 0; i < N; ++i) {
    const std::uint64_t s = input_seed(seed, static_cast<int>(i));
    inputs.push_back(ptb::make_plummer(n, s));
    ptb::AppState st;
    st.cfg = bh_config(n, s);
    st.init(inputs.back(), kProcs);
    const ptb::PlatformSpec platform = ptb::PlatformSpec::by_name(cells[i].platform);
    ptb::SimContext ctx(platform, kProcs, kSimBackend, false, false);
  }
  return inputs;
}

/// Times kSetupReps set-ups into `t`.
template <std::size_t N>
void time_setups(const Cell (&cells)[N], int n, std::uint64_t seed, std::vector<double>& t) {
  for (int rep = 0; rep < kSetupReps; ++rep)
    t.push_back(timed([&] { sim_setup(cells, n, seed); }));
}

/// sim-paper: every operation simulates the next cell in rotation, so a
/// chunk may end between cells.
class SimPaper final : public Part {
 public:
  SimPaper(const Options& o, SpanLog& spans)
      : o_(o), spans_(spans), n_(o.sizes.paper_n), fc_(n_, 1024, o.seed), cells_(kCells) {
    setups_.push_back(timed([&] { inputs_ = sim_setup(kPaperCells, n_, o.seed); }));
  }

  void chunk(int, double seconds) override {
    const auto m0 = Clock::now();
    for (int j = 0; within_budget(m0, j, 1, seconds); ++j) cell_op(next_++ % kCells);
  }

  Result finish() override {
    // Virtual results for run.py's comparison with the recorded values.
    std::string extra = "\"cells\": {";
    for (std::size_t i = 0; i < kCells; ++i) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "\"ops\": %" PRIu64 ", \"failed\": %" PRIu64 ", ",
                    cells_[i].ops, cells_[i].failed);
      extra += std::string(i > 0 ? ", " : "") + "\"" + kPaperCells[i].name + "\": {" + buf +
               "\"virtual\": " + cells_[i].virt + "}";
    }
    res_.extra_json = extra + "}";

    res_.setup_s = median(setups_);
    if (!o_.trace) {
      double host_s = 0;  // sum of per-cell medians
      for (const PerCell& pc : cells_) host_s += median(pc.total);
      // Each cell: the parallel run and its sequential baseline.
      res_.metric("host_us_per_body_step", host_s * 1e6 / (kCells * 2 * run_body_steps(n_)));
      return res_;
    }
    res_.metric("bh.sim_force_err_p99", p99(pooled_errs_));
    for (std::size_t i = 0; i < kCells; ++i) {
      const PerCell& pc = cells_[i];
      const std::string c = kPaperCells[i].name;
      const double host = median(pc.host), app = median(pc.app), ideal = median(pc.ideal);
      const ptb::MemProcStats& m = pc.first.mem;
      const double accesses = static_cast<double>(m.reads + m.writes);
      res_.metric("sim." + c + ".host_s", host);
      res_.metric("sim." + c + ".baseline_host_s", median(pc.baseline));
      res_.metric("sim." + c + ".app_host_s", app);
      res_.metric("sim." + c + ".sched_host_s", ideal - app);
      res_.metric("mem." + c + ".host_s", host - ideal);
      res_.metric("mem." + c + ".accesses", accesses);
      res_.metric("mem." + c + ".misses", static_cast<double>(m.read_misses + m.write_misses));
      res_.metric("mem." + c + ".remote_misses", static_cast<double>(m.remote_misses));
      res_.metric("mem." + c + ".page_faults", static_cast<double>(m.page_faults));
      res_.metric("mem." + c + ".ns_per_access",
                  accesses > 0 ? (host - ideal) * 1e9 / accesses : 0);
      res_.metric("sync." + c + ".lock_acquires", static_cast<double>(pc.sync.lock_acquires));
      res_.metric("sync." + c + ".barriers", static_cast<double>(pc.sync.barriers));
      res_.metric("sync." + c + ".fetch_adds", static_cast<double>(pc.sync.fetch_adds));
      res_.metric("bh." + c + ".interactions", static_cast<double>(pc.first.interactions));
      res_.metric("sim." + c + ".virtual_ns", pc.first.run.total_ns);
    }
    return res_;
  }

 private:
  static constexpr std::size_t kCells = std::size(kPaperCells);

  struct PerCell {
    std::string virt;  // first operation's virtual results
    std::uint64_t ops = 0, failed = 0;
    std::vector<double> host, baseline, total, app, ideal;
    SimRun first;
    SyncCounts sync;
  };

  /// One operation: cell i's sequential baseline and parallel run, timed,
  /// then checked; traced, the ladder's rungs on the same input follow.
  void cell_op(std::size_t i) {
    const Cell& c = kPaperCells[i];
    PerCell& pc = cells_[i];
    time_setups(kPaperCells, n_, o_.seed, setups_);
    const ptb::BHConfig cfg = bh_config(n_, input_seed(o_.seed, static_cast<int>(i)));
    const ptb::PlatformSpec platform = ptb::PlatformSpec::by_name(c.platform);
    double baseline_virtual_s = 0;
    const double base_s = spans_.time(c.name, "sim.baseline", [&] {
      baseline_virtual_s = ptb::ExperimentRunner().sequential_seconds(
          c.platform, n_, cfg, kSteps.warmup_steps, kSteps.measured_steps);
    });
    ptb::Bodies bodies = inputs_[i];
    SimRun run;
    const double host_s = spans_.time(
        c.name, "sim.parallel", [&] { run = simulate(platform, c.alg, bodies, cfg); });
    pc.host.push_back(host_s);
    pc.baseline.push_back(base_s);
    pc.total.push_back(base_s + host_s);

    // Gates (untimed): physics, and bit-identical repeats within the run.
    const ForceErrors errs = last_force_errors(fc_, bodies, cfg);
    std::string why = force_gate(errs, n_);
    const std::string virt = virtual_json(run.run, run.mem, baseline_virtual_s, run.interactions);
    if (pc.ops == 0) {
      pc.virt = virt;
      pooled_errs_.insert(pooled_errs_.end(), errs.rel.begin(), errs.rel.end());
      pc.first = run;
      pc.sync = sync_counts(run.run.proc_stats);
    } else if (why.empty() && virt != pc.virt) {
      why = "virtual results differ between repeats";
    }
    ++pc.ops;
    if (!why.empty()) ++pc.failed;
    res_.op(why.empty() ? why : std::string(c.name) + ": " + why);

    if (o_.trace) {
      // Differential ladder on the same input: app alone (1 native
      // thread), + scheduler (ideal platform, p=16), + protocol (real).
      pc.app.push_back(
          spans_.time(c.name, "ladder.app", [&] { app_only(c.alg, inputs_[i], cfg); }));
      ptb::Bodies b2 = inputs_[i];
      pc.ideal.push_back(spans_.time(c.name, "ladder.ideal", [&] {
        simulate(ptb::PlatformSpec::ideal(), c.alg, b2, cfg);
      }));
    }
  }

  const Options o_;
  SpanLog& spans_;
  const int n_;
  const ForceCheck fc_;
  std::vector<ptb::Bodies> inputs_;
  std::vector<PerCell> cells_;
  std::vector<double> setups_, pooled_errs_;
  std::size_t next_ = 0;  // the next operation's cell
  Result res_;
};

enum Observer : unsigned { kTrace = 1, kRace = 2, kProf = 4, kSight = 8, kAnatomy = 16 };
constexpr unsigned kAllObservers = kTrace | kRace | kProf | kSight | kAnatomy;
struct ObserverName {
  unsigned bit;
  const char* name;  // static: used as a span name
};
constexpr ObserverName kObservers[] = {{kTrace, "trace"},
                                       {kRace, "race"},
                                       {kProf, "prof"},
                                       {kSight, "sight"},
                                       {kAnatomy, "anatomy"}};

ptb::ExperimentSpec observed_spec(const Cell& c, int n, std::uint64_t seed) {
  ptb::ExperimentSpec spec;
  spec.platform = c.platform;
  spec.algorithm = c.alg;
  spec.n = n;
  spec.nprocs = kProcs;
  spec.warmup_steps = kSteps.warmup_steps;
  spec.measured_steps = kSteps.measured_steps;
  spec.backend = kSimBackend;
  spec.bh = bh_config(n, seed);
  return spec;
}

/// One ExperimentRunner::run of `spec` with the given observers attached.
ptb::ExperimentResult observe(ptb::ExperimentRunner& runner, ptb::ExperimentSpec spec,
                              unsigned observers) {
  ptb::trace::Tracer tracer(kProcs, std::size_t{1} << 14);
  if (observers & kTrace) spec.tracer = &tracer;
  spec.race = (observers & kRace) != 0;
  spec.prof = (observers & kProf) != 0;
  spec.sight = (observers & kSight) != 0;
  spec.anatomy = (observers & kAnatomy) != 0;
  return runner.run(spec);
}

/// Observer gates: identical virtual results, no race, an exact ledger.
std::string observed_gate(const ptb::ExperimentResult& off, const ptb::ExperimentResult& on,
                          unsigned observers) {
  if (virtual_json(on.run, on.mem, on.seq_seconds, 0) !=
      virtual_json(off.run, off.mem, off.seq_seconds, 0))
    return "observed run's virtual results differ from the unobserved run";
  if ((observers & kRace) && (!on.race.enabled || on.race.races != 0))
    return "race report not empty";
  if (observers & kAnatomy) {
    const ptb::anatomy::Ledger& l = on.anatomy;
    const bool exact = l.enabled && l.total_ns == on.run.total_ns &&
                       l.sum_ns() == static_cast<double>(l.nprocs) * l.total_ns;
    if (!exact) return "anatomy ledger not exact";
  }
  return {};
}

/// sim-observed: every operation runs the next cell in rotation.
class SimObserved final : public Part {
 public:
  SimObserved(const Options& o, SpanLog& spans)
      : o_(o), spans_(spans), n_(o.sizes.observed_n), cells_(kCells) {}

  void chunk(int, double seconds) override {
    const auto m0 = Clock::now();
    for (int j = 0; within_budget(m0, j, 1, seconds); ++j) cell_op(next_++ % kCells);
  }

  Result finish() override {
    res_.setup_s = median(setups_);
    if (!o_.trace) {
      double host_s = 0;  // sum of per-cell medians
      for (const PerCell& pc : cells_) host_s += median(pc.total);
      // Each cell: the sequential baseline, the unobserved and the observed run.
      res_.metric("observed_host_us_per_body_step",
                  host_s * 1e6 / (kCells * 3 * run_body_steps(n_)));
      return res_;
    }
    for (std::size_t i = 0; i < kCells; ++i) {
      const PerCell& pc = cells_[i];
      const std::string c = std::string("observe.") + kObservedCells[i].name;
      const double off = median(pc.off);
      res_.metric(c + ".off_host_s", off);
      res_.metric(c + ".all_x", median(pc.all) / off);
      for (std::size_t k = 0; k < std::size(kObservers); ++k)
        res_.metric(c + "." + kObservers[k].name + "_x", median(pc.alone[k]) / off);
    }
    return res_;
  }

 private:
  static constexpr std::size_t kCells = std::size(kObservedCells);

  struct PerCell {
    std::vector<double> off, all, total;
    std::vector<std::vector<double>> alone =
        std::vector<std::vector<double>>(std::size(kObservers));
  };

  void cell_op(std::size_t i) {
    const Cell& c = kObservedCells[i];
    const ptb::ExperimentSpec spec =
        observed_spec(c, n_, input_seed(o_.seed, static_cast<int>(i)));
    PerCell& pc = cells_[i];
    time_setups(kObservedCells, n_, o_.seed, setups_);
    // A fresh runner each operation: its sequential baseline is simulated
    // and timed first, then cached, so the runs below time the parallel run
    // alone and the observer factors compare like with like.
    ptb::ExperimentRunner runner;
    const double t_base = spans_.time(c.name, "run.baseline", [&] {
      runner.sequential_seconds(spec.platform, n_, spec.bh, spec.warmup_steps,
                                spec.measured_steps);
    });
    ptb::ExperimentResult off, all;
    const double t_off =
        spans_.time(c.name, "run.observers_off", [&] { off = observe(runner, spec, 0); });
    const double t_all = spans_.time(c.name, "run.observers_all",
                                     [&] { all = observe(runner, spec, kAllObservers); });
    if (o_.plant == "observed" && !planted_) {
      all.run.total_ns += 1.0;  // one perturbed observed run
      planted_ = true;
    }
    std::string why = observed_gate(off, all, kAllObservers);
    pc.off.push_back(t_off);
    pc.all.push_back(t_all);
    pc.total.push_back(t_base + t_off + t_all);
    if (o_.trace) {
      for (std::size_t k = 0; k < std::size(kObservers); ++k) {
        ptb::ExperimentResult one;
        pc.alone[k].push_back(spans_.time(c.name, kObservers[k].name, [&] {
          one = observe(runner, spec, kObservers[k].bit);
        }));
        if (why.empty()) why = observed_gate(off, one, kObservers[k].bit);
      }
    }
    res_.op(why.empty() ? why : std::string(c.name) + ": " + why);
  }

  const Options o_;
  SpanLog& spans_;
  const int n_;
  std::vector<PerCell> cells_;
  std::vector<double> setups_;
  std::size_t next_ = 0;  // the next operation's cell
  bool planted_ = false;
  Result res_;
};

}  // namespace

std::unique_ptr<Part> sim_paper(const Options& o, SpanLog& spans) {
  return std::make_unique<SimPaper>(o, spans);
}

std::unique_ptr<Part> sim_observed(const Options& o, SpanLog& spans) {
  return std::make_unique<SimObserved>(o, spans);
}

}  // namespace perfbench
