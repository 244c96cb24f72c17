// Shared plumbing of the end-to-end benchmark: the wall clock, the result
// record every workload fills (operations attempted/failed + named metrics),
// the bench-side span log, and the physics check against direct summation.
//
// Everything here lives outside the library: the benchmark times each layer
// from the outside, around the public calls into it.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bh/body.hpp"
#include "bh/config.hpp"
#include "sim/sim_rt.hpp"
#include "trace/trace.hpp"

namespace perfbench {

/// Problem sizes of one workload. Every workload runs the same four parts
/// (native-force, native-build, sim-paper, sim-observed); the sizes set
/// their bodies.
struct Sizes {
  int native_n = 0;    // native-force and native-build
  int paper_n = 0;     // sim-paper cells
  int observed_n = 0;  // sim-observed cells
};

struct Options {
  std::string workload;
  Sizes sizes;
  std::uint64_t seed = 12345;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: tiny sizes, same code paths.
  bool tiny = false;
  /// Planted fault for the self-test: "", "accel" or "observed".
  std::string plant;
  /// Where the traced run writes its spans (Chrome trace JSON).
  std::string spans_path;
};

/// Threads of the native workloads and scheduler of the simulator ones
/// (stamped into every result's provenance).
inline constexpr int kNativeThreads = 2;
inline constexpr ptb::SimBackend kSimBackend = ptb::SimBackend::kFibers;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times one call, in seconds.
template <class F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// Measurement-loop condition: true for the first `min_items`, then while
/// one more item (at the average pace so far) would still end within
/// `seconds`.
inline bool within_budget(Clock::time_point t0, int done, int min_items, double seconds) {
  return done < min_items || seconds_since(t0) * (done + 1) / done <= seconds;
}

double median(std::vector<double> v);

/// One part's outcome: operations (a native step or a simulated cell)
/// attempted and failed, its set-up time, plus named metric values. Units
/// live in BENCHMARK.json; run.py attaches them.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons, for the log
  std::vector<std::pair<std::string, double>> metrics;
  /// Median of the part's set-ups, in seconds.
  double setup_s = 0;
  /// Extra JSON members (already serialized, without braces) for run.py,
  /// e.g. the virtual results it checks against the recorded ones.
  std::string extra_json;

  /// Counts one operation; `why` is empty when every check passed.
  void op(const std::string& why);
  void metric(const std::string& name, double value) { metrics.emplace_back(name, value); }
};

/// Spans recorded by the benchmark's own code around each call into the
/// library (phase calls, ExperimentRunner::run, ladder rungs). Kept in
/// memory, written once at the end. Off unless the run is traced; then a
/// single-track trace::Tracer with wall timestamps since the log's epoch.
class SpanLog {
 public:
  explicit SpanLog(bool on);
  /// Runs f, records [start, end) under `name` when on, returns seconds.
  template <class F>
  double time(const char* cat, const char* name, F&& f) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    if (tracer_) tracer_->span(0, cat, name, ns(t0), ns(t1));
    return std::chrono::duration<double>(t1 - t0).count();
  }
  /// Writes the Chrome trace JSON; false when the path cannot be written.
  bool write(const std::string& path) const;

 private:
  std::uint64_t ns(Clock::time_point t) const;
  std::unique_ptr<ptb::trace::Tracer> tracer_;
  Clock::time_point epoch_ = Clock::now();
};

/// Acceleration errors of a seeded sample of bodies against O(n^2) direct
/// summation with softening `eps`.
struct ForceErrors {
  /// |a - a_direct| / |a_direct| per sampled body (non-finite: +inf).
  std::vector<double> rel;
  /// Worst |a - a_direct| / max(|a_direct|, median sampled |a_direct|).
  /// Where a body's forces nearly cancel (at a cluster's centre) its own
  /// |a_direct| is tiny and its relative error says little about the tree,
  /// so the typical acceleration is the scale there instead.
  double worst_scaled = 0;
};

struct ForceCheck {
  std::vector<std::int32_t> sample;

  ForceCheck(int n, std::size_t count, std::uint64_t seed);
  ForceErrors errors(const ptb::Bodies& bodies, double eps) const;
};

/// p99 (nearest rank) of relative errors.
double p99(std::vector<double> errs);

/// Gate on a force check of an n-body system: empty when within the
/// tolerances measured at that size, else the reason.
std::string force_gate(const ForceErrors& e, int n);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Seed of a workload's k-th input: the run's seed itself for k = 0, an
/// independent stream for k > 0.
std::uint64_t input_seed(std::uint64_t seed, int k);

/// Common Barnes-Hut parameters of every workload (paper defaults).
ptb::BHConfig bh_config(int n, std::uint64_t seed);

/// One part of every workload. A run measures each part in kChunks chunks,
/// its chunks taking turns with the other parts', so that every part's
/// samples span the whole run: the host's speed drifts over seconds.
class Part {
 public:
  virtual ~Part() = default;
  /// Measures chunk k (0 <= k < kChunks) for about `seconds` (at least one
  /// item, whatever `seconds`).
  virtual void chunk(int k, double seconds) = 0;
  /// Operations, set-up time and metrics over every chunk.
  virtual Result finish() = 0;
};
inline constexpr int kChunks = 5;

std::unique_ptr<Part> native_force(const Options& o, SpanLog& spans);
std::unique_ptr<Part> native_build(const Options& o, SpanLog& spans);
std::unique_ptr<Part> sim_paper(const Options& o, SpanLog& spans);
std::unique_ptr<Part> sim_observed(const Options& o, SpanLog& spans);

}  // namespace perfbench
