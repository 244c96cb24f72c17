// OpenMP runtime: the same SPMD contract as NativeContext, but the worker
// team is an OpenMP parallel region. Useful for codes already built around
// OpenMP and as a second independent implementation of the runtime concept
// (the test suite cross-checks it against NativeContext).
//
// Compiled only when PTB_HAVE_OPENMP is defined (see src/CMakeLists.txt).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include <omp.h>

#include "mem/region_table.hpp"  // HomePolicy (annotation only; no cost here)
#include "rt/phase.hpp"
#include "support/check.hpp"
#include "trace/trace.hpp"

namespace ptb {

class OmpContext;

class OmpProc {
 public:
  OmpProc(OmpContext& ctx, int self) : ctx_(&ctx), self_(self) {}

  /// Every annotation below is a no-op, so phases may replace an annotated
  /// loop with a host-only one that computes the same results
  /// (forces_phase's group walk) and skip work that only shapes charges
  /// (annotate::read_view_spanned).
  static constexpr bool kCharges = false;

  int self() const { return self_; }
  int nprocs() const;

  void compute(double /*units*/) {}
  void compute_n(double /*units*/, std::uint64_t /*count*/) {}
  void read(const void* /*p*/, std::size_t /*n*/) {}
  void write(const void* /*p*/, std::size_t /*n*/) {}
  void read_shared(const void* /*p*/, std::size_t /*n*/) {}
  void read_shared_span(const void* /*p*/, std::size_t /*n*/, std::size_t /*stride*/,
                        std::size_t /*count*/) {}
  template <class F>
  void unordered(F&& f) {
    f();
  }

  /// Tracer access for phase code emitting its own sub-spans (wall clock).
  trace::Tracer* tracer() const;
  std::uint64_t trace_now() const;

  template <class T>
  T ordered_load(const std::atomic<T>& a, const void* /*charge_addr*/, std::size_t /*n*/) {
    return a.load(std::memory_order_acquire);
  }
  template <class T>
  void ordered_store(std::atomic<T>& a, T v, const void* /*charge_addr*/,
                     std::size_t /*n*/) {
    a.store(v, std::memory_order_release);
  }

  void lock(const void* addr);
  void unlock(const void* addr);
  std::int64_t fetch_add(std::atomic<std::int64_t>& ctr, std::int64_t v);
  void barrier();
  void begin_phase(Phase p);

 private:
  OmpContext* ctx_;
  int self_;
};

class OmpContext {
 public:
  using Proc = OmpProc;

  explicit OmpContext(int nprocs)
      : nprocs_(nprocs), stats_(static_cast<std::size_t>(nprocs)),
        phase_(static_cast<std::size_t>(nprocs), Phase::kOther),
        mark_(static_cast<std::size_t>(nprocs)) {
    PTB_CHECK(nprocs >= 1);
    for (auto& m : mutexes_) omp_init_lock(&m);
  }
  ~OmpContext() {
    for (auto& m : mutexes_) omp_destroy_lock(&m);
  }
  OmpContext(const OmpContext&) = delete;
  OmpContext& operator=(const OmpContext&) = delete;

  int nprocs() const { return nprocs_; }

  void register_region(const void*, std::size_t, HomePolicy, int, std::string) {}

  /// Attaches an event tracer (null detaches); wall-clock timestamps
  /// relative to run() start, as in NativeContext.
  void set_tracer(trace::Tracer* t) {
    tracer_ = t;
    if (t != nullptr) t->set_clock_domain("wall");
  }
  trace::Tracer* tracer() const { return tracer_; }

  /// Runs f(OmpProc&) on an OpenMP team of nprocs threads.
  template <class F>
  void run(F&& f) {
    const auto t0 = Clock::now();
    epoch_ = t0;
    for (auto& m : mark_) m = t0;
#pragma omp parallel num_threads(nprocs_)
    {
      const int p = omp_get_thread_num();
      OmpProc proc(*this, p);
      f(proc);
      flush_phase(p);
    }
  }

  const std::vector<ProcStats>& stats() const { return stats_; }
  void reset_stats() { stats_.assign(static_cast<std::size_t>(nprocs_), ProcStats{}); }

 private:
  friend class OmpProc;
  // ptblint: allow(wall-clock) -- native runtimes report real host time by contract; the DES virtual-time domain never reads it
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNumMutexes = 4096;

  omp_lock_t& mutex_for(const void* addr) {
    auto h = reinterpret_cast<std::uintptr_t>(addr);
    h ^= h >> 17;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return mutexes_[h % kNumMutexes];
  }

  std::uint64_t trace_ns(Clock::time_point tp) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_).count());
  }

  void flush_phase(int p) {
    const auto now = Clock::now();
    const auto idx = static_cast<std::size_t>(p);
    stats_[idx].phase_ns[static_cast<int>(phase_[idx])] +=
        std::chrono::duration<double, std::nano>(now - mark_[idx]).count();
    if (tracer_ != nullptr && now > mark_[idx])
      tracer_->span(p, trace::kCatPhase, phase_name(phase_[idx]),
                    trace_ns(mark_[idx]), trace_ns(now));
    mark_[idx] = now;
  }

  int nprocs_;
  std::vector<ProcStats> stats_;
  std::vector<Phase> phase_;
  std::vector<Clock::time_point> mark_;
  trace::Tracer* tracer_ = nullptr;
  Clock::time_point epoch_ = Clock::now();
  omp_lock_t mutexes_[kNumMutexes];
};

inline int OmpProc::nprocs() const { return ctx_->nprocs_; }

inline trace::Tracer* OmpProc::tracer() const { return ctx_->tracer_; }

inline std::uint64_t OmpProc::trace_now() const {
  return ctx_->trace_ns(OmpContext::Clock::now());
}

inline void OmpProc::lock(const void* addr) {
  auto& st = ctx_->stats_[static_cast<std::size_t>(self_)];
  const int phase = static_cast<int>(ctx_->phase_[static_cast<std::size_t>(self_)]);
  ++st.lock_acquires[phase];
  if (ctx_->tracer_ == nullptr) {
    omp_set_lock(&ctx_->mutex_for(addr));
    return;
  }
  const auto t0 = OmpContext::Clock::now();
  omp_set_lock(&ctx_->mutex_for(addr));
  const auto t1 = OmpContext::Clock::now();
  const double waited = std::chrono::duration<double, std::nano>(t1 - t0).count();
  st.lock_wait_ns += waited;
  st.lock_wait_phase_ns[phase] += waited;
  st.lock_wait_events.add(waited);
  if (t1 > t0)
    ctx_->tracer_->span(self_, trace::kCatSync, "lock-wait", ctx_->trace_ns(t0),
                        ctx_->trace_ns(t1));
}

inline void OmpProc::unlock(const void* addr) { omp_unset_lock(&ctx_->mutex_for(addr)); }

inline std::int64_t OmpProc::fetch_add(std::atomic<std::int64_t>& ctr, std::int64_t v) {
  ++ctx_->stats_[static_cast<std::size_t>(self_)].fetch_adds;
  return ctr.fetch_add(v, std::memory_order_acq_rel);
}

inline void OmpProc::barrier() {
  auto& st = ctx_->stats_[static_cast<std::size_t>(self_)];
  ++st.barriers;
  if (ctx_->tracer_ == nullptr) {
#pragma omp barrier
    return;
  }
  const int phase = static_cast<int>(ctx_->phase_[static_cast<std::size_t>(self_)]);
  const auto t0 = OmpContext::Clock::now();
#pragma omp barrier
  const auto t1 = OmpContext::Clock::now();
  const double waited = std::chrono::duration<double, std::nano>(t1 - t0).count();
  st.barrier_wait_ns += waited;
  st.barrier_wait_phase_ns[phase] += waited;
  st.barrier_wait_events.add(waited);
  if (t1 > t0)
    ctx_->tracer_->span(self_, trace::kCatSync, "barrier-wait", ctx_->trace_ns(t0),
                        ctx_->trace_ns(t1));
}

inline void OmpProc::begin_phase(Phase p) {
  ctx_->flush_phase(self_);
  ctx_->phase_[static_cast<std::size_t>(self_)] = p;
}

}  // namespace ptb
