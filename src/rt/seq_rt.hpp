// Trivial single-processor runtime.
//
// Used for the sequential baseline and as the simplest instantiation of the
// runtime concept the tree builders are templated over. All shared-memory
// annotations are no-ops; phase times are wall-clock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/region_table.hpp"  // HomePolicy (annotation only; no cost here)
#include "rt/phase.hpp"
#include "support/check.hpp"
#include "trace/trace.hpp"

namespace ptb {

class SeqContext;

class SeqProc {
 public:
  explicit SeqProc(SeqContext& ctx) : ctx_(&ctx) {}

  /// Every annotation below is a no-op, so phases may replace an annotated
  /// loop with a host-only one that computes the same results
  /// (forces_phase's group walk) and skip work that only shapes charges
  /// (annotate::read_view_spanned).
  static constexpr bool kCharges = false;

  int self() const { return 0; }
  int nprocs() const { return 1; }

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

  /// Combined charge + load/store of a shared atomic that lock-free readers
  /// race on. Outside the simulator this is a plain acquire/release access.
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
  SeqContext* ctx_;
};

class SeqContext {
 public:
  using Proc = SeqProc;

  explicit SeqContext(int nprocs = 1) : stats_(1) {
    PTB_CHECK_MSG(nprocs == 1, "SeqContext is single-processor");
  }

  int nprocs() const { return 1; }

  /// Region registration is a no-op outside the simulator; present so the
  /// application driver is runtime-generic.
  void register_region(const void*, std::size_t, HomePolicy, int, std::string) {}

  /// Attaches an event tracer (null detaches); single wall-clock track.
  void set_tracer(trace::Tracer* t) {
    tracer_ = t;
    if (t != nullptr) t->set_clock_domain("wall");
  }
  trace::Tracer* tracer() const { return tracer_; }

  /// Runs f(SeqProc&) on the (single) processor.
  template <class F>
  void run(F&& f) {
    SeqProc proc(*this);
    mark_ = Clock::now();
    epoch_ = mark_;
    f(proc);
    flush_phase();
  }

  const std::vector<ProcStats>& stats() const { return stats_; }
  void reset_stats() {
    stats_.assign(1, ProcStats{});
    mark_ = Clock::now();
  }

 private:
  friend class SeqProc;
  // ptblint: allow(wall-clock) -- native runtimes report real host time by contract; the DES virtual-time domain never reads it
  using Clock = std::chrono::steady_clock;

  void flush_phase() {
    const auto now = Clock::now();
    stats_[0].phase_ns[static_cast<int>(phase_)] +=
        std::chrono::duration<double, std::nano>(now - mark_).count();
    if (tracer_ != nullptr && now > mark_)
      tracer_->span(0, trace::kCatPhase, phase_name(phase_),
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(mark_ - epoch_)
                            .count()),
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
                            .count()));
    mark_ = now;
  }

  std::vector<ProcStats> stats_;
  Phase phase_ = Phase::kOther;
  Clock::time_point mark_ = Clock::now();
  Clock::time_point epoch_ = Clock::now();
  trace::Tracer* tracer_ = nullptr;
  int lock_depth_ = 0;
};

inline trace::Tracer* SeqProc::tracer() const { return ctx_->tracer_; }

inline std::uint64_t SeqProc::trace_now() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        SeqContext::Clock::now() - ctx_->epoch_)
                                        .count());
}

inline void SeqProc::lock(const void* /*addr*/) {
  ++ctx_->stats_[0].lock_acquires[static_cast<int>(ctx_->phase_)];
  PTB_DCHECK(++ctx_->lock_depth_ == 1);  // builders never nest cell locks
}

inline void SeqProc::unlock(const void* /*addr*/) { PTB_DCHECK(--ctx_->lock_depth_ == 0); }

inline std::int64_t SeqProc::fetch_add(std::atomic<std::int64_t>& ctr, std::int64_t v) {
  ++ctx_->stats_[0].fetch_adds;
  return ctr.fetch_add(v, std::memory_order_relaxed);
}

inline void SeqProc::barrier() { ++ctx_->stats_[0].barriers; }

inline void SeqProc::begin_phase(Phase p) {
  ctx_->flush_phase();
  ctx_->phase_ = p;
}

}  // namespace ptb
