#include "sim/sim_rt.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "anatomy/anatomy.hpp"
#include "prof/prof.hpp"
#include "race/race.hpp"
#include "sight/sight.hpp"
#include "support/check.hpp"
#include "trace/trace.hpp"

namespace ptb {

namespace {

// Lazily committed (mmap) — plenty for the recursive tree walks, and costs
// only the pages actually touched, like a host thread's stack.
constexpr std::size_t kFiberStackBytes = std::size_t{8} << 20;

}  // namespace

SimBackend default_sim_backend() {
  static const SimBackend b = [] {
    const char* env = std::getenv("PTB_SIM_BACKEND");
    if (env != nullptr && env[0] != '\0') return sim_backend_from_string(env);
    return SimBackend::kFibers;
  }();
  return b;
}

const char* to_string(SimBackend b) {
  return b == SimBackend::kFibers ? "fibers" : "parallel";
}

SimBackend sim_backend_from_string(const std::string& s) {
  if (s == "fibers") return SimBackend::kFibers;
  if (s == "parallel") return SimBackend::kParallel;
  PTB_CHECK_MSG(false, "unknown simulator backend (want \"fibers\" or \"parallel\")");
  return SimBackend::kFibers;
}

int default_sim_workers() {
  static const int w = [] {
    const char* env = std::getenv("PTB_SIM_WORKERS");
    if (env != nullptr && env[0] != '\0') {
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(env, &end, 10);
      PTB_CHECK_MSG(errno == 0 && *end == '\0' && v >= 1,
                    "PTB_SIM_WORKERS must be a positive integer");
      return static_cast<int>(std::min<long>(v, kMaxSimWorkers));
    }
    const auto hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(hw / 2, 1, 16);
  }();
  return w;
}

SimContext::SimContext(const PlatformSpec& spec, int nprocs, SimBackend backend,
                       bool race_detect, bool sight_observe)
    : spec_(spec), nprocs_(nprocs), backend_(backend), mem_(make_mem_model(spec, nprocs)) {
  PTB_CHECK(nprocs >= 1 && nprocs <= kMaxSimProcs);
  if (race_detect) {
    auto rm = std::make_unique<race::RaceModel>(std::move(mem_));
    race_model_ = rm.get();
    mem_ = std::move(rm);
  }
  if (sight_observe) {
    // Outermost, so it observes every access the dispatch layer sees
    // (including what the race decorator forwards).
    auto sm = std::make_unique<sight::SightModel>(std::move(mem_));
    sight_model_ = sm.get();
    mem_ = std::move(sm);
  }
  mem_slowpath_ = mem_slowpath_enabled();
  mem_fast_.bind(mem_.get(), /*force_virtual=*/mem_slowpath_);
  // The fiber backend serializes unordered stretches in host time, which
  // licenses the model's eager-invalidation cache mode (same virtual results,
  // no shared epoch loads on the read path). Forwards through the race
  // decorator when one is installed. The slow-path oracle deliberately stays
  // on lazy epochs so a PTB_MEM_SLOWPATH run re-checks the eager/lazy
  // equivalence end to end, not just the span coalescing.
  if (backend_ == SimBackend::kFibers && !mem_slowpath_)
    mem_->set_serialized(true);
  const auto np = static_cast<std::size_t>(nprocs);
  clock_.assign(np, 0);
  status_.assign(np, Status::kDone);
  pending_.assign(np, PaddedCost{});
  in_free_.assign(np, 0);
  phase_.assign(np, Phase::kOther);
  phase_mark_.assign(np, 0);
  stats_.assign(np, ProcStats{});
  lock_granted_.assign(np, 0);
  barrier_arrival_.assign(np, 0);
  heap_.init(nprocs);
}

SimContext::~SimContext() = default;

const race::RaceReport* SimContext::race_report() const {
  return race_model_ != nullptr ? &race_model_->report() : nullptr;
}

void SimContext::set_tracer(trace::Tracer* t) {
  tracer_ = t;
  if (race_model_ != nullptr) race_model_->set_tracer(t);
  if (sight_model_ != nullptr) sight_model_->set_tracer(t);
}

void SimContext::register_region(const void* base, std::size_t bytes, HomePolicy policy,
                                 int fixed_home, std::string name) {
  mem_->register_region(base, bytes, policy, fixed_home, std::move(name));
}

void SimContext::reset_stats() {
  stats_.assign(static_cast<std::size_t>(nprocs_), ProcStats{});
}

std::uint64_t SimContext::elapsed_ns() const {
  std::uint64_t mx = 0;
  for (std::uint64_t c : clock_) mx = std::max(mx, c);
  return mx;
}

// --- run loop ---

void SimContext::reset_run_state() {
  const auto np = static_cast<std::size_t>(nprocs_);
  clock_.assign(np, 0);
  status_.assign(np, Status::kActive);
  pending_.assign(np, PaddedCost{});
  in_free_.assign(np, 0);
  phase_.assign(np, Phase::kOther);
  phase_mark_.assign(np, 0);
  lock_granted_.assign(np, 0);
  barrier_arrival_.assign(np, 0);
  locks_.clear();
  barrier_arrived_ = 0;
  heap_.init(nprocs_);
  for (int p = 0; p < nprocs_; ++p) heap_.push(p, 0);
  if (prof_ != nullptr) prof_->begin_run(nprocs_);
  if (anatomy_ != nullptr) anatomy_->begin_run(nprocs_);
}

void SimContext::prof_note_charge(int p, const void* addr, const MemProcStats& before,
                                  std::uint64_t clock_before) {
  const MemProcStats& after = mem_->proc_stats(p);
  prof_->charge(p, addr, clock_[static_cast<std::size_t>(p)] - clock_before,
                after.remote_misses - before.remote_misses,
                after.invalidations_sent - before.invalidations_sent);
}

void SimContext::prof_note_unordered(int p, const void* addr, std::uint64_t cost,
                                     const MemProcStats& before,
                                     const MemProcStats& after) {
  prof_->charge(p, addr, cost, after.remote_misses - before.remote_misses,
                after.invalidations_sent - before.invalidations_sent);
}

void SimContext::run_impl(const std::function<void(SimProc&)>& f) {
  reset_run_state();
  if (backend_ == SimBackend::kFibers)
    run_fibers(f);
  else
    run_parallel(f);
}

void SimContext::finish_proc(int p) {
  flush_pending(p);
  const auto idx = static_cast<std::size_t>(p);
  if (tracer_ != nullptr && clock_[idx] > phase_mark_[idx])
    tracer_->span(p, trace::kCatPhase, phase_name(phase_[idx]), phase_mark_[idx],
                  clock_[idx]);
  stats_[idx].phase_ns[static_cast<int>(phase_[idx])] +=
      static_cast<double>(clock_[idx] - phase_mark_[idx]);
  phase_mark_[idx] = clock_[idx];
  if (prof_ != nullptr)
    prof_->finish(p, clock_[idx], mem_->proc_stats(p).remote_misses);
  if (anatomy_ != nullptr) anatomy_->phase_close(p, phase_[idx], mem_->proc_stats(p));
  leave_active(p, Status::kDone);
  maybe_release_barrier();
}

void SimContext::fiber_entry(void* arg) {
  auto* fa = static_cast<FiberArg*>(arg);
  fa->ctx->fiber_body(fa->proc);
}

void SimContext::fiber_body(int p) {
  SimProc proc(*this, p);
  (*body_)(proc);
  finish_proc(p);
  // Hand off to the next runnable processor (or the host when everyone is
  // done). A Done processor is never in the heap, so this fiber is never
  // resumed; if it somehow were, the entry shim aborts.
  fiber_reschedule();
}

void SimContext::fiber_reschedule() {
  const int me = running_;
  int next = heap_.top();
  // Parallel backend: an empty Active set with sections in flight just means
  // everyone runnable is out on the pool — wait for a completion to refill
  // the heap rather than declaring deadlock.
  while (next < 0 && free_running_ > 0) {
    drain_sections(/*block=*/true);
    next = heap_.top();
  }
  // Our own just-launched section may have been drained back in above; then
  // it is simply our turn again and the fiber continues past the launch.
  if (next == me) return;
  Fiber& from = me == kHostContext ? host_ctx_ : *fibers_[static_cast<std::size_t>(me)];
  if (next < 0) {
    // Nobody is runnable. At end of run every processor is Done and control
    // returns to the host; otherwise the simulated program deadlocked
    // (a lock cycle or mismatched barriers).
    PTB_CHECK_MSG(alive_count() == 0,
                  "simulated deadlock: every processor is blocked");
    running_ = kHostContext;
    Fiber::switch_to(from, host_ctx_);
    return;
  }
  if (tracer_ != nullptr)
    tracer_->instant(next, trace::kCatSched, "fiber-switch",
                     clock_[static_cast<std::size_t>(next)]);
  running_ = next;
  Fiber::switch_to(from, *fibers_[static_cast<std::size_t>(next)]);
}

void SimContext::run_fibers(const std::function<void(SimProc&)>& f) {
  body_ = &f;
  const auto np = static_cast<std::size_t>(nprocs_);
  fibers_.clear();
  fibers_.resize(np);
  fiber_args_.resize(np);
  for (int p = 0; p < nprocs_; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    fiber_args_[pi] = FiberArg{this, p};
    fibers_[pi] = std::make_unique<Fiber>();
    fibers_[pi]->start(&SimContext::fiber_entry, &fiber_args_[pi], kFiberStackBytes);
  }
  running_ = kHostContext;
  fiber_reschedule();  // resumes the virtual-time minimum; returns when all done
  PTB_CHECK(alive_count() == 0);
  fibers_.clear();
  body_ = nullptr;
}

// --- parallel backend ---

void SimContext::section_worker() {
  std::unique_lock<std::mutex> lk(pool_m_);
  for (;;) {
    pool_cv_.wait(lk, [this] { return pool_shutdown_ || !section_queue_.empty(); });
    if (section_queue_.empty()) return;  // shutdown with a drained queue
    const int p = section_queue_.front();
    section_queue_.erase(section_queue_.begin());
    lk.unlock();
    const auto idx = static_cast<std::size_t>(p);
    section_fn_[idx]();           // the unordered stretch
    section_fn_[idx] = nullptr;   // drop captures before reporting done
    in_free_[idx] = 0;
    lk.lock();
    section_done_.push_back(p);
    done_cv_.notify_one();
  }
}

void SimContext::drain_sections(bool block) {
  std::vector<int> done;
  {
    std::unique_lock<std::mutex> lk(pool_m_);
    if (block) done_cv_.wait(lk, [this] { return !section_done_.empty(); });
    done.swap(section_done_);
  }
  // Re-admission order is irrelevant for the schedule (the heap orders by
  // (clock, id)); sort by id anyway so the walk is deterministic.
  std::sort(done.begin(), done.end());
  for (int p : done) {
    flush_pending(p);  // fold the section's cost into the clock key
    --free_running_;
    set_active(p);
  }
}

void SimContext::op_unordered_run(int p, std::function<void()> fn) {
  const auto idx = static_cast<std::size_t>(p);
  if (backend_ != SimBackend::kParallel || !overlap_ok_) {
    // Fibers (and observed kParallel runs, which must reproduce the serial
    // host order for the tracer/profiler/race detector): run inline. The
    // flag arms the ordered-op-inside-section contract check.
    in_free_[idx] = 1;
    fn();
    in_free_[idx] = 0;
    return;
  }
  // Glued launch: we are on the scheduler thread, immediately after this
  // processor's last ordered operation — nothing can interleave between that
  // operation and the section start, exactly as in the fiber backend.
  flush_pending(p);
  section_fn_[idx] = std::move(fn);
  in_free_[idx] = 1;
  leave_active(p, Status::kInSection);
  ++free_running_;
  {
    std::lock_guard<std::mutex> g(pool_m_);
    section_queue_.push_back(p);
  }
  pool_cv_.notify_one();
  // Hand the scheduler to the next runnable processor; drain_sections
  // re-admits us once the closure has run, and the fiber resumes here.
  fiber_reschedule();
}

void SimContext::run_parallel(const std::function<void(SimProc&)>& f) {
  // One scheduler thread (this one) + a closure pool. Observed runs get no
  // pool: sections run inline, reproducing the fiber host order exactly.
  overlap_ok_ = tracer_ == nullptr && prof_ == nullptr && race_model_ == nullptr &&
                sight_model_ == nullptr;
  free_running_ = 0;
  section_fn_.assign(static_cast<std::size_t>(nprocs_), nullptr);
  pool_width_ = overlap_ok_ ? std::clamp(workers_, 1, nprocs_) : 0;
  pool_shutdown_ = false;
  section_queue_.clear();
  section_done_.clear();
  pool_.reserve(static_cast<std::size_t>(pool_width_));
  for (int w = 0; w < pool_width_; ++w)
    pool_.emplace_back([this] { section_worker(); });
  run_fibers(f);
  PTB_CHECK(free_running_ == 0);
  {
    std::lock_guard<std::mutex> g(pool_m_);
    pool_shutdown_ = true;
  }
  pool_cv_.notify_all();
  for (auto& t : pool_) t.join();
  pool_.clear();
}

// --- scheduling core ---

void SimContext::wait_for_turn(int p, bool allow_sections) {
  // p is Active (in the heap), so the heap is never empty here; yield to the
  // minimum until the minimum is us AND (unless the operation is
  // section-tolerant) no unordered section is in flight. free_running_ is
  // nonzero only in the parallel backend.
  for (;;) {
    if (heap_.top() == p) {
      if (free_running_ == 0 || allow_sections) return;
      drain_sections(/*block=*/true);  // our turn, blocked only on sections
      continue;
    }
    fiber_reschedule();
  }
}

void SimContext::wait_lock_grant(int p) {
  const auto idx = static_cast<std::size_t>(p);
  while (lock_granted_[idx] == 0) fiber_reschedule();
}

void SimContext::wait_barrier_release(std::uint64_t gen) {
  while (barrier_generation_ == gen) fiber_reschedule();
}

void SimContext::flush_pending(int p) {
  const auto idx = static_cast<std::size_t>(p);
  PTB_CHECK_MSG(in_free_[idx] == 0,
                "ordered operation inside an unordered_begin/end section");
  if (pending_[idx].v != 0) {
    clock_[idx] += pending_[idx].v;
    pending_[idx].v = 0;
    if (heap_.contains(p)) heap_.update(p, clock_[idx]);
  }
}

void SimContext::advance(int p, std::uint64_t cost) {
  const auto idx = static_cast<std::size_t>(p);
  clock_[idx] += cost;
  heap_.update(p, clock_[idx]);
}

void SimContext::set_active(int p) {
  status_[static_cast<std::size_t>(p)] = Status::kActive;
  heap_.push(p, clock_[static_cast<std::size_t>(p)]);
}

void SimContext::leave_active(int p, Status s) {
  status_[static_cast<std::size_t>(p)] = s;
  heap_.remove(p);
}

int SimContext::alive_count() const {
  int n = 0;
  for (Status s : status_)
    if (s != Status::kDone) ++n;
  return n;
}

bool SimContext::maybe_release_barrier() {
  if (barrier_arrived_ == 0 || barrier_arrived_ < alive_count()) return false;
  std::uint64_t release = 0;
  for (int q = 0; q < nprocs_; ++q) {
    if (status_[static_cast<std::size_t>(q)] == Status::kInBarrier)
      release = std::max(release, barrier_arrival_[static_cast<std::size_t>(q)]);
  }
  if (prof_ != nullptr) {
    // The last arriver (earliest id on ties) is the release's cause.
    int last = -1;
    for (int q = 0; q < nprocs_ && last < 0; ++q) {
      const auto qi = static_cast<std::size_t>(q);
      if (status_[qi] == Status::kInBarrier && barrier_arrival_[qi] == release) last = q;
    }
    prof_->barrier_release(release, last);
  }
  for (int q = 0; q < nprocs_; ++q) {
    const auto qi = static_cast<std::size_t>(q);
    if (status_[qi] != Status::kInBarrier) continue;
    const std::uint64_t waited = release - barrier_arrival_[qi];
    stats_[qi].barrier_wait_ns += static_cast<double>(waited);
    stats_[qi].barrier_wait_phase_ns[static_cast<int>(phase_[qi])] +=
        static_cast<double>(waited);
    stats_[qi].barrier_wait_events.add(static_cast<double>(waited));
    if (tracer_ != nullptr && waited != 0)
      tracer_->span(q, trace::kCatSync, "barrier-wait", barrier_arrival_[qi], release);
    clock_[qi] = release;
    set_active(q);
  }
  barrier_arrived_ = 0;
  ++barrier_generation_;
  return true;
}

// --- operations ---

void SimContext::op_lock(int p, const void* addr) {
  const auto idx = static_cast<std::size_t>(p);
  flush_pending(p);
  ++stats_[idx].lock_acquires[static_cast<int>(phase_[idx])];
  wait_for_turn(p);
  LockState& ls = locks_[addr];
  if (!ls.held) {
    ls.held = true;
    ls.holder = p;
    const std::uint64_t t0 = clock_[idx];
    charge_model(p,
                 [&](MemModel& m, std::uint64_t now) { return m.on_acquire(p, addr, now); });
    if (prof_ != nullptr)
      prof_->lock_acquired(p, addr, t0, clock_[idx], phase_[idx],
                           mem_->proc_stats(p).remote_misses);
    return;
  }
  const std::uint64_t request_ns = clock_[idx];
  if (prof_ != nullptr) prof_->lock_wait_begin(p, addr, request_ns, phase_[idx]);
  ls.waiters.emplace_back(request_ns, p);
  leave_active(p, Status::kBlockedLock);
  wait_lock_grant(p);
  lock_granted_[idx] = 0;
  const std::uint64_t waited = clock_[idx] - request_ns;
  stats_[idx].lock_wait_ns += static_cast<double>(waited);
  stats_[idx].lock_wait_phase_ns[static_cast<int>(phase_[idx])] +=
      static_cast<double>(waited);
  stats_[idx].lock_wait_events.add(static_cast<double>(waited));
  if (tracer_ != nullptr)
    tracer_->span(p, trace::kCatSync, "lock-wait", request_ns, clock_[idx]);
  // The releaser set our clock to the grant time and made us Active again;
  // run the acquire-side protocol in global virtual-time order.
  wait_for_turn(p);
  charge_model(p,
               [&](MemModel& m, std::uint64_t now) { return m.on_acquire(p, addr, now); });
  if (prof_ != nullptr)
    prof_->lock_acquired_end(p, clock_[idx], mem_->proc_stats(p).remote_misses);
}

void SimContext::op_unlock(int p, const void* addr) {
  const auto idx = static_cast<std::size_t>(p);
  flush_pending(p);
  wait_for_turn(p);
  auto it = locks_.find(addr);
  PTB_CHECK_MSG(it != locks_.end() && it->second.held && it->second.holder == p,
                "unlock of a lock not held by this processor");
  LockState& ls = it->second;
  const std::uint64_t u0 = clock_[idx];
  charge_model(p,
               [&](MemModel& m, std::uint64_t now) { return m.on_release(p, addr, now); });
  if (prof_ != nullptr)
    prof_->unlock(p, addr, u0, clock_[idx], phase_[idx],
                  mem_->proc_stats(p).remote_misses);
  if (ls.waiters.empty()) {
    ls.held = false;
    ls.holder = -1;
  } else {
    // Grant to the earliest request in virtual time (ties by processor id).
    auto best = std::min_element(ls.waiters.begin(), ls.waiters.end());
    const int w = best->second;
    ls.waiters.erase(best);
    ls.holder = w;
    const auto widx = static_cast<std::size_t>(w);
    clock_[widx] = std::max(clock_[widx], clock_[idx]);
    // Record the handoff edge (after the unlock event above, whose log
    // index the edge references).
    if (prof_ != nullptr) prof_->lock_grant(w, p, clock_[widx]);
    if (tracer_ != nullptr)
      tracer_->flow(p, w, trace::kCatSync, "lock-handoff", clock_[idx], clock_[widx]);
    set_active(w);
    lock_granted_[widx] = 1;
  }
}

void SimContext::op_barrier(int p) {
  const auto idx = static_cast<std::size_t>(p);
  flush_pending(p);
  ++stats_[idx].barriers;
  wait_for_turn(p);
  const std::uint64_t b0 = clock_[idx];
  charge_model(p,
               [&](MemModel& m, std::uint64_t now) { return m.on_barrier_arrive(p, now); });
  barrier_arrival_[idx] = clock_[idx];
  if (prof_ != nullptr) prof_->barrier_arrive(p, b0, clock_[idx], phase_[idx]);
  leave_active(p, Status::kInBarrier);
  ++barrier_arrived_;
  const std::uint64_t gen = barrier_generation_;
  if (!maybe_release_barrier()) wait_barrier_release(gen);
  // Departure protocol in deterministic order (all clocks equal, id breaks
  // the tie). Departures are section-tolerant in the parallel backend: the
  // depart charge touches only the departing processor's own model state, and
  // letting it run while earlier departers sit in their unordered sections is
  // what lets those sections overlap at all.
  wait_for_turn(p, /*allow_sections=*/true);
  charge_model(p,
               [&](MemModel& m, std::uint64_t now) { return m.on_barrier_depart(p, now); });
  if (prof_ != nullptr)
    prof_->barrier_depart(p, clock_[idx], mem_->proc_stats(p).remote_misses);
}

void SimContext::op_begin_phase(int p, Phase ph) {
  const auto idx = static_cast<std::size_t>(p);
  flush_pending(p);
  if (tracer_ != nullptr && clock_[idx] > phase_mark_[idx])
    tracer_->span(p, trace::kCatPhase, phase_name(phase_[idx]), phase_mark_[idx],
                  clock_[idx]);
  stats_[idx].phase_ns[static_cast<int>(phase_[idx])] +=
      static_cast<double>(clock_[idx] - phase_mark_[idx]);
  phase_mark_[idx] = clock_[idx];
  // The collector reads only processor p's own counters inside p's own
  // ordered operation (always on the scheduler thread — begin_phase is never
  // an overlappable unordered section), so it needs no overlap_ok_ entry.
  if (anatomy_ != nullptr) anatomy_->phase_close(p, phase_[idx], mem_->proc_stats(p));
  phase_[idx] = ph;
  if (prof_ != nullptr)
    prof_->phase_begin(p, ph, clock_[idx], mem_->proc_stats(p).remote_misses);
  mem_->on_phase(p, ph);  // report metadata only; a no-op for protocol models
}

// --- SimProc forwarding ---

void SimProc::read(const void* p, std::size_t n) {
  ctx_->flush_pending(self_);
  ctx_->wait_for_turn(self_);
  ctx_->ordered_charge(self_, p, n, /*is_write=*/false);
}

void SimProc::write(const void* p, std::size_t n) {
  ctx_->flush_pending(self_);
  ctx_->wait_for_turn(self_);
  ctx_->ordered_charge(self_, p, n, /*is_write=*/true);
}

void SimProc::lock(const void* addr) { ctx_->op_lock(self_, addr); }

void SimProc::unlock(const void* addr) { ctx_->op_unlock(self_, addr); }

std::int64_t SimProc::fetch_add(std::atomic<std::int64_t>& ctr, std::int64_t v) {
  const auto idx = static_cast<std::size_t>(self_);
  ctx_->flush_pending(self_);
  ++ctx_->stats_[idx].fetch_adds;
  ctx_->wait_for_turn(self_);
  const std::uint64_t t0 = ctx_->clock_[idx];
  ctx_->charge_model(self_, [&](MemModel& m, std::uint64_t now) {
    return m.on_rmw(self_, &ctr, now);
  });
  if (ctx_->prof_ != nullptr)
    ctx_->prof_->fetch_add(self_, &ctr, t0, ctx_->clock_[idx], ctx_->phase_[idx],
                           ctx_->mem_->proc_stats(self_).remote_misses);
  return ctr.fetch_add(v, std::memory_order_relaxed);
}

void SimProc::barrier() { ctx_->op_barrier(self_); }

void SimProc::begin_phase(Phase p) { ctx_->op_begin_phase(self_, p); }

}  // namespace ptb
