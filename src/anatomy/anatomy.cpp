#include "anatomy/anatomy.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace ptb::anatomy {

const char* category_name(Category c) {
  constexpr const char* names[kNumCategories] = {
      "busy", "mem_local", "mem_remote", "lock_wait", "barrier_wait", "phase_skew"};
  return names[static_cast<int>(c)];
}

void Collector::begin_run(int nprocs) {
  nprocs_ = nprocs;
  const auto np = static_cast<std::size_t>(nprocs);
  last_.assign(np, MemProcStats{});
  remote_.assign(np, {});
  faults_.assign(np, {});
}

void Collector::phase_close(int p, Phase ph, const MemProcStats& now) {
  const auto pi = static_cast<std::size_t>(p);
  const auto phi = static_cast<std::size_t>(static_cast<int>(ph));
  MemProcStats& last = last_[pi];
  remote_[pi][phi] += now.remote_misses - last.remote_misses;
  faults_[pi][phi] += now.page_faults - last.page_faults;
  last = now;
}

double Ledger::category_ns(Category c) const {
  const auto ci = static_cast<std::size_t>(static_cast<int>(c));
  double t = 0.0;
  for (const PhaseCells& pc : cells)
    for (const Cell& cell : pc) t += cell[ci];
  return t;
}

double Ledger::phase_category_ns(Phase ph, Category c) const {
  const auto phi = static_cast<std::size_t>(static_cast<int>(ph));
  const auto ci = static_cast<std::size_t>(static_cast<int>(c));
  double t = 0.0;
  for (const PhaseCells& pc : cells) t += pc[phi][ci];
  return t;
}

double Ledger::sum_ns() const {
  double t = 0.0;
  for (const PhaseCells& pc : cells)
    for (const Cell& cell : pc)
      for (double v : cell) t += v;
  return t;
}

Ledger build_ledger(const std::vector<ProcStats>& stats, const Collector& col,
                    const PlatformSpec& spec) {
  Ledger led;
  led.enabled = true;
  led.nprocs = static_cast<int>(stats.size());
  led.cells.assign(stats.size(), Ledger::PhaseCells{});
  PTB_CHECK_MSG(col.active(), "anatomy: collector was never attached to the run");

  // Price of one remote event over its local equivalent. On the SVM
  // platforms the remote traffic is page faults (remote_miss_ns is unset);
  // on NUMA hardware it is remote misses. Counts are integers and the specs
  // integer-valued doubles, so the estimates below are exact products.
  const double remote_extra =
      spec.remote_miss_ns > spec.local_miss_ns ? spec.remote_miss_ns - spec.local_miss_ns
                                               : 0.0;

  for (int ph = 0; ph < kNumPhases; ++ph) {
    if (ph == static_cast<int>(Phase::kOther)) continue;  // warm-up
    const auto phi = static_cast<std::size_t>(ph);
    double phase_max = 0.0;
    for (const ProcStats& ps : stats) phase_max = std::max(phase_max, ps.phase_ns[ph]);
    led.phase_ns[phi] = phase_max;
    led.total_ns += phase_max;

    double phase_sum = 0.0;
    for (int p = 0; p < led.nprocs; ++p) {
      const ProcStats& ps = stats[static_cast<std::size_t>(p)];
      const double mem = ps.mem_stall_ns[ph];
      const double lock = ps.lock_wait_phase_ns[ph];
      const double barrier = ps.barrier_wait_phase_ns[ph];
      // The clock-advance taxonomy (sim_rt.cpp): every ns of phase_ns is a
      // pending fold, a protocol charge, a lock grant or a barrier release,
      // and the latter three are recorded per phase — so this remainder is
      // the compute time, exactly.
      const double busy = ps.phase_ns[ph] - mem - lock - barrier;
      PTB_CHECK_MSG(busy >= 0.0,
                    "anatomy: negative busy remainder — phase accounting broke");
      const double remote_est =
          static_cast<double>(col.remote_misses(p, ph)) * remote_extra +
          static_cast<double>(col.page_faults(p, ph)) * spec.page_fault_ns;
      const double mem_remote = std::min(mem, remote_est);
      Ledger::Cell& cell = led.cells[static_cast<std::size_t>(p)][phi];
      cell[static_cast<int>(Category::kBusy)] = busy;
      cell[static_cast<int>(Category::kMemLocal)] = mem - mem_remote;
      cell[static_cast<int>(Category::kMemRemote)] = mem_remote;
      cell[static_cast<int>(Category::kLockWait)] = lock;
      cell[static_cast<int>(Category::kBarrierWait)] = barrier;
      cell[static_cast<int>(Category::kPhaseSkew)] = phase_max - ps.phase_ns[ph];
      for (double v : cell) phase_sum += v;
    }
    // Per-phase tiling: the p cells of this phase cover p * wall duration.
    PTB_CHECK_MSG(phase_sum == static_cast<double>(led.nprocs) * phase_max,
                  "anatomy: per-phase ledger does not tile p * phase time");
  }
  // The hard accounting invariant: every virtual cycle of every processor
  // in exactly one category. Exact double equality — all terms are
  // integer-valued and far below 2^53.
  PTB_CHECK_MSG(led.sum_ns() == static_cast<double>(led.nprocs) * led.total_ns,
                "anatomy: ledger sum != p * T_p — a cycle was dropped or counted twice");
  return led;
}

Waterfall build_waterfall(const Ledger& ref, const Ledger& led) {
  PTB_CHECK_MSG(ref.enabled && ref.nprocs == 1,
                "anatomy: waterfall reference must be an enabled p=1 ledger");
  PTB_CHECK_MSG(led.enabled, "anatomy: waterfall needs an enabled ledger");
  Waterfall w;
  w.enabled = true;
  w.procs = led.nprocs;
  w.t1_ns = ref.total_ns;
  w.tp_ns = led.total_ns;
  w.loss_ns = static_cast<double>(led.nprocs) * led.total_ns - ref.total_ns;
  double delta_sum = 0.0;
  for (int c = 0; c < kNumCategories; ++c) {
    const auto cat = static_cast<Category>(c);
    w.delta[static_cast<std::size_t>(c)] = led.category_ns(cat) - ref.category_ns(cat);
    delta_sum += w.delta[static_cast<std::size_t>(c)];
    for (int ph = 0; ph < kNumPhases; ++ph) {
      const auto phase = static_cast<Phase>(ph);
      w.phase_delta[static_cast<std::size_t>(ph)][static_cast<std::size_t>(c)] =
          led.phase_category_ns(phase, cat) - ref.phase_category_ns(phase, cat);
    }
  }
  // Both ledgers tile exactly, so the category deltas attribute the whole
  // speedup loss with nothing left over.
  PTB_CHECK_MSG(delta_sum == w.loss_ns,
                "anatomy: waterfall deltas do not sum to p*T_p - T_1");
  return w;
}

void ingest_anatomy_metrics(trace::MetricsRegistry& m, const Ledger& led) {
  m.set("anatomy.total_ns", {}, led.total_ns);
  m.set("anatomy.procs", {}, static_cast<double>(led.nprocs));
  for (int c = 0; c < kNumCategories; ++c) {
    const auto cat = static_cast<Category>(c);
    m.set("anatomy.category_ns", {{"category", category_name(cat)}},
          led.category_ns(cat));
    for (int ph = 0; ph < kNumPhases; ++ph) {
      if (ph == static_cast<int>(Phase::kOther)) continue;
      const auto phase = static_cast<Phase>(ph);
      m.set("anatomy.phase_category_ns",
            {{"category", category_name(cat)}, {"phase", phase_name(phase)}},
            led.phase_category_ns(phase, cat));
    }
  }
}

}  // namespace ptb::anatomy
