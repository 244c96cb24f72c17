// Native parts: the Barnes-Hut library on real threads (NativeContext).
//
// Each time-step is driven as five separate calls into the library, timed
// one by one from here: build, moments_phase, partition_phase, forces_phase
// (native-force only) and integrate_phase. Every step is one operation; its
// trees are checked (check_tree with moments, canonical hash against the
// sequential reference where the builder test suite asserts it, forces
// against direct summation) before integrate_phase moves the bodies.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bh/generate.hpp"
#include "bh/seqtree.hpp"
#include "bh/verify.hpp"
#include "common.hpp"
#include "harness/app.hpp"
#include "rt/native_rt.hpp"
#include "treebuild/dispatch.hpp"

namespace perfbench {
namespace {

using ptb::Algorithm;
using ptb::NativeProc;

struct PhaseTimes {
  double build = 0, moments = 0, partition = 0, forces = 0, update = 0;
  double total() const { return build + moments + partition + forces + update; }
};

double med(const std::vector<PhaseTimes>& v, double PhaseTimes::*f) {
  std::vector<double> x;
  for (const auto& t : v) x.push_back(t.*f);
  return median(x);
}

double med_total(const std::vector<PhaseTimes>& v) {
  std::vector<double> x;
  for (const auto& t : v) x.push_back(t.total());
  return median(x);
}

/// One AppState + NativeContext + builder, stepped phase call by phase call.
/// `build` is bound to the live builder inside with_builder's scope.
struct Lane {
  Algorithm alg = Algorithm::kSpace;
  std::unique_ptr<ptb::AppState> st;
  std::unique_ptr<ptb::NativeContext> ctx;
  std::function<void(NativeProc&)> build;
  std::uint64_t lock_acquires = 0;  // last build
  /// Input generation + AppState/context/builder construction + warm-up.
  double setup_s = 0;

  Lane(Algorithm a, ptb::Bodies bodies, const ptb::BHConfig& cfg, int threads)
      : alg(a), st(std::make_unique<ptb::AppState>()),
        ctx(std::make_unique<ptb::NativeContext>(threads)) {
    st->cfg = cfg;
    st->init(std::move(bodies), threads);
  }

  /// One time-step; `check` runs between the forces and the update phase
  /// (untimed) and returns the failure reason, empty when all checks pass.
  PhaseTimes step(SpanLog& spans, bool forces, std::string& why,
                  const std::function<std::string()>& check) {
    ptb::AppState& s = *st;
    ptb::NativeContext& c = *ctx;
    PhaseTimes t;
    c.reset_stats();
    t.build = spans.time("phase", "build", [&] {
      c.run([&](NativeProc& rt) {
        rt.begin_phase(ptb::Phase::kTreeBuild);
        build(rt);
        rt.barrier();
      });
    });
    lock_acquires = 0;
    for (const auto& ps : c.stats())
      lock_acquires += ps.lock_acquires[static_cast<int>(ptb::Phase::kTreeBuild)];
    t.moments = spans.time("phase", "moments_phase", [&] {
      c.run([&](NativeProc& rt) { ptb::moments_phase(rt, s); });
    });
    t.partition = spans.time("phase", "partition_phase", [&] {
      c.run([&](NativeProc& rt) { ptb::partition_phase(rt, s); });
    });
    if (forces)
      t.forces = spans.time("phase", "forces_phase", [&] {
        c.run([&](NativeProc& rt) {
          ptb::forces_phase(rt, s);
          rt.barrier();
        });
      });
    why = check();
    t.update = spans.time("phase", "integrate_phase", [&] {
      c.run([&](NativeProc& rt) {
        ptb::integrate_phase(rt, s);
        rt.barrier();
      });
    });
    return t;
  }
};

/// Sets up `count` lanes one after another, each inside its own builder
/// scope: `make(i)` generates the input and constructs the lane, the
/// builder's regions are registered, and `warm` runs the warm-up step, all
/// timed into the lane's setup_s (warm adds its step's phase time). A lane
/// has touched its memory before the next one exists. Every scope stays
/// open while `body` runs.
void with_lanes(std::vector<Lane>& lanes, std::size_t count,
                const std::function<Lane(std::size_t)>& make,
                const std::function<void(Lane&)>& warm, const std::function<void()>& body) {
  if (lanes.size() == count) {
    body();
    return;
  }
  if (lanes.empty()) lanes.reserve(count);  // keeps references into it valid
  const auto t0 = Clock::now();
  Lane& L = lanes.emplace_back(make(lanes.size()));
  ptb::with_builder(L.alg, *L.st, [&](auto& b) {
    ptb::register_common_regions(*L.ctx, *L.st);
    b.register_regions(*L.ctx);
    b.reset();
    L.build = [&b](NativeProc& rt) { b.build(rt); };
    L.setup_s = seconds_since(t0);
    warm(L);
    with_lanes(lanes, count, make, warm, body);
    L.build = nullptr;
  });
}

std::uint64_t reference_hash(const ptb::Bodies& bodies, const ptb::BHConfig& cfg) {
  ptb::NodePool pool;
  pool.init(static_cast<std::size_t>(cfg.n) * 2 + 1024);
  return ptb::canonical_hash(ptb::SeqTree::build(bodies, cfg, pool), bodies);
}

/// Tree gates: check_tree with moments, plus the canonical hash against the
/// sequential reference when `ref_hash` is non-zero. `nodes` gets the count.
std::string tree_gate(const ptb::AppState& st, std::uint64_t ref_hash, int* nodes) {
  const ptb::TreeCheckResult r = ptb::check_tree(st.tree.root, st.bodies, st.cfg, true);
  if (nodes != nullptr) *nodes = r.node_count;
  if (!r.ok) return "check_tree: " + r.error;
  if (r.body_count != st.cfg.n) return "check_tree: body count";
  if (ref_hash != 0 && ptb::canonical_hash(st.tree.root, st.bodies) != ref_hash)
    return "canonical_hash differs from SeqTree";
  return {};
}

/// SPACE-step gates: tree shape, hash vs SeqTree, forces vs direct summation.
/// `plant` flips one sampled acceleration first; `pooled` collects errors.
std::string force_step_gate(ptb::AppState& st, const ForceCheck& fc, bool plant,
                            std::vector<double>* pooled) {
  std::string why = tree_gate(st, reference_hash(st.bodies, st.cfg), nullptr);
  if (!why.empty()) return why;
  if (plant) {  // flips the largest sampled acceleration
    ptb::Body* worst = nullptr;
    for (std::int32_t i : fc.sample) {
      ptb::Body& b = st.bodies[static_cast<std::size_t>(i)];
      if (worst == nullptr || ptb::norm2(b.acc) > ptb::norm2(worst->acc)) worst = &b;
    }
    worst->acc *= -1.0;
  }
  const ForceErrors errs = fc.errors(st.bodies, st.cfg.eps);
  if (pooled != nullptr) pooled->insert(pooled->end(), errs.rel.begin(), errs.rel.end());
  return force_gate(errs, st.cfg.n);
}

/// Sums the per-body force sub-spans forces_phase emitted into `tr`.
double span_seconds(const ptb::trace::Tracer& tr, const std::string& name) {
  double ns = 0;
  for (int p = 0; p < tr.nprocs(); ++p)
    for (const auto& e : tr.events(p))
      if (e.count == 0 && e.flow_ph == 0 && name == e.name)
        ns += static_cast<double>(e.dur_ns);
  return ns * 1e-9;
}

/// native-force: chunk k steps input k (the seed's own for k = 0, a
/// seed-derived one after it). Step time varies 5-10% between Plummer
/// realizations (how many bodies the dense core holds, where it falls on
/// the octree grid), so a run steps several.
class NativeForce final : public Part {
 public:
  NativeForce(const Options& o, SpanLog& spans)
      : o_(o), spans_(spans), n_(o.sizes.native_n), cfg_(bh_config(n_, o.seed)),
        fc_(n_, 1024, o.seed), fc_pooled_(n_, 4096, o.seed), tracer_(kNativeThreads, 0) {}

  void chunk(int k, double seconds) override {
    std::vector<Lane> lanes;
    ptb::Bodies bodies0;  // chunk 0's bodies after its steps, for the scaling step
    auto make = [&](std::size_t) {
      return Lane(Algorithm::kSpace, ptb::make_plummer(n_, input_seed(o_.seed, k)), cfg_,
                  kNativeThreads);
    };
    auto warm = [&](Lane& L) {
      std::string why;
      const PhaseTimes t = L.step(spans_, true, why, [&] {
        return force_step_gate(*L.st, fc_pooled_, false, &pooled_errs_);
      });
      L.setup_s += t.total();
      res_.op(why);
    };
    with_lanes(lanes, 1, make, warm, [&] {
      Lane& L = lanes.front();
      const auto m0 = Clock::now();
      for (int s = 0; within_budget(m0, s, o_.trace ? 2 : 1, seconds); ++s) {
        // The traced run alternates traced and untraced steps so that
        // trace.overhead_frac compares like with like.
        const bool traced_step = o_.trace && s % 2 == 0;
        L.ctx->set_tracer(traced_step ? &tracer_ : nullptr);
        tracer_.clear();
        std::string why;
        const bool first = steps_++ == 0;
        const PhaseTimes t = L.step(spans_, true, why, [&] {
          return force_step_gate(*L.st, fc_, first && o_.plant == "accel", nullptr);
        });
        L.ctx->set_tracer(nullptr);
        res_.op(why);
        const ptb::AppState& st = *L.st;
        if (first) {
          for (int p = 0; p < kNativeThreads; ++p) {
            icell_ += st.interactions_cell[static_cast<std::size_t>(p)];
            ibody_ += st.interactions_body[static_cast<std::size_t>(p)];
          }
        }
        if (!traced_step) {
          plain_.push_back(t);
          if (k == 0) plain0_.push_back(t);
          continue;
        }
        traced_.push_back(t);
        std::uint64_t inter = 0;
        for (std::uint64_t v : st.interactions) inter += v;
        const double g = span_seconds(tracer_, "force-gather");
        const double e = span_seconds(tracer_, "force-evaluate");
        gather_.push_back(g / kNativeThreads);
        evaluate_.push_back(e / kNativeThreads);
        eval_rate_.push_back(e > 0 ? static_cast<double>(inter) / e : 0.0);
      }
      if (k == 0 && o_.trace) bodies0 = L.st->bodies;
    });
    setups_.push_back(lanes.front().setup_s);
    if (!bodies0.empty()) scaling_step(std::move(bodies0));
  }

  Result finish() override {
    res_.setup_s = median(setups_);
    if (!o_.trace) {
      res_.metric("body_steps_per_s", n_ / med_total(plain_));
      res_.metric("force_err_p99", p99(pooled_errs_));
      return res_;
    }
    // moments, partition and update are measured on native-build's steps.
    res_.metric("treebuild.build_s", med(traced_, &PhaseTimes::build));
    res_.metric("harness.forces_s", med(traced_, &PhaseTimes::forces));
    res_.metric("bh.gather_s", median(gather_));
    res_.metric("bh.evaluate_s", median(evaluate_));
    res_.metric("bh.interactions_cell", static_cast<double>(icell_));
    res_.metric("bh.interactions_body", static_cast<double>(ibody_));
    res_.metric("bh.evaluate_interactions_per_s", median(eval_rate_));
    res_.metric("trace.overhead_frac", med_total(traced_) / med_total(plain_) - 1.0);
    res_.metric("rt.native.scaling_eff", t1_ / (kNativeThreads * med_total(plain0_)));
    return res_;
  }

 private:
  /// Scaling: input 0's bodies stepped on one thread (after one warm-up
  /// step), against its untraced 2-thread steps.
  void scaling_step(ptb::Bodies bodies) {
    std::vector<Lane> one;
    auto one_step = [&](Lane& L) {
      std::string why;
      const PhaseTimes t =
          L.step(spans_, true, why, [&] { return tree_gate(*L.st, 0, nullptr); });
      res_.op(why.empty() ? why : "1-thread: " + why);
      return t.total();
    };
    with_lanes(
        one, 1, [&](std::size_t) { return Lane(Algorithm::kSpace, bodies, cfg_, 1); },
        [&](Lane& L) { one_step(L); }, [&] { t1_ = one_step(one.front()); });
  }

  const Options o_;
  SpanLog& spans_;
  const int n_;
  const ptb::BHConfig cfg_;
  // Every step is checked on 1024 sampled bodies. force_err_p99 pools the
  // warm-up steps checked on 4096: at 1024 the p99 of the pool varied ~11%
  // from seed to seed, mostly from the sampling, at 4096 ~5%.
  const ForceCheck fc_, fc_pooled_;
  ptb::trace::Tracer tracer_;
  Result res_;
  std::vector<double> setups_, pooled_errs_;  // one per input
  std::vector<PhaseTimes> plain_, traced_, plain0_;
  std::vector<double> gather_, evaluate_, eval_rate_;
  std::uint64_t icell_ = 0, ibody_ = 0;
  int steps_ = 0;
  double t1_ = 0;
};

/// native-build: chunk k sets the six lanes up anew (so setup_s has one
/// sample per chunk) and steps them round after round.
class NativeBuild final : public Part {
 public:
  NativeBuild(const Options& o, SpanLog& spans)
      : o_(o), spans_(spans), n_(o.sizes.native_n), cfg_(bh_config(n_, o.seed)),
        algs_(ptb::all_algorithms()), plain_(algs_.size()), traced_(algs_.size()),
        locks_(algs_.size()), nodes_(algs_.size()),
        // Every lane starts from the same input.
        ref0_(reference_hash(ptb::make_colliding_pair(n_, o.seed), cfg_)) {
    for (std::size_t i = 0; i < algs_.size(); ++i)
      tracers_.emplace_back(kNativeThreads, std::size_t{1} << 16);
  }

  void chunk(int, double seconds) override {
    const std::size_t na = algs_.size();
    std::vector<Lane> lanes;
    auto make = [&](std::size_t i) {
      return Lane(algs_[i], ptb::make_colliding_pair(n_, o_.seed), cfg_, kNativeThreads);
    };
    auto warm = [&](Lane& L) {
      lane_step(L, static_cast<std::size_t>(&L - lanes.data()), ref0_, true, false);
    };
    with_lanes(lanes, na, make, warm, [&] {
      double setup = 0;
      for (const Lane& L : lanes) setup += L.setup_s;
      setups_.push_back(setup);
      // One round = one step of every lane. All lanes hold the same
      // positions (bodies drift on their velocities alone), so one
      // reference hash per round serves every builder.
      const auto m0 = Clock::now();
      for (int r = 0; within_budget(m0, r, o_.trace ? 2 : 1, seconds); ++r) {
        if (r > 0 && r % kReverseEvery == 0)
          for (Lane& L : lanes)
            for (ptb::Body& b : L.st->bodies) b.vel *= -1.0;
        const std::uint64_t ref = reference_hash(lanes.front().st->bodies, cfg_);
        for (std::size_t i = 0; i < na; ++i)
          lane_step(lanes[i], i, ref, false, o_.trace && r % 2 == 0);
      }
    });
  }

  Result finish() override {
    const std::size_t na = algs_.size();
    double sum = 0;  // of the per-builder median untraced steps
    for (std::size_t i = 0; i < na; ++i) sum += med_total(plain_[i]);
    res_.setup_s = median(setups_);
    if (!o_.trace) return res_;
    res_.metric("body_steps_per_s.all_builders", static_cast<double>(na) * n_ / sum);
    std::vector<PhaseTimes> all_traced, all_plain;
    for (std::size_t i = 0; i < na; ++i) {
      const std::string alg = ptb::algorithm_name(algs_[i]);
      res_.metric("body_steps_per_s." + alg, n_ / med_total(plain_[i]));
      res_.metric("treebuild." + alg + ".build_s", med(traced_[i], &PhaseTimes::build));
      res_.metric("treebuild." + alg + ".lock_acquires", median(locks_[i]));
      res_.metric("treebuild." + alg + ".nodes", median(nodes_[i]));
      all_traced.insert(all_traced.end(), traced_[i].begin(), traced_[i].end());
      all_plain.insert(all_plain.end(), plain_[i].begin(), plain_[i].end());
    }
    res_.metric("harness.moments_s", med(all_traced, &PhaseTimes::moments));
    res_.metric("harness.partition_s", med(all_traced, &PhaseTimes::partition));
    res_.metric("harness.update_s", med(all_traced, &PhaseTimes::update));
    res_.metric("trace.build_overhead_frac",
                med_total(all_traced) / med_total(all_plain) - 1.0);
    return res_;
  }

 private:
  // Velocities flip every few rounds so the drifting bodies oscillate about
  // their start: every round sees the same kind of input, however long the
  // run, and UPDATE still relocates bodies each step.
  static constexpr int kReverseEvery = 4;

  /// One step of lane i. UPDATE's incremental trees may legitimately differ
  /// in shape from a rebuild; the builder tests assert its hash on the
  /// initial build only, which is the warm-up step here.
  void lane_step(Lane& L, std::size_t i, std::uint64_t ref, bool warm_up, bool trace) {
    const bool hashed = warm_up || L.alg != Algorithm::kUpdate;
    int nn = 0;
    L.ctx->set_tracer(trace ? &tracers_[i] : nullptr);
    tracers_[i].clear();
    std::string why;
    const PhaseTimes t =
        L.step(spans_, false, why, [&] { return tree_gate(*L.st, hashed ? ref : 0, &nn); });
    L.ctx->set_tracer(nullptr);
    res_.op(why.empty() ? why : std::string(ptb::algorithm_name(L.alg)) + ": " + why);
    if (warm_up) {
      L.setup_s += t.total();
      return;
    }
    (trace ? traced_ : plain_)[i].push_back(t);
    locks_[i].push_back(static_cast<double>(L.lock_acquires));
    nodes_[i].push_back(nn);
  }

  const Options o_;
  SpanLog& spans_;
  const int n_;
  const ptb::BHConfig cfg_;
  const std::vector<Algorithm> algs_;
  std::vector<std::vector<PhaseTimes>> plain_, traced_;
  std::vector<std::vector<double>> locks_, nodes_;
  const std::uint64_t ref0_;
  std::vector<ptb::trace::Tracer> tracers_;
  Result res_;
  std::vector<double> setups_;
};

}  // namespace

std::unique_ptr<Part> native_force(const Options& o, SpanLog& spans) {
  return std::make_unique<NativeForce>(o, spans);
}

std::unique_ptr<Part> native_build(const Options& o, SpanLog& spans) {
  return std::make_unique<NativeBuild>(o, spans);
}

}  // namespace perfbench
