// The shared phases: force accuracy against direct summation, costzones
// completeness/balance/determinism, parallel moments correctness, leapfrog;
// and AppState::init's rejection of non-finite bodies.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bh/seqtree.hpp"
#include "harness/app.hpp"
#include "sim/sim_rt.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "treebuild/local.hpp"

namespace ptb {
namespace {

Vec3 direct_accel(const Bodies& bodies, std::size_t i, double eps2) {
  Vec3 acc{};
  for (std::size_t j = 0; j < bodies.size(); ++j) {
    if (j == i) continue;
    const Vec3 d = bodies[j].pos - bodies[i].pos;
    const double r2 = norm2(d) + eps2;
    acc += (bodies[j].mass / (r2 * std::sqrt(r2))) * d;
  }
  return acc;
}

/// Runs build + moments + partition + forces on the simulator and returns the
/// state (accelerations filled in).
AppState run_through_forces(const BHConfig& cfg, int np) {
  AppState st = make_app_state(cfg, np);
  SimContext ctx(PlatformSpec::ideal(), np);
  register_common_regions(ctx, st);
  LocalBuilder builder(st);
  builder.register_regions(ctx);
  ctx.run([&](SimProc& rt) {
    builder.build(rt);
    rt.barrier();
    moments_phase(rt, st);
    partition_phase(rt, st);
    forces_phase(rt, st);
    rt.barrier();
  });
  return st;
}

TEST(Forces, CloseToDirectSummation) {
  BHConfig cfg;
  cfg.n = 1200;
  cfg.theta = 0.6;
  AppState st = run_through_forces(cfg, 4);
  // Normalize by the RMS acceleration: bodies near the cluster center have
  // near-zero net force, which makes per-body relative error ill-conditioned.
  double rms = 0.0;
  for (const Body& b : st.bodies) rms += norm2(b.acc);
  rms = std::sqrt(rms / static_cast<double>(st.bodies.size()));
  double err_sum = 0.0;
  int samples = 0;
  for (std::size_t i = 0; i < st.bodies.size(); i += 7) {
    const Vec3 exact = direct_accel(st.bodies, i, cfg.eps * cfg.eps);
    const double e = norm(exact - st.bodies[i].acc) / rms;
    err_sum += e;
    ++samples;
    EXPECT_LT(e, 0.2) << "body " << i;
  }
  EXPECT_LT(err_sum / samples, 0.02)
      << "mean normalized force error too large for theta=0.6";
}

TEST(Forces, ThetaControlsAccuracyAndCost) {
  BHConfig tight;
  tight.n = 1500;
  tight.theta = 0.3;
  BHConfig loose = tight;
  loose.theta = 1.2;
  AppState a = run_through_forces(tight, 2);
  AppState b = run_through_forces(loose, 2);
  std::uint64_t ia = 0, ib = 0;
  for (auto v : a.interactions) ia += v;
  for (auto v : b.interactions) ib += v;
  EXPECT_GT(ia, 2 * ib) << "smaller theta must do more interactions";

  double err_a = 0, err_b = 0;
  for (std::size_t i = 0; i < a.bodies.size(); i += 11) {
    const Vec3 exact = direct_accel(a.bodies, i, tight.eps * tight.eps);
    err_a += norm(exact - a.bodies[i].acc) / std::max(1e-12, norm(exact));
    err_b += norm(exact - b.bodies[i].acc) / std::max(1e-12, norm(exact));
  }
  EXPECT_LT(err_a, err_b) << "smaller theta must be more accurate";
}

TEST(Forces, IndependentOfProcessorCount) {
  // The tree SHAPE is identical for any processor count, but the order of
  // bodies within a leaf depends on insertion interleaving, so per-body
  // accumulation order (and hence the last ulp) may differ. Forces must
  // agree to floating-point-reassociation accuracy.
  BHConfig cfg;
  cfg.n = 800;
  AppState a = run_through_forces(cfg, 1);
  AppState b = run_through_forces(cfg, 8);
  for (std::size_t i = 0; i < a.bodies.size(); ++i) {
    const double scale = std::max(1.0, norm(a.bodies[i].acc));
    EXPECT_LT(norm(a.bodies[i].acc - b.bodies[i].acc) / scale, 1e-12)
        << "body " << i;
  }
}

TEST(Forces, NewtonThirdLawApproximately) {
  // Total momentum change should be ~0 (exact for direct sum; approximate
  // under Barnes-Hut, bounded by the theta error).
  BHConfig cfg;
  cfg.n = 2000;
  cfg.theta = 0.7;
  AppState st = run_through_forces(cfg, 4);
  Vec3 total{};
  for (const Body& b : st.bodies) total += b.mass * b.acc;
  double mag = 0.0;
  for (const Body& b : st.bodies) mag += b.mass * norm(b.acc);
  EXPECT_LT(norm(total) / mag, 0.02);
}

TEST(Costzones, EveryBodyAssignedExactlyOnce) {
  BHConfig cfg;
  cfg.n = 3000;
  AppState st = run_through_forces(cfg, 8);
  std::vector<int> owner_count(static_cast<std::size_t>(cfg.n), 0);
  for (int p = 0; p < st.nprocs; ++p)
    for (std::int32_t bi : st.partition[static_cast<std::size_t>(p)]) {
      ++owner_count[static_cast<std::size_t>(bi)];
      EXPECT_EQ(st.bodies[static_cast<std::size_t>(bi)].proc, p);
    }
  for (int c : owner_count) ASSERT_EQ(c, 1);
}

TEST(Costzones, BalancesCostNotJustCount) {
  BHConfig cfg;
  cfg.n = 4000;
  // Two force phases so the second partition uses measured interaction costs.
  AppState st = make_app_state(cfg, 8);
  SimContext ctx(PlatformSpec::ideal(), 8);
  register_common_regions(ctx, st);
  LocalBuilder builder(st);
  builder.register_regions(ctx);
  ctx.run([&](SimProc& rt) {
    for (int s = 0; s < 2; ++s) timestep(rt, st, builder, true);
    builder.build(rt);
    rt.barrier();
    moments_phase(rt, st);
    partition_phase(rt, st);
  });
  std::vector<double> zone_cost(8, 0.0);
  for (int p = 0; p < 8; ++p)
    for (std::int32_t bi : st.partition[static_cast<std::size_t>(p)])
      zone_cost[static_cast<std::size_t>(p)] +=
          std::max(1.0, st.bodies[static_cast<std::size_t>(bi)].cost);
  EXPECT_LT(imbalance_factor(zone_cost), 1.10)
      << "costzones must balance measured cost within ~10%";
}

TEST(Costzones, ZonesAreSpatiallyCoherent) {
  // Costzones assigns tree-contiguous runs: bodies of one processor should be
  // clustered, i.e. the mean intra-zone distance is well below the global
  // mean pair distance.
  BHConfig cfg;
  cfg.n = 2000;
  AppState st = run_through_forces(cfg, 8);
  Rng rng(5);
  auto mean_dist = [&](auto pick_pair) {
    double sum = 0;
    for (int k = 0; k < 2000; ++k) {
      auto [a, b] = pick_pair();
      sum += norm(st.bodies[a].pos - st.bodies[b].pos);
    }
    return sum / 2000;
  };
  const double global = mean_dist([&]() {
    return std::pair<std::size_t, std::size_t>{rng.next_below(st.bodies.size()),
                                               rng.next_below(st.bodies.size())};
  });
  const double intra = mean_dist([&]() {
    const auto& zone =
        st.partition[static_cast<std::size_t>(rng.next_below(8))];
    const auto i = static_cast<std::size_t>(zone[rng.next_below(zone.size())]);
    const auto j = static_cast<std::size_t>(zone[rng.next_below(zone.size())]);
    return std::pair<std::size_t, std::size_t>{i, j};
  });
  EXPECT_LT(intra, 0.95 * global);
}

TEST(Moments, ParallelMatchesSequential) {
  BHConfig cfg;
  cfg.n = 2500;
  AppState st = run_through_forces(cfg, 8);  // parallel moments inside
  // Sequential reference over the same tree content.
  NodePool pool;
  pool.init(8192);
  Node* ref = SeqTree::build(st.bodies, st.cfg, pool);
  SeqTree::compute_moments(ref, st.bodies);
  EXPECT_NEAR(st.tree.root->mass, ref->mass, 1e-12);
  EXPECT_NEAR(norm(st.tree.root->com - ref->com), 0.0, 1e-9);
  // The parallel moments ran BEFORE the force phase, when every body cost was
  // still the initial 1.0 — so the root's cost must be exactly n.
  EXPECT_NEAR(st.tree.root->cost, static_cast<double>(cfg.n), 1e-9);
}

TEST(Integrate, LeapfrogMovesBodies) {
  BHConfig cfg;
  cfg.n = 500;
  cfg.dt = 0.05;
  AppState st = make_app_state(cfg, 2);
  const Bodies before = st.bodies;
  SimContext ctx(PlatformSpec::ideal(), 2);
  register_common_regions(ctx, st);
  LocalBuilder builder(st);
  builder.register_regions(ctx);
  ctx.run([&](SimProc& rt) { timestep(rt, st, builder, true); });
  int moved = 0;
  for (std::size_t i = 0; i < st.bodies.size(); ++i)
    if (!(st.bodies[i].pos == before[i].pos)) ++moved;
  EXPECT_EQ(moved, cfg.n);
}

TEST(Integrate, EnergyDriftBounded) {
  // A few leapfrog steps of a virialized Plummer sphere should conserve
  // total energy to a few percent.
  BHConfig cfg;
  cfg.n = 600;
  cfg.theta = 0.5;
  cfg.dt = 0.0125;
  AppState st = make_app_state(cfg, 4);
  auto energy = [&](const Bodies& bodies) {
    double kin = 0, pot = 0;
    for (const Body& b : bodies) kin += 0.5 * b.mass * norm2(b.vel);
    for (std::size_t i = 0; i < bodies.size(); ++i)
      for (std::size_t j = i + 1; j < bodies.size(); ++j) {
        const double r = std::sqrt(norm2(bodies[i].pos - bodies[j].pos) +
                                   cfg.eps * cfg.eps);
        pot -= bodies[i].mass * bodies[j].mass / r;
      }
    return kin + pot;
  };
  const double e0 = energy(st.bodies);
  SimContext ctx(PlatformSpec::ideal(), 4);
  register_common_regions(ctx, st);
  LocalBuilder builder(st);
  builder.register_regions(ctx);
  ctx.run([&](SimProc& rt) {
    for (int s = 0; s < 8; ++s) timestep(rt, st, builder, true);
  });
  const double e1 = energy(st.bodies);
  EXPECT_LT(std::abs(e1 - e0) / std::abs(e0), 0.05);
}

TEST(AppStateDeathTest, RejectsNonFiniteBodyNamingItsIndex) {
  const auto init_with = [](auto&& spoil) {
    Bodies bodies = make_plummer(64, 1);
    spoil(bodies);
    AppState st;
    st.init(std::move(bodies), 2);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(init_with([&](Bodies& b) { b[37].pos.y = nan; }), "body 37: non-finite");
  EXPECT_DEATH(init_with([&](Bodies& b) { b[0].vel.z = -inf; }), "body 0: non-finite");
  EXPECT_DEATH(init_with([&](Bodies& b) { b[63].mass = inf; }), "body 63: non-finite");
}

}  // namespace
}  // namespace ptb
