// Shared check for the host runtimes (NativeContext, OmpContext): the force
// phase's results must not depend on how many threads run it. Each body's
// walk reads only the tree and writes only that body, and each thread gathers
// into scratch of its own, so splitting the bodies differently may change
// nothing — not the last bit of an acceleration, not one interaction.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "harness/app.hpp"
#include "treebuild/local.hpp"

namespace ptb::test {

/// Builds one tree, then for p in {1, 2, 4, 8} recomputes the costzones
/// partition under a Ctx of p threads and runs forces_phase; every body's acc
/// and cost, and the summed interaction count, must equal the first run's.
template <class Ctx>
void expect_forces_bit_identical_across_thread_counts() {
  BHConfig cfg;
  cfg.n = 4000;
  AppState st = make_app_state(cfg, 1);
  LocalBuilder builder(st);
  Ctx(1).run([&](auto& rt) {
    builder.build(rt);
    rt.barrier();
    moments_phase(rt, st);
    forces_phase(rt, st);   // bodies' costs become their interaction counts
    moments_phase(rt, st);  // and the cells' costs their sums, for costzones
  });
  const Bodies ref = st.bodies;
  const std::uint64_t ref_interactions = st.interactions[0];
  ASSERT_GT(ref_interactions, 0u);

  for (const int np : {1, 2, 4, 8}) {
    const auto unp = static_cast<std::size_t>(np);
    st.nprocs = np;
    st.partition.assign(unp, {});
    st.interactions.assign(unp, 0);
    st.interactions_cell.assign(unp, 0);
    st.interactions_body.assign(unp, 0);
    for (Body& b : st.bodies) b.acc = Vec3{};
    Ctx(np).run([&](auto& rt) {
      partition_phase(rt, st);
      forces_phase(rt, st);
    });

    std::vector<int> owners(st.bodies.size(), 0);
    for (const auto& zone : st.partition)
      for (const std::int32_t bi : zone) ++owners[static_cast<std::size_t>(bi)];
    std::uint64_t interactions = 0;
    for (const std::uint64_t k : st.interactions) interactions += k;
    EXPECT_EQ(interactions, ref_interactions) << "p=" << np;

    for (std::size_t i = 0; i < st.bodies.size(); ++i) {
      ASSERT_EQ(owners[i], 1) << "p=" << np << " body " << i;
      const Body& got = st.bodies[i];
      const Body& want = ref[i];
      for (int k = 0; k < 3; ++k)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.acc[k]),
                  std::bit_cast<std::uint64_t>(want.acc[k]))
            << "p=" << np << " body " << i << " acc[" << k << "]";
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.cost), std::bit_cast<std::uint64_t>(want.cost))
          << "p=" << np << " body " << i;
    }
  }
}

}  // namespace ptb::test
