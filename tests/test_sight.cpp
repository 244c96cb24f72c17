// Tests for ptb::sight — sharing-pattern classification, the planted
// false-sharing fixture (two per-proc counters in one 64 B line) with its
// padded negative control, exact reuse-distance / working-set tracking, the
// bit-identity guarantee across the full algorithm × platform matrix (sight
// must be a pure observer of virtual time), sight JSON, and the metrics
// bridge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "json_checker.hpp"
#include "mem/model.hpp"
#include "platform/spec.hpp"
#include "sight/sight.hpp"
#include "support/cell_resolver.hpp"

namespace ptb {
namespace {

using sight::LineClass;
using sight::LineUse;
using sight::SightModel;
using sight::SightReport;
using testutil::JsonChecker;

std::unique_ptr<SightModel> make_sight(int nprocs) {
  return std::make_unique<SightModel>(make_mem_model(PlatformSpec::ideal(), nprocs));
}

std::uint64_t class_lines(const SightReport& r, LineClass c) {
  return r.total_classes[static_cast<std::size_t>(c)];
}

// --- classification taxonomy ---

TEST(SightClassify, OneProcessorIsPrivateRegardlessOfMix) {
  LineUse u;
  EXPECT_EQ(sight::classify(u), LineClass::kUntouched);
  u.readers = 0b1;
  u.reads = 3;
  EXPECT_EQ(sight::classify(u), LineClass::kPrivate);
  u.writers = 0b1;
  u.writes = 2;
  EXPECT_EQ(sight::classify(u), LineClass::kPrivate);
}

TEST(SightClassify, MultipleReadersNoWriterIsReadShared) {
  LineUse u;
  u.readers = 0b1011;
  u.reads = 9;
  EXPECT_EQ(sight::classify(u), LineClass::kReadShared);
}

TEST(SightClassify, SingleWriterWithReadersIsProducerConsumer) {
  LineUse u;
  u.readers = 0b110;
  u.writers = 0b001;
  u.reads = 6;
  u.writes = 3;
  EXPECT_EQ(sight::classify(u), LineClass::kProducerConsumer);
}

TEST(SightClassify, ReadBeforeWriteTransfersAreMigratory) {
  LineUse u;
  u.readers = 0b11;
  u.writers = 0b11;
  u.reads = 8;
  u.writes = 8;
  u.writer_changes = 4;
  u.migratory_changes = 4;  // every new owner read the line first
  EXPECT_EQ(sight::classify(u), LineClass::kMigratory);
  u.migratory_changes = 3;  // 3/4 transfers read-first still qualifies
  EXPECT_EQ(sight::classify(u), LineClass::kMigratory);
}

TEST(SightClassify, BlindWriteBouncingIsPingPong) {
  LineUse u;
  u.writers = 0b11;
  u.writes = 8;
  u.writer_changes = 4;
  u.migratory_changes = 0;
  EXPECT_EQ(sight::classify(u), LineClass::kPingPong);
  u.migratory_changes = 2;  // half read-first is below the 3/4 threshold
  EXPECT_EQ(sight::classify(u), LineClass::kPingPong);
}

// --- planted false sharing ---

// The classic bug: two processors increment their "own" 8-byte counters that
// the layout packed into one 64 B line.
TEST(SightFalseSharing, PlantedPerProcCountersInOneLineAreDetected) {
  auto sm = make_sight(2);
  alignas(64) static std::uint64_t counters[8] = {};
  sm->register_region(counters, sizeof(counters), HomePolicy::kFixed, 0,
                      "fixture.counters");
  sm->set_object_granule("fixture.counters", sizeof(std::uint64_t));

  std::uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    sm->on_write(0, &counters[0], 8, now);
    now += 10;
    sm->on_write(1, &counters[1], 8, now);
    now += 10;
  }

  const SightReport rep = sm->build_report(CellResolver{});
  ASSERT_EQ(rep.false_sharing.size(), 1u);
  const sight::Finding& f = rep.false_sharing[0];
  EXPECT_EQ(f.region, "fixture.counters");
  EXPECT_EQ(f.line, 0u);
  EXPECT_EQ(f.objects, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(f.procs, (std::vector<int>{0, 1}));
  EXPECT_GE(f.hits, 8u);
  EXPECT_EQ(rep.false_sharing_hits, f.hits);
  // Blind cross-writes also classify the line ping-pong.
  EXPECT_EQ(class_lines(rep, LineClass::kPingPong), 1u);
}

// The fix — one counter per line — silences the detector and the line class.
TEST(SightFalseSharing, PaddedCountersAreTheNegativeControl) {
  struct alignas(64) Padded {
    std::uint64_t v = 0;
    char pad[56];
  };
  auto sm = make_sight(2);
  alignas(64) static Padded padded[2];
  sm->register_region(padded, sizeof(padded), HomePolicy::kFixed, 0, "fixture.padded");
  sm->set_object_granule("fixture.padded", sizeof(Padded));

  std::uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    sm->on_write(0, &padded[0].v, 8, now);
    now += 10;
    sm->on_write(1, &padded[1].v, 8, now);
    now += 10;
  }

  const SightReport rep = sm->build_report(CellResolver{});
  EXPECT_TRUE(rep.false_sharing.empty());
  EXPECT_EQ(rep.false_sharing_hits, 0u);
  EXPECT_EQ(class_lines(rep, LineClass::kPrivate), 2u);
}

TEST(SightFalseSharing, WritesFartherApartThanTheWindowDoNotCount) {
  auto sm = make_sight(2);
  alignas(64) static std::uint64_t counters[8] = {};
  sm->register_region(counters, sizeof(counters), HomePolicy::kFixed, 0,
                      "fixture.counters");
  sm->set_object_granule("fixture.counters", sizeof(std::uint64_t));
  sm->set_window_ns(100);

  std::uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    sm->on_write(0, &counters[0], 8, now);
    now += 5000;
    sm->on_write(1, &counters[1], 8, now);
    now += 5000;
  }
  const SightReport rep = sm->build_report(CellResolver{});
  EXPECT_TRUE(rep.false_sharing.empty());
  // Still genuinely shared — the classifier sees it even if the writes are
  // too far apart to cost coherence traffic.
  EXPECT_EQ(class_lines(rep, LineClass::kPingPong), 1u);
}

TEST(SightFalseSharing, TrueSharingOfOneObjectIsNotFlagged) {
  auto sm = make_sight(2);
  alignas(64) static std::uint64_t counters[8] = {};
  sm->register_region(counters, sizeof(counters), HomePolicy::kFixed, 0,
                      "fixture.counters");
  sm->set_object_granule("fixture.counters", sizeof(std::uint64_t));
  std::uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    sm->on_write(i % 2, &counters[0], 8, now);  // both procs, SAME object
    now += 10;
  }
  EXPECT_TRUE(sm->build_report(CellResolver{}).false_sharing.empty());
}

TEST(SightFalseSharing, RegionsWithoutAGranuleAreNeverFlagged) {
  auto sm = make_sight(2);
  alignas(64) static std::uint64_t counters[8] = {};
  sm->register_region(counters, sizeof(counters), HomePolicy::kFixed, 0,
                      "fixture.counters");
  std::uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    sm->on_write(0, &counters[0], 8, now);
    now += 10;
    sm->on_write(1, &counters[1], 8, now);
    now += 10;
  }
  EXPECT_TRUE(sm->build_report(CellResolver{}).false_sharing.empty());
}

TEST(SightWindow, DefaultsToEightWorstMissesOfThePlatform) {
  const PlatformSpec p = PlatformSpec::ideal();
  const double worst = std::max({p.remote_miss_ns, p.local_miss_ns, p.page_fault_ns, 100.0});
  auto sm = make_sight(2);
  EXPECT_EQ(sm->window_ns(), static_cast<std::uint64_t>(std::llround(8.0 * worst)));
  sm->set_window_ns(12345);
  EXPECT_EQ(sm->window_ns(), 12345u);
}

// --- reuse distance / working set ---

TEST(SightReuse, ExactStackDistancesAndPerPhaseWorkingSets) {
  auto sm = make_sight(1);
  alignas(64) static char buf[64 * 4];
  sm->register_region(buf, sizeof(buf), HomePolicy::kFixed, 0, "fixture.buf");

  sm->on_phase(0, Phase::kTreeBuild);
  // A B C A: the second A has exactly 2 distinct lines in between.
  sm->on_read(0, buf + 0, 4, 0);
  sm->on_read(0, buf + 64, 4, 10);
  sm->on_read(0, buf + 128, 4, 20);
  sm->on_read(0, buf + 0, 4, 30);
  sm->on_phase(0, Phase::kForces);
  sm->on_read(0, buf + 0, 4, 40);  // re-touch in a new phase: distance 0

  const SightReport rep = sm->build_report(CellResolver{});
  const sight::WorkingSetRow* build = nullptr;
  const sight::WorkingSetRow* forces = nullptr;
  for (const auto& w : rep.working_set) {
    if (w.phase == static_cast<int>(Phase::kTreeBuild)) build = &w;
    if (w.phase == static_cast<int>(Phase::kForces)) forces = &w;
  }
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->distinct_lines, 3u);
  EXPECT_EQ(build->cold, 3u);  // A, B, C first-ever touches
  ASSERT_EQ(build->reuse.count(), 1u);
  EXPECT_DOUBLE_EQ(build->reuse.stat().max(), 2.0);  // the A..A distance

  ASSERT_NE(forces, nullptr);
  EXPECT_EQ(forces->distinct_lines, 1u);
  EXPECT_EQ(forces->cold, 0u);
  ASSERT_EQ(forces->reuse.count(), 1u);
  EXPECT_DOUBLE_EQ(forces->reuse.stat().max(), 0.0);  // immediate re-touch
}

TEST(SightReuse, SlotCompactionPreservesDistances) {
  auto sm = make_sight(1);
  // 33 lines cycled many times: >1024 accesses forces at least one Fenwick
  // compaction; every post-warm-up cycle must still see distance 32.
  alignas(64) static char buf[64 * 33];
  sm->register_region(buf, sizeof(buf), HomePolicy::kFixed, 0, "fixture.buf");
  for (int round = 0; round < 40; ++round)
    for (int l = 0; l < 33; ++l) sm->on_read(0, buf + 64 * l, 1, 0);
  const SightReport rep = sm->build_report(CellResolver{});
  ASSERT_EQ(rep.working_set.size(), 1u);
  const auto& w = rep.working_set[0];
  EXPECT_EQ(w.distinct_lines, 33u);
  EXPECT_EQ(w.cold, 33u);
  EXPECT_EQ(w.reuse.count(), 40u * 33u - 33u);
  EXPECT_DOUBLE_EQ(w.reuse.stat().max(), 32.0);
  EXPECT_DOUBLE_EQ(w.reuse.stat().mean(), 32.0);  // every reuse sees all others
}

// --- decorator plumbing ---

TEST(SightModelTest, ForwardsLatenciesAndStatsUnchanged) {
  const PlatformSpec spec = PlatformSpec::by_name("challenge");
  auto plain = make_mem_model(spec, 2);
  auto sighted = std::make_unique<SightModel>(make_mem_model(spec, 2));
  alignas(64) static char buf[4096];
  plain->register_region(buf, sizeof(buf), HomePolicy::kInterleavedBlock, 0, "buf");
  sighted->register_region(buf, sizeof(buf), HomePolicy::kInterleavedBlock, 0, "buf");
  std::uint64_t now = 0;
  for (int i = 0; i < 64; ++i) {
    const int p = i % 2;
    const std::size_t off = static_cast<std::size_t>((i * 192) % 4000);
    EXPECT_EQ(sighted->on_read(p, buf + off, 8, now), plain->on_read(p, buf + off, 8, now));
    EXPECT_EQ(sighted->on_write(p, buf + off, 8, now + 7),
              plain->on_write(p, buf + off, 8, now + 7));
    now += 100;
  }
  EXPECT_EQ(sighted->proc_stats(0).read_misses, plain->proc_stats(0).read_misses);
  EXPECT_EQ(sighted->total_stats().invalidations_sent,
            plain->total_stats().invalidations_sent);
}

TEST(SightModelTest, ObservedRegionsDoNotReachTheInnerModel) {
  auto sm = make_sight(2);
  alignas(64) static char lockwords[256];
  sm->add_observed_region(lockwords, sizeof(lockwords), "locks");
  // The observer resolves the lock word; the wrapped protocol model must not
  // (forwarding it would renumber blocks and change virtual time).
  std::uint64_t now = 0;
  sm->on_acquire(0, lockwords + 0, now);
  sm->on_release(0, lockwords + 0, now + 10);
  sm->on_acquire(1, lockwords + 0, now + 20);
  sm->on_release(1, lockwords + 0, now + 30);
  const SightReport rep = sm->build_report(CellResolver{});
  EXPECT_EQ(rep.lines_observed, 1u);
  // Acquire = read-then-write of the word: the contended lock is migratory.
  EXPECT_EQ(class_lines(rep, LineClass::kMigratory), 1u);
}

// --- end to end over the simulator ---

ExperimentSpec sight_spec(const char* platform, Algorithm alg, int n, int nprocs) {
  ExperimentSpec spec;
  spec.platform = platform;
  spec.algorithm = alg;
  spec.n = n;
  spec.nprocs = nprocs;
  spec.warmup_steps = 1;
  spec.measured_steps = 1;
  spec.sight = true;
  return spec;
}

// The tentpole guarantee: sight forwards every latency unchanged, so the
// whole algorithm × platform matrix must be bit-identical with and without
// the observer attached.
TEST(SightEndToEnd, BitIdenticalAcrossTheAlgorithmPlatformMatrix) {
  for (const char* platform : {"ideal", "challenge", "origin2000", "paragon",
                               "typhoon0_hlrc", "typhoon0_sc"}) {
    for (Algorithm alg : all_algorithms()) {
      ExperimentSpec spec = sight_spec(platform, alg, 600, 4);
      ExperimentRunner runner;  // shares the cached sequential baseline
      spec.sight = false;
      const ExperimentResult plain = runner.run(spec);
      spec.sight = true;
      const ExperimentResult sighted = runner.run(spec);
      const std::string cfg =
          std::string(platform) + "/" + algorithm_name(alg);
      EXPECT_EQ(sighted.run.total_ns, plain.run.total_ns) << cfg;
      EXPECT_EQ(sighted.treebuild_locks_total, plain.treebuild_locks_total) << cfg;
      EXPECT_EQ(sighted.mem.page_faults, plain.mem.page_faults) << cfg;
      EXPECT_EQ(sighted.mem.remote_misses, plain.mem.remote_misses) << cfg;
      EXPECT_FALSE(plain.sight.enabled);
      EXPECT_TRUE(sighted.sight.enabled) << cfg;
      EXPECT_GT(sighted.sight.lines_observed, 0u) << cfg;
    }
  }
}

// All three observers stacked (sight outermost, wrapping race, wrapping the
// protocol) still perturb nothing.
TEST(SightEndToEnd, CombinedSightRaceProfIsBitIdentical) {
  ExperimentSpec spec = sight_spec("typhoon0_hlrc", Algorithm::kOrig, 1500, 4);
  spec.sight = false;
  ExperimentRunner plain_runner;
  const ExperimentResult plain = plain_runner.run(spec);
  spec.sight = true;
  spec.race = true;
  spec.prof = true;
  ExperimentRunner full_runner;
  const ExperimentResult full = full_runner.run(spec);
  EXPECT_EQ(full.run.total_ns, plain.run.total_ns);
  EXPECT_EQ(full.treebuild_locks_total, plain.treebuild_locks_total);
  EXPECT_EQ(full.mem.page_faults, plain.mem.page_faults);
  ASSERT_TRUE(full.sight.enabled);
  ASSERT_TRUE(full.race.enabled);
  EXPECT_EQ(full.race.races, 0u);
  ASSERT_TRUE(full.profile.enabled);
}

// The paper's SPACE claim made data-centric: each processor builds its own
// subtree in its own spatial region, so during the build phase the cell
// lines it touches are overwhelmingly its own — only the handful of shared
// upper-tree cells where the subtrees link up are touched cross-processor
// (empirically ~2% of build-phase cell lines at n=2048/p=4) — and none of
// the write traffic is false sharing.
TEST(SightEndToEnd, SpaceBuildPhaseCellLinesArePrivateWithNoFalseSharing) {
  ExperimentRunner runner;
  const ExperimentResult r =
      runner.run(sight_spec("challenge", Algorithm::kSpace, 2048, 4));
  ASSERT_TRUE(r.sight.enabled);

  std::uint64_t cell_build_lines = 0, cell_build_private = 0;
  for (const sight::ClassCell& c : r.sight.classes) {
    if (c.phase != static_cast<int>(Phase::kTreeBuild) || c.scope != "cells") continue;
    cell_build_lines += c.lines;
    if (c.cls == LineClass::kPrivate) cell_build_private += c.lines;
  }
  ASSERT_GT(cell_build_lines, 0u);
  EXPECT_GE(static_cast<double>(cell_build_private),
            0.95 * static_cast<double>(cell_build_lines))
      << "private " << cell_build_private << " of " << cell_build_lines;

  for (const sight::Finding& f : r.sight.false_sharing)
    EXPECT_EQ(f.phase_hits[static_cast<std::size_t>(Phase::kTreeBuild)], 0u)
        << f.region << " line " << f.line;
}

// ORIG is the contrast: every processor inserts through the shared upper
// tree, so build-phase cell lines cannot all be private.
TEST(SightEndToEnd, OrigBuildPhaseSharesCells) {
  ExperimentRunner runner;
  const ExperimentResult r =
      runner.run(sight_spec("challenge", Algorithm::kOrig, 2048, 4));
  ASSERT_TRUE(r.sight.enabled);
  std::uint64_t shared_lines = 0;
  for (const sight::ClassCell& c : r.sight.classes) {
    if (c.phase != static_cast<int>(Phase::kTreeBuild) || c.scope != "cells") continue;
    if (c.cls != LineClass::kPrivate) shared_lines += c.lines;
  }
  EXPECT_GT(shared_lines, 0u);
}

TEST(SightEndToEnd, JsonIsWellFormedAndMetricsAreIngested) {
  ExperimentRunner runner;
  const ExperimentResult r =
      runner.run(sight_spec("origin2000", Algorithm::kLocal, 1024, 4));
  ASSERT_TRUE(r.sight.enabled);
  EXPECT_EQ(r.sight.platform, "origin2000");
  EXPECT_EQ(r.sight.algorithm, "LOCAL");
  EXPECT_EQ(r.sight.nprocs, 4);

  const std::string json = sight_json(r.sight);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  for (const char* key : {"provenance", "window_ns", "total_classes", "classes",
                          "false_sharing", "working_set", "reuse_p95"})
    EXPECT_NE(json.find(key), std::string::npos) << key;

  EXPECT_DOUBLE_EQ(r.metrics.value("sight.lines_observed", {}),
                   static_cast<double>(r.sight.lines_observed));
  EXPECT_DOUBLE_EQ(r.metrics.value("sight.false_sharing_hits", {}),
                   static_cast<double>(r.sight.false_sharing_hits));
  double class_sum = 0.0;
  for (int c = 1; c < sight::kNumClasses; ++c)
    class_sum += r.metrics.value(
        "sight.class_lines",
        {{"class", line_class_name(static_cast<LineClass>(c))}});
  EXPECT_DOUBLE_EQ(class_sum, static_cast<double>(r.sight.lines_observed));
  // Working sets flow into the registry per (proc, phase).
  EXPECT_GT(r.metrics.sum("sight.ws_distinct_lines"), 0.0);
}

}  // namespace
}  // namespace ptb
