// Critical-path extraction over a prof::Capture.
//
// The virtual execution is a DAG: within one processor events are chained by
// program order, and across processors the only operations that *set* a
// clock forward are contended lock grants (the releaser hands its
// post-release time to the waiter) and barrier releases (the last arriver's
// time becomes everyone's). The critical path — the longest chain of
// dependent virtual time, equal by construction to the elapsed time of the
// run — is recovered by a backward walk from the last processor to finish:
//
//   stand at (proc p, time t); find p's latest recorded wait that resolved
//   at or before t; the stretch since that resolution is time p spent
//   *progressing the run's end* — emit it as a path segment — then hop to
//   the processor whose operation resolved the wait, at the resolution
//   time, and repeat until a segment reaches back to t = 0.
//
// Uncontended acquires and fetch&adds never set a clock from another
// processor's, so they add no cross-processor edges (their charges are
// inside segments); fiber scheduling is host-level and invisible in
// virtual time. Segment durations tile [0, elapsed] exactly — the sum of
// segments equals the run's elapsed virtual time, a checked invariant.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "prof/prof.hpp"
#include "rt/phase.hpp"

namespace ptb::prof {

/// One maximal single-processor stretch of the critical path.
struct Segment {
  /// How the path arrived at this segment's start.
  enum class Via : std::uint8_t { kStart, kLock, kBarrier };

  int proc = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  Via via = Via::kStart;
  std::uint32_t obj = 0;  // lock object id (Via::kLock only)

  std::uint64_t dur_ns() const { return end_ns - begin_ns; }
};

/// Path time entered through one sync object's contended handoffs.
struct ObjectPath {
  std::uint32_t obj = 0;
  std::uint64_t edges = 0;
  std::uint64_t ns = 0;  // duration of the segments those handoffs started
};

struct CriticalPath {
  std::uint64_t total_ns = 0;       // == Capture::elapsed_ns(), by construction
  std::vector<Segment> segments;    // chronological (run start → last finish)
  std::uint64_t lock_edges = 0;
  std::uint64_t barrier_edges = 0;
  // Segment time by the edge class that started the segment.
  std::uint64_t via_start_ns = 0;
  std::uint64_t via_lock_ns = 0;
  std::uint64_t via_barrier_ns = 0;
  // Segment time sliced by the owning processor's application phase, total
  // and by starting edge class.
  std::array<std::uint64_t, kNumPhases> phase_ns{};
  std::array<std::uint64_t, kNumPhases> phase_via_lock_ns{};
  std::array<std::uint64_t, kNumPhases> phase_via_barrier_ns{};
  std::vector<ObjectPath> by_object;  // descending by ns
};

CriticalPath critical_path(const Capture& cap);

}  // namespace ptb::prof
