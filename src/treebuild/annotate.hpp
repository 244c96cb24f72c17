// Span-aware annotation helpers: batching contiguous body-data charges.
//
// The shadow arena (AppState::body_arena) keeps each processor's bodies in
// consecutive slots, so the body lists the read-only phases walk — a leaf's
// claimed bodies, an ORB subset — are mostly runs of arena-adjacent
// addresses. read_bodies_spanned detects those runs and charges each with
// ONE rt.read_shared_span call instead of a read_shared per body: one
// dispatch, one region resolution and one observer snapshot per run.
//
// Accounting contract: the charge sequence is identical to the per-body
// read_shared loop (each span element is exactly one body's charge address),
// and the per-body host work runs after its run's charge instead of
// interleaved with it — legal in a read_shared-only stretch because
// unordered charges and compute() only add to the per-processor pending
// bucket and never touch the clock (docs/PERF.md). Callers must NOT issue
// ordered operations from per_body: those fold the pending bucket, and
// reordering around a fold changes virtual times.
//
// Body-data *views* (DESIGN.md decision 14): the run detection and charge
// addressing are factored out into a view concept so the same coalescing
// serves both layouts the phases read:
//   * CanonicalBodyView — ids are body indices, charged at the migration
//     shadow arena via AppState::body_slot (the original behaviour);
//   * PermutationView — ids are *positions in a sort-permuted SoA array*
//     (RADIX's Morton-sorted keys/positions), charged at base + pos*stride.
//     Positions are their own slots, so a contiguous id run is by
//     construction one span — the whole point of sorting.
// A view provides slot(id) (run detection), addr(id) (charge address) and
// stride() (element distance inside a span).
#pragma once

#include <cstddef>
#include <cstdint>

#include "harness/state.hpp"

namespace ptb::annotate {

/// The default view: ids are body indices; charges land at the body's slot
/// in the migration shadow arena.
struct CanonicalBodyView {
  const AppState* st = nullptr;

  std::int32_t slot(std::int32_t id) const {
    return st->body_slot[static_cast<std::size_t>(id)];
  }
  const void* addr(std::int32_t id) const { return st->body_charge(id); }
  std::size_t stride() const { return sizeof(Body); }
};

/// View over a sort-permuted SoA array: ids are element positions, element i
/// is charged at base + i*stride. Used by RADIX for its Morton-sorted
/// position/key arrays, where a segment is one contiguous run by definition.
struct PermutationView {
  const void* base = nullptr;
  std::size_t stride_bytes = 0;

  std::int32_t slot(std::int32_t pos) const { return pos; }
  const void* addr(std::int32_t pos) const {
    return static_cast<const char*>(base) +
           static_cast<std::size_t>(pos) * stride_bytes;
  }
  std::size_t stride() const { return stride_bytes; }
};

/// Charges `bytes` of body data for each of ids[0..count), in order,
/// skipping any id equal to `skip` (pass -1 to keep all), then calls
/// per_body(id) for each charged body. Maximal runs of view-consecutive
/// ids become one read_shared_span; ids whose slots are not consecutive
/// (migration clamping, list order) fall out as runs of one, i.e. plain
/// read_shared charges.
template <class RT, class View, class F>
void read_view_spanned(RT& rt, const View& v, const std::int32_t* ids,
                       std::size_t count, std::size_t bytes, std::int32_t skip,
                       F&& per_body) {
  if constexpr (!RT::kCharges) {
    // Nothing to charge, so no slot to read: on the native runtimes another
    // processor may be rewriting body_slot meanwhile (ORB's claim).
    for (std::size_t i = 0; i < count; ++i)
      if (ids[i] != skip) per_body(ids[i]);
    return;
  }
  std::size_t i = 0;
  while (i < count) {
    if (ids[i] == skip) {
      ++i;
      continue;
    }
    const std::int32_t slot = v.slot(ids[i]);
    std::size_t j = i + 1;
    while (j < count && ids[j] != skip &&
           v.slot(ids[j]) == slot + static_cast<std::int32_t>(j - i))
      ++j;
    if (j - i == 1)  // scattered slot: most runs; skip the span wrapper
      rt.read_shared(v.addr(ids[i]), bytes);
    else
      rt.read_shared_span(v.addr(ids[i]), bytes, v.stride(), j - i);
    for (std::size_t k = i; k < j; ++k) per_body(ids[k]);
    i = j;
  }
}

/// Back-compat entry point: the canonical (shadow-arena) view.
template <class RT, class F>
void read_bodies_spanned(RT& rt, const AppState& st, const std::int32_t* ids,
                         std::size_t count, std::size_t bytes, std::int32_t skip,
                         F&& per_body) {
  read_view_spanned(rt, CanonicalBodyView{&st}, ids, count, bytes, skip,
                    static_cast<F&&>(per_body));
}

}  // namespace ptb::annotate
