#include "sight/sight.hpp"

#include <algorithm>
#include <bitset>
#include <cinttypes>
#include <cmath>
#include <map>
#include <tuple>

#include "support/check.hpp"
#include "support/provenance.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace ptb::sight {

namespace {

int popcount64(std::uint64_t x) { return static_cast<int>(std::bitset<64>(x).count()); }

/// "local.cells.p3" → "local.cells.p*": collapses per-processor region
/// suffixes so the sharing table aggregates a pool family into one scope.
std::string normalize_scope(const std::string& name) {
  auto pos = name.rfind(".p");
  if (pos == std::string::npos || pos + 2 >= name.size()) return name;
  for (std::size_t i = pos + 2; i < name.size(); ++i)
    if (name[i] < '0' || name[i] > '9') return name;
  return name.substr(0, pos) + ".p*";
}

const char* phase_key(int phase) {
  return phase < 0 ? "run" : phase_name(static_cast<Phase>(phase));
}

}  // namespace

const char* line_class_name(LineClass c) {
  switch (c) {
    case LineClass::kUntouched: return "untouched";
    case LineClass::kPrivate: return "private";
    case LineClass::kReadShared: return "read-shared";
    case LineClass::kProducerConsumer: return "producer-consumer";
    case LineClass::kMigratory: return "migratory";
    case LineClass::kPingPong: return "ping-pong";
  }
  return "?";
}

LineClass classify(const LineUse& u) {
  const std::uint64_t all = u.readers | u.writers;
  if (all == 0) return LineClass::kUntouched;
  if ((all & (all - 1)) == 0) return LineClass::kPrivate;
  const int nw = popcount64(u.writers);
  if (nw == 0) return LineClass::kReadShared;
  if (nw == 1) return LineClass::kProducerConsumer;
  // Several writers: migratory when ownership transfers are predominantly
  // read-then-write (the lock-protected update pattern); otherwise the line
  // bounces on blind writes — ping-pong.
  if (u.migratory_changes * 4 >= u.writer_changes * 3) return LineClass::kMigratory;
  return LineClass::kPingPong;
}

// --- ReuseTracker -----------------------------------------------------------

void SightModel::ReuseTracker::fen_add(std::uint32_t pos, std::int32_t d) {
  for (; pos <= cap; pos += pos & (~pos + 1)) fen[pos] += static_cast<std::uint32_t>(d);
}

std::uint32_t SightModel::ReuseTracker::fen_prefix(std::uint32_t pos) const {
  std::uint32_t s = 0;
  for (; pos > 0; pos -= pos & (~pos + 1)) s += fen[pos];
  return s;
}

void SightModel::ReuseTracker::compact() {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> order;
  order.reserve(lines.size());
  // ptblint: allow(unordered-iter) -- collected into (slot, line) pairs and sorted before use
  for (const auto& [line, li] : lines) order.emplace_back(li.slot, line);
  std::sort(order.begin(), order.end());
  const auto k = static_cast<std::uint32_t>(order.size());
  cap = std::max<std::uint32_t>(1024, 2 * k);
  fen.assign(cap + 1, 0);
  next = 0;
  for (const auto& [slot, line] : order) {
    lines[line].slot = next;
    fen_add(next + 1, 1);
    ++next;
  }
}

std::uint64_t SightModel::ReuseTracker::access(std::uint64_t line, int phase,
                                               bool& first_in_phase) {
  if (cap == 0) {
    cap = 1024;
    fen.assign(cap + 1, 0);
  }
  if (next == cap) compact();
  auto [it, inserted] = lines.try_emplace(line);
  LineInfo& li = it->second;
  const auto pbit = static_cast<std::uint8_t>(1u << phase);
  first_in_phase = (li.phase_mask & pbit) == 0;
  li.phase_mask = static_cast<std::uint8_t>(li.phase_mask | pbit);
  std::uint64_t dist = ~std::uint64_t{0};
  if (!inserted) {
    // Distinct lines this processor touched since its last access to this
    // one: the markers in slots strictly more recent than ours.
    const auto occupied = static_cast<std::uint32_t>(lines.size());
    dist = occupied - fen_prefix(li.slot + 1);
    fen_add(li.slot + 1, -1);
  }
  li.slot = next++;
  fen_add(li.slot + 1, 1);
  return dist;
}

// --- SightModel -------------------------------------------------------------

SightModel::SightModel(std::unique_ptr<MemModel> inner)
    : MemModel(inner->spec(), inner->nprocs()),
      inner_(std::move(inner)),
      phase_(static_cast<std::size_t>(nprocs_), Phase::kOther),
      reuse_(static_cast<std::size_t>(nprocs_)),
      ws_lines_(static_cast<std::size_t>(nprocs_)),
      ws_cold_(static_cast<std::size_t>(nprocs_)),
      reuse_dist_(static_cast<std::size_t>(nprocs_)) {
  regions_.set_block_bytes(kLineBytes);
  const double worst = std::max(
      {spec_.remote_miss_ns, spec_.local_miss_ns, spec_.page_fault_ns, 100.0});
  window_ns_ = static_cast<std::uint64_t>(std::llround(8.0 * worst));
}

void SightModel::register_region(const void* base, std::size_t bytes, HomePolicy policy,
                                 int fixed_home, std::string name) {
  inner_->register_region(base, bytes, policy, fixed_home, name);
  MemModel::register_region(base, bytes, policy, fixed_home, std::move(name));
  slot_of_block_.resize(regions_.total_blocks(), -1);
  refresh_granules();
}

void SightModel::add_observed_region(const void* base, std::size_t bytes,
                                     std::string name) {
  MemModel::register_region(base, bytes, HomePolicy::kFixed, 0, std::move(name));
  slot_of_block_.resize(regions_.total_blocks(), -1);
  refresh_granules();
}

void SightModel::set_object_granule(const std::string& prefix, std::size_t bytes) {
  for (auto& [p, b] : granule_config_) {
    if (p == prefix) {
      b = bytes;
      refresh_granules();
      return;
    }
  }
  granule_config_.emplace_back(prefix, bytes);
  refresh_granules();
}

void SightModel::refresh_granules() {
  // Region indices shift when the table re-sorts on add, so the per-region
  // granule view is rebuilt from the name-prefix config each time.
  const auto& regs = regions_.regions();
  region_granule_.assign(regs.size(), 0);
  for (std::size_t i = 0; i < regs.size(); ++i) {
    for (const auto& [prefix, bytes] : granule_config_) {
      if (regs[i].name.rfind(prefix, 0) == 0)
        region_granule_[i] = static_cast<std::uint32_t>(bytes);
    }
  }
}

void SightModel::reset() {
  inner_->reset();
  MemModel::reset();
  slot_of_block_.clear();
  lines_.clear();
  line_block_.clear();
  region_granule_.clear();
  findings_.clear();
  phase_.assign(static_cast<std::size_t>(nprocs_), Phase::kOther);
  reuse_.assign(static_cast<std::size_t>(nprocs_), ReuseTracker{});
  ws_lines_.assign(static_cast<std::size_t>(nprocs_), {});
  ws_cold_.assign(static_cast<std::size_t>(nprocs_), {});
  reuse_dist_.assign(static_cast<std::size_t>(nprocs_), {});
  now_hint_ = 0;
  reads_ = 0;
  writes_ = 0;
}

SightModel::Line& SightModel::line_at(std::size_t block) {
  std::int32_t& s = slot_of_block_[block];
  if (s < 0) {
    s = static_cast<std::int32_t>(lines_.size());
    lines_.emplace_back();
    line_block_.push_back(block);
  }
  return lines_[static_cast<std::size_t>(s)];
}

void SightModel::note_class(int proc, LineClass cls, std::uint64_t now) {
  if (tracer_ != nullptr)
    tracer_->instant(proc, trace::kCatSight, line_class_name(cls), now, 1);
}

void SightModel::touch_line(int proc, std::size_t block, bool is_write,
                            std::uint32_t object, bool has_object, std::uint64_t now,
                            bool has_now) {
  Line& L = line_at(block);
  const auto ph = static_cast<std::size_t>(phase_[static_cast<std::size_t>(proc)]);
  const std::uint64_t bit = std::uint64_t{1} << proc;
  LineUse& total = L.total;
  LineUse& pu = L.phase[ph];
  if (is_write) {
    total.writes += 1;
    pu.writes += 1;
    total.writers |= bit;
    pu.writers |= bit;
    if (L.last_writer >= 0 && L.last_writer != proc) {
      total.writer_changes += 1;
      pu.writer_changes += 1;
      if ((L.readers_since_write & bit) != 0) {
        total.migratory_changes += 1;
        pu.migratory_changes += 1;
      }
    }
    if (has_object && has_now) {
      if (L.fs_writer >= 0 && L.fs_writer != proc && L.fs_object != object &&
          now - L.fs_when_ns <= window_ns_) {
        FindingAcc& f = findings_[block];
        f.hits += 1;
        f.procs |= bit | (std::uint64_t{1} << L.fs_writer);
        f.phase_hits[ph] += 1;
        for (std::uint32_t o : {L.fs_object, object}) {
          const std::uint64_t obit = std::uint64_t{1} << (o % 64);
          if ((f.objects & obit) == 0 ||
              std::find(f.object_ids.begin(), f.object_ids.end(), o) ==
                  f.object_ids.end()) {
            f.objects |= obit;
            f.object_ids.push_back(o);
          }
        }
      }
      L.fs_writer = static_cast<std::int16_t>(proc);
      L.fs_object = object;
      L.fs_when_ns = now;
    }
    L.last_writer = static_cast<std::int16_t>(proc);
    L.readers_since_write = 0;
  } else {
    total.reads += 1;
    pu.reads += 1;
    total.readers |= bit;
    pu.readers |= bit;
    L.readers_since_write |= bit;
  }
  const LineClass c = classify(total);
  if (c != L.cls) {
    L.cls = c;
    note_class(proc, c, has_now ? now : now_hint_);
  }

  ReuseTracker& rt = reuse_[static_cast<std::size_t>(proc)];
  bool first_in_phase = false;
  const std::uint64_t dist = rt.access(block, static_cast<int>(ph), first_in_phase);
  if (first_in_phase) ws_lines_[static_cast<std::size_t>(proc)][ph] += 1;
  if (dist == ~std::uint64_t{0}) {
    ws_cold_[static_cast<std::size_t>(proc)][ph] += 1;
  } else {
    reuse_dist_[static_cast<std::size_t>(proc)][ph].add(static_cast<double>(dist));
  }
}

void SightModel::observe(int proc, const void* p, std::size_t n, bool is_write,
                         std::uint64_t now, bool has_now) {
  const BlockRef br = regions_.resolve(p, nprocs_);
  if (!br.shared) return;
  if (is_write) {
    writes_ += 1;
  } else {
    reads_ += 1;
  }
  const Region& r = regions_.regions()[br.region];
  const std::uint32_t granule = region_granule_[br.region];
  const unsigned shift = regions_.block_shift();
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  std::uintptr_t end = a + (n > 0 ? n : 1);
  if (end > r.base + r.bytes) end = r.base + r.bytes;
  const std::size_t nlines = ((end - 1) >> shift) - (a >> shift);
  for (std::size_t i = 0; i <= nlines; ++i) {
    const std::uintptr_t first_byte = i == 0 ? a : (((a >> shift) + i) << shift);
    const std::uint32_t object =
        granule != 0 ? static_cast<std::uint32_t>((first_byte - r.base) / granule) : 0;
    touch_line(proc, br.block + i, is_write, object, granule != 0, now, has_now);
  }
}

std::uint64_t SightModel::on_read(int proc, const void* p, std::size_t n,
                                  std::uint64_t now) {
  now_hint_ = now;
  observe(proc, p, n, /*is_write=*/false, now, /*has_now=*/true);
  return inner_->on_read(proc, p, n, now);
}

std::uint64_t SightModel::on_write(int proc, const void* p, std::size_t n,
                                   std::uint64_t now) {
  now_hint_ = now;
  observe(proc, p, n, /*is_write=*/true, now, /*has_now=*/true);
  return inner_->on_write(proc, p, n, now);
}

std::uint64_t SightModel::on_rmw(int proc, const void* p, std::uint64_t now) {
  now_hint_ = now;
  observe(proc, p, sizeof(std::uint64_t), /*is_write=*/true, now, /*has_now=*/true);
  return inner_->on_rmw(proc, p, now);
}

std::uint64_t SightModel::on_acquire(int proc, const void* lock, std::uint64_t now) {
  now_hint_ = now;
  // A lock acquire is a read-modify-write of the lock word; record the read
  // first so contended locks classify migratory, not ping-pong.
  observe(proc, lock, sizeof(void*), /*is_write=*/false, now, /*has_now=*/true);
  observe(proc, lock, sizeof(void*), /*is_write=*/true, now, /*has_now=*/true);
  return inner_->on_acquire(proc, lock, now);
}

std::uint64_t SightModel::on_release(int proc, const void* lock, std::uint64_t now) {
  now_hint_ = now;
  observe(proc, lock, sizeof(void*), /*is_write=*/true, now, /*has_now=*/true);
  return inner_->on_release(proc, lock, now);
}

std::uint64_t SightModel::on_barrier_arrive(int proc, std::uint64_t now) {
  now_hint_ = now;
  return inner_->on_barrier_arrive(proc, now);
}

std::uint64_t SightModel::on_barrier_depart(int proc, std::uint64_t now) {
  now_hint_ = now;
  return inner_->on_barrier_depart(proc, now);
}

std::uint64_t SightModel::on_atomic(int proc, const void* sync, bool is_write,
                                    const void* p, std::size_t n, std::uint64_t now) {
  now_hint_ = now;
  observe(proc, p, n, is_write, now, /*has_now=*/true);
  return inner_->on_atomic(proc, sync, is_write, p, n, now);
}

std::uint64_t SightModel::on_read_shared(int proc, const void* p, std::size_t n) {
  // No virtual timestamp on the concurrent fast path; execution is
  // serialized whenever sight is attached (the simulator disables section
  // overlap for observers), so plain updates are safe and now_hint_ gives
  // trace instants a consistent, slightly-stale timestamp.
  observe(proc, p, n, /*is_write=*/false, now_hint_, /*has_now=*/false);
  return inner_->on_read_shared(proc, p, n);
}

std::uint64_t SightModel::on_read_shared_span(int proc, const void* p, std::size_t n,
                                              std::size_t stride, std::size_t count) {
  const char* a = static_cast<const char*>(p);
  for (std::size_t i = 0; i < count; ++i)
    observe(proc, a + i * stride, n, /*is_write=*/false, now_hint_, /*has_now=*/false);
  return inner_->on_read_shared_span(proc, p, n, stride, count);
}

void SightModel::on_phase(int proc, Phase ph) {
  phase_[static_cast<std::size_t>(proc)] = ph;
  inner_->on_phase(proc, ph);
}

// --- report assembly --------------------------------------------------------

namespace {

struct RegionSpan {
  std::size_t first_block;
  std::size_t end_block;
  const Region* region;
};

const RegionSpan* span_of(const std::vector<RegionSpan>& spans, std::size_t block) {
  auto it = std::upper_bound(spans.begin(), spans.end(), block,
                             [](std::size_t b, const RegionSpan& s) {
                               return b < s.first_block;
                             });
  if (it == spans.begin()) return nullptr;
  --it;
  return block < it->end_block ? &*it : nullptr;
}

}  // namespace

SightReport SightModel::build_report(const CellResolver& cells) const {
  SightReport rep;
  rep.enabled = true;
  rep.window_ns = window_ns_;
  rep.lines_observed = lines_.size();
  rep.reads = reads_;
  rep.writes = writes_;

  std::vector<RegionSpan> spans;
  spans.reserve(regions_.regions().size());
  for (const Region& r : regions_.regions())
    spans.push_back({r.first_block, r.first_block + r.num_blocks, &r});
  std::sort(spans.begin(), spans.end(), [](const RegionSpan& a, const RegionSpan& b) {
    return a.first_block < b.first_block;
  });
  const unsigned shift = regions_.block_shift();

  // (scope, depth, phase, class) -> line count. Phase -1 is the whole run.
  std::map<std::tuple<std::string, int, int, int>, std::uint64_t> table;
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    const Line& L = lines_[i];
    const RegionSpan* s = span_of(spans, line_block_[i]);
    if (s == nullptr) continue;
    const Region& r = *s->region;
    const std::uintptr_t lbase =
        ((r.base >> shift) + (line_block_[i] - r.first_block)) << shift;
    const CellResolver::Cell* c =
        cells.empty() ? nullptr
                      : cells.resolve(reinterpret_cast<const void*>(
                            std::max(lbase, r.base)));
    const std::string scope = c != nullptr ? "cells" : normalize_scope(r.name);
    const int depth = c != nullptr ? c->depth : -1;
    const LineClass run_cls = classify(L.total);
    rep.total_classes[static_cast<std::size_t>(run_cls)] += 1;
    table[{scope, depth, -1, static_cast<int>(run_cls)}] += 1;
    for (int ph = 0; ph < kNumPhases; ++ph) {
      const LineUse& u = L.phase[static_cast<std::size_t>(ph)];
      if ((u.readers | u.writers) == 0) continue;
      table[{scope, depth, ph, static_cast<int>(classify(u))}] += 1;
    }
  }
  for (const auto& [key, count] : table) {
    ClassCell cell;
    cell.scope = std::get<0>(key);
    cell.depth = std::get<1>(key);
    cell.phase = std::get<2>(key);
    cell.cls = static_cast<LineClass>(std::get<3>(key));
    cell.lines = count;
    rep.classes.push_back(std::move(cell));
  }

  // ptblint: allow(unordered-iter) -- findings are sorted below by the total key (hits, region, line)
  for (const auto& [block, acc] : findings_) {
    Finding f;
    const RegionSpan* s = span_of(spans, block);
    if (s == nullptr) continue;
    const Region& r = *s->region;
    f.region = r.name;
    f.line = block - r.first_block;
    const std::uintptr_t lbase = ((r.base >> shift) + f.line) << shift;
    const CellResolver::Cell* c =
        cells.empty() ? nullptr
                      : cells.resolve(reinterpret_cast<const void*>(
                            std::max(lbase, r.base)));
    f.cell = c != nullptr ? cell_name(c) : "";
    f.objects = acc.object_ids;
    std::sort(f.objects.begin(), f.objects.end());
    for (int p = 0; p < nprocs_; ++p)
      if ((acc.procs >> p) & 1) f.procs.push_back(p);
    f.hits = acc.hits;
    f.phase_hits = acc.phase_hits;
    rep.false_sharing_hits += acc.hits;
    rep.false_sharing.push_back(std::move(f));
  }
  std::sort(rep.false_sharing.begin(), rep.false_sharing.end(),
            [](const Finding& a, const Finding& b) {
              if (a.hits != b.hits) return a.hits > b.hits;
              if (a.region != b.region) return a.region < b.region;
              return a.line < b.line;
            });

  for (int p = 0; p < nprocs_; ++p) {
    for (int ph = 0; ph < kNumPhases; ++ph) {
      const auto pi = static_cast<std::size_t>(p);
      const auto phi = static_cast<std::size_t>(ph);
      WorkingSetRow row;
      row.proc = p;
      row.phase = ph;
      row.distinct_lines = ws_lines_[pi][phi];
      row.cold = ws_cold_[pi][phi];
      row.reuse = reuse_dist_[pi][phi];
      if (row.distinct_lines == 0 && row.cold == 0 && row.reuse.count() == 0) continue;
      rep.working_set.push_back(std::move(row));
    }
  }
  return rep;
}

// --- serialization ----------------------------------------------------------

void write_sight_json(const SightReport& r, std::FILE* f) {
  std::fprintf(f, "{\n  \"sight\": {\n");
  support::RunProvenance prov;
  prov.platform = r.platform;
  prov.algorithm = r.algorithm;
  prov.nbodies = r.nbodies;
  prov.nprocs = r.nprocs;
  std::fprintf(f, "    \"provenance\": ");
  support::write_provenance_json(f, &prov);
  std::fprintf(f, ",\n");
  std::fprintf(f, "    \"window_ns\": %" PRIu64 ",\n", r.window_ns);
  std::fprintf(f, "    \"lines_observed\": %" PRIu64 ",\n", r.lines_observed);
  std::fprintf(f, "    \"reads\": %" PRIu64 ",\n", r.reads);
  std::fprintf(f, "    \"writes\": %" PRIu64 ",\n", r.writes);
  std::fprintf(f, "    \"total_classes\": [");
  bool first = true;
  for (int c = 1; c < kNumClasses; ++c) {
    std::fprintf(f, "%s\n      {\"class\": \"%s\", \"lines\": %" PRIu64 "}",
                 first ? "" : ",", line_class_name(static_cast<LineClass>(c)),
                 r.total_classes[static_cast<std::size_t>(c)]);
    first = false;
  }
  std::fprintf(f, "\n    ],\n");
  std::fprintf(f, "    \"classes\": [");
  for (std::size_t i = 0; i < r.classes.size(); ++i) {
    const ClassCell& cc = r.classes[i];
    std::fprintf(f,
                 "%s\n      {\"scope\": \"%s\", \"depth\": %d, \"phase\": \"%s\", "
                 "\"class\": \"%s\", \"lines\": %" PRIu64 "}",
                 i != 0 ? "," : "", cc.scope.c_str(), cc.depth, phase_key(cc.phase),
                 line_class_name(cc.cls), cc.lines);
  }
  std::fprintf(f, "\n    ],\n");
  std::fprintf(f, "    \"false_sharing_hits\": %" PRIu64 ",\n", r.false_sharing_hits);
  std::fprintf(f, "    \"false_sharing\": [");
  for (std::size_t i = 0; i < r.false_sharing.size(); ++i) {
    const Finding& fd = r.false_sharing[i];
    std::fprintf(f,
                 "%s\n      {\"region\": \"%s\", \"line\": %" PRIu64
                 ", \"cell\": \"%s\", \"hits\": %" PRIu64 ", \"objects\": [",
                 i != 0 ? "," : "", fd.region.c_str(), fd.line, fd.cell.c_str(),
                 fd.hits);
    for (std::size_t o = 0; o < fd.objects.size(); ++o)
      std::fprintf(f, "%s%u", o != 0 ? ", " : "", fd.objects[o]);
    std::fprintf(f, "], \"procs\": [");
    for (std::size_t p = 0; p < fd.procs.size(); ++p)
      std::fprintf(f, "%s%d", p != 0 ? ", " : "", fd.procs[p]);
    std::fprintf(f, "], \"phase_hits\": [");
    bool ph_first = true;
    for (int ph = 0; ph < kNumPhases; ++ph) {
      if (fd.phase_hits[static_cast<std::size_t>(ph)] == 0) continue;
      std::fprintf(f, "%s{\"phase\": \"%s\", \"hits\": %" PRIu64 "}",
                   ph_first ? "" : ", ", phase_name(static_cast<Phase>(ph)),
                   fd.phase_hits[static_cast<std::size_t>(ph)]);
      ph_first = false;
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "\n    ],\n");
  std::fprintf(f, "    \"working_set\": [");
  for (std::size_t i = 0; i < r.working_set.size(); ++i) {
    const WorkingSetRow& w = r.working_set[i];
    std::fprintf(f,
                 "%s\n      {\"proc\": %d, \"phase\": \"%s\", \"distinct_lines\": %" PRIu64
                 ", \"cold\": %" PRIu64 ", \"reuse_samples\": %" PRIu64
                 ", \"reuse_p50\": %.1f, \"reuse_p95\": %.1f, \"reuse_max\": %.0f}",
                 i != 0 ? "," : "", w.proc, phase_name(static_cast<Phase>(w.phase)),
                 w.distinct_lines, w.cold, w.reuse.count(), w.reuse.p50(),
                 w.reuse.p95(), w.reuse.stat().max());
  }
  std::fprintf(f, "\n    ]\n  }\n}\n");
}

std::string sight_json(const SightReport& r) {
  std::FILE* f = std::tmpfile();
  PTB_CHECK_MSG(f != nullptr, "sight: cannot create temporary file");
  write_sight_json(r, f);
  long size = std::ftell(f);
  std::string out(static_cast<std::size_t>(size), '\0');
  std::rewind(f);
  std::size_t got = std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  out.resize(got);
  return out;
}

void ingest_sight_metrics(trace::MetricsRegistry& m, const SightReport& r) {
  m.set("sight.lines_observed", {}, static_cast<double>(r.lines_observed));
  m.set("sight.reads", {}, static_cast<double>(r.reads));
  m.set("sight.writes", {}, static_cast<double>(r.writes));
  for (int c = 1; c < kNumClasses; ++c) {
    m.set("sight.class_lines", {{"class", line_class_name(static_cast<LineClass>(c))}},
          static_cast<double>(r.total_classes[static_cast<std::size_t>(c)]));
  }
  m.set("sight.false_sharing_findings", {},
        static_cast<double>(r.false_sharing.size()));
  m.set("sight.false_sharing_hits", {}, static_cast<double>(r.false_sharing_hits));
  for (const WorkingSetRow& w : r.working_set) {
    const trace::Labels labels = {{"proc", std::to_string(w.proc)},
                                  {"phase", phase_name(static_cast<Phase>(w.phase))}};
    m.set("sight.ws_distinct_lines", labels, static_cast<double>(w.distinct_lines));
    m.set("sight.ws_cold", labels, static_cast<double>(w.cold));
    if (w.reuse.count() > 0) m.record_all("sight.reuse_dist", labels, w.reuse);
  }
}

}  // namespace ptb::sight
