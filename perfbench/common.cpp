#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bh/vec3.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

// Force-accuracy gates at theta = 1.0, eps = 0.05, from measurement on
// Plummer inputs (seeds 1, 2, 105 and 12345, every checked step or cell):
// the p99 relative error stayed within 0.073 at n = 4096, 0.061 at
// n = 16384 and 0.050 at n = 65536, and within 0.134 at the self-test sizes
// (n = 512, 2048). The worst scaled error (see ForceErrors) stayed within
// 0.08; the worst relative error of a single body reached 1.31, at a body
// 0.005 from the centre of a Plummer sphere, where the forces cancel to a
// twentieth of the typical acceleration. The gates leave 1.6-6x headroom;
// a sign-flipped acceleration is off by 2.
constexpr double kTolP99 = 0.12;
constexpr double kSmallTolP99 = 0.25;
constexpr int kTightFromN = 4096;  // kTolP99 from this size up
constexpr double kTolMax = 0.5;

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

void Result::op(const std::string& why) {
  ++attempted;
  if (why.empty()) return;
  ++failed;
  if (failures.size() < 16) failures.push_back(why);
}

SpanLog::SpanLog(bool on) {
  if (on) {
    tracer_ = std::make_unique<ptb::trace::Tracer>(1, 0);
    tracer_->set_clock_domain("wall");
  }
}

std::uint64_t SpanLog::ns(Clock::time_point t) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
}

bool SpanLog::write(const std::string& path) const {
  return tracer_ == nullptr || path.empty() || tracer_->write_chrome_json(path);
}

ForceCheck::ForceCheck(int n, std::size_t count, std::uint64_t seed) {
  count = std::min(count, static_cast<std::size_t>(n));
  std::vector<std::int32_t> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  // Partial Fisher-Yates with the library's portable generator.
  ptb::Rng rng(seed ^ 0x5eedf0cec4ec4ull);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + rng.next_u64() % (idx.size() - i);
    std::swap(idx[i], idx[j]);
  }
  sample.assign(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(count));
}

ForceErrors ForceCheck::errors(const ptb::Bodies& bodies, double eps) const {
  const double eps2 = eps * eps;
  ForceErrors out;
  std::vector<double> abs_err, ref;
  for (std::int32_t i : sample) {
    const ptb::Body& bi = bodies[static_cast<std::size_t>(i)];
    ptb::Vec3 direct{};
    for (const ptb::Body& bj : bodies) {
      const ptb::Vec3 d = bj.pos - bi.pos;
      const double r2 = ptb::norm2(d) + eps2;
      direct += (bj.mass / (r2 * std::sqrt(r2))) * d;
    }
    ref.push_back(std::sqrt(ptb::norm2(direct)));
    abs_err.push_back(std::sqrt(ptb::norm2(bi.acc - direct)));
    const double err = abs_err.back() / ref.back();
    out.rel.push_back(std::isfinite(err) ? err : INFINITY);
  }
  const double typical = median(ref);
  for (std::size_t k = 0; k < ref.size(); ++k) {
    const double err = abs_err[k] / std::max(ref[k], typical);
    out.worst_scaled = std::max(out.worst_scaled, std::isfinite(err) ? err : INFINITY);
  }
  return out;
}

double p99(std::vector<double> errs) {
  if (errs.empty()) return 0.0;
  std::sort(errs.begin(), errs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(errs.size())));
  return errs[std::max<std::size_t>(rank, 1) - 1];
}

std::string force_gate(const ForceErrors& e, int n) {
  const double tol_p99 = n >= kTightFromN ? kTolP99 : kSmallTolP99;
  const double e99 = p99(e.rel);
  char buf[128];
  if (!(e99 <= tol_p99)) {
    std::snprintf(buf, sizeof buf, "force_err_p99 %.3g > %.3g", e99, tol_p99);
    return buf;
  }
  if (!(e.worst_scaled <= kTolMax)) {
    std::snprintf(buf, sizeof buf, "force_err_max %.3g > %.3g", e.worst_scaled, kTolMax);
    return buf;
  }
  return {};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t input_seed(std::uint64_t seed, int k) {
  if (k == 0) return seed;
  return ptb::SplitMix64(seed ^ (0xa5a5a5a5ull * static_cast<std::uint64_t>(k))).next();
}

ptb::BHConfig bh_config(int n, std::uint64_t seed) {
  ptb::BHConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return cfg;
}

}  // namespace perfbench
