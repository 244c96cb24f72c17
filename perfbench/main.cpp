// perfbench: the end-to-end benchmark's measuring program.
//
//   perfbench --workload small|large --seed N --seconds S --trace 0|1
//             [--tiny] [--plant accel|observed] [--spans out.json]
//
// Every workload runs the same four parts, native-force, native-build,
// sim-paper and sim-observed, each for a fixed share of the seconds (its
// set-ups and checks included), in chunks that take turns. The workload
// sets their sizes. Prints one JSON object on
// stdout: provenance, operations attempted and failed (with the first
// failure reasons), and the metric values of the run (end-to-end ones
// untraced, per-layer ones with --trace 1). run.py builds this program,
// adds units and the recorded-value check, and prints the benchmark's
// result line.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common.hpp"
#include "support/provenance.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--tiny] [--plant accel|observed] [--spans PATH]\n",
               msg);
  std::exit(2);
}

struct Workload {
  const char* name;
  perfbench::Sizes sizes;
};
constexpr Workload kWorkloads[] = {
    {"small", {16384, 4096, 1024}},
    {"large", {65536, 8192, 2048}},
};
constexpr perfbench::Sizes kTinySizes{2048, 512, 256};

struct PartSpec {
  const char* name;
  double share;  // of the run's seconds
  std::unique_ptr<perfbench::Part> (*make)(const perfbench::Options&, perfbench::SpanLog&);
};
constexpr PartSpec kParts[] = {
    {"native-force", 0.3, perfbench::native_force},
    {"native-build", 0.1, perfbench::native_build},
    {"sim-paper", 0.35, perfbench::sim_paper},
    {"sim-observed", 0.25, perfbench::sim_observed},
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--tiny") o.tiny = true;
    else if (a == "--plant") o.plant = value();
    else if (a == "--spans") o.spans_path = value();
    else usage(("unknown flag " + a).c_str());
  }
  if (o.plant != "" && o.plant != "accel" && o.plant != "observed") usage("bad --plant");
  // PTB_* variables switch the simulator backend, attach observers by
  // default or select slow paths; the benchmark fixes all of these.
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "PTB_", 4) == 0) usage("unset the PTB_* environment variables");

  for (const Workload& w : kWorkloads)
    if (o.workload == w.name) o.sizes = o.tiny ? kTinySizes : w.sizes;
  if (o.sizes.native_n == 0) usage("unknown --workload");

  perfbench::SpanLog spans(o.trace);
  std::vector<std::unique_ptr<perfbench::Part>> parts;
  std::vector<double> spent;  // per part, in its chunks so far
  for (const PartSpec& p : kParts) {
    const double t = perfbench::timed([&] { parts.push_back(p.make(o, spans)); });
    spent.push_back(t);
  }
  // Chunk k of a part measures until the part has spent (k + 1) / kChunks
  // of its share, so time one chunk overran comes off the next.
  for (int k = 0; k < perfbench::kChunks; ++k)
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const double until = o.seconds * kParts[i].share * (k + 1) / perfbench::kChunks;
      spent[i] += perfbench::timed([&] { parts[i]->chunk(k, until - spent[i]); });
    }

  perfbench::Result r;
  double setup_s = 0;  // every part's median set-up
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const PartSpec& p = kParts[i];
    perfbench::Result pr = parts[i]->finish();
    r.attempted += pr.attempted;
    r.failed += pr.failed;
    for (const std::string& why : pr.failures)
      if (r.failures.size() < 16) r.failures.push_back(std::string(p.name) + ": " + why);
    r.metrics.insert(r.metrics.end(), pr.metrics.begin(), pr.metrics.end());
    if (!pr.extra_json.empty()) r.extra_json = pr.extra_json;
    setup_s += pr.setup_s;
  }
  if (!o.trace) {
    r.metric("setup_s", setup_s);
    r.metric("peak_rss_mb", perfbench::peak_rss_mb());
  }
  if (!spans.write(o.spans_path)) return 1;

  std::printf("{\"provenance\": {\"build_type\": %s, \"compiler\": %s, "
              "\"nproc\": %u, \"native_threads\": %d, \"sim_backend\": %s, "
              "\"seed\": %" PRIu64 ", \"workload\": %s, \"tiny\": %s, "
              "\"native_n\": %d, \"paper_n\": %d, \"observed_n\": %d}, ",
              json_str(ptb::support::build_type()).c_str(),
              json_str(PERFBENCH_COMPILER).c_str(),
              std::thread::hardware_concurrency(), perfbench::kNativeThreads,
              json_str(ptb::to_string(perfbench::kSimBackend)).c_str(), o.seed,
              json_str(o.workload).c_str(), o.tiny ? "true" : "false", o.sizes.native_n,
              o.sizes.paper_n, o.sizes.observed_n);
  std::printf("\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"failures\": [",
              r.attempted, r.failed);
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    std::printf("%s%s", i ? ", " : "", json_str(r.failures[i]).c_str());
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const double v = r.metrics[i].second;
    std::printf("%s%s: ", i ? ", " : "", json_str(r.metrics[i].first).c_str());
    if (std::isfinite(v)) std::printf("%.17g", v);
    else std::printf("null");  // run.py refuses the run
  }
  std::printf("}%s%s}\n", r.extra_json.empty() ? "" : ", ", r.extra_json.c_str());
  return 0;
}
