#include "support/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/check.hpp"

namespace ptb {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& v) {
  std::fprintf(stderr, "bad value for --%s: '%s'\n", name.c_str(), v.c_str());
  std::exit(2);
}

// Whole-string numeric parse: false on an empty value, trailing characters
// or an out-of-range number.
template <typename T, typename Strto>
bool parse_whole(const std::string& s, Strto strto, T& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = strto(s.c_str(), &end);
  return errno == 0 && *end == '\0';
}

bool parse_int(const std::string& s, std::int64_t& out) {
  return parse_whole(s, [](const char* p, char** e) { return std::strtoll(p, e, 10); }, out);
}

}  // namespace

Cli::Cli(int argc, char** argv) : program_(argc > 0 ? argv[0] : "ptb") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      want_help_ = true;
      continue;
    }
    PTB_CHECK_MSG(arg.rfind("--", 0) == 0, "flags must start with --");
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      args_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args_[arg] = argv[++i];
    } else {
      args_[arg] = "true";  // bare boolean flag
    }
  }
}

std::string Cli::get_string(const std::string& name, const std::string& def,
                            const std::string& help) {
  help_.push_back({name, def, help});
  auto it = args_.find(name);
  if (it == args_.end()) return def;
  consumed_[name] = true;
  return it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def, const std::string& help) {
  const std::string v = get_string(name, std::to_string(def), help);
  std::int64_t x = 0;
  if (!parse_int(v, x)) bad_value(name, v);
  return x;
}

double Cli::get_double(const std::string& name, double def, const std::string& help) {
  const std::string v = get_string(name, std::to_string(def), help);
  double x = 0.0;
  if (!parse_whole(v, [](const char* p, char** e) { return std::strtod(p, e); }, x) ||
      !std::isfinite(x))
    bad_value(name, v);
  return x;
}

bool Cli::get_bool(const std::string& name, bool def, const std::string& help) {
  const std::string v = get_string(name, def ? "true" : "false", help);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(name, v);
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name, const std::string& def,
                                            const std::string& help) {
  const std::string v = get_string(name, def, help);
  std::vector<std::int64_t> out;
  if (v.empty() && args_.count(name) == 0) return out;  // empty default
  std::size_t pos = 0;
  for (;;) {
    const std::size_t next = v.find(',', pos);
    std::int64_t x = 0;
    if (!parse_int(v.substr(pos, next - pos), x)) bad_value(name, v);
    out.push_back(x);
    if (next == std::string::npos) return out;
    pos = next + 1;
  }
}

void Cli::epilogue(std::string text) {
  if (!epilogue_.empty()) epilogue_ += "\n";
  epilogue_ += std::move(text);
}

void Cli::finish() {
  if (want_help_) {
    std::printf("Usage: %s [flags]\n", program_.c_str());
    for (const auto& h : help_) {
      std::printf("  --%-20s (default: %s) %s\n", h.name.c_str(), h.def.c_str(),
                  h.help.c_str());
    }
    if (!epilogue_.empty()) std::printf("\n%s\n", epilogue_.c_str());
    std::exit(0);
  }
  for (const auto& [name, value] : args_) {
    (void)value;
    if (!consumed_.count(name)) {
      std::fprintf(stderr, "unknown flag: --%s (try --help)\n", name.c_str());
      std::exit(2);
    }
  }
}

}  // namespace ptb
