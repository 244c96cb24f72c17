// Minimal command-line flag parser shared by benches and examples.
//
// Supports --flag=value, --flag value, and boolean --flag forms. Unknown
// flags and malformed values are an error (exit 2) so that typos in
// experiment scripts fail loudly.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace ptb {

class Cli {
 public:
  Cli(int argc, char** argv);

  /// Declare a flag with a default; returns the parsed value. Numbers must be
  /// the whole value and in range; booleans are true/false/1/0/yes/no. A bad
  /// value prints `bad value for --<flag>: '<v>'` and exits 2.
  std::string get_string(const std::string& name, const std::string& def,
                         const std::string& help);
  std::int64_t get_int(const std::string& name, std::int64_t def, const std::string& help);

  /// Range-checked: the value must also lie in [lo, hi], else these print
  /// `bad value for --<flag>: '<v>' (want <range>)` and exit 2. A flag that
  /// lands in an int takes the int form, never a narrowing cast of the int64
  /// one (which would run --n=4294967360 as n=64).
  int get_int(const std::string& name, int def, const std::string& help, int lo,
              int hi = std::numeric_limits<int>::max());
  double get_double(const std::string& name, double def, const std::string& help,
                    double lo = std::numeric_limits<double>::lowest(),
                    double hi = std::numeric_limits<double>::max());
  bool get_bool(const std::string& name, bool def, const std::string& help);

  /// Parse a comma-separated list of integers, e.g. "8192,16384,65536".
  std::vector<std::int64_t> get_int_list(const std::string& name, const std::string& def,
                                         const std::string& help);

  /// Free-form text printed after the flag list on --help (environment
  /// variables, exit-code contract, examples). May be called repeatedly;
  /// blocks are printed in call order.
  void epilogue(std::string text);

  /// Call after all get_* declarations. Prints usage and exits on --help;
  /// aborts on unknown flags.
  void finish();

  const std::string& program() const { return program_; }

 private:
  struct HelpEntry {
    std::string name;
    std::string def;
    std::string help;
  };

  std::string program_;
  std::map<std::string, std::string> args_;   // raw --name -> value
  std::map<std::string, bool> consumed_;
  std::vector<HelpEntry> help_;
  std::string epilogue_;
  bool want_help_ = false;
};

}  // namespace ptb
