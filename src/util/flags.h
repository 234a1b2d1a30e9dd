// Minimal command-line flag parser for the bench, example and tool binaries.
//
// Supports `--name value` and `--name=value`. Every main parses through
// parse_flags() and catches UsageError with usage_exit(), so an unknown
// flag or a bad value exits 2 with one line on stderr instead of dying in
// std::terminate.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace fedsu::util {

class Flags {
 public:
  // Registration returns *this for chaining.
  Flags& add_int(const std::string& name, long long def, const std::string& help);
  Flags& add_double(const std::string& name, double def, const std::string& help);
  Flags& add_string(const std::string& name, const std::string& def,
                    const std::string& help);
  Flags& add_bool(const std::string& name, bool def, const std::string& help);

  // Parses argv. On `--help` prints usage and returns false (caller should
  // exit 0). Throws std::runtime_error on unknown flags or bad values.
  bool parse(int argc, char** argv);

  long long get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  std::string usage(const std::string& program) const;

  // Every flag with its resolved value rendered as text, in registration
  // order — the config block a run manifest records so any run can be
  // replayed from its manifest alone.
  std::vector<std::pair<std::string, std::string>> resolved() const;

 private:
  enum class Type { kInt, kDouble, kString, kBool };
  struct Entry {
    Type type;
    std::string help;
    long long int_value = 0;
    double double_value = 0.0;
    std::string string_value;
    bool bool_value = false;
  };

  const Entry& find(const std::string& name, Type type) const;

  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

// A bad command line.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Flags::parse, with its errors (unknown flag, missing or bad value) cut to
// their first line and rethrown as UsageError. Returns false after --help.
bool parse_flags(Flags& flags, int argc, char** argv);

// The catch clause of every main: reports `e` on one stderr line and
// returns exit code 2.
int usage_exit(const char* argv0, const UsageError& e);

}  // namespace fedsu::util
