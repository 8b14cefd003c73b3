// Minimal command-line flag parsing for the examples and benches.
//
// Accepts "--name=value" and "--name value"; bare "--name" is a boolean
// true.  Unknown positional arguments are collected separately.  The typed
// getters throw ConfigError on a value they cannot take whole: empty,
// non-numeric, trailing garbage, out of range, or a boolean spelled other
// than true/1/yes/on/false/0/no/off.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

namespace hitopk {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name,
                  const std::string& fallback = "") const;
  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::unordered_map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace hitopk
