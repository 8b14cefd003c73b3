#include "core/flags.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "core/check.h"

namespace hitopk {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int Flags::get_int(const std::string& name, int fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v.c_str(), &end, 10);
  HITOPK_VALIDATE(!v.empty() && end == v.c_str() + v.size())
      << "--" + name << "expects an integer, got '" + v + "'";
  HITOPK_VALIDATE(errno != ERANGE &&
                  parsed >= std::numeric_limits<int>::min() &&
                  parsed <= std::numeric_limits<int>::max())
      << "--" + name << "value" << v << "is outside the int range";
  return static_cast<int>(parsed);
}

double Flags::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v.c_str(), &end);
  HITOPK_VALIDATE(!v.empty() && end == v.c_str() + v.size())
      << "--" + name << "expects a number, got '" + v + "'";
  HITOPK_VALIDATE(errno != ERANGE)
      << "--" + name << "value" << v << "is outside the double range";
  return parsed;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  HITOPK_VALIDATE(v == "false" || v == "0" || v == "no" || v == "off")
      << "--" + name
      << "expects true/1/yes/on or false/0/no/off, got '" + v + "'";
  return false;
}

}  // namespace hitopk
