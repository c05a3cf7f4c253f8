#include "common/env.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace negotiator {

namespace {

[[noreturn]] void reject(const char* name, const std::string& text,
                         const std::string& expected) {
  std::fprintf(stderr, "%s: expected %s, got '%s'\n", name, expected.c_str(),
               text.c_str());
  std::exit(2);
}

}  // namespace

int parse_env_int(const char* name, const std::string& text, int min_value,
                  int max_value) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      v < min_value || v > max_value) {
    reject(name, text,
           max_value == std::numeric_limits<int>::max()
               ? "an integer >= " + std::to_string(min_value)
               : "an integer in [" + std::to_string(min_value) + ", " +
                     std::to_string(max_value) + "]");
  }
  return static_cast<int>(v);
}

double parse_env_positive(const char* name, const std::string& text,
                          double max_value) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !(v > 0 && v <= max_value)) {
    char range[64];
    std::snprintf(range, sizeof(range), "a number in (0, %g]", max_value);
    reject(name, text, range);
  }
  return v;
}

double parse_env_number(const char* name, const std::string& text,
                        double min_value, double max_value) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !(v >= min_value && v <= max_value)) {
    char range[80];
    std::snprintf(range, sizeof(range), "a number in [%g, %g]", min_value,
                  max_value);
    reject(name, text, range);
  }
  return v;
}

}  // namespace negotiator
