// Strict parsing of numeric settings — environment variables
// (NEG_BENCH_THREADS, NEG_DURATION_MS, NEG_PERF_SCALING_TORS) and the
// examples' positional arguments: a malformed or out-of-range value is a
// usage error that names the setting, never a silent fallback to the
// default.
#pragma once

#include <limits>
#include <string>

namespace negotiator {

/// Parses `text`, the value of setting `name`, as a whole base-10 integer
/// in [min_value, max_value]. Anything else (empty, trailing characters,
/// out of range) prints a message naming `name` to stderr and exits with
/// status 2.
int parse_env_int(const char* name, const std::string& text, int min_value,
                  int max_value = std::numeric_limits<int>::max());

/// Parses `text` as a number in (0, max_value], failing like
/// parse_env_int.
double parse_env_positive(const char* name, const std::string& text,
                          double max_value);

/// Parses `text` as a number in [min_value, max_value], failing like
/// parse_env_int.
double parse_env_number(const char* name, const std::string& text,
                        double min_value, double max_value);

}  // namespace negotiator
