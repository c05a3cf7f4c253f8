// Strict parsing of numeric environment settings (NEG_BENCH_THREADS,
// NEG_DURATION_MS, the NEG_PERF_* lists): a malformed or out-of-range
// value is a usage error that names the variable, never a silent fallback
// to the default.
#pragma once

#include <string>

namespace negotiator {

/// Parses `text`, the value of environment variable `name`, as a whole
/// base-10 integer >= `min_value`. Anything else (empty, trailing
/// characters, out of range) prints a message naming `name` to stderr and
/// exits with status 2.
int parse_env_int(const char* name, const std::string& text, int min_value);

/// Parses `text` as a number in (0, max_value], failing like
/// parse_env_int.
double parse_env_positive(const char* name, const std::string& text,
                          double max_value);

}  // namespace negotiator
