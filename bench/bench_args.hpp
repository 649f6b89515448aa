// Numeric command-line flags of the benches: a malformed count ends the
// run with a message and exit status 2 instead of printing rows computed
// from a garbage number.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace mts::benchargs {

/// Reads the value of the flag at argv[i] (advancing i past it) as a
/// decimal count of at least `min`. Anything else -- no value, a
/// non-numeric value, a smaller count -- prints the problem and `usage` to
/// stderr and exits with status 2.
inline unsigned count_flag(int argc, char** argv, int& i, unsigned min,
                           const char* usage) {
  const char* flag = argv[i];
  const char* text = i + 1 < argc ? argv[++i] : "";
  const char* end = text + std::strlen(text);
  unsigned value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value < min) {
    std::fprintf(stderr, "%s: %s needs a decimal count >= %u, got '%s'\n%s\n",
                 argv[0], flag, min, text, usage);
    std::exit(2);
  }
  return value;
}

}  // namespace mts::benchargs
