// Numeric command-line arguments of the tools, benches and examples. The
// whole argument must be a decimal count in range; anything else ends the
// run with a message and exit status 2, never with a silent default, a
// wrapped-around negative or an abort.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <type_traits>

namespace mts::cli {

/// Parses all of `text` (the value of `what`) as a decimal count of at
/// least `min`. Anything else -- empty, non-numeric, trailing characters,
/// negative, out of range for T, below `min` -- prints the problem and
/// `usage` to stderr and exits with status 2.
template <class T = unsigned>
T count_arg(const char* prog, const char* what, const char* text,
            std::type_identity_t<T> min, const char* usage) {
  const char* end = text + std::strlen(text);
  T value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value < min) {
    std::fprintf(stderr, "%s: %s needs a decimal count >= %llu, got '%s'\n%s\n",
                 prog, what, static_cast<unsigned long long>(min), text,
                 usage);
    std::exit(2);
  }
  return value;
}

/// Reads the value of the flag at argv[i] (advancing i past it) with
/// count_arg(); a flag with no value is malformed too.
template <class T = unsigned>
T count_flag(int argc, char** argv, int& i, std::type_identity_t<T> min,
             const char* usage) {
  const char* flag = argv[i];
  const char* text = i + 1 < argc ? argv[++i] : "";
  return count_arg<T>(argv[0], flag, text, min, usage);
}

}  // namespace mts::cli
