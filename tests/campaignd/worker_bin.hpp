// The mts_campaignd binary the campaignd e2e tests fork/exec as worker
// processes. Its path is baked in at configure time
// (MTS_CAMPAIGND_BIN_DEFAULT, see tests/CMakeLists.txt) and the
// MTS_CAMPAIGND_BIN environment variable overrides it. A test that spawns
// workers starts with REQUIRE_WORKER_BIN(), which skips it when the binary
// is missing (e.g. a library-only build).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

inline std::string worker_bin() {
  if (const char* env = std::getenv("MTS_CAMPAIGND_BIN")) return env;
#ifdef MTS_CAMPAIGND_BIN_DEFAULT
  return MTS_CAMPAIGND_BIN_DEFAULT;
#else
  return std::string();
#endif
}

#define REQUIRE_WORKER_BIN()                                          \
  do {                                                                \
    if (worker_bin().empty() ||                                       \
        ::access(worker_bin().c_str(), X_OK) != 0) {                  \
      GTEST_SKIP() << "mts_campaignd binary unavailable";             \
    }                                                                 \
  } while (false)
