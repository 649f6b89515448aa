// Umbrella header for the bus-functional models and checkers.
#pragma once

#include "bfm/async_drivers.hpp"  // IWYU pragma: export
#include "bfm/ends.hpp"           // IWYU pragma: export
#include "bfm/rs_drivers.hpp"     // IWYU pragma: export
#include "bfm/scoreboard.hpp"     // IWYU pragma: export
#include "bfm/sync_drivers.hpp"   // IWYU pragma: export
