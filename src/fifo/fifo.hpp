// Umbrella header for the mixed-timing FIFO library (the paper's core
// contribution).
#pragma once

#include "fifo/async_timing.hpp"       // IWYU pragma: export
#include "fifo/cell_parts.hpp"         // IWYU pragma: export
#include "fifo/config.hpp"             // IWYU pragma: export
#include "fifo/detectors.hpp"          // IWYU pragma: export
#include "fifo/interface_sides.hpp"    // IWYU pragma: export
#include "fifo/mixed_timing_fifo.hpp"  // IWYU pragma: export
