// Umbrella header for the latency-insensitive protocol substrate and the
// mixed-timing links (their MCRS/ASRS are fifo::Fifo in relay-station mode).
#pragma once

#include "lip/chain.hpp"          // IWYU pragma: export
#include "lip/micropipeline.hpp"  // IWYU pragma: export
#include "lip/relay_station.hpp"  // IWYU pragma: export
