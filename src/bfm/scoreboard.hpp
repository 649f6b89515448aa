// Order/integrity checking for FIFO traffic.
//
// Monitors push every value that provably entered a FIFO; consumers check
// every value that left it. Any reordering, loss, duplication or
// corruption surfaces as a "scoreboard" error in the simulation report.
#pragma once

#include <cstdint>
#include <string>

#include "sim/report.hpp"
#include "sim/ring.hpp"
#include "sim/simulation.hpp"

namespace mts::bfm {

class Scoreboard {
 public:
  Scoreboard(sim::Simulation& sim, std::string name)
      : sim_(sim), name_(std::move(name)) {}

  Scoreboard(const Scoreboard&) = delete;
  Scoreboard& operator=(const Scoreboard&) = delete;

  /// Records a value entering the FIFO (in order).
  void push(std::uint64_t value) {
    expected_.push_back(value);
    ++pushed_;
  }

  /// Checks a value leaving the FIFO against FIFO order.
  void pop_check(std::uint64_t value) {
    ++popped_;
    if (expected_.empty()) {
      ++errors_;
      sim_.report().add(sim_.now(), sim::Severity::kError, "scoreboard",
                        name_ + ": pop of " + std::to_string(value) +
                            " from an empty expectation queue");
      return;
    }
    const std::uint64_t want = expected_.pop_front();
    if (value != want) {
      ++errors_;
      sim_.report().add(sim_.now(), sim::Severity::kError, "scoreboard",
                        name_ + ": expected " + std::to_string(want) + ", got " +
                            std::to_string(value));
    }
  }

  std::uint64_t pushed() const noexcept { return pushed_; }
  std::uint64_t popped() const noexcept { return popped_; }
  std::uint64_t errors() const noexcept { return errors_; }
  std::size_t in_flight() const noexcept { return expected_.size(); }

 private:
  sim::Simulation& sim_;
  std::string name_;
  /// Values in flight, oldest first. The ring recycles its slots, so a
  /// steady stream of push/pop_check allocates nothing.
  sim::RingBuffer<std::uint64_t> expected_;
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
  std::uint64_t errors_ = 0;
};

}  // namespace mts::bfm
