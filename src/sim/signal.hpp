// Signals: named, typed state carriers with delayed assignment.
//
// A Signal<T> holds a current value and notifies listeners when it changes.
// Writes are scheduled through the simulation's event queue:
//
//   - DelayKind::kTransport models an ideal delay line: every scheduled
//     write eventually commits, in order. Testbench stimulus uses this.
//   - DelayKind::kInertial models a gate output: scheduling a new write
//     cancels all still-pending writes, so pulses shorter than the gate
//     delay are filtered out, as in VHDL's preemptive inertial model.
//     All gate primitives use this.
//
// Gates re-drive their output on every input change, mostly with the value
// the wire already holds. Such a settled-value inertial write still cancels
// every pending write, but schedules nothing: its commit would find the
// wire at the written value and do nothing, and any later inertial write
// would cancel it anyway. Only a change by set() or a transport commit
// before that commit's time could tell the difference (the commit would
// have overwritten it), so the signal records that time and set() throws
// SimulationError on a change at or before it. One wire is driven either
// by inertial writes or by set() / transport writes, never by both at once.
//
// Pending writes live in a per-signal free-list pool of transaction slots.
// Each write stamps its slot with a monotonically increasing generation;
// inertial cancellation just raises the signal's cancellation watermark, so
// scheduling, cancelling and committing are all O(1) with zero steady-state
// heap allocations (the commit callback is a 16-byte inline capture).
//
// Listener callbacks run at commit time in registration order and receive
// (old, new). Edge-typed listeners (on_rise/on_fall, Wire only) are stored
// as plain void() callables and dispatched directly -- no per-edge wrapper
// lambda -- while still interleaving with on_change listeners in
// registration order. Listeners registered during a notification do not
// observe the change that was being delivered. Listeners live as long as
// the signal.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/error.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace mts::sim {

enum class DelayKind { kTransport, kInertial };

template <typename T>
class Signal {
 public:
  /// Listener slots inline 24 bytes (covers `this` plus two pointers, the
  /// norm for model listeners); rarer fat closures take a one-time heap
  /// cell at registration. Keeps a ListenerEntry at 48 bytes so fan-out
  /// dispatch stays cache-dense.
  static constexpr std::size_t kListenerInlineSize = 24;
  using Listener =
      InplaceFunction<void(const T& old_value, const T& new_value),
                      kListenerInlineSize>;
  using EdgeListener = InplaceFunction<void(), kListenerInlineSize>;

  Signal(Simulation& sim, std::string name, T initial = T{})
      : sim_(sim), name_(std::move(name)), value_(std::move(initial)) {}

  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  const std::string& name() const noexcept { return name_; }
  Simulation& simulation() const noexcept { return sim_; }

  const T& read() const noexcept { return value_; }

  /// Immediate assignment (no event): used for initialization and by
  /// testbenches acting "right now". Notifies listeners on change. Throws
  /// SimulationError on a change inside an elided inertial write's window.
  void set(const T& v) {
    if (v == value_) return;
    if (settled_ && sim_.now() <= settled_until_) settled_conflict();
    T old = std::exchange(value_, v);
    notify(old);
  }

  /// Schedules `v` to commit at now() + delay.
  void write(const T& v, Time delay, DelayKind kind = DelayKind::kTransport) {
    if (kind == DelayKind::kInertial) {
      // Cancel every still-pending write in O(1): their generations are all
      // below the new watermark. Their commit events still run (to recycle
      // the slots) but become no-ops.
      cancel_below_ = next_gen_;
      live_pending_ = 0;
      if (v == value_) {  // settled: the commit would change nothing
        settled_ = true;
        settled_until_ = sim_.now() + delay;
        return;
      }
      settled_ = false;
    }
    const std::uint32_t idx = alloc_slot();
    Slot& s = slots_[idx];
    s.value = v;
    s.gen = next_gen_++;
    ++live_pending_;
    sim_.sched().after(delay, [this, idx] { commit(idx); });
  }

  /// Registers a change listener; it lives as long as the signal.
  void on_change(Listener fn) {
    add_listener(ListenerEntry{Edge::kChange, std::move(fn)});
  }

  /// Registers a rising-edge listener (Wire only). The nullary callable is
  /// stored directly in the listener slot (ignore_args thunk) -- no
  /// (old, new) wrapper closure, one type erasure, and non-matching edges
  /// are filtered before any indirect call.
  template <typename F, typename U = T,
            typename = std::enable_if_t<std::is_same_v<U, bool> &&
                                        std::is_invocable_v<std::decay_t<F>&>>>
  void on_rise(F&& fn) {
    add_listener(ListenerEntry{
        Edge::kRise, Listener(ignore_args, std::forward<F>(fn))});
  }

  /// Registers a falling-edge listener (Wire only).
  template <typename F, typename U = T,
            typename = std::enable_if_t<std::is_same_v<U, bool> &&
                                        std::is_invocable_v<std::decay_t<F>&>>>
  void on_fall(F&& fn) {
    add_listener(ListenerEntry{
        Edge::kFall, Listener(ignore_args, std::forward<F>(fn))});
  }

  /// Writes scheduled and not yet committed or cancelled.
  std::size_t pending_writes() const noexcept { return live_pending_; }

  /// Transaction slots ever allocated: the pool's high-water mark. Stays at
  /// the workload's peak outstanding-write count (slots are recycled).
  std::size_t pool_slots() const noexcept { return slots_.size(); }

 private:
  enum class Edge : std::uint8_t { kChange, kRise, kFall };

  struct ListenerEntry {
    Edge edge;
    Listener fn;
  };

  void add_listener(ListenerEntry e) {
    // During a notification the main vector must not grow (the entry being
    // dispatched lives inside it); park new registrations and merge them
    // once the outermost notification unwinds.
    if (notify_depth_ > 0) {
      arriving_.push_back(std::move(e));
    } else {
      listeners_.push_back(std::move(e));
    }
  }

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Slot {
    T value{};
    std::uint64_t gen = 0;
    std::uint32_t next_free = kNoSlot;
  };

  std::uint32_t alloc_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t idx = free_head_;
      free_head_ = slots_[idx].next_free;
      return idx;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void commit(std::uint32_t idx) {
    Slot& s = slots_[idx];
    const bool live = s.gen >= cancel_below_;
    T v = std::move(s.value);
    s.next_free = free_head_;
    free_head_ = idx;
    if (!live) return;  // preempted by a later inertial write
    --live_pending_;
    set(v);
  }

  [[noreturn]] void settled_conflict() const {
    throw SimulationError(
        "signal '" + name_ + "' changed by set() or a transport write at t=" +
        std::to_string(sim_.now()) +
        " ps, inside the window of an elided inertial write (until t=" +
        std::to_string(settled_until_) +
        " ps): a wire takes inertial writes or set()/transport writes, "
        "not both at once");
  }

  void notify(const T& old) {
    // New registrations are parked in arriving_ while any notification is
    // running (see add_listener), so this loop walks stable contiguous
    // storage and later registrations never observe the in-flight change.
    struct DepthGuard {  // merge parked registrations even if a listener throws
      Signal& s;
      ~DepthGuard() {
        if (--s.notify_depth_ == 0 && !s.arriving_.empty()) {
          for (auto& e : s.arriving_) s.listeners_.push_back(std::move(e));
          s.arriving_.clear();
        }
      }
    };
    ++notify_depth_;
    DepthGuard guard{*this};
    const std::size_t n = listeners_.size();
    for (std::size_t i = 0; i < n; ++i) {
      ListenerEntry& e = listeners_[i];
      if constexpr (std::is_same_v<T, bool>) {
        // notify() only runs on a change, so a bool transition is exactly
        // one of rising / falling; skip the non-matching edge kind without
        // an indirect call.
        const Edge skip = (!old && value_) ? Edge::kFall : Edge::kRise;
        if (e.edge == skip) continue;
      }
      e.fn(old, value_);
    }
  }

  Simulation& sim_;
  std::string name_;
  T value_;
  std::vector<ListenerEntry> listeners_;
  std::vector<ListenerEntry> arriving_;  ///< registered mid-notification
  int notify_depth_ = 0;
  bool settled_ = false;  ///< an elided inertial write's window is recorded

  std::vector<Slot> slots_;           ///< transaction pool
  std::uint32_t free_head_ = kNoSlot; ///< free-list head into slots_
  std::uint32_t live_pending_ = 0;    ///< <= slots_.size(), 32-bit indexed
  std::uint64_t next_gen_ = 1;        ///< generation stamped on the next write
  std::uint64_t cancel_below_ = 0;    ///< writes with gen < this are cancelled
  Time settled_until_ = 0;            ///< when the last elided commit would run
};

/// A single-bit control or data wire.
using Wire = Signal<bool>;
/// A word-level data bus (the datapath is modelled at word granularity).
using Word = Signal<std::uint64_t>;

}  // namespace mts::sim
