// Opt-in kernel profiling: per-listener-site wall-time and event-count
// attribution.
//
// A *site* is a labeled origin of scheduled work -- a clock's tick loop, an
// asynchronous driver's handshake engine, a testbench stimulus process --
// registered once via KernelProfiler::site() (or the MTS_PROFILE_SITE macro,
// which appends the registration file:line). Attribution is inherited:
// every event records the site that was current when it was scheduled, and
// while an event executes its site becomes current, so a clock tick's whole
// cascade (edge commits, flop updates, detector gates, synchronizers) is
// attributed to that clock unless a nested ProfileScope claims a more
// specific site. Events scheduled outside any site (testbench main, before
// arming) land in site 0, "(unattributed)".
//
// Cost model: with no profiler armed the scheduler pays one branch per
// scheduled event and one per executed event, and a 4-byte site id rides in
// each queued event -- the soak test in tests/sim/test_observability_soak.cpp
// holds this dormant path to within noise of the PR-2 kernel.
//
// Armed fast path (PR 4): the scheduler no longer brackets every callback
// with two steady_clock reads. Instead each executed event appends its raw
// site id to a fixed ring of samples (`sample()` -- one store, one branch)
// and the wall clock is read once per kSampleBlock events. At each flush the
// block's elapsed wall time is split evenly across its samples ("coarsened
// timestamping"): per-site event counts stay exact, per-site wall time is
// accurate to the block granularity, and the grand total is preserved to
// the nanosecond. This cut the armed overhead from ~455% to well under 100%
// of the dormant path (see BENCH_kernel.json "chain").
//
// The block clock also absorbs kernel dispatch time between callbacks,
// which the old two-reads-per-event scheme silently dropped -- armed wall
// totals are now inclusive of dispatch, i.e. closer to what a host profiler
// would report. Scheduler::run/run_until flush on exit so host time spent
// outside the kernel is never charged to a site; call flush() manually when
// driving step() in a loop.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/kernel_stats.hpp"

namespace mts::sim {

class KernelProfiler {
 public:
  using SiteId = std::uint32_t;

  /// Rows surfaced through KernelStats::hot_sites by Scheduler::stats().
  static constexpr std::size_t kTopN = 10;

  KernelProfiler() { sites_.push_back(Site{"(unattributed)", 0, 0}); }

  KernelProfiler(const KernelProfiler&) = delete;
  KernelProfiler& operator=(const KernelProfiler&) = delete;

  /// Registers (or looks up) the site named `label`; ids are stable for the
  /// profiler's lifetime.
  SiteId site(const std::string& label) {
    const auto it = index_.find(label);
    if (it != index_.end()) return it->second;
    const auto id = static_cast<SiteId>(sites_.size());
    sites_.push_back(Site{label, 0, 0});
    index_.emplace(label, id);
    return id;
  }

  SiteId current() const noexcept { return current_; }
  void set_current(SiteId id) noexcept { current_ = id; }

  /// Samples per wall-clock read on the armed fast path. Large enough to
  /// amortize the clock read to noise, small enough that per-site wall
  /// attribution stays useful for sub-millisecond phases.
  static constexpr std::size_t kSampleBlock = 1024;

  /// Scheduler dispatch hook (fast path): one executed event at `id`.
  /// Appends to the sample ring; reads the wall clock only when a block
  /// opens or fills. Aggregation into the site table is deferred to
  /// flush().
  void sample(SiteId id) noexcept {
    if (pending_ == 0) block_t0_ = std::chrono::steady_clock::now();
    samples_[pending_++] = id;
    if (pending_ == kSampleBlock) flush();
  }

  /// Drains the sample ring into the site table: one wall-clock read; the
  /// block's elapsed time is split evenly across its samples, with the
  /// division remainder charged to the first sample so totals stay exact.
  /// Scheduler::run/run_until call this on exit (and stats() via the
  /// scheduler) -- call it manually before reading sites()/top() if you
  /// drive dispatch through Scheduler::step().
  void flush() noexcept;

  /// Direct aggregation: one executed event at `id` took `wall_ns`.
  /// Bypasses the sample ring (used by tests and external integrations
  /// that time callbacks themselves).
  void record(SiteId id, std::uint64_t wall_ns) noexcept {
    Site& s = sites_[id];
    ++s.events;
    s.wall_ns += wall_ns;
  }

  struct Site {
    std::string label;
    std::uint64_t events = 0;
    std::uint64_t wall_ns = 0;
  };
  const std::vector<Site>& sites() const noexcept { return sites_; }

  /// The n hottest sites by wall time, descending; sites with no events are
  /// omitted.
  std::vector<KernelSiteStat> top(std::size_t n = kTopN) const;

  /// Zeroes every site's counters and drops pending samples (labels and
  /// ids are kept).
  void reset();

 private:
  SiteId current_ = 0;
  std::size_t pending_ = 0;  ///< samples accumulated since the last flush
  std::chrono::steady_clock::time_point block_t0_{};  ///< current block start
  std::vector<Site> sites_;
  std::unordered_map<std::string, SiteId> index_;
  std::array<SiteId, kSampleBlock> samples_;  ///< raw site-id sample ring
};

/// RAII re-attribution: events scheduled while the scope is alive are
/// charged to `id` instead of the inherited site. Null profiler = no-op.
class ProfileScope {
 public:
  ProfileScope(KernelProfiler* p, KernelProfiler::SiteId id) noexcept : p_(p) {
    if (p_ != nullptr) {
      prev_ = p_->current();
      p_->set_current(id);
    }
  }
  ~ProfileScope() {
    if (p_ != nullptr) p_->set_current(prev_);
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  KernelProfiler* p_;
  KernelProfiler::SiteId prev_ = 0;
};

#define MTS_PROFILE_STRINGIZE_IMPL(x) #x
#define MTS_PROFILE_STRINGIZE(x) MTS_PROFILE_STRINGIZE_IMPL(x)

/// Registers `label` suffixed with the registration site's file:line;
/// evaluates to site id 0 when `profiler` is null.
#define MTS_PROFILE_SITE(profiler, label)                                   \
  ((profiler) != nullptr                                                    \
       ? (profiler)->site(std::string(label) + " @" __FILE__                \
                          ":" MTS_PROFILE_STRINGIZE(__LINE__))              \
       : ::mts::sim::KernelProfiler::SiteId{0})

}  // namespace mts::sim
