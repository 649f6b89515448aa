#include "metrics/coverage.hpp"

#include <sstream>

namespace mts::metrics {

std::uint64_t Coverage::hits(const std::string& bin) const {
  const auto it = bins_.find(bin);
  return it == bins_.end() ? 0 : it->second;
}

std::vector<std::string> Coverage::missing() const {
  std::vector<std::string> out;
  for (const auto& [bin, n] : bins_) {
    if (n == 0) out.push_back(bin);
  }
  return out;
}

void Coverage::merge(const Coverage& other) {
  for (const auto& [bin, n] : other.bins_) bins_[bin] += n;
}

bool Coverage::all_hit() const {
  for (const auto& [bin, n] : bins_) {
    if (n == 0) return false;
  }
  return !bins_.empty();
}

std::string Coverage::summary() const {
  std::ostringstream os;
  std::size_t covered = 0;
  for (const auto& [bin, n] : bins_) {
    if (n > 0) ++covered;
  }
  os << name_ << ": " << covered << "/" << bins_.size() << " bins hit";
  const auto miss = missing();
  if (!miss.empty()) {
    os << "; missing:";
    for (const auto& m : miss) os << " " << m;
  }
  return os.str();
}

void Coverage::report_into(sim::Report& r, sim::Time t) const {
  r.add(t, sim::Severity::kInfo, "coverage", summary());
  for (const auto& [bin, n] : bins_) {
    if (n > 0) {
      r.add(t, sim::Severity::kInfo, "coverage",
            "bin " + bin + " hits=" + std::to_string(n));
    } else {
      r.add(t, sim::Severity::kWarning, "coverage-miss",
            "bin " + bin + " never hit");
    }
  }
}

void Coverage::bin_nth_rise(const std::string& bin, sim::Wire& w, unsigned n) {
  w.on_rise([c = counter(bin), seen = 0u, n]() mutable {
    if (++seen >= n) ++*c;
  });
}

void Coverage::bin_nth_fall(const std::string& bin, sim::Wire& w, unsigned n) {
  w.on_fall([c = counter(bin), seen = 0u, n]() mutable {
    if (++seen >= n) ++*c;
  });
}

}  // namespace mts::metrics
