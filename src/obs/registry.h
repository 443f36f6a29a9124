// StatsRegistry — named metric registration and enumeration.
//
// Components register counters (a stable `const uint64_t*` read at
// snapshot time) or gauges (an arbitrary callback returning double) under
// dotted names ("controller.packet_ins", "runtime.redecided_flows").
// The registry never copies values at registration: a snapshot reads every
// source live, so one registration at wiring time is enough for any number
// of dumps. Naming scheme and the full catalog of names the stock wiring
// registers are documented in docs/OBSERVABILITY.md.
//
// Registration is cheap but not free (map insert + string copy); it is
// meant for setup/teardown paths, never per-packet. Reads are pull-only —
// nothing in the registry is touched by the datapath, so registering
// stats cannot perturb a deterministic run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace lazyctrl::obs {

class Registry {
 public:
  /// Registers `value` as a counter. The pointer must stay valid for the
  /// registry's lifetime; for sources whose storage is replaced between
  /// runs (e.g. RunMetrics behind a unique_ptr), use gauge() with a
  /// callback instead. Re-registering a name overwrites it.
  void counter(std::string name, const std::uint64_t* value);

  /// Registers a callback-backed gauge. The callback is invoked on every
  /// snapshot()/to_json(); it must stay valid for the registry's lifetime.
  void gauge(std::string name, std::function<double()> read);

  struct Sample {
    std::string name;
    double value = 0.0;
    bool is_counter = false;
  };

  /// Reads every registered source, sorted by name.
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Flat JSON object: {"controller.packet_ins": 123, ...}, keys sorted.
  /// Counters render as integers, gauges as shortest-roundtrip doubles.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool contains(const std::string& name) const {
    return entries_.find(name) != entries_.end();
  }

 private:
  struct Entry {
    const std::uint64_t* counter = nullptr;  // exactly one of these is set
    std::function<double()> gauge;
  };
  std::map<std::string, Entry> entries_;  // ordered => sorted enumeration
};

}  // namespace lazyctrl::obs
