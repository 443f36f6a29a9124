// Runtime conservation invariants over a live Network.
//
// check_invariants() is a read-only audit of everything the simulator
// promises to conserve: flow accounting identities over RunMetrics,
// flow-table rule hygiene (no live rule toward a departed tenant's host,
// no rule pointing at a stale attachment), L-FIB/C-LIB location-state
// consistency with the topology, and G-FIB/grouping/failover-wheel
// agreement. It is the assertion half of the scenario fuzzer
// (src/scenario/fuzz.h): the ScenarioRunner evaluates it at every event
// fence and at end of run when invariant checks are enabled, and
// tools/lazyctrl_fuzz fails a seed on any violation.
//
// The checker only holds for networks whose state was built through the
// public bootstrap/replay/scenario seams (i.e. anything a ScenarioRunner
// produces). Experiment helpers that bypass dissemination on purpose —
// add_silent_host() — would trip the location and G-FIB checks by design.
//
// Every check is const: running the checker never perturbs the
// simulation, so a checked run stays bit-identical to an unchecked one
// (the fuzzer's rerun comparison proves this on every seed).
#pragma once

#include <string>
#include <vector>

namespace lazyctrl::core {

class Network;

struct InvariantReport {
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// All violations, one per line (empty string when ok()).
  [[nodiscard]] std::string text() const;
};

/// Audits `net` against the invariants above. Violations are returned as
/// human-readable one-liners, each prefixed with the invariant family
/// ("flow conservation:", "rule hygiene:", "location state:",
/// "gfib consistency:", "failover wheels:").
[[nodiscard]] InvariantReport check_invariants(const Network& net);

}  // namespace lazyctrl::core
