// Seeded scenario fuzzer: random *valid* ScenarioSpecs, a failure
// harness, and a greedy shrinker.
//
// generate_scenario(seed) draws a random topology scale, workload kind
// and run config, plus a timed event script covering all 12 EventKinds
// with structurally sane arguments: recoveries are only emitted after a
// matching failure of the same component, tenant lifecycle events
// reference distinct tenants with departures strictly after arrivals,
// and every duration fits inside the workload horizon — so every
// generated spec survives both the `.scn` round trip and the runner's
// semantic validation (property-tested over 200 seeds in
// tests/fuzz_test.cpp).
//
// run_scenario_with_checks() is the fuzzing oracle — four checks:
//   1. an invariant-checked run (core/invariants.h evaluated at every
//      event fence and at end of run),
//   2. a rerun carrying a checkpoint fence at a deterministically drawn
//      sim time, whose RunMetrics must be bit-identical to run 1 (the
//      determinism contract AND the fence-neutrality contract at once),
//   3. a resume: the snapshot from run 2 is restored into a fresh runner
//      (src/ckpt rebuilds everything from the serialized bytes alone),
//      finished with invariant checks on, and its final RunMetrics must
//      be bit-identical to run 2's,
//   4. the config matrix (check_config_matrix): the spec re-run under
//      every combination of the settings that must not change results —
//      fib.layout x runtime.num_shards — with all RunMetrics
//      bit-identical.
// Any violation or divergence fails the seed; tools/lazyctrl_fuzz then
// shrinks the spec with shrink_scenario() and serializes the minimal
// repro as a `.scn` fit for examples/scenarios/regressions/, alongside
// the shrunk run's snapshot when one was taken.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/spec.h"

namespace lazyctrl::scenario {

struct FuzzOptions {
  /// Largest flow count a scenario draws before `scale` applies.
  static constexpr std::size_t kMaxDrawnFlows = 12'000;
  /// Multiplies the drawn flow count (CI smoke runs use 0.1); the floor
  /// of 200 flows keeps even heavily scaled runs meaningful.
  double scale = 1.0;
  /// Upper bound on drawn script events. Paired recoveries and
  /// departures ride along, so scripts can end slightly longer.
  std::size_t max_events = 10;
};

/// Deterministic: the same (seed, options) always yields the same spec.
/// The spec is named "fuzz_<seed>", so its serialized file name follows
/// the repo convention that <name>.scn slugifies to its basename.
[[nodiscard]] ScenarioSpec generate_scenario(std::uint64_t seed,
                                             const FuzzOptions& opt = {});

struct FuzzRunResult {
  bool valid = false;          ///< spec passed the runner's validation
  bool deterministic = false;  ///< rerun RunMetrics were bit-identical
  bool resumable = false;      ///< checkpoint/restore round trip finished
                               ///< bit-identical to the rerun
  bool matrix_identical = false;  ///< every config-matrix point matched
  std::vector<std::string> violations;  ///< invariant violations (both
                                        ///< runs 1 and 3 contribute)
  std::string error;  ///< validation error or determinism diff
  std::string resume_error;  ///< why the resume oracle failed ("" if not run)
  std::string matrix_error;  ///< check_config_matrix() diagnosis ("" if
                             ///< clean or not run)
  /// The snapshot the resume oracle exercised (empty when the rerun
  /// failed before the fence) and the sim time it was taken at.
  std::vector<std::uint8_t> snapshot;
  SimTime snapshot_at = 0;

  [[nodiscard]] bool ok() const noexcept {
    return valid && deterministic && resumable && matrix_identical &&
           violations.empty();
  }
  /// Multi-line human-readable failure summary ("" when ok()).
  [[nodiscard]] std::string failure_text() const;
};

/// Runs `spec` through all four oracles (invariant-checked run,
/// checkpointed bit-identity rerun, restore-and-finish resume, config
/// matrix).
[[nodiscard]] FuzzRunResult run_scenario_with_checks(
    const ScenarioSpec& spec);

/// The config-matrix equivalence oracle: runs `spec` under fib.layout in
/// {linear, sliced} x runtime.num_shards in {1, 2} (4 runs) and requires
/// every run's RunMetrics to be identical_to the first's. Returns "" when clean;
/// otherwise one line naming the diverging pair of configurations and
/// the RunMetrics::diff_report of the first diverging field (or the run
/// error of a point that failed to run).
[[nodiscard]] std::string check_config_matrix(const ScenarioSpec& spec);

/// Greedy event-deletion shrinker: repeatedly drops any event whose
/// removal keeps `still_fails(candidate)` true, until no single deletion
/// reproduces the failure. The predicate must be deterministic; events a
/// failure depends on are never lost (deleting them stops reproduction,
/// so they are kept).
[[nodiscard]] ScenarioSpec shrink_scenario(
    ScenarioSpec spec,
    const std::function<bool(const ScenarioSpec&)>& still_fails);

}  // namespace lazyctrl::scenario
