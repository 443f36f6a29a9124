#include "scenario/fuzz.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "core/metrics.h"
#include "scenario/runner.h"

namespace lazyctrl::scenario {

namespace {

// Decorrelated from the runner's streams (0x5C..): the generated spec's
// seed doubles as the runner seed, so the generator must not replay the
// topology/workload draws.
constexpr std::uint64_t kGeneratorStream = 0xF055'0001;
/// Draws the resume oracle's checkpoint fence time (run_scenario_with_
/// checks); decorrelated from both the generator and the runner streams.
constexpr std::uint64_t kResumeFenceStream = 0xF055'0002;

template <typename T>
T pick(Rng& rng, std::initializer_list<T> choices) {
  return *(choices.begin() +
           static_cast<std::size_t>(rng.next_below(choices.size())));
}

/// Uniform sim time in [lo, hi] at one-second granularity, so generated
/// scripts stay readable and every value round-trips exactly through
/// format_duration/parse_duration.
SimTime draw_time(Rng& rng, SimTime lo, SimTime hi) {
  const std::int64_t lo_s = (lo + kSecond - 1) / kSecond;  // ceil
  const std::int64_t hi_s = hi / kSecond;                  // floor
  if (hi_s <= lo_s) return lo_s * kSecond;
  return rng.next_between(lo_s, hi_s) * kSecond;
}

}  // namespace

ScenarioSpec generate_scenario(std::uint64_t seed, const FuzzOptions& opt) {
  Rng rng = Rng::stream(seed, kGeneratorStream);
  ScenarioSpec s;
  s.name = "fuzz_" + std::to_string(seed);
  s.description =
      "generated by lazyctrl_fuzz, seed " + std::to_string(seed);
  s.seed = seed;

  // --- topology ---
  s.topology.switches = static_cast<std::size_t>(rng.next_between(8, 40));
  s.topology.tenants = static_cast<std::size_t>(rng.next_between(4, 20));
  s.topology.min_vms_per_tenant =
      static_cast<std::size_t>(rng.next_between(2, 6));
  s.topology.max_vms_per_tenant =
      s.topology.min_vms_per_tenant +
      static_cast<std::size_t>(rng.next_between(0, 8));
  s.topology.vms_per_switch =
      static_cast<std::size_t>(rng.next_between(4, 10));

  // --- workload ---
  s.workload.kind = pick(rng, {WorkloadKind::kRealLike,
                               WorkloadKind::kSynthetic,
                               WorkloadKind::kDriftingLocality});
  s.workload.flows = std::max<std::size_t>(
      200, static_cast<std::size_t>(
               static_cast<double>(rng.next_between(
                   2000, FuzzOptions::kMaxDrawnFlows)) *
               opt.scale));
  s.workload.horizon = rng.next_between(20, 90) * kMinute;
  s.workload.flat_profile = rng.next_bool(0.7);
  if (s.workload.kind == WorkloadKind::kSynthetic) {
    s.workload.p = pick(rng, {50.0, 70.0, 90.0});
    s.workload.q = pick(rng, {5.0, 10.0, 20.0});
  } else if (s.workload.kind == WorkloadKind::kDriftingLocality) {
    s.workload.communities =
        static_cast<std::size_t>(rng.next_between(2, 6));
    s.workload.intra_share = pick(rng, {0.7, 0.85});
    s.workload.phases = static_cast<std::size_t>(rng.next_between(2, 5));
    s.workload.drift_fraction = pick(rng, {0.2, 0.3});
  }

  // --- config ---
  const bool lazy = rng.next_bool(0.85);
  s.config.mode =
      lazy ? core::ControlMode::kLazyCtrl : core::ControlMode::kOpenFlow;
  s.config.failover_enabled = lazy && rng.next_bool(0.8);
  s.config.grouping.group_size_limit =
      static_cast<std::size_t>(rng.next_between(4, 12));
  // The regroup policy comes from two draws, as when IncUpdate had its own
  // flag beside dgm.mode: load-triggered IncUpdate here, and a DGM mode
  // below that overrides it, so every seed keeps its RNG stream.
  s.config.dgm.mode = rng.next_bool(0.75) ? core::DgmMode::kControllerLoad
                                          : core::DgmMode::kOff;
  s.config.grouping.stats_window =
      pick(rng, {30 * kSecond, 1 * kMinute, 2 * kMinute});
  s.config.dgm.min_flow_evidence = pick(rng, {50.0, 200.0});
  s.config.grouping.preload_on_update = rng.next_bool(0.5);
  s.config.grouping.transition_window =
      pick(rng, {100 * kMillisecond, 200 * kMillisecond, 1 * kSecond});
  s.config.grouping.host_exclusion_tenant_threshold =
      rng.next_bool(0.25) ? 3 : 0;
  if (lazy) {
    const core::DgmMode maintenance =
        pick(rng, {core::DgmMode::kOff, core::DgmMode::kOff,
                   core::DgmMode::kPeriodic, core::DgmMode::kDriftTriggered});
    if (maintenance != core::DgmMode::kOff) s.config.dgm.mode = maintenance;
    s.config.dgm.maintenance_period = pick(rng, {2 * kMinute, 5 * kMinute});
  }
  s.config.fib.layout = rng.next_bool(0.5) ? core::GFibLayout::kSliced
                                           : core::GFibLayout::kLinear;
  s.config.fib.bloom_bits = pick<std::size_t>(rng, {4096, 16384});
  s.config.fib.bloom_hashes = pick<std::size_t>(rng, {4, 8});
  // TTLs below the 30 s stats window and state report make the sharded
  // runtime end spans at the TTL rather than at a control event.
  s.config.rules.rule_ttl = pick(rng, {1 * kSecond, 5 * kSecond, 30 * kSecond,
                                       60 * kSecond, 5 * kMinute});
  // Bounded tables evict by their exact size at each install, which the
  // sharded runtime handles apart from unbounded ones (never pre-decided).
  // Only tiny tables evict often enough on sparse fuzzed traces for the
  // config matrix to catch a merge that gets the eviction order wrong.
  if (rng.next_bool(0.3)) {
    s.config.rules.flow_table_capacity = pick<std::size_t>(rng, {1, 2, 4});
  }
  // This draw used to pick a flow batch size, a knob that no longer
  // exists; it is still consumed so every seed generates the scenario it
  // always did.
  (void)rng.next_bool(0.5);
  // Unreliable control plane: moderate chance of a lossy / bounded run
  // from the start (events below can also flip the knobs mid-run).
  if (rng.next_bool(0.3)) {
    s.config.controller.loss_rate = pick(rng, {0.01, 0.05, 0.1});
  }
  if (rng.next_bool(0.2)) {
    s.config.controller.dup_rate = pick(rng, {0.01, 0.05});
  }
  if (rng.next_bool(0.2)) {
    s.config.controller.queue_cap = pick<std::size_t>(rng, {1, 4, 16});
  }
  if (rng.next_bool(0.2)) {
    s.config.controller.reconcile_period =
        pick(rng, {1 * kMinute, 5 * kMinute});
  }
  s.config.runtime.num_shards = rng.next_bool(0.25) ? 2 : 1;
  s.bootstrap_history = rng.next_bool(0.7);

  // --- event script ---
  const SimDuration horizon = s.workload.horizon;
  std::vector<EventKind> kind_pool = {
      EventKind::kControllerOutage, EventKind::kMigrationBurst,
      EventKind::kTenantArrival,    EventKind::kTenantDeparture,
      EventKind::kTrafficSurge,     EventKind::kForceRegroup,
      EventKind::kSetControlLoss,   EventKind::kSetControlDup,
      EventKind::kSetCtrlQueueCap,  EventKind::kReconcile};
  if (s.config.failover_enabled) {
    // Wheel events need failover + lazyctrl (runner validation).
    kind_pool.push_back(EventKind::kFailSwitch);
    kind_pool.push_back(EventKind::kFailPeerLink);
    kind_pool.push_back(EventKind::kFailControlLink);
  }
  const std::size_t want_events =
      static_cast<std::size_t>(rng.next_below(opt.max_events + 1));
  std::unordered_set<std::uint32_t> tenants_with_arrival;
  std::unordered_set<std::uint32_t> tenants_with_departure;
  std::set<std::pair<EventKind, std::uint32_t>> failed_components;

  std::size_t attempts = 0;
  while (s.events.size() < want_events && attempts < 4 * opt.max_events) {
    ++attempts;
    ScenarioEvent ev;
    ev.kind = kind_pool[rng.next_below(kind_pool.size())];
    switch (ev.kind) {
      case EventKind::kControllerOutage: {
        ev.at = draw_time(rng, 0, horizon - kSecond);
        ev.duration = std::min<SimDuration>(
            horizon - ev.at, rng.next_between(10, 300) * kSecond);
        s.events.push_back(ev);
        break;
      }
      case EventKind::kMigrationBurst: {
        ev.at = draw_time(rng, 0, horizon);
        // Any topology draw above has >= tenants*min_vms >= 8 hosts.
        ev.hosts = 1 + static_cast<std::uint32_t>(rng.next_below(8));
        ev.spread = rng.next_between(0, 120) * kSecond;
        s.events.push_back(ev);
        break;
      }
      case EventKind::kTenantArrival: {
        const auto tenant =
            static_cast<std::uint32_t>(rng.next_below(s.topology.tenants));
        // A standalone departure already claimed this tenant: pairing an
        // arrival (plus possibly a second departure) would violate the
        // one-departure-per-tenant / departure-after-arrival rules.
        if (tenants_with_departure.contains(tenant)) break;
        if (!tenants_with_arrival.insert(tenant).second) break;
        ev.tenant = tenant;
        ev.at = draw_time(rng, 0, horizon * 6 / 10);
        s.events.push_back(ev);
        // Usually pair a departure strictly after the arrival.
        if (rng.next_bool(0.6) && ev.at + kSecond <= horizon) {
          tenants_with_departure.insert(tenant);
          ScenarioEvent dep;
          dep.kind = EventKind::kTenantDeparture;
          dep.tenant = tenant;
          dep.at = draw_time(rng, ev.at + kSecond, horizon);
          s.events.push_back(dep);
        }
        break;
      }
      case EventKind::kTenantDeparture: {
        const auto tenant =
            static_cast<std::uint32_t>(rng.next_below(s.topology.tenants));
        // Standalone departure: only for tenants with no lifecycle event
        // yet (one arrival + one departure per tenant, departure after
        // arrival — both enforced by the runner's validation).
        if (tenants_with_arrival.contains(tenant)) break;
        if (!tenants_with_departure.insert(tenant).second) break;
        ev.tenant = tenant;
        ev.at = draw_time(rng, kSecond, horizon);
        s.events.push_back(ev);
        break;
      }
      case EventKind::kTrafficSurge: {
        ev.at = draw_time(rng, 0, horizon - kMinute);
        ev.duration = std::min<SimDuration>(
            horizon - ev.at, rng.next_between(1, 10) * kMinute);
        ev.factor = pick(rng, {1.5, 2.0, 2.5, 3.0});
        s.events.push_back(ev);
        break;
      }
      case EventKind::kForceRegroup: {
        ev.at = draw_time(rng, 0, horizon);
        s.events.push_back(ev);
        break;
      }
      case EventKind::kSetControlLoss: {
        ev.at = draw_time(rng, 0, horizon);
        // 0 turns a lossy channel clean again mid-run.
        ev.rate = pick(rng, {0.0, 0.01, 0.05, 0.1});
        s.events.push_back(ev);
        break;
      }
      case EventKind::kSetControlDup: {
        ev.at = draw_time(rng, 0, horizon);
        ev.rate = pick(rng, {0.0, 0.01, 0.05});
        s.events.push_back(ev);
        break;
      }
      case EventKind::kSetCtrlQueueCap: {
        ev.at = draw_time(rng, 0, horizon);
        ev.cap = pick<std::uint64_t>(rng, {0, 1, 4, 16});
        s.events.push_back(ev);
        break;
      }
      case EventKind::kReconcile: {
        // A runtime no-op skip in openflow mode (counted, harmless).
        ev.at = draw_time(rng, 0, horizon);
        s.events.push_back(ev);
        break;
      }
      case EventKind::kFailSwitch:
      case EventKind::kFailPeerLink:
      case EventKind::kFailControlLink: {
        ev.sw =
            static_cast<std::uint32_t>(rng.next_below(s.topology.switches));
        // One failure (+ optional recovery) per component keeps scripts
        // free of recovery-before-failure orderings by construction.
        if (!failed_components.insert({ev.kind, ev.sw}).second) break;
        ev.at = draw_time(rng, 0, horizon - kSecond);
        s.events.push_back(ev);
        if (rng.next_bool(0.75)) {
          ScenarioEvent rec;
          rec.kind = ev.kind == EventKind::kFailSwitch
                         ? EventKind::kRecoverSwitch
                         : ev.kind == EventKind::kFailPeerLink
                               ? EventKind::kRecoverPeerLink
                               : EventKind::kRecoverControlLink;
          rec.sw = ev.sw;
          rec.at = draw_time(rng, ev.at + kSecond, horizon);
          s.events.push_back(rec);
        }
        break;
      }
      default:
        break;
    }
  }
  // Chronological scripts read naturally; stable so a paired recovery
  // sharing its failure's timestamp could never precede it.
  std::stable_sort(
      s.events.begin(), s.events.end(),
      [](const ScenarioEvent& a, const ScenarioEvent& b) { return a.at < b.at; });
  return s;
}

std::string FuzzRunResult::failure_text() const {
  std::string text;
  if (!valid) {
    text += "  invalid spec: " + error + "\n";
    return text;
  }
  for (const std::string& v : violations) {
    text += "  invariant violation: " + v + "\n";
  }
  if (!deterministic) {
    text += "  " + error + "\n";
  }
  if (!resume_error.empty()) {
    text += "  resume oracle: " + resume_error + "\n";
  }
  if (!matrix_error.empty()) {
    text += "  config matrix: " + matrix_error + "\n";
  }
  return text;
}

std::string check_config_matrix(const ScenarioSpec& spec) {
  std::optional<core::RunMetrics> reference;
  std::string reference_name;
  for (const core::GFibLayout layout :
       {core::GFibLayout::kLinear, core::GFibLayout::kSliced}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      ScenarioSpec point = spec;
      point.config.fib.layout = layout;
      point.config.runtime.num_shards = shards;
      const std::string name = std::string("fib.layout=") +
                               to_string(layout) + " runtime.num_shards=" +
                               std::to_string(shards);
      ScenarioRunner runner(point);
      std::string error;
      if (!runner.run(&error)) return name + ": run failed: " + error;
      if (!reference.has_value()) {
        reference = runner.metrics();
        reference_name = name;
      } else if (!runner.metrics().identical_to(*reference)) {
        return "[" + reference_name + "] vs [" + name +
               "]: " + runner.metrics().diff_report(*reference);
      }
    }
  }
  return {};
}

FuzzRunResult run_scenario_with_checks(const ScenarioSpec& spec) {
  FuzzRunResult result;
  core::RunMetrics reference(spec.workload.horizon);
  {
    ScenarioRunner checked(spec);
    checked.enable_invariant_checks();
    std::string error;
    if (!checked.run(&error)) {
      result.error = error;
      return result;  // valid stays false
    }
    result.valid = true;
    result.violations = checked.invariant_violations();
    reference = checked.metrics();
  }  // drop the first network before building the second

  // The rerun carries one checkpoint fence at a deterministically drawn
  // sim time, so the bit-identity comparison against the plain first run
  // also proves snapshot fences are metrics-neutral.
  ScenarioRunner rerun(spec);
  {
    Rng rng = Rng::stream(spec.seed, kResumeFenceStream);
    std::vector<SimTime> candidates = {spec.workload.horizon / 4,
                                       spec.workload.horizon / 2,
                                       3 * (spec.workload.horizon / 4)};
    for (const ScenarioEvent& ev : spec.events) {
      if (ev.at > 0 && ev.at < spec.workload.horizon) {
        candidates.push_back(ev.at);
      }
    }
    result.snapshot_at = candidates[rng.next_below(candidates.size())];
    rerun.add_checkpoint_times({result.snapshot_at});
  }
  std::string error;
  if (!rerun.run(&error)) {
    result.error = "rerun failed where the first run passed: " + error;
    return result;  // deterministic stays false
  }
  if (rerun.metrics().identical_to(reference)) {
    result.deterministic = true;
  } else {
    result.error = "non-deterministic rerun: " +
                   rerun.metrics().diff_report(reference);
    return result;
  }

  // Third oracle: restore the snapshot into a fresh runner (everything
  // rebuilt from the serialized bytes alone) and finish the replay; the
  // resumed run must clear the invariant checker and land on RunMetrics
  // bit-identical to the rerun it forked from.
  if (rerun.snapshots().size() != 1 ||
      !rerun.snapshots()[0].error.empty()) {
    result.resume_error =
        "checkpoint at the fence failed: " +
        (rerun.snapshots().empty() ? std::string("no snapshot taken")
                                   : rerun.snapshots()[0].error);
    return result;  // resumable stays false
  }
  result.snapshot = rerun.snapshots()[0].bytes;
  std::unique_ptr<ScenarioRunner> resumed =
      ScenarioRunner::restore(result.snapshot, &error);
  if (resumed == nullptr) {
    result.resume_error = "snapshot restore failed: " + error;
    return result;
  }
  resumed->enable_invariant_checks();
  if (!resumed->finish(&error)) {
    result.resume_error = "resumed replay failed: " + error;
    return result;
  }
  for (const std::string& v : resumed->invariant_violations()) {
    result.violations.push_back("after resume: " + v);
  }
  if (resumed->metrics().identical_to(rerun.metrics())) {
    result.resumable = true;
  } else {
    result.resume_error = "resumed run diverged from the run it forked: " +
                          resumed->metrics().diff_report(rerun.metrics());
  }

  // Fourth oracle: the settings that only change how the simulation is
  // executed (G-FIB memory layout, shard count) must not change a single
  // metric.
  result.matrix_error = check_config_matrix(spec);
  result.matrix_identical = result.matrix_error.empty();
  return result;
}

ScenarioSpec shrink_scenario(
    ScenarioSpec spec,
    const std::function<bool(const ScenarioSpec&)>& still_fails) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < spec.events.size();) {
      ScenarioSpec candidate = spec;
      candidate.events.erase(candidate.events.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        spec = std::move(candidate);
        shrunk = true;  // rescan: earlier deletions may now be possible
      } else {
        ++i;
      }
    }
  }
  return spec;
}

}  // namespace lazyctrl::scenario
