#include "scenario/spec.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "workload/trace.h"

namespace lazyctrl::scenario {

namespace {

// ---- lexical helpers ----

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size() || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

bool parse_f64(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool parse_bool(const std::string& text, bool* out) {
  if (text == "true" || text == "on" || text == "yes" || text == "1") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "off" || text == "no" || text == "0") {
    *out = false;
    return true;
  }
  return false;
}

/// Shortest decimal rendering that parses back to the same double.
std::string fmt_double(double v) {
  char buf[64];
  for (const int precision : {6, 9, 12, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// ---- enum spellings ----

struct EventName {
  EventKind kind;
  const char* name;
};
constexpr EventName kEventNames[] = {
    {EventKind::kFailSwitch, "fail_switch"},
    {EventKind::kRecoverSwitch, "recover_switch"},
    {EventKind::kFailPeerLink, "fail_peer_link"},
    {EventKind::kRecoverPeerLink, "recover_peer_link"},
    {EventKind::kFailControlLink, "fail_control_link"},
    {EventKind::kRecoverControlLink, "recover_control_link"},
    {EventKind::kControllerOutage, "controller_outage"},
    {EventKind::kMigrationBurst, "migration_burst"},
    {EventKind::kTenantArrival, "tenant_arrival"},
    {EventKind::kTenantDeparture, "tenant_departure"},
    {EventKind::kTrafficSurge, "traffic_surge"},
    {EventKind::kForceRegroup, "force_regroup"},
    {EventKind::kSetControlLoss, "set_control_loss"},
    {EventKind::kSetControlDup, "set_control_dup"},
    {EventKind::kSetCtrlQueueCap, "set_ctrl_queue_cap"},
    {EventKind::kReconcile, "reconcile"},
    {EventKind::kCheckpoint, "checkpoint_at"},
};

bool event_kind_from(const std::string& name, EventKind* out) {
  for (const EventName& e : kEventNames) {
    if (name == e.name) {
      *out = e.kind;
      return true;
    }
  }
  return false;
}

// ---- parser state ----

enum class Section {
  kNone,
  kScenario,
  kTopology,
  kWorkload,
  kConfig,
  kEvents,
  kUnknown,  ///< reported once at the header; member lines are skipped
};

struct Parser {
  ScenarioSpec spec;
  std::vector<Diagnostic> errors;
  /// Source line of each parsed event (parallel to spec.events), so the
  /// cross-event checks after the line loop can still point at the
  /// offending line.
  std::vector<int> event_lines;

  void error(int line, std::string message) {
    errors.push_back({line, std::move(message)});
  }
};

// Each section's key dispatch doubles as the apply_override() grammar, so
// a key accepted in a file is always accepted on the command line too.

bool set_scenario_key(ScenarioSpec& spec, const std::string& key,
                      const std::string& value, std::string* err) {
  if (key == "name") {
    spec.name = value;
    return true;
  }
  if (key == "description") {
    spec.description = value;
    return true;
  }
  if (key == "seed") {
    if (!parse_u64(value, &spec.seed)) {
      *err = "seed expects a non-negative integer, got '" + value + "'";
      return false;
    }
    return true;
  }
  *err = "unknown [scenario] key '" + key + "'";
  return false;
}

bool set_topology_key(ScenarioSpec& spec, const std::string& key,
                      const std::string& value, std::string* err) {
  std::uint64_t v = 0;
  std::size_t* target = nullptr;
  if (key == "switches") target = &spec.topology.switches;
  else if (key == "tenants") target = &spec.topology.tenants;
  else if (key == "min_vms_per_tenant")
    target = &spec.topology.min_vms_per_tenant;
  else if (key == "max_vms_per_tenant")
    target = &spec.topology.max_vms_per_tenant;
  else if (key == "vms_per_switch") target = &spec.topology.vms_per_switch;
  if (target == nullptr) {
    *err = "unknown [topology] key '" + key + "'";
    return false;
  }
  if (!parse_u64(value, &v) || v == 0) {
    *err = key + " expects a positive integer, got '" + value + "'";
    return false;
  }
  *target = static_cast<std::size_t>(v);
  return true;
}

bool set_workload_key(ScenarioSpec& spec, const std::string& key,
                      const std::string& value, std::string* err) {
  WorkloadSpec& w = spec.workload;
  if (key == "kind") {
    if (value == "real_like") w.kind = WorkloadKind::kRealLike;
    else if (value == "synthetic") w.kind = WorkloadKind::kSynthetic;
    else if (value == "drifting_locality")
      w.kind = WorkloadKind::kDriftingLocality;
    else {
      *err = "kind expects real_like | synthetic | drifting_locality, got '" +
             value + "'";
      return false;
    }
    return true;
  }
  if (key == "profile") {
    if (value == "flat") w.flat_profile = true;
    else if (value == "business_day") w.flat_profile = false;
    else {
      *err = "profile expects business_day | flat, got '" + value + "'";
      return false;
    }
    return true;
  }
  if (key == "horizon") {
    if (!parse_duration(value, &w.horizon) || w.horizon <= 0) {
      *err = "horizon expects a positive duration, got '" + value + "'";
      return false;
    }
    return true;
  }
  if (key == "flows" || key == "communities" || key == "phases") {
    std::uint64_t v = 0;
    if (!parse_u64(value, &v)) {
      *err = key + " expects a non-negative integer, got '" + value + "'";
      return false;
    }
    if (key == "flows") w.flows = static_cast<std::size_t>(v);
    else if (key == "communities") {
      if (v == 0) {
        *err = "communities must be positive";
        return false;
      }
      w.communities = static_cast<std::size_t>(v);
    } else {
      if (v == 0) {
        *err = "phases must be positive";
        return false;
      }
      w.phases = static_cast<std::size_t>(v);
    }
    return true;
  }
  double* dtarget = nullptr;
  if (key == "p") dtarget = &w.p;
  else if (key == "q") dtarget = &w.q;
  else if (key == "intra_share") dtarget = &w.intra_share;
  else if (key == "drift_fraction") dtarget = &w.drift_fraction;
  if (dtarget != nullptr) {
    if (!parse_f64(value, dtarget)) {
      *err = key + " expects a number, got '" + value + "'";
      return false;
    }
    return true;
  }
  *err = "unknown [workload] key '" + key + "'";
  return false;
}

bool set_config_key(ScenarioSpec& spec, const std::string& key,
                    const std::string& value, std::string* err) {
  core::Config& c = spec.config;

  const auto dur = [&](SimDuration* target) {
    if (!parse_duration(value, target)) {
      *err = key + " expects a duration (e.g. 30s, 5m, 200ms), got '" +
             value + "'";
      return false;
    }
    return true;
  };
  const auto u64 = [&](auto* target) {
    std::uint64_t v = 0;
    if (!parse_u64(value, &v)) {
      *err = key + " expects a non-negative integer, got '" + value + "'";
      return false;
    }
    *target = static_cast<std::remove_reference_t<decltype(*target)>>(v);
    return true;
  };
  const auto f64 = [&](double* target) {
    if (!parse_f64(value, target)) {
      *err = key + " expects a number, got '" + value + "'";
      return false;
    }
    return true;
  };
  const auto boolean = [&](bool* target) {
    if (!parse_bool(value, target)) {
      *err = key + " expects true|false, got '" + value + "'";
      return false;
    }
    return true;
  };

  // top level
  if (key == "mode") {
    if (value == "lazyctrl") c.mode = core::ControlMode::kLazyCtrl;
    else if (value == "openflow") c.mode = core::ControlMode::kOpenFlow;
    else {
      *err = "mode expects lazyctrl | openflow, got '" + value + "'";
      return false;
    }
    return true;
  }
  if (key == "bootstrap") {
    if (value == "history") spec.bootstrap_history = true;
    else if (value == "index") spec.bootstrap_history = false;
    else {
      *err = "bootstrap expects history | index, got '" + value + "'";
      return false;
    }
    return true;
  }
  if (key == "failover") return boolean(&c.failover_enabled);
  if (key == "keepalive_period") return dur(&c.keepalive_period);
  if (key == "keepalive_loss_threshold") {
    return u64(&c.keepalive_loss_threshold);
  }
  if (key == "switch_reboot_delay") return dur(&c.switch_reboot_delay);
  if (key == "state_report_period") return dur(&c.state_report_period);
  if (key == "controller.servers") {
    if (!u64(&c.controller.servers)) return false;
    if (c.controller.servers == 0) {
      *err = "controller.servers must be positive";
      return false;
    }
    return true;
  }
  // unreliable control plane
  if (key == "ctrl.loss_rate" || key == "ctrl.dup_rate") {
    double* target = key == "ctrl.loss_rate" ? &c.controller.loss_rate
                                             : &c.controller.dup_rate;
    if (!f64(target)) return false;
    if (*target < 0.0 || *target > 1.0) {
      *err = key + " must be in [0, 1]";
      return false;
    }
    return true;
  }
  if (key == "ctrl.queue_cap") return u64(&c.controller.queue_cap);
  if (key == "ctrl.punt_retry_limit") {
    return u64(&c.controller.punt_retry_limit);
  }
  if (key == "ctrl.punt_retry_base") {
    if (!dur(&c.controller.punt_retry_base)) return false;
    if (c.controller.punt_retry_base <= 0) {
      *err = "ctrl.punt_retry_base must be positive";
      return false;
    }
    return true;
  }
  if (key == "ctrl.reconcile_period") {
    return dur(&c.controller.reconcile_period);
  }
  // latency model
  if (key == "latency.host_link") return dur(&c.latency.host_link);
  if (key == "latency.datapath") return dur(&c.latency.datapath);
  if (key == "latency.switch_processing") {
    return dur(&c.latency.switch_processing);
  }
  if (key == "latency.control_link") return dur(&c.latency.control_link);
  if (key == "latency.controller_service") {
    return dur(&c.latency.controller_service);
  }
  // grouping
  if (key == "group_size_limit") {
    if (!u64(&c.grouping.group_size_limit)) return false;
    if (c.grouping.group_size_limit == 0) {
      *err = "group_size_limit must be positive";
      return false;
    }
    return true;
  }
  if (key == "dynamic_regrouping") {
    return boolean(&c.grouping.dynamic_regrouping);
  }
  if (key == "workload_growth_trigger") {
    return f64(&c.grouping.workload_growth_trigger);
  }
  if (key == "min_update_interval") return dur(&c.grouping.min_update_interval);
  if (key == "stats_window") {
    if (!dur(&c.grouping.stats_window)) return false;
    if (c.grouping.stats_window <= 0) {
      *err = "stats_window must be positive";
      return false;
    }
    return true;
  }
  if (key == "intensity_ewma_decay") {
    return f64(&c.grouping.intensity_ewma_decay);
  }
  if (key == "min_update_flow_evidence") {
    return f64(&c.grouping.min_update_flow_evidence);
  }
  if (key == "max_incupdate_iterations") {
    return u64(&c.grouping.max_incupdate_iterations);
  }
  if (key == "parallel_incupdate") {
    return boolean(&c.grouping.parallel_incupdate);
  }
  if (key == "preload_on_update") return boolean(&c.grouping.preload_on_update);
  if (key == "transition_window") return dur(&c.grouping.transition_window);
  if (key == "host_exclusion_tenant_threshold") {
    return u64(&c.grouping.host_exclusion_tenant_threshold);
  }
  // dgm
  if (key == "dgm.mode") {
    if (value == "off") c.dgm.mode = core::DgmMode::kOff;
    else if (value == "periodic") c.dgm.mode = core::DgmMode::kPeriodic;
    else if (value == "drift_triggered") {
      c.dgm.mode = core::DgmMode::kDriftTriggered;
    } else {
      *err = "dgm.mode expects off | periodic | drift_triggered, got '" +
             value + "'";
      return false;
    }
    return true;
  }
  if (key == "dgm.maintenance_period") return dur(&c.dgm.maintenance_period);
  if (key == "dgm.inter_fraction_limit") {
    return f64(&c.dgm.inter_fraction_limit);
  }
  if (key == "dgm.degradation_factor") return f64(&c.dgm.degradation_factor);
  if (key == "dgm.degradation_floor") return f64(&c.dgm.degradation_floor);
  if (key == "dgm.size_skew_limit") return f64(&c.dgm.size_skew_limit);
  if (key == "dgm.min_flow_evidence") return f64(&c.dgm.min_flow_evidence);
  if (key == "dgm.cooldown") return dur(&c.dgm.cooldown);
  if (key == "dgm.max_moves_per_round") return u64(&c.dgm.max_moves_per_round);
  if (key == "dgm.max_merges_per_round") {
    return u64(&c.dgm.max_merges_per_round);
  }
  if (key == "dgm.max_splits_per_round") {
    return u64(&c.dgm.max_splits_per_round);
  }
  if (key == "dgm.min_gain_fraction") return f64(&c.dgm.min_gain_fraction);
  // fib
  if (key == "fib.layout") {
    if (value == "sliced") c.fib.layout = core::GFibLayout::kSliced;
    else if (value == "linear") c.fib.layout = core::GFibLayout::kLinear;
    else {
      *err = "fib.layout expects sliced | linear, got '" + value + "'";
      return false;
    }
    return true;
  }
  if (key == "fib.bloom_bits") {
    if (!u64(&c.fib.bloom_bits)) return false;
    if (c.fib.bloom_bits == 0) {
      *err = "fib.bloom_bits must be positive";
      return false;
    }
    return true;
  }
  if (key == "fib.bloom_hashes") {
    if (!u64(&c.fib.bloom_hashes)) return false;
    if (c.fib.bloom_hashes == 0) {
      *err = "fib.bloom_hashes must be positive";
      return false;
    }
    return true;
  }
  if (key == "fib.report_false_positives") {
    return boolean(&c.fib.report_false_positives);
  }
  // rules
  if (key == "rules.rule_ttl") return dur(&c.rules.rule_ttl);
  if (key == "rules.flow_table_capacity") {
    return u64(&c.rules.flow_table_capacity);
  }
  // runtime
  if (key == "runtime.num_shards") {
    if (!u64(&c.runtime.num_shards)) return false;
    if (c.runtime.num_shards == 0) {
      *err = "runtime.num_shards must be positive";
      return false;
    }
    return true;
  }

  *err = "unknown [config] key '" + key + "'";
  return false;
}

// ---- event parsing ----

/// Which parameters each primitive accepts / requires.
struct EventParamRule {
  bool sw = false;
  bool tenant = false;
  bool hosts = false;
  bool spread = false;    ///< optional when accepted
  bool duration = false;
  bool factor = false;    ///< optional when accepted
  bool rate = false;
  bool cap = false;
};

EventParamRule param_rule(EventKind kind) {
  switch (kind) {
    case EventKind::kFailSwitch:
    case EventKind::kRecoverSwitch:
    case EventKind::kFailPeerLink:
    case EventKind::kRecoverPeerLink:
    case EventKind::kFailControlLink:
    case EventKind::kRecoverControlLink:
      return {.sw = true};
    case EventKind::kControllerOutage:
      return {.duration = true};
    case EventKind::kMigrationBurst:
      return {.hosts = true, .spread = true};
    case EventKind::kTenantArrival:
    case EventKind::kTenantDeparture:
      return {.tenant = true};
    case EventKind::kTrafficSurge:
      return {.duration = true, .factor = true};
    case EventKind::kForceRegroup:
      return {};
    case EventKind::kSetControlLoss:
    case EventKind::kSetControlDup:
      return {.rate = true};
    case EventKind::kSetCtrlQueueCap:
      return {.cap = true};
    case EventKind::kReconcile:
      return {};
    case EventKind::kCheckpoint:
      return {};
  }
  return {};
}

void parse_event_line(Parser& p, int line, const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> tokens;
  for (std::string tok; in >> tok;) tokens.push_back(tok);
  if (tokens.empty()) return;

  if (tokens[0].rfind("at=", 0) != 0) {
    p.error(line, "event line must start with at=<time>, got '" + tokens[0] +
                      "'");
    return;
  }
  ScenarioEvent ev;
  if (!parse_duration(tokens[0].substr(3), &ev.at)) {
    p.error(line, "bad event time '" + tokens[0].substr(3) +
                      "' (expected e.g. 90s, 10m, 1h)");
    return;
  }
  if (tokens.size() < 2) {
    p.error(line, "event line has a time but no event name");
    return;
  }
  if (!event_kind_from(tokens[1], &ev.kind)) {
    p.error(line, "unknown event '" + tokens[1] + "'");
    return;
  }
  const EventParamRule rule = param_rule(ev.kind);

  bool have_sw = false;
  bool have_tenant = false;
  bool have_hosts = false;
  bool have_duration = false;
  bool have_rate = false;
  bool have_cap = false;
  bool ok = true;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      p.error(line, "expected key=value, got '" + tok + "'");
      ok = false;
      continue;
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    const auto reject = [&](const char* why) {
      p.error(line, "parameter '" + key + "' " + why + " for " +
                        std::string(to_string(ev.kind)));
      ok = false;
    };
    if (key == "sw") {
      if (!rule.sw) {
        reject("is not valid");
        continue;
      }
      have_sw = true;  // present, even if the value is bad
      std::uint64_t v = 0;
      if (!parse_u64(value, &v) || v > 0xFFFFFFFFu) {
        p.error(line, "sw expects a switch index, got '" + value + "'");
        ok = false;
        continue;
      }
      ev.sw = static_cast<std::uint32_t>(v);
    } else if (key == "tenant") {
      if (!rule.tenant) {
        reject("is not valid");
        continue;
      }
      have_tenant = true;  // present, even if the value is bad
      std::uint64_t v = 0;
      if (!parse_u64(value, &v) || v > 0xFFFFFFFFu) {
        p.error(line, "tenant expects a tenant index, got '" + value + "'");
        ok = false;
        continue;
      }
      ev.tenant = static_cast<std::uint32_t>(v);
    } else if (key == "hosts") {
      if (!rule.hosts) {
        reject("is not valid");
        continue;
      }
      have_hosts = true;  // present, even if the value is bad
      std::uint64_t v = 0;
      if (!parse_u64(value, &v) || v == 0 || v > 0xFFFFFFFFu) {
        p.error(line, "hosts expects a positive count, got '" + value + "'");
        ok = false;
        continue;
      }
      ev.hosts = static_cast<std::uint32_t>(v);
    } else if (key == "spread") {
      if (!rule.spread) {
        reject("is not valid");
        continue;
      }
      if (!parse_duration(value, &ev.spread)) {
        p.error(line, "spread expects a duration, got '" + value + "'");
        ok = false;
      }
    } else if (key == "duration") {
      if (!rule.duration) {
        reject("is not valid");
        continue;
      }
      have_duration = true;  // present, even if the value is bad
      if (!parse_duration(value, &ev.duration) || ev.duration <= 0) {
        p.error(line,
                "duration expects a positive duration, got '" + value + "'");
        ok = false;
        continue;
      }
    } else if (key == "factor") {
      if (!rule.factor) {
        reject("is not valid");
        continue;
      }
      if (!parse_f64(value, &ev.factor) || ev.factor <= 1.0) {
        p.error(line, "factor expects a number > 1, got '" + value + "'");
        ok = false;
      }
    } else if (key == "rate") {
      if (!rule.rate) {
        reject("is not valid");
        continue;
      }
      have_rate = true;  // present, even if the value is bad
      if (!parse_f64(value, &ev.rate) || ev.rate < 0.0 || ev.rate > 1.0) {
        p.error(line, "rate expects a number in [0, 1], got '" + value + "'");
        ok = false;
        continue;
      }
    } else if (key == "cap") {
      if (!rule.cap) {
        reject("is not valid");
        continue;
      }
      have_cap = true;  // present, even if the value is bad (0 = unlimited)
      if (!parse_u64(value, &ev.cap)) {
        p.error(line,
                "cap expects a non-negative integer, got '" + value + "'");
        ok = false;
        continue;
      }
    } else {
      p.error(line, "unknown event parameter '" + key + "'");
      ok = false;
    }
  }

  if (rule.sw && !have_sw) {
    p.error(line, std::string(to_string(ev.kind)) + " requires sw=<index>");
    ok = false;
  }
  if (rule.tenant && !have_tenant) {
    p.error(line,
            std::string(to_string(ev.kind)) + " requires tenant=<index>");
    ok = false;
  }
  if (rule.hosts && !have_hosts) {
    p.error(line, std::string(to_string(ev.kind)) + " requires hosts=<count>");
    ok = false;
  }
  if (rule.duration && !have_duration) {
    p.error(line,
            std::string(to_string(ev.kind)) + " requires duration=<time>");
    ok = false;
  }
  if (rule.rate && !have_rate) {
    p.error(line, std::string(to_string(ev.kind)) + " requires rate=<prob>");
    ok = false;
  }
  if (rule.cap && !have_cap) {
    p.error(line, std::string(to_string(ev.kind)) + " requires cap=<count>");
    ok = false;
  }
  if (ok) {
    p.spec.events.push_back(ev);
    p.event_lines.push_back(line);
  }
}

/// The failure kind a recovery event undoes (kRecoverSwitch ->
/// kFailSwitch, ...), or std::nullopt for non-recovery kinds.
std::optional<EventKind> paired_failure_kind(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kRecoverSwitch:
      return EventKind::kFailSwitch;
    case EventKind::kRecoverPeerLink:
      return EventKind::kFailPeerLink;
    case EventKind::kRecoverControlLink:
      return EventKind::kFailControlLink;
    default:
      return std::nullopt;
  }
}

}  // namespace

const char* to_string(EventKind kind) noexcept {
  for (const EventName& e : kEventNames) {
    if (e.kind == kind) return e.name;
  }
  return "?";
}

std::vector<EarlyRecovery> find_early_recoveries(
    const std::vector<ScenarioEvent>& events) {
  std::vector<EarlyRecovery> found;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ScenarioEvent& ev = events[i];
    const std::optional<EventKind> fail_kind = paired_failure_kind(ev.kind);
    if (!fail_kind) continue;
    std::optional<SimTime> earliest;
    for (const ScenarioEvent& other : events) {
      if (other.kind == *fail_kind && other.sw == ev.sw &&
          (!earliest || other.at < *earliest)) {
        earliest = other.at;
      }
    }
    if (earliest && ev.at < *earliest) {
      found.push_back({i, "sw=" + std::to_string(ev.sw) + " at " +
                              format_duration(ev.at) + " fires before its " +
                              to_string(*fail_kind) + " at " +
                              format_duration(*earliest)});
    }
  }
  return found;
}

const char* to_string(WorkloadKind kind) noexcept {
  switch (kind) {
    case WorkloadKind::kRealLike: return "real_like";
    case WorkloadKind::kSynthetic: return "synthetic";
    case WorkloadKind::kDriftingLocality: return "drifting_locality";
  }
  return "?";
}

bool parse_duration(const std::string& text, SimDuration* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || !std::isfinite(value) || value < 0) return false;
  const std::string unit = trim(std::string(end));
  double scale = 0;
  if (unit.empty() || unit == "s") scale = static_cast<double>(kSecond);
  else if (unit == "ns") scale = static_cast<double>(kNanosecond);
  else if (unit == "us") scale = static_cast<double>(kMicrosecond);
  else if (unit == "ms") scale = static_cast<double>(kMillisecond);
  else if (unit == "m") scale = static_cast<double>(kMinute);
  else if (unit == "h") scale = static_cast<double>(kHour);
  else return false;
  const double scaled = value * scale;
  // Reject anything that would overflow the int64 nanosecond clock
  // (llround on an out-of-range double is UB): 9e18 ns ≈ 285 years.
  if (scaled > 9.0e18) return false;
  *out = static_cast<SimDuration>(std::llround(scaled));
  return true;
}

std::string format_duration(SimDuration d) {
  if (d <= 0) return "0s";
  struct Unit {
    SimDuration scale;
    const char* suffix;
  };
  constexpr Unit kUnits[] = {{kHour, "h"},        {kMinute, "m"},
                             {kSecond, "s"},      {kMillisecond, "ms"},
                             {kMicrosecond, "us"}, {kNanosecond, "ns"}};
  for (const Unit& u : kUnits) {
    if (d % u.scale == 0) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%" PRId64 "%s", d / u.scale, u.suffix);
      return buf;
    }
  }
  return "0s";  // unreachable: ns always divides
}

bool parse_scale(const std::string& text, double* out) {
  double v = 0;
  if (!parse_f64(text, &v) || v <= 0) return false;
  *out = v;
  return true;
}

std::optional<std::size_t> scale_flow_count(std::size_t flows,
                                            double scale) {
  const double scaled = static_cast<double>(flows) * scale;
  // Compared in double, so the cast below is only reached when defined.
  if (!(scaled < static_cast<double>(
                     std::vector<workload::Flow>().max_size()))) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(scaled);
}

ParseResult parse_scenario(const std::string& text) {
  Parser p;
  Section section = Section::kNone;

  std::istringstream in(text);
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    // Strip comment and surrounding whitespace. '#' always starts a
    // comment — values cannot contain it.
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string s = trim(raw);
    if (s.empty()) continue;

    if (s.front() == '[') {
      if (s.back() != ']') {
        p.error(line, "unterminated section header '" + s + "'");
        section = Section::kUnknown;
        continue;
      }
      const std::string name = trim(s.substr(1, s.size() - 2));
      if (name == "scenario") section = Section::kScenario;
      else if (name == "topology") section = Section::kTopology;
      else if (name == "workload") section = Section::kWorkload;
      else if (name == "config") section = Section::kConfig;
      else if (name == "events") section = Section::kEvents;
      else {
        p.error(line, "unknown section [" + name + "]");
        section = Section::kUnknown;
      }
      continue;
    }

    if (section == Section::kUnknown) continue;  // already reported
    if (section == Section::kNone) {
      p.error(line, "content before the first [section] header");
      continue;
    }
    if (section == Section::kEvents) {
      parse_event_line(p, line, s);
      continue;
    }

    const std::size_t eq = s.find('=');
    if (eq == std::string::npos) {
      p.error(line, "expected key = value, got '" + s + "'");
      continue;
    }
    const std::string key = trim(s.substr(0, eq));
    const std::string value = trim(s.substr(eq + 1));
    if (key.empty()) {
      p.error(line, "empty key");
      continue;
    }

    std::string err;
    bool ok = true;
    switch (section) {
      case Section::kScenario:
        ok = set_scenario_key(p.spec, key, value, &err);
        break;
      case Section::kTopology:
        ok = set_topology_key(p.spec, key, value, &err);
        break;
      case Section::kWorkload:
        ok = set_workload_key(p.spec, key, value, &err);
        break;
      case Section::kConfig:
        ok = set_config_key(p.spec, key, value, &err);
        break;
      default:
        break;
    }
    if (!ok) p.error(line, err);
  }

  // Cross-field validation (anchored to line 0: these are document-level).
  if (p.spec.topology.min_vms_per_tenant >
      p.spec.topology.max_vms_per_tenant) {
    p.error(0, "[topology] min_vms_per_tenant exceeds max_vms_per_tenant");
  }

  // Cross-event validation.
  for (const EarlyRecovery& e : find_early_recoveries(p.spec.events)) {
    p.error(p.event_lines[e.index],
            std::string(to_string(p.spec.events[e.index].kind)) + " " +
                e.what);
  }

  ParseResult result;
  result.spec = std::move(p.spec);
  result.errors = std::move(p.errors);
  return result;
}

ParseResult parse_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ParseResult r;
    r.errors.push_back({0, "cannot open scenario file '" + path + "'"});
    return r;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario(buf.str());
}

std::string ParseResult::error_text() const {
  std::string out;
  for (const Diagnostic& d : errors) {
    out += "line " + std::to_string(d.line) + ": " + d.message + "\n";
  }
  return out;
}

std::string serialize_scenario(const ScenarioSpec& spec) {
  std::ostringstream out;
  const core::Config& c = spec.config;

  out << "[scenario]\n";
  out << "name = " << spec.name << "\n";
  if (!spec.description.empty()) {
    out << "description = " << spec.description << "\n";
  }
  out << "seed = " << spec.seed << "\n";

  out << "\n[topology]\n";
  out << "switches = " << spec.topology.switches << "\n";
  out << "tenants = " << spec.topology.tenants << "\n";
  out << "min_vms_per_tenant = " << spec.topology.min_vms_per_tenant << "\n";
  out << "max_vms_per_tenant = " << spec.topology.max_vms_per_tenant << "\n";
  out << "vms_per_switch = " << spec.topology.vms_per_switch << "\n";

  const WorkloadSpec& w = spec.workload;
  out << "\n[workload]\n";
  out << "kind = " << to_string(w.kind) << "\n";
  out << "flows = " << w.flows << "\n";
  out << "horizon = " << format_duration(w.horizon) << "\n";
  out << "profile = " << (w.flat_profile ? "flat" : "business_day") << "\n";
  // Generator-specific keys are always emitted (the parser accepts them
  // under any kind, so dropping kind-irrelevant values would break the
  // exact parse(serialize(s)) == s round trip).
  out << "p = " << fmt_double(w.p) << "\n";
  out << "q = " << fmt_double(w.q) << "\n";
  out << "communities = " << w.communities << "\n";
  out << "intra_share = " << fmt_double(w.intra_share) << "\n";
  out << "phases = " << w.phases << "\n";
  out << "drift_fraction = " << fmt_double(w.drift_fraction) << "\n";

  out << "\n[config]\n";
  out << "mode = "
      << (c.mode == core::ControlMode::kLazyCtrl ? "lazyctrl" : "openflow")
      << "\n";
  out << "bootstrap = " << (spec.bootstrap_history ? "history" : "index")
      << "\n";
  out << "group_size_limit = " << c.grouping.group_size_limit << "\n";
  out << "dynamic_regrouping = "
      << (c.grouping.dynamic_regrouping ? "true" : "false") << "\n";
  out << "workload_growth_trigger = "
      << fmt_double(c.grouping.workload_growth_trigger) << "\n";
  out << "min_update_interval = "
      << format_duration(c.grouping.min_update_interval) << "\n";
  out << "stats_window = " << format_duration(c.grouping.stats_window)
      << "\n";
  out << "intensity_ewma_decay = "
      << fmt_double(c.grouping.intensity_ewma_decay) << "\n";
  out << "min_update_flow_evidence = "
      << fmt_double(c.grouping.min_update_flow_evidence) << "\n";
  out << "max_incupdate_iterations = " << c.grouping.max_incupdate_iterations
      << "\n";
  out << "parallel_incupdate = "
      << (c.grouping.parallel_incupdate ? "true" : "false") << "\n";
  out << "preload_on_update = "
      << (c.grouping.preload_on_update ? "true" : "false") << "\n";
  out << "transition_window = "
      << format_duration(c.grouping.transition_window) << "\n";
  out << "host_exclusion_tenant_threshold = "
      << c.grouping.host_exclusion_tenant_threshold << "\n";
  const char* dgm_mode = "off";
  if (c.dgm.mode == core::DgmMode::kPeriodic) dgm_mode = "periodic";
  if (c.dgm.mode == core::DgmMode::kDriftTriggered) {
    dgm_mode = "drift_triggered";
  }
  out << "dgm.mode = " << dgm_mode << "\n";
  out << "dgm.maintenance_period = "
      << format_duration(c.dgm.maintenance_period) << "\n";
  out << "dgm.inter_fraction_limit = "
      << fmt_double(c.dgm.inter_fraction_limit) << "\n";
  out << "dgm.degradation_factor = " << fmt_double(c.dgm.degradation_factor)
      << "\n";
  out << "dgm.degradation_floor = " << fmt_double(c.dgm.degradation_floor)
      << "\n";
  out << "dgm.size_skew_limit = " << fmt_double(c.dgm.size_skew_limit)
      << "\n";
  out << "dgm.min_flow_evidence = " << fmt_double(c.dgm.min_flow_evidence)
      << "\n";
  out << "dgm.cooldown = " << format_duration(c.dgm.cooldown) << "\n";
  out << "dgm.max_moves_per_round = " << c.dgm.max_moves_per_round << "\n";
  out << "dgm.max_merges_per_round = " << c.dgm.max_merges_per_round << "\n";
  out << "dgm.max_splits_per_round = " << c.dgm.max_splits_per_round << "\n";
  out << "dgm.min_gain_fraction = " << fmt_double(c.dgm.min_gain_fraction)
      << "\n";
  out << "fib.layout = "
      << (c.fib.layout == core::GFibLayout::kSliced ? "sliced" : "linear")
      << "\n";
  out << "fib.bloom_bits = " << c.fib.bloom_bits << "\n";
  out << "fib.bloom_hashes = " << c.fib.bloom_hashes << "\n";
  out << "fib.report_false_positives = "
      << (c.fib.report_false_positives ? "true" : "false") << "\n";
  out << "rules.rule_ttl = " << format_duration(c.rules.rule_ttl) << "\n";
  out << "rules.flow_table_capacity = " << c.rules.flow_table_capacity
      << "\n";
  out << "runtime.num_shards = " << c.runtime.num_shards << "\n";
  out << "controller.servers = " << c.controller.servers << "\n";
  out << "ctrl.loss_rate = " << fmt_double(c.controller.loss_rate) << "\n";
  out << "ctrl.dup_rate = " << fmt_double(c.controller.dup_rate) << "\n";
  out << "ctrl.queue_cap = " << c.controller.queue_cap << "\n";
  out << "ctrl.punt_retry_limit = " << c.controller.punt_retry_limit << "\n";
  out << "ctrl.punt_retry_base = "
      << format_duration(c.controller.punt_retry_base) << "\n";
  out << "ctrl.reconcile_period = "
      << format_duration(c.controller.reconcile_period) << "\n";
  out << "latency.host_link = " << format_duration(c.latency.host_link)
      << "\n";
  out << "latency.datapath = " << format_duration(c.latency.datapath) << "\n";
  out << "latency.switch_processing = "
      << format_duration(c.latency.switch_processing) << "\n";
  out << "latency.control_link = "
      << format_duration(c.latency.control_link) << "\n";
  out << "latency.controller_service = "
      << format_duration(c.latency.controller_service) << "\n";
  out << "state_report_period = " << format_duration(c.state_report_period)
      << "\n";
  out << "failover = " << (c.failover_enabled ? "true" : "false") << "\n";
  out << "keepalive_period = " << format_duration(c.keepalive_period) << "\n";
  out << "keepalive_loss_threshold = " << c.keepalive_loss_threshold << "\n";
  out << "switch_reboot_delay = " << format_duration(c.switch_reboot_delay)
      << "\n";

  out << "\n[events]\n";
  for (const ScenarioEvent& ev : spec.events) {
    out << "at=" << format_duration(ev.at) << " " << to_string(ev.kind);
    const EventParamRule rule = param_rule(ev.kind);
    if (rule.sw) out << " sw=" << ev.sw;
    if (rule.tenant) out << " tenant=" << ev.tenant;
    if (rule.hosts) out << " hosts=" << ev.hosts;
    if (rule.spread) out << " spread=" << format_duration(ev.spread);
    if (rule.duration) out << " duration=" << format_duration(ev.duration);
    if (rule.factor) out << " factor=" << fmt_double(ev.factor);
    if (rule.rate) out << " rate=" << fmt_double(ev.rate);
    if (rule.cap) out << " cap=" << ev.cap;
    out << "\n";
  }
  return out.str();
}

bool apply_override(ScenarioSpec& spec, const std::string& assignment,
                    std::string* error) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string::npos) {
    if (error) *error = "override expects section.key=value";
    return false;
  }
  const std::string dotted = trim(assignment.substr(0, eq));
  const std::string value = trim(assignment.substr(eq + 1));
  const std::size_t dot = dotted.find('.');
  if (dot == std::string::npos) {
    if (error) {
      *error = "override key '" + dotted +
               "' lacks a section prefix (scenario. | topology. | "
               "workload. | config.)";
    }
    return false;
  }
  const std::string section = dotted.substr(0, dot);
  const std::string key = dotted.substr(dot + 1);
  std::string err;
  bool ok = false;
  if (section == "scenario") ok = set_scenario_key(spec, key, value, &err);
  else if (section == "topology") ok = set_topology_key(spec, key, value, &err);
  else if (section == "workload") ok = set_workload_key(spec, key, value, &err);
  else if (section == "config") ok = set_config_key(spec, key, value, &err);
  else err = "unknown section '" + section + "' in override";
  if (!ok && error) *error = err;
  return ok;
}

}  // namespace lazyctrl::scenario
