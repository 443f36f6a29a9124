#include "scenario/spec.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>
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

// ---- value rules ----

/// What a key or event parameter accepts. The field's type bounds the
/// value too: an integer must fit its field, and a choice is stored as its
/// position in the row's name list.
enum class Rule : std::uint8_t {
  kInt,               ///< non-negative integer
  kPositive,          ///< integer >= 1
  kNumber,            ///< finite number
  kProbability,       ///< number in [0, 1]
  kFactor,            ///< number > 1
  kFlag,              ///< true|false (also on|off, yes|no, 1|0)
  kDuration,          ///< duration literal (parse_duration)
  kPositiveDuration,  ///< duration > 0
  kText,              ///< the rest of the line, verbatim
  kNote,              ///< text, left out of the canonical form when empty
  kChoice,            ///< one of the row's names
};

using Names = std::span<const char* const>;

/// Sets `*out` to the position of `text` in `names`.
template <class T>
bool parse_choice(const std::string& text, Names names, T* out) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (text == names[i]) {
      *out = static_cast<T>(i);
      return true;
    }
  }
  return false;
}

/// Parses `text` under `rule` into `*out`; leaves `*out` alone on failure.
template <class T>
bool parse_value(const std::string& text, Rule rule, Names names, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = text;
    return true;
  } else if constexpr (std::is_same_v<T, double>) {
    double v = 0;
    if (!parse_f64(text, &v) ||
        (rule == Rule::kProbability && (v < 0.0 || v > 1.0)) ||
        (rule == Rule::kFactor && v <= 1.0)) {
      return false;
    }
    *out = v;
    return true;
  } else if constexpr (std::is_same_v<T, bool>) {
    return rule == Rule::kFlag ? parse_bool(text, out)
                               : parse_choice(text, names, out);
  } else if constexpr (std::is_enum_v<T>) {
    return parse_choice(text, names, out);
  } else if constexpr (std::is_same_v<T, SimDuration>) {
    SimDuration v = 0;
    if (!parse_duration(text, &v) ||
        (rule == Rule::kPositiveDuration && v == 0)) {
      return false;
    }
    *out = v;
    return true;
  } else {
    std::uint64_t v = 0;
    if (!parse_u64(text, &v) ||
        v > static_cast<std::uint64_t>(std::numeric_limits<T>::max()) ||
        (rule == Rule::kPositive && v == 0)) {
      return false;
    }
    *out = static_cast<T>(v);
    return true;
  }
}

/// Canonical text of `v`; parse_value() reads it back to the same value.
template <class T>
std::string format_value(const T& v, Rule rule, Names names) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_same_v<T, double>) {
    return fmt_double(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    return rule == Rule::kFlag ? (v ? "true" : "false") : names[v];
  } else if constexpr (std::is_enum_v<T>) {
    return names[static_cast<std::size_t>(v)];
  } else if constexpr (std::is_same_v<T, SimDuration>) {
    return format_duration(v);
  } else {
    return std::to_string(v);
  }
}

/// What `rule` accepts into a field like `field`, for diagnostics.
template <class T>
std::string expects(Rule rule, Names names, const T& /*field*/) {
  std::string what;
  switch (rule) {
    case Rule::kInt: what = "a non-negative integer"; break;
    case Rule::kPositive: what = "a positive integer"; break;
    case Rule::kNumber: return "a number";
    case Rule::kProbability: return "a number in [0, 1]";
    case Rule::kFactor: return "a number > 1";
    case Rule::kFlag: return "true|false";
    case Rule::kDuration: return "a duration (e.g. 30s, 5m, 200ms)";
    case Rule::kPositiveDuration: return "a positive duration";
    case Rule::kText:
    case Rule::kNote: return "text";
    case Rule::kChoice:
      for (const char* name : names) {
        what += (what.empty() ? "" : " | ") + std::string(name);
      }
      return what;
  }
  if constexpr (std::is_integral_v<T> && sizeof(T) < sizeof(std::uint64_t)) {
    what += " no larger than " + std::to_string(std::numeric_limits<T>::max());
  }
  return what;
}

// ---- the key list ----

enum class Section : std::uint8_t {
  kScenario,
  kTopology,
  kWorkload,
  kConfig,
  kEvents,
  kNone,
  kUnknown,  ///< reported once at the header; member lines are skipped
};
constexpr const char* kSectionNames[] = {"scenario", "topology", "workload",
                                         "config", "events"};

// Each enum's spellings, indexed by its value.
constexpr const char* kWorkloadKinds[] = {"real_like", "synthetic",
                                          "drifting_locality"};
constexpr const char* kProfiles[] = {"business_day", "flat"};  // flat_profile
constexpr const char* kBootstraps[] = {"index", "history"};
constexpr const char* kControlModes[] = {"openflow", "lazyctrl"};
constexpr const char* kDgmModes[] = {"off", "controller_load", "periodic",
                                     "drift_triggered"};
constexpr const char* kFibLayouts[] = {"linear", "sliced"};

/// The spelling of enum value `v` in its table, "?" outside it.
template <std::size_t N, class E>
const char* spelling(const char* const (&table)[N], E v) noexcept {
  const auto i = static_cast<std::size_t>(v);
  return i < N ? table[i] : "?";
}

struct Key {
  Section section;
  const char* name;
  Rule rule;
  Names names = {};  ///< kChoice only
};

/// Calls fn(Key, field) for every `.scn` key, in canonical order: the one
/// declaration behind parse_scenario(), apply_override() and
/// serialize_scenario(), so a key accepted in a file is accepted by --set
/// and printed by --print-spec. `Spec` is ScenarioSpec or its const.
template <class Spec, class Fn>
void for_each_key(Spec& s, Fn&& fn) {
  using enum Rule;
  constexpr Section S = Section::kScenario;
  constexpr Section T = Section::kTopology;
  constexpr Section W = Section::kWorkload;
  constexpr Section C = Section::kConfig;
  auto& top = s.topology;
  auto& w = s.workload;
  auto& c = s.config;
  auto& g = c.grouping;
  auto& dgm = c.dgm;
  auto& ctl = c.controller;
  auto& lat = c.latency;

  fn(Key{S, "name", kText}, s.name);
  fn(Key{S, "description", kNote}, s.description);
  fn(Key{S, "seed", kInt}, s.seed);

  fn(Key{T, "switches", kPositive}, top.switches);
  fn(Key{T, "tenants", kPositive}, top.tenants);
  fn(Key{T, "min_vms_per_tenant", kPositive}, top.min_vms_per_tenant);
  fn(Key{T, "max_vms_per_tenant", kPositive}, top.max_vms_per_tenant);
  fn(Key{T, "vms_per_switch", kPositive}, top.vms_per_switch);

  fn(Key{W, "kind", kChoice, kWorkloadKinds}, w.kind);
  fn(Key{W, "flows", kInt}, w.flows);
  fn(Key{W, "horizon", kPositiveDuration}, w.horizon);
  fn(Key{W, "profile", kChoice, kProfiles}, w.flat_profile);
  // Generator-specific keys are accepted under any kind, so they are
  // always printed: parse(serialize(s)) == s must hold exactly.
  fn(Key{W, "p", kNumber}, w.p);
  fn(Key{W, "q", kNumber}, w.q);
  fn(Key{W, "communities", kPositive}, w.communities);
  fn(Key{W, "intra_share", kNumber}, w.intra_share);
  fn(Key{W, "phases", kPositive}, w.phases);
  fn(Key{W, "drift_fraction", kNumber}, w.drift_fraction);

  fn(Key{C, "mode", kChoice, kControlModes}, c.mode);
  fn(Key{C, "bootstrap", kChoice, kBootstraps}, s.bootstrap_history);
  fn(Key{C, "group_size_limit", kPositive}, g.group_size_limit);
  fn(Key{C, "workload_growth_trigger", kNumber}, g.workload_growth_trigger);
  fn(Key{C, "stats_window", kPositiveDuration}, g.stats_window);
  fn(Key{C, "intensity_ewma_decay", kProbability}, g.intensity_ewma_decay);
  fn(Key{C, "max_incupdate_iterations", kInt}, g.max_incupdate_iterations);
  fn(Key{C, "parallel_incupdate", kFlag}, g.parallel_incupdate);
  fn(Key{C, "preload_on_update", kFlag}, g.preload_on_update);
  fn(Key{C, "transition_window", kDuration}, g.transition_window);
  fn(Key{C, "host_exclusion_tenant_threshold", kInt},
     g.host_exclusion_tenant_threshold);
  fn(Key{C, "dgm.mode", kChoice, kDgmModes}, dgm.mode);
  fn(Key{C, "dgm.maintenance_period", kDuration}, dgm.maintenance_period);
  fn(Key{C, "dgm.inter_fraction_limit", kProbability},
     dgm.inter_fraction_limit);
  fn(Key{C, "dgm.degradation_factor", kNumber}, dgm.degradation_factor);
  fn(Key{C, "dgm.degradation_floor", kProbability}, dgm.degradation_floor);
  fn(Key{C, "dgm.size_skew_limit", kNumber}, dgm.size_skew_limit);
  fn(Key{C, "dgm.min_flow_evidence", kNumber}, dgm.min_flow_evidence);
  fn(Key{C, "dgm.cooldown", kDuration}, dgm.cooldown);
  fn(Key{C, "dgm.max_moves_per_round", kInt}, dgm.max_moves_per_round);
  fn(Key{C, "dgm.max_merges_per_round", kInt}, dgm.max_merges_per_round);
  fn(Key{C, "dgm.max_splits_per_round", kInt}, dgm.max_splits_per_round);
  fn(Key{C, "dgm.min_gain_fraction", kProbability}, dgm.min_gain_fraction);
  fn(Key{C, "fib.layout", kChoice, kFibLayouts}, c.fib.layout);
  fn(Key{C, "fib.bloom_bits", kPositive}, c.fib.bloom_bits);
  fn(Key{C, "fib.bloom_hashes", kPositive}, c.fib.bloom_hashes);
  fn(Key{C, "fib.report_false_positives", kFlag},
     c.fib.report_false_positives);
  fn(Key{C, "rules.rule_ttl", kDuration}, c.rules.rule_ttl);
  fn(Key{C, "rules.flow_table_capacity", kInt}, c.rules.flow_table_capacity);
  fn(Key{C, "runtime.num_shards", kPositive}, c.runtime.num_shards);
  fn(Key{C, "controller.servers", kPositive}, ctl.servers);
  fn(Key{C, "ctrl.loss_rate", kProbability}, ctl.loss_rate);
  fn(Key{C, "ctrl.dup_rate", kProbability}, ctl.dup_rate);
  fn(Key{C, "ctrl.queue_cap", kInt}, ctl.queue_cap);
  fn(Key{C, "ctrl.punt_retry_limit", kInt}, ctl.punt_retry_limit);
  fn(Key{C, "ctrl.punt_retry_base", kPositiveDuration}, ctl.punt_retry_base);
  fn(Key{C, "ctrl.reconcile_period", kDuration}, ctl.reconcile_period);
  fn(Key{C, "latency.host_link", kDuration}, lat.host_link);
  fn(Key{C, "latency.datapath", kDuration}, lat.datapath);
  fn(Key{C, "latency.switch_processing", kDuration}, lat.switch_processing);
  fn(Key{C, "latency.control_link", kDuration}, lat.control_link);
  fn(Key{C, "latency.controller_service", kDuration}, lat.controller_service);
  fn(Key{C, "state_report_period", kDuration}, c.state_report_period);
  fn(Key{C, "failover", kFlag}, c.failover_enabled);
  fn(Key{C, "keepalive_period", kDuration}, c.keepalive_period);
  fn(Key{C, "keepalive_loss_threshold", kInt}, c.keepalive_loss_threshold);
  fn(Key{C, "switch_reboot_delay", kDuration}, c.switch_reboot_delay);
}

/// Sets `section`'s `key` from `value`.
bool set_key(ScenarioSpec& spec, Section section, const std::string& key,
             const std::string& value, std::string* err) {
  bool found = false;
  bool ok = false;
  for_each_key(spec, [&](const Key& k, auto& field) {
    if (found || k.section != section || key != k.name) return;
    found = true;
    ok = parse_value(value, k.rule, k.names, &field);
    if (!ok) {
      *err = key + " expects " + expects(k.rule, k.names, field) + ", got '" +
             value + "'";
    }
  });
  if (!found) {
    *err = "unknown [" +
           std::string(kSectionNames[static_cast<std::size_t>(section)]) +
           "] key '" + key + "'";
  }
  return ok;
}

// ---- event primitives ----

struct Param {
  /// One bit per parameter, for EventRow::params.
  enum Bit : std::uint8_t {
    kSw = 1 << 0,
    kTenant = 1 << 1,
    kHosts = 1 << 2,
    kSpread = 1 << 3,
    kDuration = 1 << 4,
    kFactor = 1 << 5,
    kRate = 1 << 6,
    kCap = 1 << 7,
  };
  Bit bit;
  const char* name;
  Rule rule;
  /// Placeholder in "<event> requires <name>=<placeholder>"; nullptr when
  /// the parameter is optional and keeps its ScenarioEvent default.
  const char* required;
  const char* what = nullptr;  ///< replaces the rule's text in diagnostics
};

/// Calls fn(Param, field) for every event parameter, in canonical order.
/// `Event` is ScenarioEvent or its const.
template <class Event, class Fn>
void for_each_param(Event& ev, Fn&& fn) {
  using enum Rule;
  fn(Param{Param::kSw, "sw", kInt, "<index>", "a switch index"}, ev.sw);
  fn(Param{Param::kTenant, "tenant", kInt, "<index>", "a tenant index"},
     ev.tenant);
  fn(Param{Param::kHosts, "hosts", kPositive, "<count>"}, ev.hosts);
  fn(Param{Param::kSpread, "spread", kDuration, nullptr}, ev.spread);
  fn(Param{Param::kDuration, "duration", kPositiveDuration, "<time>"},
     ev.duration);
  fn(Param{Param::kFactor, "factor", kFactor, nullptr}, ev.factor);
  fn(Param{Param::kRate, "rate", kProbability, "<prob>"}, ev.rate);
  fn(Param{Param::kCap, "cap", kInt, "<count>"}, ev.cap);  // 0 = unlimited
}

struct EventRow {
  const char* name;
  int params;  ///< Param::Bit mask of the parameters the event accepts
};

/// Every event primitive, indexed by EventKind.
constexpr EventRow kEvents[] = {
    {"fail_switch", Param::kSw},
    {"recover_switch", Param::kSw},
    {"fail_peer_link", Param::kSw},
    {"recover_peer_link", Param::kSw},
    {"fail_control_link", Param::kSw},
    {"recover_control_link", Param::kSw},
    {"controller_outage", Param::kDuration},
    {"migration_burst", Param::kHosts | Param::kSpread},
    {"tenant_arrival", Param::kTenant},
    {"tenant_departure", Param::kTenant},
    {"traffic_surge", Param::kDuration | Param::kFactor},
    {"force_regroup", 0},
    {"set_control_loss", Param::kRate},
    {"set_control_dup", Param::kRate},
    {"set_ctrl_queue_cap", Param::kCap},
    {"reconcile", 0},
    {"checkpoint_at", 0},
};
static_assert(std::size(kEvents) ==
              static_cast<std::size_t>(EventKind::kCheckpoint) + 1);

// ---- parser state ----

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
  std::size_t row = 0;
  while (row < std::size(kEvents) && tokens[1] != kEvents[row].name) ++row;
  if (row == std::size(kEvents)) {
    p.error(line, "unknown event '" + tokens[1] + "'");
    return;
  }
  ev.kind = static_cast<EventKind>(row);
  const std::string event = kEvents[row].name;
  const int accepted = kEvents[row].params;

  int seen = 0;  // parameters present, even with a bad value
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
    bool known = false;
    for_each_param(ev, [&](const Param& prm, auto& field) {
      if (key != prm.name) return;
      known = true;
      if (!(accepted & prm.bit)) {
        p.error(line, "parameter '" + key + "' is not valid for " + event);
        ok = false;
        return;
      }
      seen |= prm.bit;
      if (!parse_value(value, prm.rule, {}, &field)) {
        p.error(line, key + " expects " +
                          (prm.what ? prm.what
                                    : expects(prm.rule, {}, field)) +
                          ", got '" + value + "'");
        ok = false;
      }
    });
    if (!known) {
      p.error(line, "unknown event parameter '" + key + "'");
      ok = false;
    }
  }
  for_each_param(ev, [&](const Param& prm, const auto&) {
    if (prm.required && (accepted & prm.bit) && !(seen & prm.bit)) {
      p.error(line, event + " requires " + prm.name + "=" + prm.required);
      ok = false;
    }
  });
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
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kEvents) ? kEvents[i].name : "?";
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
  return spelling(kWorkloadKinds, kind);
}

const char* to_string(core::ControlMode mode) noexcept {
  return spelling(kControlModes, mode);
}

const char* to_string(core::GFibLayout layout) noexcept {
  return spelling(kFibLayouts, layout);
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
      if (!parse_choice(name, kSectionNames, &section)) {
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
    if (!set_key(p.spec, section, key, value, &err)) p.error(line, err);
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
  Section section = Section::kNone;
  for_each_key(spec, [&](const Key& k, const auto& field) {
    const std::string value = format_value(field, k.rule, k.names);
    if (k.rule == Rule::kNote && value.empty()) return;
    if (k.section != section) {
      if (section != Section::kNone) out << "\n";
      section = k.section;
      out << "[" << kSectionNames[static_cast<std::size_t>(section)] << "]\n";
    }
    out << k.name << " = " << value << "\n";
  });

  out << "\n[events]\n";
  for (const ScenarioEvent& ev : spec.events) {
    out << "at=" << format_duration(ev.at) << " " << to_string(ev.kind);
    const int accepted = kEvents[static_cast<std::size_t>(ev.kind)].params;
    for_each_param(ev, [&](const Param& prm, const auto& field) {
      if (accepted & prm.bit) {
        out << " " << prm.name << "=" << format_value(field, prm.rule, {});
      }
    });
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
  const std::string name = dotted.substr(0, dot);
  Section section = Section::kUnknown;
  std::string err;
  bool ok = false;
  if (!parse_choice(name, kSectionNames, &section) ||
      section == Section::kEvents) {
    err = "unknown section '" + name + "' in override";
  } else {
    ok = set_key(spec, section, dotted.substr(dot + 1), value, &err);
  }
  if (!ok && error) *error = err;
  return ok;
}

}  // namespace lazyctrl::scenario
