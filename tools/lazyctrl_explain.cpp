// lazyctrl_explain — run a scenario and explain where flow latency went.
//
//   lazyctrl_explain <scenario.scn> [options]
//
//   --set SECTION.KEY=VALUE  override any spec value (same grammar as
//                            lazyctrl_run, repeatable)
//   --scale F                multiply workload.flows by F
//   --flow-sample N          flight-record every N-th flow (default 64;
//                            deterministic, keyed on the flow's position
//                            in the trace). The waterfall and breakdown
//                            sections need at least one sampled record.
//   --top K                  how many slowest sampled flows to print
//                            (default 10)
//   --trace FILE             also record trace events and write sampled
//                            flows as per-stage spans into FILE (Chrome
//                            trace_event JSON; validate/view with
//                            check_trace_json / Perfetto)
//   --log-level LEVEL        log verbosity (debug|info|warn|error or 0-3)
//
// Output, per docs/OBSERVABILITY.md "Latency attribution":
//   1. whole-run per-stage percentile table (every flow, histogram-fed);
//   2. "where does p99 live" — mean stage breakdown over the sampled
//      flows at or above the e2e p99, naming the dominant stage;
//   3. the same breakdown per scenario phase (windows fenced by script
//      events), which is how an outage shows up as ctrl_queue time;
//   4. a per-stage waterfall of the top-K slowest sampled flows.
//
// Exit codes: 0 ok; 2 parse/semantic/usage failure.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/time.h"
#include "core/network.h"
#include "obs/flow_latency.h"
#include "obs/trace.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

using namespace lazyctrl;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario.scn> [--set section.key=value]... "
               "[--scale F] [--flow-sample N] [--top K]\n"
               "          [--trace FILE] [--log-level LEVEL]\n",
               argv0);
  return 2;
}

double to_us(double ns) { return ns / 1000.0; }

/// Mean per-stage latency over a set of flight-recorder records, plus
/// the stage (other than e2e) owning the largest share.
struct Breakdown {
  double mean[obs::kNumFlowStages] = {};
  double delivery = 0;  ///< e2e minus the attributed stages
  std::size_t flows = 0;
  obs::FlowStage dominant = obs::FlowStage::kEdge;

  void add(const obs::FlowRecord& rec) {
    for (std::size_t i = 0; i < obs::kNumFlowStages; ++i) {
      mean[i] += static_cast<double>(
          rec.stages.stage(static_cast<obs::FlowStage>(i)));
    }
    ++flows;
  }
  void finish() {
    if (flows == 0) return;
    double attributed = 0;
    double best = -1;
    for (std::size_t i = 0; i < obs::kNumFlowStages; ++i) {
      mean[i] /= static_cast<double>(flows);
      if (static_cast<obs::FlowStage>(i) == obs::FlowStage::kE2e) continue;
      attributed += mean[i];
      if (mean[i] > best) {
        best = mean[i];
        dominant = static_cast<obs::FlowStage>(i);
      }
    }
    delivery =
        std::max(mean[static_cast<std::size_t>(obs::FlowStage::kE2e)] -
                     attributed,
                 0.0);
  }
  [[nodiscard]] double stage(obs::FlowStage s) const {
    return mean[static_cast<std::size_t>(s)];
  }
};

void print_breakdown(const Breakdown& b, const char* indent) {
  std::printf(
      "%sedge %9.1f us | retry %9.1f us | punt_rtt %9.1f us | "
      "ctrl_queue %9.1f us | install %9.1f us | delivery %9.1f us\n",
      indent, to_us(b.stage(obs::FlowStage::kEdge)),
      to_us(b.stage(obs::FlowStage::kRetryBackoff)),
      to_us(b.stage(obs::FlowStage::kPuntRtt)),
      to_us(b.stage(obs::FlowStage::kCtrlQueue)),
      to_us(b.stage(obs::FlowStage::kInstall)), to_us(b.delivery));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);

  std::string path;
  std::vector<std::string> overrides;
  double scale = 1.0;
  int flow_sample = 64;
  int top_k = 10;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s expects a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--set") {
      const char* v = next("--set");
      if (v == nullptr) return 2;
      overrides.emplace_back(v);
    } else if (arg == "--scale") {
      const char* v = next("--scale");
      if (v == nullptr) return 2;
      if (!scenario::parse_scale(v, &scale)) {
        std::fprintf(stderr,
                     "--scale expects a finite number > 0, got %s\n", v);
        return 2;
      }
    } else if (arg == "--flow-sample") {
      const char* v = next("--flow-sample");
      if (v == nullptr) return 2;
      flow_sample = std::atoi(v);
      if (flow_sample < 0) {
        std::fprintf(stderr, "--flow-sample expects a non-negative integer\n");
        return 2;
      }
    } else if (arg == "--top") {
      const char* v = next("--top");
      if (v == nullptr) return 2;
      top_k = std::atoi(v);
      if (top_k < 1) {
        std::fprintf(stderr, "--top expects a positive integer\n");
        return 2;
      }
    } else if (arg == "--trace") {
      const char* v = next("--trace");
      if (v == nullptr) return 2;
      trace_path = v;
    } else if (arg == "--log-level") {
      const char* v = next("--log-level");
      if (v == nullptr) return 2;
      LogLevel level;
      if (!parse_log_level(v, &level)) {
        std::fprintf(stderr,
                     "--log-level expects debug|info|warn|error or 0-3, "
                     "got %s\n",
                     v);
        return 2;
      }
      set_log_level(level);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "only one scenario file may be given\n");
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  scenario::ParseResult parsed = scenario::parse_scenario_file(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: invalid scenario\n%s", path.c_str(),
                 parsed.error_text().c_str());
    return 2;
  }
  scenario::ScenarioSpec spec = std::move(parsed.spec);
  for (const std::string& o : overrides) {
    std::string err;
    if (!scenario::apply_override(spec, o, &err)) {
      std::fprintf(stderr, "--set %s: %s\n", o.c_str(), err.c_str());
      return 2;
    }
  }
  if (scale != 1.0) {
    const auto flows = scenario::scale_flow_count(spec.workload.flows, scale);
    if (!flows) {
      std::fprintf(stderr, "--scale %g: %zu flows scaled by it do not fit "
                   "in a trace\n", scale, spec.workload.flows);
      return 2;
    }
    spec.workload.flows = *flows;
  }

  if (!trace_path.empty()) obs::recorder().enable();
  obs::flow_recorder().enable(static_cast<std::uint32_t>(flow_sample));

  std::printf("explain: %s (%zu flows, flow-sample 1-in-%d)\n",
              spec.name.c_str(), spec.workload.flows, flow_sample);
  auto runner = std::make_unique<scenario::ScenarioRunner>(spec);
  std::string error;
  if (!runner->run(&error)) {
    std::fprintf(stderr, "scenario failed: %s\n", error.c_str());
    return 2;
  }

  const obs::FlowLatencyRecorder& rec = obs::flow_recorder();

  // 1. Whole-run per-stage percentiles (every flow, not just samples).
  std::printf("\nstage latency, whole run (%llu flows):\n",
              static_cast<unsigned long long>(
                  rec.stage_histogram(obs::FlowStage::kE2e).count()));
  std::printf("  %-12s %12s %12s %12s %12s %12s\n", "stage", "p50 us",
              "p90 us", "p99 us", "p999 us", "max us");
  for (std::size_t i = 0; i < obs::kNumFlowStages; ++i) {
    const auto stage = static_cast<obs::FlowStage>(i);
    const obs::LogHistogram& h = rec.stage_histogram(stage);
    std::printf("  %-12s %12.1f %12.1f %12.1f %12.1f %12.1f\n",
                obs::flow_stage_name(stage), to_us(h.quantile(0.50)),
                to_us(h.quantile(0.90)), to_us(h.quantile(0.99)),
                to_us(h.quantile(0.999)),
                to_us(static_cast<double>(h.max())));
  }

  // Sampled records, slowest first.
  std::vector<obs::FlowRecord> samples;
  samples.reserve(rec.size());
  for (std::size_t i = 0; i < rec.size(); ++i) {
    samples.push_back(rec.record_at(i));
  }
  std::sort(samples.begin(), samples.end(),
            [](const obs::FlowRecord& a, const obs::FlowRecord& b) {
              return a.stages.e2e > b.stages.e2e;
            });
  if (rec.dropped() > 0) {
    std::fprintf(stderr,
                 "warning: flight-recorder ring overflowed, %llu oldest "
                 "flow records dropped — the sections below cover a "
                 "truncated window\n",
                 static_cast<unsigned long long>(rec.dropped()));
  }

  if (samples.empty()) {
    std::printf(
        "\nno sampled flow records (--flow-sample 0 or an empty run): "
        "skipping breakdown and waterfall sections\n");
  } else {
    // 2. Where does p99 live — mean stage breakdown over the sampled
    // flows at or above the whole-run e2e p99.
    const double p99 =
        rec.stage_histogram(obs::FlowStage::kE2e).quantile(0.99);
    Breakdown slow;
    for (const obs::FlowRecord& r : samples) {
      if (static_cast<double>(r.stages.e2e) >= p99) slow.add(r);
    }
    slow.finish();
    std::printf("\nwhere does p99 live (%zu sampled flows >= e2e p99 "
                "%.1f us):\n",
                slow.flows, to_us(p99));
    if (slow.flows == 0) {
      std::printf("  (no sampled flow reached the p99 — raise the sample "
                  "rate with --flow-sample 1)\n");
    } else {
      print_breakdown(slow, "  ");
      std::printf("  => dominant stage: %s\n",
                  obs::flow_stage_name(slow.dominant));
    }

    // 3. Per-phase breakdown (phases = windows between script events).
    if (rec.phases().size() > 1) {
      std::printf("\nper-phase breakdown (slow = sampled flows >= the "
                  "phase's own e2e p99):\n");
      for (std::size_t pi = 0; pi < rec.phases().size(); ++pi) {
        const auto& phase = rec.phases()[pi];
        const obs::LogHistogram& e2e =
            phase.stages[static_cast<std::size_t>(obs::FlowStage::kE2e)];
        if (e2e.count() == 0) continue;
        const double phase_p99 = e2e.quantile(0.99);
        Breakdown b;
        for (const obs::FlowRecord& r : samples) {
          const bool in_phase =
              r.start >= phase.from && (phase.to < 0 || r.start < phase.to);
          if (in_phase && static_cast<double>(r.stages.e2e) >= phase_p99) {
            b.add(r);
          }
        }
        b.finish();
        char to_buf[32] = "end";
        if (phase.to >= 0) {
          std::snprintf(to_buf, sizeof(to_buf), "%.1fs",
                        to_seconds(phase.to));
        }
        std::printf("  phase %zu [%s] t=%.1fs..%s: %llu flows, e2e p99 "
                    "%.1f us",
                    pi, phase.label.c_str(), to_seconds(phase.from), to_buf,
                    static_cast<unsigned long long>(e2e.count()),
                    to_us(phase_p99));
        if (b.flows == 0) {
          std::printf(" (no sampled slow flows)\n");
          continue;
        }
        std::printf(", dominant stage %s\n",
                    obs::flow_stage_name(b.dominant));
        print_breakdown(b, "    ");
      }
    }

    // 4. Top-K slowest sampled flows, per-stage waterfall.
    const std::size_t k =
        std::min<std::size_t>(static_cast<std::size_t>(top_k),
                              samples.size());
    std::printf("\ntop %zu slowest sampled flows:\n", k);
    std::printf("  %-10s %-19s %9s %10s %10s %10s %10s %10s %10s %10s\n",
                "flow", "path", "t_start s", "edge us", "retry us", "punt us",
                "queue us", "install us", "deliver us", "e2e us");
    for (std::size_t i = 0; i < k; ++i) {
      const obs::FlowRecord& r = samples[i];
      const SimDuration attributed = r.stages.edge + r.stages.retry_backoff +
                                     r.stages.punt_rtt + r.stages.ctrl_queue +
                                     r.stages.install;
      std::printf(
          "  %-10llu %-19s %9.1f %10.1f %10.1f %10.1f %10.1f %10.1f "
          "%10.1f %10.1f\n",
          static_cast<unsigned long long>(r.flow_id),
          obs::flow_path_name(r.path), to_seconds(r.start),
          to_us(static_cast<double>(r.stages.edge)),
          to_us(static_cast<double>(r.stages.retry_backoff)),
          to_us(static_cast<double>(r.stages.punt_rtt)),
          to_us(static_cast<double>(r.stages.ctrl_queue)),
          to_us(static_cast<double>(r.stages.install)),
          to_us(static_cast<double>(
              std::max<SimDuration>(r.stages.e2e - attributed, 0))),
          to_us(static_cast<double>(r.stages.e2e)));
    }
  }

  if (!trace_path.empty()) {
    if (!obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      return 2;
    }
    std::printf("\ntrace: %zu events + %zu flow records -> %s\n",
                obs::recorder().size(), rec.size(), trace_path.c_str());
    if (obs::recorder().dropped() > 0) {
      std::fprintf(stderr,
                   "warning: trace ring overflowed, %llu oldest events "
                   "dropped (obs.trace_dropped)\n",
                   static_cast<unsigned long long>(obs::recorder().dropped()));
    }
  }
  return 0;
}
