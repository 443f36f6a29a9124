// lazyctrl_fuzz — seeded scenario fuzzing driver: generate N random
// valid scenarios (src/scenario/fuzz.h), run each through the
// conservation-invariant checker (core/invariants.h), the bit-identity
// rerun determinism check, the checkpoint-resume oracle and the
// config-matrix equivalence oracle, and shrink + serialize any failing
// scenario to a minimal `.scn` repro.
//
//   lazyctrl_fuzz [options]
//
//   --seeds N       number of seeds to run (default 25)
//   --seed-base B   first seed; seed i runs B+i (default 1, so runs are
//                   reproducible — CI keeps the default)
//   --scale F       multiply each scenario's drawn flow count by F
//                   (smoke runs use 0.1; a floor of 200 flows applies)
//   --max-events M  cap on drawn script events per scenario (default 10)
//   --out DIR       where shrunk failing .scn repros land
//                   (default fuzz-failures/)
//
// Exit codes: 0 every seed passed; 1 at least one seed failed (its
// shrunk repro was written to --out); 2 usage error.
//
// Each seed runs four oracles (src/scenario/fuzz.h): the invariant-
// checked run, the bit-identity rerun carrying a checkpoint fence, the
// checkpoint-restore resume whose finished metrics must match the
// rerun's, and the config matrix (fib.layout x runtime.num_shards, 4
// runs that must all be bit-identical). The
// shrunk repro's failure is printed again after shrinking, so a matrix
// failure names the diverging configuration pair and the first diverging
// metric of the minimal spec. When a shrunk failure still reaches its
// checkpoint fence, the
// snapshot is written next to the repro as <name>.ckpt so the failing
// state can be restored directly:
//   lazyctrl_run --resume fuzz-failures/fuzz_<seed>.ckpt
//
// A written repro replays standalone with the scenario CLI:
//   lazyctrl_run fuzz-failures/fuzz_<seed>.scn
// and belongs in examples/scenarios/regressions/ once the bug is fixed
// (see docs/SCENARIOS.md, "Fuzzing & invariants").
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "ckpt/checkpoint.h"
#include "scenario/fuzz.h"
#include "scenario/spec.h"

using namespace lazyctrl;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--seed-base B] [--scale F] "
               "[--max-events M] [--out DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t seeds = 25;
  std::uint64_t seed_base = 1;
  scenario::FuzzOptions opt;
  std::string out_dir = "fuzz-failures";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s expects a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      const char* v = next("--seeds");
      if (v == nullptr) return 2;
      const long n = std::atol(v);
      if (n < 1) {
        std::fprintf(stderr, "--seeds expects a positive integer\n");
        return 2;
      }
      seeds = static_cast<std::size_t>(n);
    } else if (arg == "--seed-base") {
      const char* v = next("--seed-base");
      if (v == nullptr) return 2;
      seed_base = std::strtoull(v, nullptr, 10);
    } else if (arg == "--scale") {
      const char* v = next("--scale");
      if (v == nullptr) return 2;
      if (!scenario::parse_scale(v, &opt.scale)) {
        std::fprintf(stderr,
                     "--scale expects a finite number > 0, got %s\n", v);
        return 2;
      }
      if (!scenario::scale_flow_count(scenario::FuzzOptions::kMaxDrawnFlows,
                                      opt.scale)) {
        std::fprintf(stderr,
                     "--scale %s: %zu drawn flows scaled by it do not fit "
                     "in a trace\n",
                     v, scenario::FuzzOptions::kMaxDrawnFlows);
        return 2;
      }
    } else if (arg == "--max-events") {
      const char* v = next("--max-events");
      if (v == nullptr) return 2;
      const long n = std::atol(v);
      if (n < 0) {
        std::fprintf(stderr, "--max-events expects a non-negative count\n");
        return 2;
      }
      opt.max_events = static_cast<std::size_t>(n);
    } else if (arg == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return 2;
      out_dir = v;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  std::size_t failures = 0;
  for (std::size_t i = 0; i < seeds; ++i) {
    const std::uint64_t seed = seed_base + i;
    const scenario::ScenarioSpec spec =
        scenario::generate_scenario(seed, opt);
    const scenario::FuzzRunResult result =
        scenario::run_scenario_with_checks(spec);
    if (result.ok()) {
      std::printf("seed %llu  %-12s ok (%zu events, %zu flows, %s)\n",
                  static_cast<unsigned long long>(seed), spec.name.c_str(),
                  spec.events.size(), spec.workload.flows,
                  scenario::to_string(spec.config.mode));
      continue;
    }
    ++failures;
    std::fprintf(stderr, "seed %llu  %s FAILED\n%s",
                 static_cast<unsigned long long>(seed), spec.name.c_str(),
                 result.failure_text().c_str());

    // Shrink while the same class of failure (invalid vs. ran-and-failed)
    // reproduces, then serialize the minimal repro.
    const bool originally_valid = result.valid;
    const scenario::ScenarioSpec shrunk = scenario::shrink_scenario(
        spec, [&](const scenario::ScenarioSpec& candidate) {
          const scenario::FuzzRunResult r =
              scenario::run_scenario_with_checks(candidate);
          return !r.ok() && r.valid == originally_valid;
        });
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path = out_dir + "/" + spec.name + ".scn";
    std::ofstream out(path);
    if (out) {
      out << scenario::serialize_scenario(shrunk);
      std::fprintf(stderr, "  shrunk to %zu events (from %zu) -> %s\n",
                   shrunk.events.size(), spec.events.size(), path.c_str());
    } else {
      std::fprintf(stderr, "  cannot write repro to %s\n", path.c_str());
    }
    // When the shrunk failure still reaches its checkpoint fence, keep
    // the snapshot beside the repro so the failing state restores
    // directly (lazyctrl_run --resume).
    const scenario::FuzzRunResult shrunk_result =
        scenario::run_scenario_with_checks(shrunk);
    std::fprintf(stderr, "  shrunk repro:\n%s",
                 shrunk_result.failure_text().c_str());
    if (!shrunk_result.snapshot.empty()) {
      const std::string snap_path = out_dir + "/" + spec.name + ".ckpt";
      std::string snap_err;
      if (ckpt::write_snapshot_file(snap_path, shrunk_result.snapshot,
                                    &snap_err)) {
        std::fprintf(stderr, "  checkpoint at t=%s -> %s\n",
                     scenario::format_duration(shrunk_result.snapshot_at)
                         .c_str(),
                     snap_path.c_str());
      } else {
        std::fprintf(stderr, "  cannot write snapshot: %s\n",
                     snap_err.c_str());
      }
    }
  }

  std::printf("%zu/%zu seeds passed\n", seeds - failures, seeds);
  return failures == 0 ? 0 : 1;
}
