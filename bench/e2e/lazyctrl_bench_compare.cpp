// lazyctrl_bench_compare — judges a new set of end-to-end benchmark runs
// against an old one, with the bounds BENCHMARK.json fixes.
//
//   lazyctrl_bench_compare OLD_DIR NEW_DIR
//
// For every workload and end-to-end metric it reads BENCH_e2e_<w>.json
// from both directories and prints the ratio of medians (new / old) with
// each side's p25/p75 and min/max over its samples. Verdicts:
//   regressed   worse than the bound AND the two sample ranges do not
//               overlap
//   improved    better than the bound AND the ranges do not overlap
//   unresolved  a side's spread (p75 - p25, as a share of its median) is
//               wider than the bound, so the bound cannot be judged
//   changed     a simulated metric differs at all (they are exact)
//   ok          otherwise
// Exit codes: 0 nothing regressed or changed; 1 something did; 2 a file
// is missing or malformed.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "e2e_metrics.h"
#include "harness.h"

using lazyctrl::benchx::JsonValue;
namespace e2e = lazyctrl::e2e;

namespace {

bool read_json(const std::string& path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  if (!lazyctrl::benchx::parse_json(buf.str(), out, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

/// The samples of `metric` in a BENCH_*.json document; empty if absent.
std::vector<double> samples_of(const JsonValue& doc, const std::string& metric) {
  std::vector<double> out;
  const JsonValue* metrics = doc.find("metrics");
  const JsonValue* m = metrics ? metrics->find(metric) : nullptr;
  const JsonValue* s = m ? m->find("samples") : nullptr;
  if (s == nullptr) return out;
  for (const JsonValue& v : s->array) out.push_back(v.number);
  return out;
}

struct Side {
  double median, p25, p75, lo, hi;
  [[nodiscard]] double spread() const {
    return median != 0 ? (p75 - p25) / std::fabs(median) : 0.0;
  }
};

Side summarize(const std::vector<double>& v) {
  return {e2e::median(v), e2e::quantile(v, 0.25), e2e::quantile(v, 0.75),
          e2e::quantile(v, 0.0), e2e::quantile(v, 1.0)};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s OLD_DIR NEW_DIR\n", argv[0]);
    return 2;
  }
  const std::string dirs[2] = {argv[1], argv[2]};
  const std::string benchmark = LAZYCTRL_BENCHMARK_JSON;
  JsonValue spec;
  if (!read_json(benchmark, &spec)) return 2;
  const JsonValue* workloads = spec.find("workloads");
  const JsonValue* metrics = spec.find("end_to_end");
  if (workloads == nullptr || metrics == nullptr) {
    std::fprintf(stderr, "%s: no workloads/end_to_end\n", benchmark.c_str());
    return 2;
  }

  int flagged = 0;
  std::printf("%-16s %-22s %9s %-10s %12s %12s %12s %12s  %s\n", "workload",
              "metric", "new/old", "bound", "old p25", "old p75", "new p25",
              "new p75", "verdict");
  for (const JsonValue& w : workloads->array) {
    const std::string name = w.find("name")->string;
    JsonValue old_doc, new_doc;
    const std::string file = "/BENCH_e2e_" + name + ".json";
    if (!read_json(dirs[0] + file, &old_doc) ||
        !read_json(dirs[1] + file, &new_doc)) {
      return 2;
    }
    for (const JsonValue& m : metrics->array) {
      const std::string metric = m.find("name")->string;
      const double bound = m.find("bound")->number;
      const bool higher_better = m.find("better")->string == "higher";
      const e2e::EndToEndMetric* known = e2e::find_end_to_end(metric);
      const std::vector<double> ov = samples_of(old_doc, metric);
      const std::vector<double> nv = samples_of(new_doc, metric);
      if (known == nullptr || ov.empty() || nv.empty()) {
        std::fprintf(stderr, "%s: metric %s missing\n", name.c_str(),
                     metric.c_str());
        return 2;
      }
      const Side o = summarize(ov);
      const Side n = summarize(nv);
      const double ratio = o.median != 0 ? n.median / o.median : 0.0;
      // Relative change in the "worse" direction: > 0 means worse.
      const double worse = higher_better ? 1.0 - ratio : ratio - 1.0;
      const bool disjoint = n.lo > o.hi || n.hi < o.lo;
      std::string verdict = "ok";
      if (known->simulated) {
        if (ov != nv) verdict = "changed";
      } else if (o.spread() > bound || n.spread() > bound) {
        verdict = "unresolved";
      } else if (worse > bound && disjoint) {
        verdict = "regressed";
      } else if (-worse > bound && disjoint) {
        verdict = "improved";
      }
      if (verdict == "regressed" || verdict == "changed") ++flagged;
      std::printf(
          "%-16s %-22s %9.4f %-10.2f %12.6g %12.6g %12.6g %12.6g  %s "
          "(old %.6g..%.6g n=%zu, new %.6g..%.6g n=%zu)\n",
          name.c_str(), metric.c_str(), ratio, bound, o.p25, o.p75, n.p25,
          n.p75, verdict.c_str(), o.lo, o.hi, ov.size(), n.lo, n.hi,
          nv.size());
    }
  }
  std::printf("%d regressed or changed\n", flagged);
  return flagged == 0 ? 0 : 1;
}
