// perfbench: run one workload of the Real-Facility benchmark.
//
//   perfbench --workload hyper_real --seed 7 --seconds 30 --trace 0
//
// --trace 0 repeats untraced campaigns of one seed for --seconds after a
// warm-up campaign and reports the end-to-end metrics; --trace 1 makes the
// campaign after the warm-up a traced one (timing decorators, probes) and
// reports the per-layer ledger plus the workload-specific paper metrics. The
// last line of
// stdout is the JSON result; the lines before it are the human-readable
// report and the host record. Exit status 1 when any output check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using perfbench::MetricSet;
using perfbench::Outcome;
using pico::util::Json;

/// End-to-end metrics printed by every workload (the BENCHMARK.json list).
const std::vector<std::string>& e2e_contract() {
  static const std::vector<std::string> kNames = {
      "flows_per_cpu_s", "setup_s", "peak_rss_mb", "flow_latency_p50_vs",
      "flow_latency_p90_vs"};
  return kNames;
}

/// Each batch of extra set-up samples stops at this many samples or this
/// much wall time, whichever comes first (at least one sample).
constexpr int kSetupBatchSamples = 20;
constexpr double kSetupBatchBudgetS = 0.01;

/// Size of the facility warm-up campaign: enough to touch the allocator's
/// pages and every code path, short enough to leave the run's time to the
/// measured campaigns.
constexpr double kWarmupScale = 0.2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(v);
    } else if (key == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0) return false;
  for (const auto& w : perfbench::workload_names()) {
    if (w == a->workload) return a->seconds > 0;
  }
  return false;
}

double median_of(const std::vector<Outcome>& runs,
                 double (*get)(const Outcome&)) {
  std::vector<double> v;
  for (const auto& r : runs) v.push_back(get(r));
  return perfbench::median(v);
}

Json metrics_json(const MetricSet& set, const std::vector<std::string>& names,
                  std::vector<std::string>* missing) {
  Json out = Json::object();
  for (const auto& name : names) {
    const perfbench::Metric* m = set.find(name);
    if (!m || !std::isfinite(m->value)) {
      missing->push_back(name);
      continue;
    }
    out[name] = Json::object({{"value", m->value}, {"unit", m->unit}});
  }
  return out;
}

void print_metrics(const char* title, const MetricSet& set) {
  std::printf("%s\n", title);
  for (const auto& m : set.items()) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t t_start = perfbench::now_ns();
  const double steal_start = perfbench::host_steal_s();
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<hyper_real|spatio_real|scale_stream|federated_chaos> "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  std::printf("host %s\n", perfbench::host_record_json().c_str());
  std::printf("workload %s seed %llu trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);

  const bool federated = args.workload == "federated_chaos";
  perfbench::RunOptions opt;
  opt.seed = args.seed;

  // Campaign 0 warms up: a fifth-size facility campaign, or for
  // federated_chaos the full campaign through the broker rig, which gives
  // the per-flow latencies. Then full-size campaigns of the one seed repeat
  // until the next would overrun the budget; --trace 1 makes the first of
  // them the traced one.
  Outcome warm;
  std::vector<Outcome> measured;
  Outcome traced;
  bool have_traced = false;
  std::vector<double> setups;
  double process_start_s = 0;
  auto elapsed = [&] {
    return static_cast<double>(perfbench::now_ns() - t_start) / 1e9;
  };
  for (int rep = 0;; ++rep) {
    if (rep == 0) process_start_s = elapsed();
    // Set-up samples are spread over the run, a batch before each campaign:
    // the host's speed drifts over seconds, so samples from one moment
    // would make the median depend on when the run started.
    double batch_s = 0;
    for (int i = 0; i < kSetupBatchSamples && batch_s < kSetupBatchBudgetS;
         ++i) {
      setups.push_back(perfbench::setup_only(args.workload, opt));
      batch_s += setups.back();
    }
    perfbench::RunOptions o = opt;
    const char* kind = "measured";
    if (rep == 0) {
      kind = "warm-up";
      if (federated) {
        o.broker_rig = true;
      } else {
        o.scale = kWarmupScale;
      }
    } else if (args.trace && rep == 1) {
      kind = "traced";
      o.traced = true;
    }
    int64_t t0 = perfbench::now_ns();
    double steal0 = perfbench::host_steal_s();
    Outcome out = perfbench::run_workload(args.workload, o);
    double rep_s = static_cast<double>(perfbench::now_ns() - t0) / 1e9;
    double stolen = perfbench::host_steal_s() - steal0;
    std::string setup = std::isfinite(out.setup_s)
                            ? pico::util::format("%.4fs", out.setup_s)
                            : std::string("-");
    std::printf(
        "rep %d %-8s setup %s campaign %.4fs cpu %.4fs flows %zu ok %zu "
        "failed %zu fingerprint %016llx stolen %.2fs\n",
        rep, kind, setup.c_str(), out.campaign_s, out.campaign_cpu_s,
        out.attempted, out.succeeded, out.failed,
        static_cast<unsigned long long>(out.fingerprint), stolen);
    for (const auto& e : out.errors) {
      std::printf("  CHECK FAILED: %s\n", e.c_str());
    }
    if (rep == 0) {
      warm = std::move(out);
    } else if (o.traced) {
      traced = std::move(out);
      have_traced = true;
    } else {
      if (std::isfinite(out.setup_s)) setups.push_back(out.setup_s);
      measured.push_back(std::move(out));
    }
    bool enough = !measured.empty() && (!args.trace || have_traced);
    if (enough && elapsed() + rep_s > args.seconds) break;
  }

  // ---- output checks across campaigns --------------------------------------
  // Every campaign's own checks count; the full-size ones must also agree
  // with each other on everything that repeats for the seed.
  std::vector<std::string> errors;
  size_t attempted = 0, failed = 0;
  std::vector<const Outcome*> full;
  if (federated) full.push_back(&warm);
  for (const auto& r : measured) full.push_back(&r);
  if (have_traced) full.push_back(&traced);
  const Outcome& ref = *full.front();
  for (const Outcome* r : full) {
    if (r->fingerprint != ref.fingerprint) {
      errors.push_back(std::string(r->traced ? "traced" : "repeated") +
                       " run changed the publish fingerprint");
    }
    if (r->counters != ref.counters) {
      errors.push_back(std::string(r->traced ? "traced" : "repeated") +
                       " run changed the program's own counters");
    }
    if (r->digest != ref.digest) {
      errors.push_back(
          federated ? "run_federated_campaign and the broker rig disagree"
                    : "virtual-time results differ between runs of one seed");
    }
  }
  if (!federated) full.push_back(&warm);
  for (const Outcome* r : full) {
    attempted += r->attempted;
    failed += r->failed;
    for (const auto& e : r->errors) errors.push_back(e);
  }
  if (have_traced) {
    // Exclusive timing: no layer row, nor their sum, may exceed the wall.
    const MetricSet& L = traced.layers;
    for (const auto& row : perfbench::ledger_rows()) {
      if (!(L.value(row) >= 0 && L.value(row) <= traced.campaign_s)) {
        errors.push_back("ledger row " + row + " outside the campaign wall");
      }
    }
    if (!(L.value("core.unattributed_s") >= 0)) {
      errors.push_back("ledger rows sum past the campaign wall");
    }
  }
  if (!errors.empty()) failed += 1;

  // ---- end-to-end metrics ---------------------------------------------------
  // Wall-clock figures are medians over the measured campaigns.
  // Virtual-time figures repeat exactly for the seed, so ref gives them.
  // Throughput is bounded per CPU second: the kernel leaves stolen and
  // run-queue time out of CPU time, and on a shared VM those move wall time
  // by up to 2.5x between runs. Wall throughput is printed beside it.
  MetricSet e2e;
  e2e.set("flows_per_cpu_s", median_of(measured, [](const Outcome& o) {
            return o.flows_per_cpu_s();
          }),
          "flows/cpu-s");
  e2e.set("setup_s", perfbench::median(setups), "s");
  e2e.set("peak_rss_mb", perfbench::peak_rss_mib(), "MiB");
  e2e.set("flow_latency_p50_vs", perfbench::quantile(ref.latencies_vs, 0.50),
          "vs");
  e2e.set("flow_latency_p90_vs", perfbench::quantile(ref.latencies_vs, 0.90),
          "vs");
  // Paper metrics that are not defined on every workload, that one flow
  // decides (ttfr_vs) or that host noise moves past any bound (flows_per_s),
  // travel with the per-layer list; 0 = not applicable.
  e2e.set("flows_per_s",
          median_of(measured, [](const Outcome& o) { return o.flows_per_s(); }),
          "flows/s");
  e2e.set("failed_frac",
          static_cast<double>(failed) /
              static_cast<double>(std::max<size_t>(1, attempted)),
          "fraction");
  e2e.set("ttfr_vs", ref.ttfr_vs, "vs");
  e2e.set("overhead_pct_p50",
          std::isfinite(ref.overhead_pct_p50) ? ref.overhead_pct_p50 : 0, "%");
  e2e.set("query_p50_ms",
          ref.query_ms.empty() ? 0 : median_of(measured, [](const Outcome& o) {
            return perfbench::quantile(o.query_ms, 0.50);
          }),
          "ms");
  e2e.set("query_p99_ms",
          ref.query_ms.empty() ? 0 : median_of(measured, [](const Outcome& o) {
            return perfbench::quantile(o.query_ms, 0.99);
          }),
          "ms");
  e2e.set("recovery_vs", std::isfinite(ref.recovery_vs) ? ref.recovery_vs : 0,
          "vs");
  // One operator submits every facility flow: Jain's index over one user is 1.
  e2e.set("jain_fairness", std::isfinite(ref.jain) ? ref.jain : 1, "index");
  std::printf("samples: %zu flows per campaign, %zu measured campaigns, "
              "%zu set-ups (%.3g..%.3g s), %zu portal queries per campaign\n",
              ref.latencies_vs.size(), measured.size(), setups.size(),
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()),
              ref.query_ms.size());
  std::printf("process start to first set-up: %.4f s\n", process_start_s);
  std::printf("host CPU time stolen during the run: %.2f s over %.1f s\n",
              perfbench::host_steal_s() - steal_start, elapsed());
  print_metrics("end-to-end", e2e);

  std::vector<std::string> names = e2e_contract();
  MetricSet out = e2e;
  if (args.trace) {
    out = traced.layers;
    // For federated_chaos the base is the library driver's whole call, its
    // own set-up included.
    double base =
        median_of(measured, [](const Outcome& o) { return o.campaign_s; });
    out.set("core.tracing_overhead_s", traced.campaign_s - base, "s");
    out.set("core.process_start_s", process_start_s, "s");
    print_metrics("per-layer (traced campaign)", out);
    for (const auto& n : traced.notes) std::printf("note %s\n", n.c_str());
    for (const auto& m : e2e.items()) {
      if (std::find(names.begin(), names.end(), m.name) == names.end()) {
        out.set(m.name, m.value, m.unit);
      }
    }
    names.clear();
    for (const auto& m : out.items()) names.push_back(m.name);
  }
  std::vector<std::string> missing;
  Json metrics = metrics_json(out, names, &missing);
  for (const auto& name : missing) {
    errors.push_back("metric not measured: " + name);
  }

  for (const auto& e : errors) std::printf("FAILED CHECK: %s\n", e.c_str());
  bool correct = errors.empty() && failed == 0;
  Json line = Json::object({
      {"correct", correct},
      {"attempted", static_cast<int64_t>(attempted)},
      {"failed", static_cast<int64_t>(failed)},
      {"metrics", metrics},
  });
  std::printf("%s\n", line.dump().c_str());
  return correct ? 0 : 1;
}
