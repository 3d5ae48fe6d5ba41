// Orchestration-overhead shootout: reruns both Table-1 campaigns under three
// completion-signaling modes and reports how much of the paper's measured
// overhead (median 49.2 % hyperspectral / 21.1 % spatiotemporal, Sec. 3.3)
// each one recovers:
//
//   paper_polling    - exponential backoff polling, 1 s doubling to 10 min
//                      (the production system the paper measured)
//   event_driven     - provider completion notifications; polling degrades
//                      to a sparse reconcile safety net
//   event_streaming  - events plus cut-through: Analyze pre-dispatches held
//                      on the Transfer's first landed chunk and is credited
//                      the overlapped work
//
// Every run is cross-checked against telemetry: the RunTiming rebuilt from
// the closed span tree must match the flow service's records at ns
// granularity (span_parity). Emits BENCH_overhead.json (checked in; CI
// regenerates it with --smoke and re-checks the gates via
// tools/check_bench.py). Gated claims: event-driven completion cuts the
// hyperspectral median overhead fraction below polling (>= 2x at full
// length), and cut-through streaming cuts the spatiotemporal median total
// below event-only completion.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "telemetry/export.hpp"
#include "util/bytes.hpp"
#include "util/stats.hpp"

using namespace pico;

namespace {

struct ModeSpec {
  std::string name;
  flow::CompletionMode completion = flow::CompletionMode::Polling;
  bool streaming = false;
};

const std::vector<ModeSpec>& modes() {
  static const std::vector<ModeSpec> kModes = {
      {"paper_polling", flow::CompletionMode::Polling, false},
      {"event_driven", flow::CompletionMode::Events, false},
      {"event_streaming", flow::CompletionMode::Events, true},
  };
  return kModes;
}

struct ModeResult {
  std::string mode;
  size_t runs = 0;
  size_t failed = 0;
  double median_total_s = 0;
  double max_total_s = 0;
  double median_overhead_s = 0;
  double median_overhead_frac = 0;  ///< (total - active_union) / total
  double median_overlap_s = 0;      ///< wall time saved by cut-through
  double polls_per_run = 0;
  double notifications_per_run = 0;
  double notification_latency_p50_s = 0;
  uint64_t streamed_steps = 0;
  bool span_parity = true;
};

bool timing_equal_ns(const flow::RunTiming& a, const flow::RunTiming& b) {
  if (a.submitted.ns != b.submitted.ns || a.finished.ns != b.finished.ns ||
      a.steps.size() != b.steps.size()) {
    return false;
  }
  for (size_t i = 0; i < a.steps.size(); ++i) {
    const flow::StepTiming& x = a.steps[i];
    const flow::StepTiming& y = b.steps[i];
    if (x.name != y.name || x.dispatched.ns != y.dispatched.ns ||
        x.service_started.ns != y.service_started.ns ||
        x.service_completed.ns != y.service_completed.ns ||
        x.discovered.ns != y.discovered.ns || x.polls != y.polls ||
        x.retries != y.retries || x.timeouts != y.timeouts ||
        x.notifications != y.notifications || x.streamed != y.streamed) {
      return false;
    }
  }
  return true;
}

ModeResult run_mode(const ModeSpec& mode, core::UseCase use_case,
                    double duration_s) {
  // Fresh facility per run, with bench_table1's per-campaign calibration
  // (independent experiments, different Polaris queue conditions).
  core::FacilityConfig fc;
  fc.artifact_dir = "bench-artifacts/overhead";
  if (use_case == core::UseCase::Hyperspectral) {
    fc.seed = 20230407;
    fc.cost.provision_delay_s = 100.0;
    fc.cost.provision_jitter_s = 10.0;
  } else {
    fc.seed = 20230408;
    fc.cost.provision_delay_s = 35.0;
    fc.cost.provision_jitter_s = 10.0;
  }
  fc.flow.completion_mode = mode.completion;

  core::CampaignConfig cfg;
  cfg.use_case = use_case;
  cfg.duration_s = duration_s;
  if (use_case == core::UseCase::Hyperspectral) {
    cfg.start_period_s = 30;
    cfg.file_bytes = 91 * 1000 * 1000;
    cfg.label_prefix = "hyper";
  } else {
    cfg.start_period_s = 120;
    cfg.file_bytes = 1200 * 1000 * 1000;
    cfg.label_prefix = "spatio";
  }
  if (mode.streaming) cfg.streaming_steps = {"Analyze"};

  core::Facility facility(fc);
  core::CampaignResult result = core::run_campaign(facility, cfg);

  // Per-step Fig.-4 decomposition per mode, for calibration work.
  if (std::getenv("OVERHEAD_FIG4")) {
    std::printf("--- %s / %s ---\n%s\n", cfg.label_prefix.c_str(),
                mode.name.c_str(), core::render_fig4(result).c_str());
    for (const char* step : {"Transfer", "Analyze", "Publish"}) {
      util::SampleStats dispatch_lag;
      for (const core::CompletedFlow& f : result.in_window) {
        for (const flow::StepTiming& s : f.timing.steps) {
          if (s.name == step) {
            dispatch_lag.add((s.service_started - s.dispatched).seconds());
          }
        }
      }
      util::SampleStats disc = result.step_lag_stats(step);
      std::printf("  %-9s dispatch-lag med %.2fs max %.2fs | "
                  "discovery-lag med %.2fs max %.2fs\n",
                  step, dispatch_lag.median(), dispatch_lag.max(),
                  disc.median(), disc.max());
    }
  }

  ModeResult out;
  out.mode = mode.name;
  out.runs = result.in_window.size();
  out.failed = result.failed;

  util::SampleStats total, overhead, frac, overlap;
  for (const core::CompletedFlow& f : result.in_window) {
    if (!f.success) continue;
    double t = f.timing.total_s();
    total.add(t);
    overhead.add(t - f.timing.active_union_s());
    if (t > 0) frac.add((t - f.timing.active_union_s()) / t);
    overlap.add(f.timing.overlap_s());

    // Telemetry cross-check: the span tree alone must reproduce the service
    // records exactly.
    flow::RunTiming rebuilt;
    if (!timing_from_spans(facility.trace(), f.id, &rebuilt) ||
        !timing_equal_ns(rebuilt, f.timing)) {
      out.span_parity = false;
    }
  }
  out.median_total_s = total.empty() ? 0 : total.median();
  out.max_total_s = total.empty() ? 0 : total.max();
  out.median_overhead_s = overhead.empty() ? 0 : overhead.median();
  out.median_overhead_frac = frac.empty() ? 0 : frac.median();
  out.median_overlap_s = overlap.empty() ? 0 : overlap.median();

  telemetry::TelemetrySummary summary =
      telemetry::summarize(facility.trace(), facility.telemetry().metrics);
  double n = out.runs ? static_cast<double>(out.runs) : 1.0;
  out.polls_per_run = static_cast<double>(summary.signaling.polls) / n;
  out.notifications_per_run =
      static_cast<double>(summary.signaling.notifications) / n;
  out.notification_latency_p50_s =
      summary.signaling.notification_latency_p50_s;
  out.streamed_steps = summary.signaling.streamed_steps;
  return out;
}

util::Json mode_json(const ModeResult& m) {
  return util::Json::object({
      {"mode", m.mode},
      {"runs", static_cast<int64_t>(m.runs)},
      {"failed", static_cast<int64_t>(m.failed)},
      {"median_total_s", m.median_total_s},
      {"max_total_s", m.max_total_s},
      {"median_overhead_s", m.median_overhead_s},
      {"median_overhead_frac", m.median_overhead_frac},
      {"median_overlap_s", m.median_overlap_s},
      {"polls_per_run", m.polls_per_run},
      {"notifications_per_run", m.notifications_per_run},
      {"notification_latency_p50_s", m.notification_latency_p50_s},
      {"streamed_steps", static_cast<int64_t>(m.streamed_steps)},
      {"span_parity", m.span_parity},
  });
}

void print_campaign(const char* title, const std::vector<ModeResult>& rows,
                    double paper_overhead_pct) {
  std::printf("\n%s (paper: median overhead %.1f %%)\n", title,
              paper_overhead_pct);
  std::printf("%-18s %5s %9s %9s %9s %8s %9s %8s %7s\n", "mode", "runs",
              "med tot", "max tot", "med ovh", "ovh %", "polls/rn", "overlap",
              "parity");
  for (const ModeResult& m : rows) {
    std::printf("%-18s %5zu %8.1fs %8.1fs %8.1fs %7.1f%% %9.1f %7.1fs %7s\n",
                m.mode.c_str(), m.runs, m.median_total_s, m.max_total_s,
                m.median_overhead_s, 100.0 * m.median_overhead_frac,
                m.polls_per_run, m.median_overlap_s,
                m.span_parity ? "ok" : "FAIL");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_overhead.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const double duration_s = smoke ? 900 : 3600;  // quarter-hour CI smoke
  bench::Report report("overhead", smoke);
  report.check("duration_s", duration_s, ">", 0);

  util::Json campaigns = util::Json::array();
  bool parity_all = true;
  struct Campaign {
    core::UseCase use_case;
    const char* name;
    const char* title;
    double paper_pct;
  };
  const Campaign kCampaigns[] = {
      {core::UseCase::Hyperspectral, "hyperspectral",
       "Hyperspectral (91 MB / 30 s)", 49.2},
      {core::UseCase::Spatiotemporal, "spatiotemporal",
       "Spatiotemporal (1200 MB / 120 s)", 21.1},
  };
  std::map<std::string, ModeResult> by_mode;  ///< "use_case.mode" -> result
  for (const Campaign& c : kCampaigns) {
    std::vector<ModeResult> rows;
    util::Json mode_rows = util::Json::array();
    for (const ModeSpec& mode : modes()) {
      ModeResult r = run_mode(mode, c.use_case, duration_s);
      parity_all = parity_all && r.span_parity;
      mode_rows.push_back(mode_json(r));
      // Every mode completes runs with span parity and sane medians.
      const std::string key = std::string(c.name) + "." + r.mode;
      const std::string p = key + ".";
      report.check(p + "runs", r.runs, ">", 0);
      report.check(p + "span_parity", r.span_parity, "==", 1);
      for (auto [field, value] :
           {std::pair{"median_total_s", r.median_total_s},
            {"max_total_s", r.max_total_s},
            {"median_overhead_s", r.median_overhead_s},
            {"median_overlap_s", r.median_overlap_s},
            {"polls_per_run", r.polls_per_run}}) {
        report.check(p + field, value, ">=", 0);
      }
      report.metric(p + "median_overhead_frac", r.median_overhead_frac);
      report.gate(p + "median_overhead_frac.min", p + "median_overhead_frac",
                  ">=", 0);
      report.gate(p + "median_overhead_frac.max", p + "median_overhead_frac",
                  "<=", 1);
      by_mode[key] = r;
      rows.push_back(std::move(r));
    }
    print_campaign(c.title, rows, c.paper_pct);
    campaigns.push_back(util::Json::object({
        {"use_case", c.name},
        {"paper_median_overhead_pct", c.paper_pct},
        {"modes", std::move(mode_rows)},
    }));
  }
  report.check("span_parity_all", parity_all, "==", 1);

  // Headline claim 1: event-driven completion cuts the hyperspectral median
  // overhead fraction below paper-default polling, by >= 2x at full length.
  const double poll =
      by_mode["hyperspectral.paper_polling"].median_overhead_frac;
  const double event =
      by_mode["hyperspectral.event_driven"].median_overhead_frac;
  report.check("hyperspectral.event_minus_poll_overhead_frac", event - poll,
               "<", 0);
  report.metric("hyperspectral.poll_over_event_overhead_ratio",
                event > 0 ? poll / event : std::numeric_limits<double>::max());
  if (!smoke) {
    report.gate("full.hyperspectral.poll_over_event_overhead_ratio",
                "hyperspectral.poll_over_event_overhead_ratio", ">=", 2.0);
  }
  // Headline claim 2: cut-through streaming cuts the spatiotemporal median
  // *total* runtime below event-only completion, through real overlap.
  const ModeResult& streaming = by_mode["spatiotemporal.event_streaming"];
  report.check("spatiotemporal.streaming_minus_event_total_s",
               streaming.median_total_s -
                   by_mode["spatiotemporal.event_driven"].median_total_s,
               "<", 0);
  report.gate("spatiotemporal.event_streaming.overlap_positive",
              "spatiotemporal.event_streaming.median_overlap_s", ">", 0);

  util::Json detail = util::Json::object({
      {"duration_s", duration_s},
      {"span_parity_all", parity_all},
      {"campaigns", std::move(campaigns)},
  });
  return report.write(out_path, std::move(detail));
}
