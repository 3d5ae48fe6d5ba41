// Federation scale bench (A14): the three robustness quantities the
// federated-failover tentpole makes first-class, measured on a 3-site
// federation driven by thousands of simulated users:
//
//  completion  - fraction of a 10^5-flow campaign that completes when a
//                whole site goes dark mid-campaign (SiteOutage) and a peer
//                browns out: the broker must checkpoint-resume stranded
//                flows at the survivors. CI gates >= 99%, and the shared
//                publish-index fingerprint must be byte-identical to the
//                fault-free run (the cross-site integrity contract: chaos
//                may delay work, never change or lose it).
//  fairness    - Jain index over per-user completions under fair-share
//                admission control (2000 equal-weight users; floor 0.97).
//  recovery    - virtual seconds from outage onset until the last stranded
//                flow settles at a peer (ceiling 900 s).
//
// p99/p50 flow latency (submit -> settle, virtual time) and the driver's
// wall-clock flows/s are recorded alongside. Emits BENCH_federation.json
// (checked in; CI regenerates with --smoke and re-checks the gates via
// tools/check_bench.py). On gate failure the chaos run's broker report is
// dumped to federation-report.json for the CI artifact upload.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_report.hpp"
#include "fault/schedule.hpp"
#include "federation/campaign.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

using namespace pico;
using util::Json;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Json campaign_json(const federation::FederatedCampaignResult& r,
                   double wall_ms) {
  return Json::object({
      {"flows", static_cast<int64_t>(r.flows)},
      {"completed", static_cast<int64_t>(r.completed)},
      {"failed", static_cast<int64_t>(r.failed)},
      {"unsettled", static_cast<int64_t>(r.unsettled)},
      {"gave_up", static_cast<int64_t>(r.gave_up)},
      {"completion_frac", r.completion_frac()},
      {"rejected_submissions", static_cast<int64_t>(r.rejected_submissions)},
      {"resubmissions", static_cast<int64_t>(r.resubmissions)},
      {"failovers", static_cast<int64_t>(r.broker.failovers)},
      {"resumed", static_cast<int64_t>(r.broker.resumed)},
      {"reconciled", static_cast<int64_t>(r.broker.reconciled)},
      {"optional_steps_dropped",
       static_cast<int64_t>(r.broker.optional_dropped)},
      {"parked", static_cast<int64_t>(r.broker.parked)},
      {"recovery_s", r.broker.recovery_s},
      {"p50_s", r.p50_s},
      {"p99_s", r.p99_s},
      {"jain_fairness", r.jain_fairness},
      {"virtual_s", r.virtual_s},
      {"engine_events", static_cast<int64_t>(r.engine_events)},
      {"fingerprint", util::format("%016llx", static_cast<unsigned long long>(
                                                  r.fingerprint))},
      {"wall_ms", wall_ms},
      {"flows_per_s",
       wall_ms > 0 ? static_cast<double>(r.flows) / (wall_ms / 1e3) : 0.0},
  });
}

}  // namespace

int main(int argc, char** argv) {
  // Site-kill chaos cancels thousands of in-flight runs on purpose; the flow
  // service warns per cancellation, which would swamp the bench output.
  util::LogConfig::set_level(util::LogLevel::Error);
  std::string out_path = "BENCH_federation.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const double kCompletionMin = 0.99;
  const double kRecoveryCeilingS = 900.0;
  const double kFairnessMin = 0.97;

  federation::FederatedCampaignConfig cfg;
  cfg.flows = smoke ? 5000 : 100000;
  cfg.users = smoke ? 200 : 2000;
  cfg.arrival_window_s = smoke ? 900 : 3600;
  cfg.broker.quota.max_inflight_total = smoke ? 400 : 4000;
  cfg.broker.quota.min_user_inflight = 4;

  // Fault-free reference: same flow population, no chaos.
  double t0 = now_ms();
  federation::FederatedCampaignResult clean =
      federation::run_federated_campaign(cfg);
  double clean_wall = now_ms() - t0;
  std::printf(
      "clean  %6zu flows  %5.1f%% done  p50 %6.1fs p99 %6.1fs  jain %.4f  "
      "%7.0f flows/s  fp %016llx\n",
      clean.flows, 100.0 * clean.completion_frac(), clean.p50_s, clean.p99_s,
      clean.jain_fairness,
      static_cast<double>(clean.flows) / (clean_wall / 1e3),
      static_cast<unsigned long long>(clean.fingerprint));

  // Chaos: mid-campaign site kill, a peer brownout, and a short partition —
  // the A14 script. Targets are sites 1 and 2 of the default 3-site layout.
  federation::FederatedCampaignConfig chaos_cfg = cfg;
  double scale = smoke ? 0.25 : 1.0;
  chaos_cfg.chaos.name = "a14-site-chaos";
  chaos_cfg.chaos.add({fault::FaultKind::SiteOutage, 1200 * scale, 600 * scale,
                       cfg.sites[1].name, 0});
  chaos_cfg.chaos.add({fault::FaultKind::SiteBrownout, 2000 * scale,
                       400 * scale, cfg.sites[2].name, 0.6});
  chaos_cfg.chaos.add({fault::FaultKind::SitePartition, 2800 * scale,
                       120 * scale, cfg.sites[1].name, 0});
  t0 = now_ms();
  federation::FederatedCampaignResult chaos =
      federation::run_federated_campaign(chaos_cfg);
  double chaos_wall = now_ms() - t0;
  std::printf(
      "chaos  %6zu flows  %5.1f%% done  p50 %6.1fs p99 %6.1fs  jain %.4f  "
      "%7.0f flows/s  fp %016llx\n"
      "       %llu failovers (%llu resumed)  %llu reconciled  %llu shed  "
      "recovery %.1fs\n",
      chaos.flows, 100.0 * chaos.completion_frac(), chaos.p50_s, chaos.p99_s,
      chaos.jain_fairness,
      static_cast<double>(chaos.flows) / (chaos_wall / 1e3),
      static_cast<unsigned long long>(chaos.fingerprint),
      static_cast<unsigned long long>(chaos.broker.failovers),
      static_cast<unsigned long long>(chaos.broker.resumed),
      static_cast<unsigned long long>(chaos.broker.reconciled),
      static_cast<unsigned long long>(chaos.broker.optional_dropped),
      chaos.broker.recovery_s);

  bench::Report report("federation", smoke);
  auto check_run = [&](const std::string& p,
                       const federation::FederatedCampaignResult& r) {
    report.check(p + "flows", r.flows, ">", 0);
    report.check(p + "p50_s", r.p50_s, ">=", 0);
    report.check(p + "p99_s", r.p99_s, ">=", 0);
    report.check(p + "jain_fairness", r.jain_fairness, ">=", kFairnessMin);
  };
  check_run("clean.", clean);
  check_run("chaos.", chaos);
  report.check("clean.completion_frac", clean.completion_frac(), ">=", 1.0);
  report.check("chaos.completion_frac", chaos.completion_frac(), ">=",
               kCompletionMin);
  bool fp_match = chaos.fingerprint == clean.fingerprint;
  report.check("chaos.fingerprint_match", fp_match, "==", 1);
  report.check("chaos.failovers", chaos.broker.failovers, ">", 0);
  report.check("chaos.resumed", chaos.broker.resumed, ">", 0);
  report.metric("chaos.recovery_s", chaos.broker.recovery_s);
  report.gate("chaos.recovery_s.positive", "chaos.recovery_s", ">", 0);
  report.gate("chaos.recovery_s.ceiling", "chaos.recovery_s", "<=",
              kRecoveryCeilingS);

  Json detail = Json::object({
      {"sites", static_cast<int64_t>(cfg.sites.size())},
      {"flows", static_cast<int64_t>(cfg.flows)},
      {"users", static_cast<int64_t>(cfg.users)},
      {"max_inflight_total",
       static_cast<int64_t>(cfg.broker.quota.max_inflight_total)},
      {"gates", Json::object({
                    {"completion_min", kCompletionMin},
                    {"recovery_ceiling_s", kRecoveryCeilingS},
                    {"fairness_min", kFairnessMin},
                    {"fingerprint_match", fp_match},
                })},
      {"clean", campaign_json(clean, clean_wall)},
      {"chaos", campaign_json(chaos, chaos_wall)},
  });
  if (!report.pass() &&
      util::write_file("federation-report.json",
                       chaos.broker_report.dump(2) + "\n")) {
    // Leave the chaos broker report behind for the CI failure artifact.
    std::printf("wrote federation-report.json (gate failure diagnostics)\n");
  }
  return report.write(out_path, std::move(detail));
}
