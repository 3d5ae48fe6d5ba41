#pragma once
// Federated campaign driver: N scripted sites (federation/scripted_site.hpp,
// all on ONE shared engine so virtual clocks agree) under one Broker, driven
// by thousands of simulated users submitting a large flow population with
// site-level chaos running mid-campaign. This is the harness behind
// bench_federation (A14) and the federation tests. Its sites run scripted
// providers instead of the byte-level transfer/compute stack, so it scales to
// 10^5 flows and measures the broker alone: completion under failover,
// fairness under quotas, recovery time, and publish-index parity. A real
// core::Facility is not yet a site kind here; core::run_campaign still
// drives one facility without a broker.
//
// Every published search document is content-pure (id + logical fields only,
// no attempt counters, no site names), so the shared index fingerprint of a
// chaos run must be byte-identical to the fault-free run whenever both
// complete the same flow set — the cross-site equivalent of the PR 4
// integrity contract.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/schedule.hpp"
#include "federation/federation.hpp"
#include "flow/service.hpp"
#include "util/json.hpp"

namespace pico::federation {

struct FederatedSiteSpec {
  std::string name;
  double capacity = 1.0;
};

struct FederatedCampaignConfig {
  std::vector<FederatedSiteSpec> sites = {
      {"aps-probe", 1.0}, {"alcf-east", 1.0}, {"alcf-west", 1.0}};
  size_t flows = 1000;
  size_t users = 50;
  /// Submissions arrive uniformly over this window of virtual time.
  double arrival_window_s = 600;
  // Scripted step durations (per-flow deterministic jitter applied on top).
  double transfer_s = 20, analyze_s = 45, publish_s = 1, thumbnail_s = 5;
  /// Append the optional Thumbnail step (what brownout sheds).
  bool with_optional_step = true;
  BrokerConfig broker;
  /// Site-kind chaos events (SiteOutage / SitePartition / SiteBrownout),
  /// targets = site names above. Empty = fault-free run.
  fault::FaultSchedule chaos;
  /// Rejected submissions are re-posted after the broker's retry-after hint;
  /// a flow gives up for good after this many rejects.
  size_t max_resubmits = 64;
  flow::CompletionMode completion_mode = flow::CompletionMode::Polling;
  uint64_t seed = 0xF3Dull;
};

struct FederatedCampaignResult {
  size_t flows = 0;
  size_t completed = 0;
  size_t failed = 0;
  /// Admitted but never settled (parked against a site that never healed).
  size_t unsettled = 0;
  /// Flows that exhausted max_resubmits without ever being admitted.
  size_t gave_up = 0;
  uint64_t rejected_submissions = 0;
  uint64_t resubmissions = 0;
  BrokerStats broker;
  double p50_s = 0, p99_s = 0;  ///< submit -> final settle, virtual time
  double jain_fairness = 1.0;
  double virtual_s = 0;
  uint64_t engine_events = 0;
  uint64_t fingerprint = 0;  ///< shared publish-index fingerprint
  util::Json broker_report;

  double completion_frac() const {
    return flows == 0 ? 1.0
                      : static_cast<double>(completed) /
                            static_cast<double>(flows);
  }
};

/// The campaign's flow definition: Transfer -> Analyze -> Publish
/// [-> Thumbnail (optional)], providers "null" and "publish".
flow::FlowDefinition federated_definition(const FederatedCampaignConfig& c);

FederatedCampaignResult run_federated_campaign(
    const FederatedCampaignConfig& config);

}  // namespace pico::federation
