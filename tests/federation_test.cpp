// Federation tests: fair-share admission control, telemetry-routed
// brokering, site-level chaos (outage / partition / brownout) through the
// fault DSL, checkpoint-resume failover that must NOT inherit the failed
// site's backoff/breaker state, cross-site chunk-manifest mirroring, and the
// chaos-vs-fault-free publish-index parity of the federated campaign.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "federation/campaign.hpp"
#include "federation/failover.hpp"
#include "federation/federation.hpp"
#include "federation/quota.hpp"
#include "federation/scripted_site.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "portal/federation_page.hpp"
#include "search/index.hpp"
#include "storage/store.hpp"
#include "transfer/service.hpp"

namespace pico::federation {
namespace {

using util::Json;

/// Test-only recording provider: actions succeed after `duration_s` of
/// virtual time, the next `fail_next(n)` starts fail at poll, and start
/// counts/params are recorded per step key. The library's ScriptedProvider
/// (federation/scripted_site.hpp) has no failure script and no records.
class RecordingProvider final : public flow::ActionProvider {
 public:
  explicit RecordingProvider(sim::Engine* engine) : engine_(engine) {}

  std::string name() const override { return "work"; }

  util::Result<flow::ActionHandle> start(const Json& params,
                                         const auth::Token&) override {
    Action a;
    a.started = engine_->now();
    a.duration_ns =
        static_cast<int64_t>(params.at("duration_s").as_double(1.0) * 1e9);
    a.key = params.at("key").as_string("?");
    if (fail_budget_ > 0) {
      fail_budget_--;
      a.fail = true;
    }
    starts_by_key_[a.key]++;
    last_params_[a.key] = params;
    actions_.push_back(a);
    return util::Result<flow::ActionHandle>::ok(
        std::to_string(actions_.size() - 1));
  }

  flow::ActionPollResult poll(const flow::ActionHandle& handle) override {
    flow::ActionPollResult out;
    const Action& a = actions_[std::stoull(handle)];
    if ((engine_->now() - a.started).ns < a.duration_ns) {
      out.status = flow::ActionStatus::Active;
      return out;
    }
    if (a.fail) {
      out.status = flow::ActionStatus::Failed;
      out.error = "scripted failure";
      return out;
    }
    out.status = flow::ActionStatus::Succeeded;
    out.service_started = a.started;
    out.service_completed = a.started + sim::Duration{a.duration_ns};
    out.output = Json::object({{"ok", true}});
    return out;
  }

  void fail_next(int n) { fail_budget_ += n; }
  int starts_for(const std::string& key) const {
    auto it = starts_by_key_.find(key);
    return it == starts_by_key_.end() ? 0 : it->second;
  }
  int starts_total() const {
    int n = 0;
    for (const auto& [k, v] : starts_by_key_) {
      (void)k;
      n += v;
    }
    return n;
  }
  const Json& last_params(const std::string& key) { return last_params_[key]; }

 private:
  struct Action {
    sim::SimTime started;
    int64_t duration_ns = 0;
    std::string key;
    bool fail = false;
  };
  sim::Engine* engine_;
  std::vector<Action> actions_;
  std::map<std::string, int> starts_by_key_;
  std::map<std::string, Json> last_params_;
  int fail_budget_ = 0;
};

/// One broker-visible site: its own auth domain, orchestrator (with its own
/// breakers), and provider — replicated per-facility state on one shared
/// engine.
struct TestSite {
  std::string name;
  auth::AuthService auth;
  flow::FlowService flows;
  RecordingProvider work;
  auth::Token token;

  TestSite(const std::string& n, sim::Engine* engine,
           flow::FlowServiceConfig cfg = {})
      : name(n), flows(engine, &auth, cfg), work(engine) {
    flows.set_site(n);
    flows.register_provider(&work);
    token = auth.issue("broker@" + n, {"flows"});
  }

  Site site(sim::Engine* engine) {
    Site s;
    s.name = name;
    s.engine = engine;
    s.flows = &flows;
    s.token = token;
    return s;
  }
};

std::shared_ptr<const flow::FlowDefinition> make_def(
    double a_s, double b_s, double c_s, bool with_optional = false) {
  auto def = std::make_shared<flow::FlowDefinition>();
  def->name = "fed-test";
  auto step = [](const char* key, double duration) {
    flow::ActionState s;
    s.name = key;
    s.provider = "work";
    s.params = Json::object({{"duration_s", duration}, {"key", key}});
    s.max_retries = 2;
    return s;
  };
  def->steps = {step("A", a_s), step("B", b_s), step("C", c_s)};
  if (with_optional) {
    flow::ActionState opt = step("Opt", 1.0);
    opt.optional = true;
    def->steps.push_back(opt);
  }
  return def;
}

/// Low-latency, jitter-free orchestrator config so test timings are easy to
/// reason about.
flow::FlowServiceConfig quick_flow_config() {
  flow::FlowServiceConfig cfg;
  cfg.start_latency_s = 0.5;
  cfg.inter_step_latency_s = 0.5;
  cfg.latency_jitter_frac = 0.0;
  return cfg;
}

// ------------------------------------------------------------- quotas ----

TEST(FederationQuota, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({7, 7, 7, 7}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({1, 0, 0, 0}), 0.25);  // one-hot: 1/n
  EXPECT_NEAR(jain_index({4, 2, 2}), 0.889, 0.01);
}

TEST(FederationQuota, WeightedFairShareAdmission) {
  QuotaConfig qc;
  qc.max_inflight_total = 10;
  qc.min_user_inflight = 1;
  FairShareQuotas q(qc);
  q.set_weight("alice", 1.0);
  q.set_weight("bob", 1.0);
  EXPECT_EQ(q.user_share("alice"), 5u);

  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.admit("alice"));
    q.on_admitted("alice");
  }
  EXPECT_FALSE(q.admit("alice"));  // per-user share exhausted
  EXPECT_TRUE(q.admit("bob"));     // bob's share untouched
  for (int i = 0; i < 5; ++i) q.on_admitted("bob");
  EXPECT_FALSE(q.admit("bob"));  // global ceiling
  EXPECT_DOUBLE_EQ(q.load_frac(), 1.0);

  q.on_released("alice", true);
  EXPECT_TRUE(q.admit("alice"));
  EXPECT_EQ(q.completed("alice"), 1u);
}

TEST(FederationQuota, MinFloorKeepsLightUsersAdmissible) {
  QuotaConfig qc;
  qc.max_inflight_total = 1000;
  qc.min_user_inflight = 4;
  FairShareQuotas q(qc);
  q.set_weight("whale", 10000.0);
  q.set_weight("minnow", 0.001);
  EXPECT_GE(q.user_share("minnow"), 4u);
  EXPECT_TRUE(q.admit("minnow"));
}

// ------------------------------------------------------------- routing ----

TEST(FederationBroker, RoutesByQueueDepth) {
  sim::Engine engine;
  TestSite east("east", &engine, quick_flow_config());
  TestSite west("west", &engine, quick_flow_config());
  BrokerConfig bc;
  bc.quota.max_inflight_total = 100;
  Broker broker(bc);
  broker.add_site(east.site(&engine));
  broker.add_site(west.site(&engine));

  auto def = make_def(5, 5, 5);
  std::vector<std::string> routed;
  for (int i = 0; i < 4; ++i) {
    auto out = broker.submit(def, Json::object(), "user-" + std::to_string(i));
    ASSERT_TRUE(out.admitted);
    routed.push_back(out.site);
  }
  // Tie-break picks east first; each launch bumps its queue penalty, so
  // admissions alternate.
  EXPECT_EQ(routed, (std::vector<std::string>{"east", "west", "east", "west"}));
  engine.run();
  EXPECT_EQ(broker.stats().completed, 4u);
}

TEST(FederationBroker, OpenBreakerRepelsRoutingButOnlyAtItsOwnSite) {
  sim::Engine engine;
  auto cfg = quick_flow_config();
  cfg.breaker.failure_threshold = 2;
  TestSite east("east", &engine, cfg);
  TestSite west("west", &engine, cfg);
  Broker broker(BrokerConfig{});
  broker.add_site(east.site(&engine));
  broker.add_site(west.site(&engine));

  auto def = make_def(1, 1, 1);
  // Trip east's breaker: scripted failures burn the first flow's retries.
  east.work.fail_next(100);
  broker.submit(def, Json::object(), "u0");
  engine.run();
  east.work.fail_next(0);

  // Site-qualified snapshots: east's breaker is open, west's untouched.
  bool saw_east_open = false;
  for (const auto& snap : east.flows.breaker_snapshots()) {
    if (snap.provider == "work") {
      EXPECT_EQ(snap.site, "east");
      EXPECT_GE(snap.trips, 1);
      saw_east_open = true;
    }
  }
  EXPECT_TRUE(saw_east_open);
  // One facility's open breaker must not suppress the healthy peer: scoring
  // penalizes east only, and a fresh submission routes west.
  EXPECT_LT(broker.route_score(0, *def), broker.route_score(1, *def));
  auto out = broker.submit(def, Json::object(), "u1");
  ASSERT_TRUE(out.admitted);
  EXPECT_EQ(out.site, "west");
  engine.run();
}

// ---------------------------------------------------- admission control ----

TEST(FederationBroker, RejectsOverQuotaWithRetryAfter) {
  sim::Engine engine;
  TestSite east("east", &engine, quick_flow_config());
  BrokerConfig bc;
  bc.quota.max_inflight_total = 4;
  bc.quota.min_user_inflight = 1;
  bc.reject_retry_after_s = 10.0;
  Broker broker(bc);
  broker.add_site(east.site(&engine));

  auto def = make_def(2, 2, 2);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(broker.submit(def, Json::object(), "heavy").admitted);
  auto rejected = broker.submit(def, Json::object(), "heavy");
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reason, "quota");
  EXPECT_GE(rejected.retry_after_s, 10.0);
  EXPECT_LT(rejected.retry_after_s, 20.0);
  EXPECT_EQ(broker.stats().rejected, 1u);

  engine.run();  // drain: quota released
  EXPECT_TRUE(broker.submit(def, Json::object(), "heavy").admitted);
  engine.run();
  EXPECT_EQ(broker.stats().completed, 5u);
}

// ------------------------------------------------------------ brownout ----

TEST(FederationBroker, BrownoutShedsOptionalStepsFirst) {
  sim::Engine engine;
  TestSite east("east", &engine, quick_flow_config());
  Broker broker(BrokerConfig{});
  broker.add_site(east.site(&engine));
  auto def = make_def(1, 1, 1, /*with_optional=*/true);

  broker.apply_site_fault(fault::FaultKind::SiteBrownout, "east", 0.5, true);
  ASSERT_TRUE(broker.submit(def, Json::object(), "u").admitted);
  engine.run();
  EXPECT_EQ(broker.stats().completed, 1u);
  EXPECT_EQ(broker.stats().optional_dropped, 1u);
  EXPECT_EQ(east.work.starts_for("Opt"), 0);  // shed
  EXPECT_EQ(east.work.starts_for("C"), 1);    // required steps intact

  broker.apply_site_fault(fault::FaultKind::SiteBrownout, "east", 0.5, false);
  ASSERT_TRUE(broker.submit(def, Json::object(), "u").admitted);
  engine.run();
  EXPECT_EQ(east.work.starts_for("Opt"), 1);  // healed: full quality again
}

// ------------------------------------------------------------ failover ----

TEST(FederationBroker, SiteOutageFailsOverAndResumesAtPeer) {
  sim::Engine engine;
  TestSite east("east", &engine, quick_flow_config());
  TestSite west("west", &engine, quick_flow_config());
  Broker broker(BrokerConfig{});
  broker.add_site(east.site(&engine));
  broker.add_site(west.site(&engine));

  auto def = make_def(5, 30, 5);
  bool done = false, ok = false;
  auto out = broker.submit(def, Json::object(), "u", "exp-1",
                           [&](bool success) {
                             done = true;
                             ok = success;
                           });
  ASSERT_TRUE(out.admitted);
  EXPECT_EQ(out.site, "east");

  // Let step A complete and step B go active, then kill the site.
  engine.run_until(sim::SimTime::from_seconds(20));
  ASSERT_EQ(east.work.starts_for("B"), 1);
  broker.apply_site_fault(fault::FaultKind::SiteOutage, "east", 0, true);
  engine.run();

  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  BrokerStats s = broker.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_GE(s.failovers, 1u);
  EXPECT_GE(s.resumed, 1u);  // skipped at least one completed step
  EXPECT_GT(s.recovery_s, 0.0);
  // The checkpoint carried step A's output: west re-ran B and C only.
  EXPECT_EQ(west.work.starts_for("A"), 0);
  EXPECT_EQ(west.work.starts_for("B"), 1);
  EXPECT_EQ(west.work.starts_for("C"), 1);
}

// The satellite regression: a failover attempt must start with a fresh
// epoch, fresh backoff, and the peer's own (closed) breakers — never the
// failed site's accumulated retry/breaker state.
TEST(FederationBroker, FailoverDoesNotInheritBackoffOrBreakerState) {
  sim::Engine engine;
  auto cfg = quick_flow_config();
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown_s = 5.0;
  TestSite east("east", &engine, cfg);
  TestSite west("west", &engine, cfg);
  Broker broker(BrokerConfig{});
  broker.add_site(east.site(&engine));
  broker.add_site(west.site(&engine));

  // Everything east dispatches fails: the first flow burns its retries
  // there, trips east's breaker, and the broker fails it over.
  east.work.fail_next(100);
  auto def = make_def(1, 1, 1);
  bool ok = false;
  ASSERT_TRUE(
      broker.submit(def, Json::object(), "u", "", [&](bool s) { ok = s; })
          .admitted);
  engine.run();

  EXPECT_TRUE(ok);
  EXPECT_GE(broker.stats().failovers, 1u);
  // East's breaker tripped (site-qualified)...
  int east_trips = 0;
  for (const auto& snap : east.flows.breaker_snapshots())
    if (snap.provider == "work") east_trips = snap.trips;
  EXPECT_GE(east_trips, 1);
  // ...but the resumed attempt at west saw a clean slate: closed breaker,
  // zero trips, zero retries on every step it ran.
  for (const auto& snap : west.flows.breaker_snapshots()) {
    EXPECT_EQ(snap.site, "west");
    EXPECT_EQ(snap.trips, 0);
    EXPECT_EQ(snap.state, "closed");
  }
  auto west_runs = west.flows.all_runs();
  ASSERT_EQ(west_runs.size(), 1u);
  for (const auto& st : west.flows.timing(west_runs[0]).steps) {
    EXPECT_EQ(st.retries, 0);
    EXPECT_EQ(st.timeouts, 0);
  }
}

TEST(FederationBroker, PartitionDefersCompletionUntilHeal) {
  sim::Engine engine;
  TestSite east("east", &engine, quick_flow_config());
  TestSite west("west", &engine, quick_flow_config());
  Broker broker(BrokerConfig{});
  broker.add_site(east.site(&engine));
  broker.add_site(west.site(&engine));

  auto def = make_def(2, 2, 2);
  bool done = false;
  ASSERT_TRUE(broker
                  .submit(def, Json::object(), "u", "",
                          [&](bool) { done = true; })
                  .admitted);
  engine.run_until(sim::SimTime::from_seconds(1));
  broker.apply_site_fault(fault::FaultKind::SitePartition, "east", 0, true);

  // New work routes around the partitioned site.
  auto rerouted = broker.submit(def, Json::object(), "u2");
  ASSERT_TRUE(rerouted.admitted);
  EXPECT_EQ(rerouted.site, "west");

  engine.run();
  // The flow finished at east, but the broker cannot see it yet.
  EXPECT_FALSE(done);
  EXPECT_EQ(broker.stats().completed, 1u);  // only west's flow

  broker.apply_site_fault(fault::FaultKind::SitePartition, "east", 0, false);
  EXPECT_TRUE(done);
  EXPECT_EQ(broker.stats().completed, 2u);
  EXPECT_EQ(broker.stats().reconciled, 1u);
}

TEST(FederationBroker, AllSitesDarkParksFlowsUntilHeal) {
  sim::Engine engine;
  TestSite east("east", &engine, quick_flow_config());
  Broker broker(BrokerConfig{});
  broker.add_site(east.site(&engine));

  auto def = make_def(5, 5, 5);
  bool ok = false;
  ASSERT_TRUE(
      broker.submit(def, Json::object(), "u", "", [&](bool s) { ok = s; })
          .admitted);
  engine.run_until(sim::SimTime::from_seconds(2));
  broker.apply_site_fault(fault::FaultKind::SiteOutage, "east", 0, true);
  engine.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(broker.stats().parked, 1u);  // nowhere to go: parked, not failed

  broker.apply_site_fault(fault::FaultKind::SiteOutage, "east", 0, false);
  engine.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(broker.stats().completed, 1u);
}

// --------------------------------------------------- fault DSL + hooks ----

TEST(FederationFault, SiteKindsParseValidateAndDispatch) {
  auto parsed = fault::FaultSchedule::from_text(R"({
    "name": "site-chaos",
    "events": [
      {"kind": "site_outage", "at_s": 10, "duration_s": 5, "target": "east"},
      {"kind": "site_partition", "at_s": 2, "duration_s": 3, "target": "west"},
      {"kind": "site_brownout", "at_s": 1, "duration_s": 8, "target": "east",
       "severity": 0.4}
    ]})");
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed.value().events[0].kind, fault::FaultKind::SiteOutage);
  EXPECT_EQ(fault::fault_kind_name(fault::FaultKind::SitePartition),
            "site_partition");

  // Brownout severity is a derate fraction: (0, 1] only.
  auto bad = fault::FaultSchedule::from_text(
      R"({"events": [{"kind": "site_brownout", "at_s": 0, "severity": 1.5}]})");
  EXPECT_FALSE(bad);
  auto zero = fault::FaultSchedule::from_text(
      R"({"events": [{"kind": "site_brownout", "at_s": 0, "severity": 0}]})");
  EXPECT_FALSE(zero);

  // The injector delivers site kinds through the site hook, ref-counting
  // overlapping windows to first-begin / last-end.
  sim::Engine engine;
  struct Call {
    fault::FaultKind kind;
    std::string site;
    double severity;
    bool begin;
  };
  std::vector<Call> calls;
  fault::FaultInjector::Services services;
  services.engine = &engine;
  services.site_hook = [&](fault::FaultKind kind, const std::string& site,
                           double severity, bool begin) {
    calls.push_back({kind, site, severity, begin});
  };
  fault::FaultInjector injector(services);
  fault::FaultSchedule overlapping;
  overlapping.add({fault::FaultKind::SiteOutage, 10, 10, "east", 0});
  overlapping.add({fault::FaultKind::SiteOutage, 15, 10, "east", 0});
  ASSERT_TRUE(injector.install(overlapping));
  engine.run();
  ASSERT_EQ(calls.size(), 2u);  // one begin (t=10), one end (t=25)
  EXPECT_TRUE(calls[0].begin);
  EXPECT_FALSE(calls[1].begin);
  EXPECT_EQ(calls[1].site, "east");

  // Site kinds without a hook are a configuration error.
  fault::FaultInjector::Services no_hook;
  sim::Engine engine2;
  no_hook.engine = &engine2;
  fault::FaultInjector bare(no_hook);
  EXPECT_FALSE(bare.install(overlapping));
}

// ------------------------------------------- checkpoint/resume plumbing ----

TEST(FederationFailover, CheckpointResumeResolvesStepReferences) {
  sim::Engine engine;
  TestSite east("east", &engine, quick_flow_config());
  TestSite west("west", &engine, quick_flow_config());

  // Step B consumes step A's output through a "$.steps" reference — the
  // checkpoint must carry completed-step outputs for the peer to resolve it.
  auto def = std::make_shared<flow::FlowDefinition>();
  def->name = "ref-flow";
  flow::ActionState a;
  a.name = "A";
  a.provider = "work";
  a.params = Json::object({{"duration_s", 2.0}, {"key", "A"}});
  flow::ActionState b;
  b.name = "B";
  b.provider = "work";
  b.params = Json::object(
      {{"duration_s", 2.0}, {"key", "B"}, {"from_a", "$.steps.A.ok"}});
  def->steps = {a, b};
  std::shared_ptr<const flow::FlowDefinition> cdef = def;

  auto run = east.flows.start(cdef, Json::object({{"x", 1}}), east.token);
  ASSERT_TRUE(run);
  // Past step A's completion, before B settles.
  engine.run_until(sim::SimTime::from_seconds(6));
  auto cp = capture_checkpoint(east.site(&engine), run.value());
  ASSERT_TRUE(cp);
  EXPECT_EQ(cp.value().flow, "ref-flow");
  ASSERT_GE(cp.value().start_step, 1u);
  ASSERT_TRUE(east.flows.cancel(run.value()));

  auto resumed = resume_at(west.site(&engine), cdef, cp.value(), "resumed");
  ASSERT_TRUE(resumed);
  engine.run();
  EXPECT_EQ(west.flows.info(resumed.value()).state,
            flow::RunState::Succeeded);
  EXPECT_EQ(west.work.starts_for("A"), 0);
  EXPECT_TRUE(west.work.last_params("B").at("from_a").as_bool(false));
  // Timing stays indexable: skipped steps are zero-duration placeholders.
  const auto& steps = west.flows.timing(resumed.value()).steps;
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_DOUBLE_EQ(steps[0].active_s(), 0.0);
  EXPECT_GT(steps[1].active_s(), 0.0);
}

TEST(FederationFailover, ResumeRejectsMismatchedDefinition) {
  sim::Engine engine;
  TestSite east("east", &engine, quick_flow_config());
  flow::RunCheckpoint cp;
  cp.flow = "some-other-flow";
  cp.start_step = 0;
  auto def = make_def(1, 1, 1);
  EXPECT_FALSE(east.flows.resume(def, cp, east.token));
  cp.flow = def->name;
  cp.start_step = 99;  // out of range
  EXPECT_FALSE(east.flows.resume(def, cp, east.token));
}

// ------------------------------------------------- manifest mirroring ----

TEST(FederationFailover, MirroredManifestsResumeChunksAtPeer) {
  sim::Engine engine;
  auth::AuthService auth;
  auto make_site = [&](net::Topology& topo, storage::Store& src,
                       storage::Store& dst,
                       std::unique_ptr<net::Network>& network,
                       std::unique_ptr<transfer::TransferService>& service) {
    net::NodeId na = topo.add_node("src");
    net::NodeId nb = topo.add_node("dst");
    topo.add_link(na, nb, 80e6);
    network = std::make_unique<net::Network>(&engine, &topo);
    transfer::TransferConfig cfg;
    cfg.setup_mean_s = 1.0;
    cfg.setup_jitter_s = 0.0;
    cfg.per_file_overhead_s = 0.1;
    cfg.settle_base_s = 0.2;
    cfg.settle_per_gb_s = 0.0;
    cfg.cap_jitter_frac = 0.0;
    service = std::make_unique<transfer::TransferService>(&engine,
                                                          network.get(), &auth,
                                                          cfg, 42);
    // Same endpoint names at both sites: transfer identities (and so chunk
    // manifests) match across the federation.
    service->register_endpoint("ep-src", na, &src);
    service->register_endpoint("ep-dst", nb, &dst);
  };

  net::Topology topo_a, topo_b;
  storage::Store src_a{"src-a", static_cast<int64_t>(1e12)};
  storage::Store dst_a{"dst-a", static_cast<int64_t>(1e12)};
  storage::Store src_b{"src-b", static_cast<int64_t>(1e12)};
  storage::Store dst_b{"dst-b", static_cast<int64_t>(1e12)};
  std::unique_ptr<net::Network> net_a, net_b;
  std::unique_ptr<transfer::TransferService> svc_a, svc_b;
  make_site(topo_a, src_a, dst_a, net_a, svc_a);
  make_site(topo_b, src_b, dst_b, net_b, svc_b);
  auth::Token token = auth.issue("user@anl.gov", {"transfer"});

  // The same acquisition is staged at both sites (same size, declared CRC,
  // and stamp), as the detector fan-out does.
  ASSERT_TRUE(src_a.put_virtual("r.emd", 10'000'000, 9, engine.now()));
  ASSERT_TRUE(src_b.put_virtual("r.emd", 10'000'000, 9, engine.now()));

  transfer::TransferRequest req;
  req.src_endpoint = "ep-src";
  req.dst_endpoint = "ep-dst";
  req.files = {{"r.emd", "r.emd"}};
  req.streaming_chunk_bytes = 2'000'000;  // 5 chunks
  auto first = svc_a->submit(req, token);
  ASSERT_TRUE(first);
  engine.run();
  ASSERT_EQ(svc_a->status(first.value()).state,
            transfer::TaskState::Succeeded);

  // Site A dies; its manifests are mirrored to B. B's re-issued transfer
  // resumes every verified chunk instead of moving the bytes again.
  util::Json exported = svc_a->export_manifests();
  EXPECT_GE(exported.size(), 1u);
  EXPECT_GE(svc_b->import_manifests(exported), 1u);
  EXPECT_EQ(svc_b->import_manifests(exported), 0u);  // idempotent

  auto second = svc_b->submit(req, token);
  ASSERT_TRUE(second);
  engine.run();
  transfer::TaskInfo info = svc_b->status(second.value());
  EXPECT_EQ(info.state, transfer::TaskState::Succeeded);
  EXPECT_EQ(info.chunks_resumed, 5);
  EXPECT_EQ(info.wire_bytes, 0);
}

// ---------------------------------------------------- scripted site ----

TEST(FederationScriptedSite, RepublishIsIdempotentAndSubscribeFiresOnTime) {
  sim::Engine engine;
  search::Index index("scripted");
  ScriptedProvider null_provider(&engine);
  ScriptedProvider publish(&engine, &index);
  EXPECT_EQ(null_provider.name(), "null");
  EXPECT_EQ(publish.name(), "publish");

  const Json params =
      Json::object({{"duration_s", 3.0}, {"subject", "flow-000007"}});
  const sim::SimTime t0 = sim::SimTime::from_seconds(5);
  std::vector<flow::ActionHandle> handles;
  sim::SimTime fired;
  engine.post_at(t0, [&] {
    auto h = publish.start(params, auth::Token{});
    ASSERT_TRUE(h);
    handles.push_back(h.value());
    EXPECT_EQ(publish.poll(h.value()).status, flow::ActionStatus::Active);
    EXPECT_TRUE(publish.subscribe(h.value(), [&] { fired = engine.now(); }));
  });
  engine.run();
  ASSERT_EQ(handles.size(), 1u);
  EXPECT_EQ(fired, t0 + sim::Duration::from_seconds(3.0));
  flow::ActionPollResult done = publish.poll(handles[0]);
  EXPECT_EQ(done.status, flow::ActionStatus::Succeeded);
  EXPECT_EQ(done.service_started, t0);
  EXPECT_EQ(done.service_completed, fired);

  // A re-publication (what a failover resume does) overwrites the record
  // with identical bytes: same index size, same fingerprint.
  ASSERT_EQ(index.size(), 1u);
  const uint64_t fp = index.fingerprint();
  ASSERT_TRUE(publish.start(params, auth::Token{}));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.fingerprint(), fp);
  // The null provider never touches the index.
  ASSERT_TRUE(null_provider.start(params, auth::Token{}));
  EXPECT_EQ(index.size(), 1u);
}

// ------------------------------------------------- campaign + portal ----

TEST(FederationCampaign, GoldenSmallCampaign) {
  // A 300-flow campaign under a site outage plus a brownout, pinned to golden
  // values: any drift in the scripted sites, the broker or the flow service
  // changes at least one of them.
  FederatedCampaignConfig cfg;
  cfg.flows = 300;
  cfg.users = 20;
  cfg.arrival_window_s = 300;
  cfg.transfer_s = 10;
  cfg.analyze_s = 20;
  cfg.broker.quota.max_inflight_total = 200;
  cfg.chaos.add({fault::FaultKind::SiteOutage, 150, 200, "alcf-east", 0});
  cfg.chaos.add(
      {fault::FaultKind::SiteBrownout, 100, 100, "alcf-west", 0.5});
  FederatedCampaignResult r = run_federated_campaign(cfg);
  EXPECT_EQ(r.fingerprint, 0x242c8330ef854277ull);
  EXPECT_EQ(r.engine_events, 5336u);
  EXPECT_EQ(r.completed, 300u);
  EXPECT_DOUBLE_EQ(r.p50_s, 61.664240749000001);
  EXPECT_DOUBLE_EQ(r.p99_s, 88.054811339000011);
  EXPECT_EQ(r.broker.failovers, 29u);
  EXPECT_EQ(r.broker.resumed, 22u);
}


TEST(FederationCampaign, ChaosCampaignMatchesFaultFreeFingerprint) {
  FederatedCampaignConfig cfg;
  cfg.flows = 300;
  cfg.users = 20;
  cfg.arrival_window_s = 300;
  cfg.transfer_s = 10;
  cfg.analyze_s = 20;
  cfg.broker.quota.max_inflight_total = 200;

  FederatedCampaignResult clean = run_federated_campaign(cfg);
  EXPECT_EQ(clean.completed, cfg.flows);
  EXPECT_EQ(clean.broker.failovers, 0u);
  EXPECT_GT(clean.jain_fairness, 0.95);

  FederatedCampaignConfig chaos_cfg = cfg;
  chaos_cfg.chaos.add(
      {fault::FaultKind::SiteOutage, 150, 200, "alcf-east", 0});
  chaos_cfg.chaos.add(
      {fault::FaultKind::SiteBrownout, 100, 100, "alcf-west", 0.5});
  FederatedCampaignResult chaos = run_federated_campaign(chaos_cfg);
  EXPECT_EQ(chaos.completed, cfg.flows);
  EXPECT_GE(chaos.completion_frac(), 0.99);
  EXPECT_GT(chaos.broker.failovers, 0u);
  EXPECT_GT(chaos.broker.recovery_s, 0.0);
  // Same flows, same published records: the federated index is bit-identical
  // to the fault-free run despite the mid-campaign site kill.
  EXPECT_EQ(chaos.fingerprint, clean.fingerprint);
  EXPECT_GT(chaos.jain_fairness, 0.9);
}

TEST(FederationPortal, RendersBrokerReport) {
  sim::Engine engine;
  TestSite east("east", &engine, quick_flow_config());
  Broker broker(BrokerConfig{});
  broker.add_site(east.site(&engine));
  auto def = make_def(1, 1, 1);
  broker.submit(def, Json::object(), "u");
  engine.run();

  std::string html = portal::render_federation_html(broker.report());
  EXPECT_NE(html.find("Federation broker"), std::string::npos);
  EXPECT_NE(html.find("east"), std::string::npos);
  EXPECT_NE(html.find("Failovers"), std::string::npos);
  EXPECT_NE(html.find("Jain fairness"), std::string::npos);
}

}  // namespace
}  // namespace pico::federation
