#pragma once
// Scripted site: one FlowService with O(1) scripted providers instead of the
// byte-level transfer/compute stack. It is the site behind the federated
// campaign (a broker over N of them on one engine) and behind
// bench_controlplane (one of them driven directly, no broker), so both
// measure orchestration against the same provider.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "auth/auth.hpp"
#include "flow/service.hpp"
#include "search/index.hpp"
#include "sim/engine.hpp"

namespace pico::federation {

/// O(1) scripted action provider (the A13 null-provider idiom): every action
/// succeeds after its `duration_s` param of virtual time, found by polling or
/// by `subscribe`. Built with an index it is the "publish" provider and
/// ingests one content-pure record per started action
/// ({"name": subject, "resource_type": "federated_flow"}); without one it is
/// the "null" provider. No attempt counters and no site names reach the
/// index, so a re-publication after a failover overwrites with identical
/// bytes: that is what makes chaos-vs-fault-free fingerprint parity possible.
class ScriptedProvider : public flow::ActionProvider {
 public:
  explicit ScriptedProvider(sim::Engine* engine,
                            search::Index* index = nullptr);

  std::string name() const override;
  util::Result<flow::ActionHandle> start(const util::Json& params,
                                         const auth::Token& token) override;
  flow::ActionPollResult poll(const flow::ActionHandle& handle) override;
  bool subscribe(const flow::ActionHandle& handle,
                 std::function<void()> callback) override;

 private:
  struct Action {
    sim::SimTime started;
    int64_t duration_ns = 0;
    sim::SimTime completes() const {
      return started + sim::Duration{duration_ns};
    }
  };
  const Action& action(const flow::ActionHandle& handle) const;

  sim::Engine* engine_;
  search::Index* index_;
  std::vector<Action> actions_;
};

/// One scripted site: its own auth domain, orchestrator (with its own
/// breakers and backoff state) and the "null" + "publish" providers. Sites
/// share only the engine and the publish index.
struct ScriptedSite {
  std::string name;
  auth::AuthService auth;
  flow::FlowService flows;
  ScriptedProvider null_provider;
  ScriptedProvider publish_provider;
  auth::Token token;  ///< "flows" scope, principal "broker@<name>"

  ScriptedSite(const std::string& name, sim::Engine* engine,
               const flow::FlowServiceConfig& config, uint64_t seed,
               search::Index* index);
  ScriptedSite(const ScriptedSite&) = delete;
  ScriptedSite& operator=(const ScriptedSite&) = delete;
};

}  // namespace pico::federation
