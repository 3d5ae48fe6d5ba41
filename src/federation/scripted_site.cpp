#include "federation/scripted_site.hpp"

#include <cstdlib>
#include <utility>

namespace pico::federation {

using util::Json;

ScriptedProvider::ScriptedProvider(sim::Engine* engine, search::Index* index)
    : engine_(engine), index_(index) {}

std::string ScriptedProvider::name() const {
  return index_ ? "publish" : "null";
}

util::Result<flow::ActionHandle> ScriptedProvider::start(const Json& params,
                                                         const auth::Token&) {
  Action a;
  a.started = engine_->now();
  a.duration_ns =
      static_cast<int64_t>(params.at("duration_s").as_double(1.0) * 1e9);
  actions_.push_back(a);
  if (index_) {
    search::Document doc;
    doc.id = params.at("subject").as_string("doc");
    doc.content = Json::object({
        {"name", doc.id},
        {"resource_type", "federated_flow"},
    });
    index_->ingest(std::move(doc));
  }
  return util::Result<flow::ActionHandle>::ok(
      std::to_string(actions_.size() - 1));
}

const ScriptedProvider::Action& ScriptedProvider::action(
    const flow::ActionHandle& handle) const {
  return actions_[std::strtoull(handle.c_str(), nullptr, 10)];
}

flow::ActionPollResult ScriptedProvider::poll(
    const flow::ActionHandle& handle) {
  flow::ActionPollResult out;  // Active until the scripted duration elapses
  const Action& a = action(handle);
  if ((engine_->now() - a.started).ns < a.duration_ns) return out;
  out.status = flow::ActionStatus::Succeeded;
  out.service_started = a.started;
  out.service_completed = a.completes();
  out.output = Json::object({{"ok", true}});
  return out;
}

bool ScriptedProvider::subscribe(const flow::ActionHandle& handle,
                                 std::function<void()> callback) {
  engine_->post_at(action(handle).completes(), std::move(callback));
  return true;
}

ScriptedSite::ScriptedSite(const std::string& site_name, sim::Engine* engine,
                           const flow::FlowServiceConfig& config,
                           uint64_t seed, search::Index* index)
    : name(site_name),
      flows(engine, &auth, config, seed),
      null_provider(engine),
      publish_provider(engine, index) {
  flows.set_site(name);
  flows.register_provider(&null_provider);
  flows.register_provider(&publish_provider);
  token = auth.issue("broker@" + name, {"flows"});
}

}  // namespace pico::federation
