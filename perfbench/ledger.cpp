#include <algorithm>
#include <cmath>

#include "perfbench.hpp"

namespace perfbench {

using pico::flow::ActionHandle;
using pico::flow::ActionPollResult;
using pico::util::Json;
using pico::util::Result;

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const auto& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double MetricSet::value(const std::string& name) const {
  const Metric* m = find(name);
  return m ? m->value : kNaN;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return kNaN;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return kNaN;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LayerClock::Scope::Scope(LayerClock* clock, int64_t* bucket) : clock_(clock) {
  int64_t t = now_ns();
  auto& stack = clock_->stack_;
  if (!stack.empty()) *stack.back().bucket += t - stack.back().since;
  stack.push_back({bucket, t});
}

LayerClock::Scope::~Scope() {
  int64_t t = now_ns();
  auto& stack = clock_->stack_;
  *stack.back().bucket += t - stack.back().since;
  stack.pop_back();
  if (!stack.empty()) stack.back().since = t;
}

Result<ActionHandle> TimedProvider::start(const Json& params,
                                          const pico::auth::Token& token) {
  LayerClock::Scope scope(clock_, &tally_->start_ns);
  ++tally_->starts;
  auto handle = inner_->start(params, token);
  if (!handle) note_failure(handle.error().message);
  return handle;
}

ActionPollResult TimedProvider::poll(const ActionHandle& handle) {
  LayerClock::Scope scope(clock_, &tally_->poll_ns);
  ++tally_->polls;
  ActionPollResult result = inner_->poll(handle);
  if (result.status == pico::flow::ActionStatus::Failed) {
    note_failure(result.error);
  }
  return result;
}

void TimedProvider::note_failure(const std::string& error) {
  if (tally_->failed++ == 0) tally_->first_error = error;
}

bool TimedProvider::subscribe(const ActionHandle& handle,
                              std::function<void()> callback) {
  LayerClock::Scope scope(clock_, &tally_->other_ns);
  bool accepted = inner_->subscribe(handle, std::move(callback));
  tally_->subscriptions += accepted;
  return accepted;
}

bool TimedProvider::subscribe_progress(const ActionHandle& handle,
                                       std::function<void(int64_t)> callback) {
  LayerClock::Scope scope(clock_, &tally_->other_ns);
  bool accepted = inner_->subscribe_progress(handle, std::move(callback));
  tally_->progress_subscriptions += accepted;
  return accepted;
}

bool TimedProvider::supports_held_start() const {
  return inner_->supports_held_start();
}

Result<ActionHandle> TimedProvider::start_held(const Json& params,
                                               const pico::auth::Token& token) {
  LayerClock::Scope scope(clock_, &tally_->start_ns);
  ++tally_->starts;
  ++tally_->held;
  auto handle = inner_->start_held(params, token);
  if (!handle) note_failure(handle.error().message);
  return handle;
}

void TimedProvider::release(const ActionHandle& handle) {
  LayerClock::Scope scope(clock_, &tally_->other_ns);
  inner_->release(handle);
}

}  // namespace perfbench
