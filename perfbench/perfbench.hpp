#pragma once
// Real-Facility benchmark: four workloads driven through the real
// core::Facility stack (and the federation broker), measured from outside.
//
// Every wall-clock number here comes from the benchmark timing its own calls
// into public entry points, or from the program's own public counters; the
// library is linked unmodified. See perfbench/README.md.
#include <chrono>
#include <ctime>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flow/service.hpp"

namespace perfbench {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of every thread of this process, seconds. The kernel leaves out
/// time the hypervisor stole and time spent waiting for a CPU.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ----------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered name -> (value, unit) list; `set` replaces an existing entry.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
  double value(const std::string& name) const;  ///< NaN when absent
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Nearest-rank quantile (q in (0, 1]); NaN for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// ------------------------------------------------------------------- host --

/// CPU model, online CPUs, active SIMD level, L2/L3 sizes, pool width.
std::string host_record_json();
/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib();
/// CPU time the hypervisor has stolen from this machine since boot, summed
/// over CPUs (/proc/stat), seconds; NaN where the kernel does not report it.
double host_steal_s();

// ----------------------------------------------------------------- ledger --

/// Exclusive wall-time accounting over nested timed regions: entering a
/// region pauses the enclosing one, so bucket totals never double count and
/// their sum is bounded by the wall time that contains them.
class LayerClock {
 public:
  class Scope {
   public:
    Scope(LayerClock* clock, int64_t* bucket);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerClock* clock_;
  };

 private:
  struct Frame {
    int64_t* bucket;
    int64_t since;
  };
  std::vector<Frame> stack_;
};

/// Per-provider tallies collected by TimedProvider.
struct ProviderTally {
  int64_t start_ns = 0;  ///< start() + start_held()
  int64_t poll_ns = 0;   ///< poll()
  int64_t other_ns = 0;  ///< subscribe(), subscribe_progress(), release(), ...
  uint64_t starts = 0;
  uint64_t polls = 0;
  uint64_t failed = 0;   ///< start errors plus polls that reported Failed
  uint64_t held = 0;     ///< start_held() calls (cut-through pre-dispatch)
  uint64_t subscriptions = 0;           ///< accepted completion subscriptions
  uint64_t progress_subscriptions = 0;  ///< accepted byte-progress channels
  std::string first_error;              ///< first failure's message

  int64_t total_ns() const { return start_ns + poll_ns + other_ns; }
};

/// Timing decorator over an ActionProvider. Forwards every virtual of the
/// interface unchanged; the facility cannot tell it from the provider it
/// wraps, so a run with decorators must publish the same fingerprint.
class TimedProvider final : public pico::flow::ActionProvider {
 public:
  TimedProvider(std::unique_ptr<pico::flow::ActionProvider> inner,
                LayerClock* clock, ProviderTally* tally)
      : inner_(std::move(inner)), clock_(clock), tally_(tally) {}

  std::string name() const override { return inner_->name(); }
  pico::util::Result<pico::flow::ActionHandle> start(
      const pico::util::Json& params, const pico::auth::Token& token) override;
  pico::flow::ActionPollResult poll(
      const pico::flow::ActionHandle& handle) override;
  bool subscribe(const pico::flow::ActionHandle& handle,
                 std::function<void()> callback) override;
  bool subscribe_progress(const pico::flow::ActionHandle& handle,
                          std::function<void(int64_t)> callback) override;
  bool supports_held_start() const override;
  pico::util::Result<pico::flow::ActionHandle> start_held(
      const pico::util::Json& params, const pico::auth::Token& token) override;
  void release(const pico::flow::ActionHandle& handle) override;

 private:
  void note_failure(const std::string& error);

  std::unique_ptr<pico::flow::ActionProvider> inner_;
  LayerClock* clock_;
  ProviderTally* tally_;
};

// -------------------------------------------------------------- workloads --

/// Names of the four workloads, in report order.
const std::vector<std::string>& workload_names();

/// One campaign of one workload: set-up, campaign phase, output checks and —
/// for a traced campaign — the per-layer ledger.
struct Outcome {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  /// Build facility/federation (+ corpus preload); NaN when the campaign
  /// came from run_federated_campaign, which does not time it apart.
  double setup_s = 0;
  /// Wall time of the campaign phase; for a run_federated_campaign campaign,
  /// the whole call, its own set-up included.
  double campaign_s = 0;
  /// Process CPU time (all threads) over the same interval as campaign_s.
  double campaign_cpu_s = 0;
  size_t attempted = 0;   ///< logical flows launched
  size_t succeeded = 0;
  size_t failed = 0;      ///< failed, lost, unsettled or given up
  /// submit -> settle per attempted flow, virtual s; +inf for a failed flow.
  std::vector<double> latencies_vs;
  double ttfr_vs = kNaN;
  double overhead_pct_p50 = kNaN;
  std::vector<double> query_ms;  ///< portal search latencies (scale_stream)
  double recovery_vs = kNaN;     ///< federated_chaos only
  double jain = kNaN;            ///< federated_chaos only
  uint64_t fingerprint = 0;      ///< publish-index fingerprint
  size_t index_docs = 0;
  /// Virtual-time results that repeat exactly for one seed, traced or not:
  /// every flow latency plus the index size (facility workloads), or the
  /// figures both federated drivers report — completions, p50/p99 latency,
  /// fairness, recovery and engine events (federated_chaos).
  std::vector<double> digest;
  /// Every counter family of the facility's metrics registry, summed over
  /// its series (empty for federated_chaos, whose sites carry no registry).
  std::map<std::string, double> counters;
  std::vector<std::string> errors;  ///< failed output checks
  std::vector<std::string> notes;   ///< diagnostics for the report (traced)
  MetricSet layers;                 ///< per-layer rows (traced only)

  double flows_per_s() const {
    return campaign_s > 0 ? static_cast<double>(succeeded + failed) / campaign_s
                          : 0;
  }
  double flows_per_cpu_s() const {
    return campaign_cpu_s > 0
               ? static_cast<double>(succeeded + failed) / campaign_cpu_s
               : 0;
  }
};

struct RunOptions {
  uint64_t seed = 1;
  /// Decorate the providers, fill the per-layer ledger and run the probes.
  bool traced = false;
  /// federated_chaos only: drive the campaign through the benchmark's broker
  /// rig, which records every flow's latency, instead of timing
  /// federation::run_federated_campaign (which returns only p50/p99). A
  /// traced campaign always uses the rig.
  bool broker_rig = false;
  /// Campaign size factor: 1 for every measured campaign; the warm-up
  /// campaign and the tests use less.
  double scale = 1.0;
  /// Directory (relative to the working directory) for analysis artifacts.
  std::string artifact_dir = ".bench_build/perfbench-artifacts";
};

Outcome run_workload(const std::string& workload, const RunOptions& options);

/// Set-up only, returning its wall seconds; used for extra set-up samples.
/// Facility workloads build (and tear down) the facility and its corpus;
/// federated_chaos runs federation::run_federated_campaign with no flows,
/// which builds the sites, broker and fault schedule and runs the outages.
double setup_only(const std::string& workload, const RunOptions& options);

/// Names of the ledger rows whose totals, plus core.unattributed_s, add up
/// to core.campaign_s.
const std::vector<std::string>& ledger_rows();

}  // namespace perfbench
