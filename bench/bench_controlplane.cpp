// Control-plane scale bench (A13): the three orchestration-layer quantities
// the million-flow ROADMAP item made first-class:
//
//  flows/s    - synthetic campaigns of 10^3 / 10^4 / 10^5 concurrent 3-step
//               flows driven through the real FlowService of one scripted
//               site (federation::ScriptedSite: polling mode, paper backoff,
//               per-step timeouts, O(1) scripted providers) with no broker,
//               so the measured cost is pure orchestration: engine events,
//               run bookkeeping, breaker + backoff accounting. The full run
//               gates the 10^5 tier at >= 2.5x a constant baseline (global
//               heap + std::map run state, recorded on the 1-core host that
//               took the checked-in baselines); --smoke runs only the 10^3
//               and 10^4 tiers and gates success and events per flow, not
//               throughput. A 10x gate is out of reach under the byte-parity
//               contract: the fixed ~15.3 events/flow (poll cadence and
//               timeout schedule are observable via the deterministic
//               campaign outputs) put the bare engine's DRAM-bound dispatch
//               (~410 ns/event at 10^5-flow working-set size) above the
//               whole 10x budget (~360 ns/event).
//  sched ns   - schedule / cancel / drain cost per event for both Engine
//               backends (PICO_SCHED=heap keeps the old priority_queue as a
//               reference twin; the timer wheel is the default).
//  search ms  - inverted-index ingest rate, query p50/p99 over mixed
//               free-text + filter queries at 10^6 documents (full-run gate:
//               p99 < 10 ms), and bulk-removal rate (the tombstone fix).
//
// A small flow campaign also runs once per scheduler backend and publishes
// every run through the site's "publish" provider into a search::Index; the
// two index fingerprints, final virtual clocks and event counts must match
// bit-for-bit — the (time, sequence) FIFO contract of the wheel proven on
// real orchestration traffic.
//
// Writes a pico.bench.report.v1 envelope (BENCH_controlplane.json unless a
// path is given); tools/check_bench.py re-checks its gates against the
// checked-in baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "federation/scripted_site.hpp"
#include "flow/service.hpp"
#include "search/index.hpp"
#include "sim/engine.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

#ifdef __linux__
#include <unistd.h>
#endif

using namespace pico;
using util::Json;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Current resident set in bytes (Linux; 0 elsewhere). Coarse — malloc
/// arenas are reused across tiers — but good enough for a bytes/flow trend.
int64_t rss_bytes() {
#ifdef __linux__
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  long long size = 0, resident = 0;
  int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
#else
  return 0;
#endif
}

// ---------------------------------------------------------- flow tiers ----

flow::FlowDefinition bench_definition(bool publish) {
  flow::FlowDefinition def;
  def.name = "bench-controlplane";
  flow::ActionState transfer;
  transfer.name = "Transfer";
  transfer.provider = "null";
  transfer.params = Json::object({{"duration_s", "$.input.transfer_s"}});
  transfer.timeout_s = 3600;  // never fires; stresses dead-event handling
  flow::ActionState analyze;
  analyze.name = "Analyze";
  analyze.provider = "null";
  analyze.params = Json::object({{"duration_s", "$.input.analyze_s"}});
  analyze.timeout_s = 3600;
  flow::ActionState pub;
  pub.name = "Publish";
  pub.provider = publish ? "publish" : "null";
  pub.params = Json::object({{"duration_s", 1.0},
                             {"subject", "$.input.subject"}});
  def.steps = {transfer, analyze, pub};
  return def;
}

struct FlowTierResult {
  size_t flows = 0;
  double wall_ms = 0;
  double flows_per_s = 0;
  uint64_t events = 0;
  int64_t bytes_per_flow = 0;
  size_t succeeded = 0;
  double virtual_s = 0;

  double events_per_flow() const {
    return static_cast<double>(events) / static_cast<double>(flows);
  }
  double unsucceeded() const {
    return static_cast<double>(flows) - static_cast<double>(succeeded);
  }
};

/// Launch `n` concurrent 3-step flows and drain the engine; wall time is the
/// orchestration CPU cost (all service work is virtual).
FlowTierResult run_flow_tier(size_t n, uint64_t* fingerprint_out = nullptr) {
  sim::Engine engine;
  search::Index index("bench-parity");
  flow::FlowServiceConfig cfg;  // paper defaults: polling, 1 s backoff
  federation::ScriptedSite site("bench", &engine, cfg, /*seed=*/0xC0117ull,
                                &index);

  // One shared immutable definition across all n runs (the campaign-driver
  // pattern the shared-definition start() overload exists for).
  auto def = std::make_shared<const flow::FlowDefinition>(
      bench_definition(fingerprint_out != nullptr));

  int64_t rss0 = rss_bytes();
  double t0 = now_ms();
  size_t succeeded = 0;
  for (size_t i = 0; i < n; ++i) {
    Json input = Json::object({
        {"transfer_s", 30.0 + static_cast<double>(i % 7) * 10.0},
        {"analyze_s", 15.0 + static_cast<double>(i % 5) * 5.0},
        {"subject", "flow-" + std::to_string(i)},
    });
    auto run = site.flows.start(def, std::move(input), site.token,
                                "bench-" + std::to_string(i));
    if (!run) continue;  // a rejected start counts as unsucceeded
    site.flows.on_finished(run.value(),
                        [&succeeded](const flow::RunId&,
                                     const flow::RunInfo& info) {
                          if (info.state == flow::RunState::Succeeded) {
                            ++succeeded;
                          }
                        });
  }
  engine.run();
  double t1 = now_ms();
  int64_t rss1 = rss_bytes();

  FlowTierResult r;
  r.flows = n;
  r.wall_ms = t1 - t0;
  r.flows_per_s = static_cast<double>(n) / ((t1 - t0) / 1e3);
  r.events = engine.events_processed();
  r.bytes_per_flow = rss1 > rss0 ? (rss1 - rss0) / static_cast<int64_t>(n) : 0;
  r.succeeded = succeeded;
  r.virtual_s = engine.now().seconds();
  if (fingerprint_out) *fingerprint_out = index.fingerprint();
  return r;
}

// ------------------------------------------------------- sched micro ----

struct SchedMicro {
  std::string backend;
  double schedule_ns = 0;
  double cancel_ns = 0;
  double drain_ns = 0;
  double fired_minus_expected = 0;
};

SchedMicro sched_micro(const char* backend, size_t events) {
  setenv("PICO_SCHED", backend, 1);
  sim::Engine engine;
  util::Rng rng(0x5C4EDull);
  std::vector<sim::EventHandle> handles;
  handles.reserve(events);
  uint64_t fired = 0;

  double t0 = now_ms();
  for (size_t i = 0; i < events; ++i) {
    handles.push_back(engine.schedule_at(
        sim::SimTime::from_seconds(rng.uniform(0, 3600)), [&fired] { ++fired; }));
  }
  double t1 = now_ms();
  // Cancel every other event — the wheel must reclaim these in O(1) each and
  // compact; the heap twin compacts lazily once cancels pass half the queue.
  for (size_t i = 0; i < events; i += 2) handles[i].cancel();
  double t2 = now_ms();
  engine.run();
  double t3 = now_ms();

  SchedMicro m;
  m.backend = backend;
  m.schedule_ns = (t1 - t0) * 1e6 / static_cast<double>(events);
  m.cancel_ns = (t2 - t1) * 1e6 / static_cast<double>(events / 2);
  m.drain_ns = (t3 - t2) * 1e6 / static_cast<double>(events - events / 2);
  // Zero iff every cancelled event stayed cancelled.
  m.fired_minus_expected =
      static_cast<double>(fired) - static_cast<double>(events - events / 2);
  return m;
}

// ------------------------------------------------------------- search ----

struct SearchResult {
  size_t docs = 0;
  double ingest_docs_per_s = 0;
  double remove_docs_per_s = 0;
  size_t queries = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  int64_t bytes_per_doc = 0;
  uint64_t fingerprint = 0;
  bool hits_found = false;       ///< the query mix returned any hits at all
  size_t remove_misses = 0;      ///< bulk removals that found no doc
  bool size_reflects_removals = false;
};

Json synth_doc_content(size_t i, util::Rng* rng) {
  static const char* kTypes[] = {"hyperspectral", "spatiotemporal", "tracking",
                                 "ptychography", "calibration", "background",
                                 "reference", "alignment"};
  // Mixed-frequency vocabulary: one term every doc shares, a handful of
  // mid-frequency terms, and a long zipf-ish tail, so queries exercise both
  // dense and sparse postings (and the galloping intersection between them).
  std::string words = "picoprobe";
  words += " w" + std::to_string(i % 97);
  words += " w" + std::to_string(rng->uniform_int(0, 9999));
  words += " w" + std::to_string(rng->uniform_int(0, 99999));
  return Json::object({
      {"name", "sample-" + std::to_string(i)},
      {"resource_type", kTypes[i % 8]},
      {"beamline", "dynamic-picoprobe"},
      {"words", words},
      {"frame", static_cast<int64_t>(i)},
  });
}

SearchResult run_search_tier(size_t docs, size_t queries) {
  search::Index index("bench-scale");
  util::Rng rng(0x5EA2C4ull);

  int64_t rss0 = rss_bytes();
  double t0 = now_ms();
  for (size_t i = 0; i < docs; ++i) {
    search::Document doc;
    doc.id = "doc-" + std::to_string(i);
    doc.content = synth_doc_content(i, &rng);
    index.ingest(std::move(doc));
  }
  double t1 = now_ms();
  int64_t rss1 = rss_bytes();

  // Mixed query shapes, cycled: dense single term, dense+mid AND (galloping),
  // three-term AND, and a mid term with a field filter.
  std::vector<double> lat_ms;
  lat_ms.reserve(queries);
  size_t hits_total = 0;
  for (size_t q = 0; q < queries; ++q) {
    search::Query query;
    switch (q % 4) {
      case 0:
        query.text = "w" + std::to_string(q % 97);
        break;
      case 1:
        query.text = "picoprobe w" + std::to_string(q % 97);
        break;
      case 2:
        query.text = "picoprobe w" + std::to_string(q % 97) + " w" +
                     std::to_string(rng.uniform_int(0, 9999));
        break;
      default:
        query.text = "w" + std::to_string(q % 97);
        query.field_filters.emplace_back("resource_type",
                                         q % 2 ? "tracking" : "calibration");
        break;
    }
    query.limit = 25;
    double qt0 = now_ms();
    auto hits = index.search(query);
    double qt1 = now_ms();
    lat_ms.push_back(qt1 - qt0);
    hits_total += hits.size();
  }
  std::sort(lat_ms.begin(), lat_ms.end());

  // Bulk removal: every 100th doc (the pre-PR ingest_order_ scan made this
  // quadratic in the index size).
  size_t removals = docs / 100;
  size_t remove_misses = 0;
  double r0 = now_ms();
  for (size_t i = 0; i < removals; ++i) {
    if (!index.remove("doc-" + std::to_string(i * 100)).is_ok()) {
      ++remove_misses;
    }
  }
  double r1 = now_ms();

  SearchResult s;
  s.docs = docs;
  s.ingest_docs_per_s = static_cast<double>(docs) / ((t1 - t0) / 1e3);
  s.remove_docs_per_s =
      removals ? static_cast<double>(removals) / std::max(1e-9, (r1 - r0) / 1e3)
               : 0;
  s.queries = queries;
  s.p50_ms = lat_ms[lat_ms.size() / 2];
  s.p99_ms = lat_ms[std::min(lat_ms.size() - 1, lat_ms.size() * 99 / 100)];
  s.bytes_per_doc = rss1 > rss0 ? (rss1 - rss0) / static_cast<int64_t>(docs) : 0;
  s.fingerprint = index.fingerprint();
  s.hits_found = hits_total > 0;
  s.remove_misses = remove_misses;
  s.size_reflects_removals = index.size() == docs - removals;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_controlplane.json";
  bool smoke = false;
  size_t only_tier = 0;  // --tier N: run one flow tier and exit (profiling)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--tier") == 0 && i + 1 < argc) {
      only_tier = std::strtoull(argv[++i], nullptr, 10);
    } else {
      out_path = argv[i];
    }
  }
  if (only_tier > 0) {
    FlowTierResult r = run_flow_tier(only_tier);
    std::printf("flows  %7zu  %9.0f flows/s  wall %8.1f ms\n", r.flows,
                r.flows_per_s, r.wall_ms);
    return 0;
  }

  // Constant baselines from the global-heap engine and std::map run store
  // just before the control-plane rewrite (same driver, same tiers), taken
  // on the 1-core host that recorded the checked-in baselines. The full run
  // holds the 10^5 tier at >= 2.5x (see the header comment for why 10x is
  // out of reach under the byte-parity contract).
  const double kBaselineFlowsPerS100k = 16035.0;
  const double kBaselineSearchP99Ms1M = 1090.03;
  const double kFlowsSpeedupGate = 2.5;

  std::vector<size_t> tiers = smoke ? std::vector<size_t>{1000, 10000}
                                    : std::vector<size_t>{1000, 10000, 100000};
  size_t search_docs = smoke ? 50000 : 1000000;
  size_t search_queries = smoke ? 400 : 1000;
  size_t micro_events = smoke ? 200000 : 1000000;

  // ---- scheduler micro: both backends ----
  SchedMicro heap = sched_micro("heap", micro_events);
  SchedMicro wheel = sched_micro("wheel", micro_events);
  std::printf("sched  %-6s schedule %6.1f ns  cancel %6.1f ns  drain %7.1f ns\n",
              heap.backend.c_str(), heap.schedule_ns, heap.cancel_ns,
              heap.drain_ns);
  std::printf("sched  %-6s schedule %6.1f ns  cancel %6.1f ns  drain %7.1f ns\n",
              wheel.backend.c_str(), wheel.schedule_ns, wheel.cancel_ns,
              wheel.drain_ns);

  // ---- parity campaign: identical flows under heap and wheel must publish
  //      a bit-identical index and drain to the same virtual clock ----
  setenv("PICO_SCHED", "heap", 1);
  uint64_t fp_heap = 0;
  FlowTierResult parity_heap = run_flow_tier(smoke ? 500 : 2000, &fp_heap);
  setenv("PICO_SCHED", "wheel", 1);
  uint64_t fp_wheel = 0;
  FlowTierResult parity_wheel = run_flow_tier(smoke ? 500 : 2000, &fp_wheel);
  bool parity = fp_heap == fp_wheel &&
                parity_heap.virtual_s == parity_wheel.virtual_s &&
                parity_heap.events == parity_wheel.events;
  std::printf("parity heap %016llx wheel %016llx  %s\n",
              static_cast<unsigned long long>(fp_heap),
              static_cast<unsigned long long>(fp_wheel),
              parity ? "MATCH" : "MISMATCH");

  // ---- flow tiers (default scheduler) ----
  setenv("PICO_SCHED", "", 1);
  Json tiers_json = Json::array();
  std::vector<FlowTierResult> tier_results;
  double flows_per_s_100k = 0;
  for (size_t n : tiers) {
    FlowTierResult r = run_flow_tier(n);
    tier_results.push_back(r);
    std::printf(
        "flows  %7zu  %9.0f flows/s  wall %8.1f ms  %9llu events  %6lld B/flow\n",
        r.flows, r.flows_per_s, r.wall_ms,
        static_cast<unsigned long long>(r.events),
        static_cast<long long>(r.bytes_per_flow));
    if (n == 100000) flows_per_s_100k = r.flows_per_s;
    tiers_json.push_back(Json::object({
        {"flows", static_cast<int64_t>(r.flows)},
        {"flows_per_s", r.flows_per_s},
        {"wall_ms", r.wall_ms},
        {"events", static_cast<int64_t>(r.events)},
        {"events_per_flow", r.events_per_flow()},
        {"bytes_per_flow", r.bytes_per_flow},
        {"virtual_s", r.virtual_s},
    }));
  }

  // ---- search scale tier ----
  SearchResult search = run_search_tier(search_docs, search_queries);
  std::printf(
      "search %7zu docs  ingest %9.0f docs/s  remove %9.0f docs/s\n"
      "       p50 %.3f ms  p99 %.3f ms  (%zu queries)  %lld B/doc\n",
      search.docs, search.ingest_docs_per_s, search.remove_docs_per_s,
      search.p50_ms, search.p99_ms, search.queries,
      static_cast<long long>(search.bytes_per_doc));

  bench::Report report("controlplane", smoke);
  // Gates. Scheduler micro-costs are measured for both backends and no
  // cancelled event fires; heap and wheel campaigns match bit for bit.
  for (const SchedMicro* m : {&heap, &wheel}) {
    const std::string p = "sched." + m->backend + ".";
    report.check(p + "schedule_ns", m->schedule_ns, ">", 0);
    report.check(p + "cancel_ns", m->cancel_ns, ">", 0);
    report.check(p + "drain_ns", m->drain_ns, ">", 0);
    report.check(p + "fired_minus_expected", m->fired_minus_expected, "==", 0);
  }
  report.check("parity.match", parity, "==", 1);
  report.check("parity.heap.unsucceeded", parity_heap.unsucceeded(), "==", 0);
  report.check("parity.wheel.unsucceeded", parity_wheel.unsucceeded(), "==", 0);
  // Every tier succeeds every flow at a plausible orchestration workload
  // (5-100 engine events per flow); the 10^5 tier holds the 2.5x gate over
  // the pre-rewrite baseline. Full-only gates carry the "full." prefix.
  for (const FlowTierResult& r : tier_results) {
    const std::string p = "flows." + std::to_string(r.flows) + ".";
    const std::string id = (r.flows == 100000 ? "full." : "") + p;
    report.metric(p + "flows_per_s", r.flows_per_s);
    report.metric(p + "events_per_flow", r.events_per_flow());
    report.metric(p + "unsucceeded", r.unsucceeded());
    report.gate(id + "flows_per_s", p + "flows_per_s", ">", 0);
    report.gate(id + "events_per_flow.min", p + "events_per_flow", ">=", 5);
    report.gate(id + "events_per_flow.max", p + "events_per_flow", "<=", 100);
    report.gate(id + "unsucceeded", p + "unsucceeded", "==", 0);
  }
  if (!smoke) {
    report.gate("full.flows.100000.speedup_gate", "flows.100000.flows_per_s",
                ">=", kFlowsSpeedupGate * kBaselineFlowsPerS100k);
  }
  // Search: a non-degenerate query mix that finds hits, exact bulk removal,
  // and (full size) p99 under 10 ms at 10^6 documents.
  report.check("search.queries", search.queries, ">=", 100);
  report.check("search.ingest_docs_per_s", search.ingest_docs_per_s, ">", 0);
  report.check("search.remove_docs_per_s", search.remove_docs_per_s, ">", 0);
  report.check("search.hits_found", search.hits_found, "==", 1);
  report.check("search.remove_misses", search.remove_misses, "==", 0);
  report.check("search.size_reflects_removals", search.size_reflects_removals,
               "==", 1);
  if (!smoke) {
    report.metric("search.docs", static_cast<double>(search.docs));
    report.metric("search.p99_ms", search.p99_ms);
    report.gate("full.search.docs", "search.docs", "==", 1000000);
    report.gate("full.search.p99_ms", "search.p99_ms", "<", 10.0);
  }

  Json detail = Json::object({
      {"sched",
       Json::object({
           {"default_backend", sim::Engine().backend_name()},
           {"backends",
            Json::array({
                Json::object({{"name", heap.backend},
                              {"schedule_ns", heap.schedule_ns},
                              {"cancel_ns", heap.cancel_ns},
                              {"drain_ns", heap.drain_ns}}),
                Json::object({{"name", wheel.backend},
                              {"schedule_ns", wheel.schedule_ns},
                              {"cancel_ns", wheel.cancel_ns},
                              {"drain_ns", wheel.drain_ns}}),
            })},
       })},
      {"flows",
       Json::object({
           {"mode", "polling"},
           {"steps", 3},
           {"tiers", tiers_json},
           {"baseline_flows_per_s_100k", kBaselineFlowsPerS100k},
           {"speedup_gate_100k", kFlowsSpeedupGate},
           {"speedup_100k", flows_per_s_100k > 0
                                ? flows_per_s_100k / kBaselineFlowsPerS100k
                                : 0.0},
       })},
      {"search",
       Json::object({
           {"docs", static_cast<int64_t>(search.docs)},
           {"ingest_docs_per_s", search.ingest_docs_per_s},
           {"remove_docs_per_s", search.remove_docs_per_s},
           {"queries", static_cast<int64_t>(search.queries)},
           {"p50_ms", search.p50_ms},
           {"p99_ms", search.p99_ms},
           {"bytes_per_doc", search.bytes_per_doc},
           {"baseline_p99_ms_1m", kBaselineSearchP99Ms1M},
       })},
      {"parity",
       Json::object({
           {"campaign_flows",
            static_cast<int64_t>(parity_heap.flows)},
           {"fingerprint_heap", util::format("%016llx",
                                             static_cast<unsigned long long>(
                                                 fp_heap))},
           {"fingerprint_wheel", util::format("%016llx",
                                              static_cast<unsigned long long>(
                                                  fp_wheel))},
           {"match", parity},
       })},
  });
  return report.write(out_path, std::move(detail));
}
