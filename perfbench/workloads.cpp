// The four workloads, their output checks, and the traced per-layer ledger.
#include <algorithm>
#include <cmath>
#include <set>

#include "analysis/hyperspectral.hpp"
#include "analysis/metadata.hpp"
#include "analysis/plot.hpp"
#include "core/campaign.hpp"
#include "core/facility.hpp"
#include "emd/schema.hpp"
#include "federation/campaign.hpp"
#include "federation/federation.hpp"
#include "fault/injector.hpp"
#include "instrument/hyperspectral_gen.hpp"
#include "instrument/spatiotemporal_gen.hpp"
#include "perfbench.hpp"
#include "portal/portal.hpp"
#include "search/schema.hpp"
#include "util/bytes.hpp"
#include "util/crc64.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/timefmt.hpp"
#include "util/threadpool.hpp"
#include "video/convert.hpp"
#include "video/mpk.hpp"
#include "vision/detect.hpp"
#include "vision/track.hpp"

namespace perfbench {

using namespace pico;
using util::Json;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "hyper_real", "spatio_real", "scale_stream", "federated_chaos"};
  return kNames;
}

const std::vector<std::string>& ledger_rows() {
  static const std::vector<std::string> kRows = {
      "transfer.total_s", "stream.total_s", "compute.total_s",
      "search.total_s",   "portal.total_s", "scripted.total_s",
      "core.probe_s"};
  return kRows;
}

namespace {

double seconds_since(int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Median wall ns of `fn` over `reps` calls.
template <typename Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    int64_t t0 = now_ns();
    fn();
    samples.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(samples);
}

// ------------------------------------------------------------------ sizing --

/// Virtual campaign lengths at scale 1: each facility campaign settles at
/// least 100 flows, so ten or more latency samples lie beyond its p90.
constexpr double kHyperDurationS = 5000;    // ~110 flows, 45.4 s apart
constexpr double kSpatioDurationS = 14900;  // ~110 flows, 135.1 s apart
constexpr double kScaleDurationS = 6200;    // ~4000 flows, 1.55 s apart
constexpr size_t kFederatedFlows = 50000;
constexpr size_t kCorpusDocs = 5000;         // scale_stream portal history
constexpr double kQueryCadenceS = 5.0;       // ~1240 portal searches per run

bool is_facility(const std::string& w) { return w != "federated_chaos"; }
bool has_payload(const std::string& w) {
  return w == "hyper_real" || w == "spatio_real";
}

core::FacilityConfig facility_config(const std::string& w,
                                     const RunOptions& opt) {
  core::FacilityConfig fc;
  fc.seed = opt.seed;
  fc.artifact_dir = opt.artifact_dir + "/" + w;
  if (w == "spatio_real" || w == "scale_stream") {
    fc.flow.completion_mode = flow::CompletionMode::Events;
  }
  if (w == "scale_stream") {
    fc.cost.watcher_debounce_s = 0.5;
    fc.polaris_nodes = 4096;
    fc.compute_max_blocks = 4096;
  }
  return fc;
}

core::CampaignConfig campaign_config(const std::string& w,
                                     const RunOptions& opt) {
  core::CampaignConfig cfg;
  cfg.label_prefix = w;
  if (w == "hyper_real") {
    cfg.use_case = core::UseCase::Hyperspectral;
    cfg.start_period_s = 30;
    cfg.duration_s = kHyperDurationS * opt.scale;
    cfg.real_payloads = true;
    cfg.file_bytes = 8 * 1000 * 1000;
  } else if (w == "spatio_real") {
    cfg.use_case = core::UseCase::Spatiotemporal;
    cfg.start_period_s = 120;
    cfg.duration_s = kSpatioDurationS * opt.scale;
    cfg.real_payloads = true;
    cfg.file_bytes = 2 * 1000 * 1000;  // 15 frames of 128x128 fp64
    cfg.streaming_steps = {"Analyze"};
  } else {  // scale_stream
    cfg.use_case = core::UseCase::Hyperspectral;
    cfg.start_period_s = 1.0;
    cfg.duration_s = kScaleDurationS * opt.scale;
    cfg.file_bytes = 1000 * 1000;
    cfg.streaming_direct = true;
  }
  return cfg;
}

/// The payload run_campaign synthesizes for a real-payload campaign. The
/// content seeds are fixed inside the program (20230407 / 20230408), not
/// taken from --seed; this mirrors that recipe so the probes can time it and
/// run the kernels on the same bytes (checked against the staged object).
std::vector<uint8_t> synthesize_payload(const core::CampaignConfig& config) {
  emd::MicroscopeSettings scope;
  const double target = static_cast<double>(config.file_bytes);
  if (config.use_case == core::UseCase::Hyperspectral) {
    instrument::HyperspectralConfig gen;
    gen.channels = 256;
    const double side =
        std::sqrt(target / (8.0 * static_cast<double>(gen.channels)));
    gen.height = gen.width = static_cast<size_t>(std::max(16.0, side));
    gen.dose = 120;
    gen.background = {{"C", 0.8}, {"O", 0.2}};
    const double c = static_cast<double>(gen.height) / 2.0;
    gen.particles = {{c, c, std::max(3.0, c / 4.0), {{"Au", 0.9}, {"C", 0.1}}}};
    gen.seed = 20230407;
    auto sample = instrument::generate_hyperspectral(gen);
    return instrument::to_emd(sample, gen, scope, "2023-04-07T09:00:00Z",
                              "gold on carbon film", "operator@anl.gov")
        .to_bytes();
  }
  instrument::SpatiotemporalConfig gen;
  gen.height = gen.width = 128;
  const double frames = target / (8.0 * 128.0 * 128.0);
  gen.frames = static_cast<size_t>(std::clamp(frames, 8.0, 4096.0));
  gen.particle_count = 6;
  gen.seed = 20230408;
  auto sample = instrument::generate_spatiotemporal(gen);
  return instrument::to_emd(sample, gen, scope, "2023-04-08T09:00:00Z",
                            "gold nanoparticles", "operator@anl.gov")
      .to_bytes();
}

// ------------------------------------------------------------------ corpus --

/// Seeded history corpus: what a portal that has been publishing for a year
/// holds before this campaign starts.
size_t preload_corpus(search::Index& index, uint64_t seed, size_t docs) {
  static const char* kElements[] = {"Au", "C",  "O",  "Fe", "Cu", "Si",
                                    "Al", "Ti", "Ni", "Pt", "Ag", "Zn"};
  static const char* kWords[] = {"gold",     "film",      "particle",
                                 "catalyst", "alloy",     "oxide",
                                 "grain",    "boundary",  "nanowire",
                                 "lattice",  "defect",    "interface"};
  util::Rng rng(seed ^ 0xC0A9ull);
  int64_t epoch = 0;
  util::parse_iso8601("2022-04-07T09:00:00Z", &epoch);
  for (size_t i = 0; i < docs; ++i) {
    bool hyper = rng.chance(0.5);
    search::RecordInputs in;
    in.title = util::format("%s %s %s study %zu",
                            kWords[rng.uniform_int(0, 11)],
                            kWords[rng.uniform_int(0, 11)],
                            hyper ? "hyperspectral" : "spatiotemporal", i);
    in.creators = {"Dynamic PicoProbe"};
    in.created_iso8601 =
        util::format_iso8601(epoch + rng.uniform_int(0, 365 * 86400));
    in.resource_type = hyper ? "hyperspectral" : "spatiotemporal";
    for (int k = 0, n = static_cast<int>(rng.uniform_int(1, 4)); k < n; ++k) {
      in.subjects.push_back(kElements[rng.uniform_int(0, 11)]);
    }
    in.instrument_metadata =
        Json::object({{"beam_energy_kev", 300}, {"operator", "archive"}});
    in.analysis = Json::object({{"history", true}});
    search::Document doc;
    doc.id = util::format("history-%06zu", i);
    doc.content = search::build_record(in);
    doc.ingested_unix = epoch;
    index.ingest(std::move(doc));
  }
  return docs;
}

/// Portal reader: a seeded mix of free-text and filter searches posted as
/// engine events at a fixed virtual cadence while the campaign publishes.
struct PortalReader : std::enable_shared_from_this<PortalReader> {
  sim::Engine* engine = nullptr;
  const search::Index* index = nullptr;
  std::string caller;  ///< the operator: sees the campaign's own records too
  LayerClock* clock = nullptr;
  int64_t* bucket = nullptr;
  util::Rng rng{1};
  double until_s = 0;
  std::vector<double> ms;

  search::Query next_query() {
    static const char* kTerms[] = {"gold",   "film",    "hyperspectral",
                                   "oxide",  "defect",  "spatiotemporal",
                                   "alloy",  "lattice", "acquisition",
                                   "grain",  "catalyst", "interface"};
    static const char* kSubjects[] = {"Au", "Fe", "Cu", "Pt", "Ag", "Ni"};
    search::Query q;
    switch (rng.uniform_int(0, 3)) {
      case 0:
        q.text = kTerms[rng.uniform_int(0, 11)];
        break;
      case 1:
        q.text = util::format("%s %s", kTerms[rng.uniform_int(0, 11)],
                              kTerms[rng.uniform_int(0, 11)]);
        break;
      case 2:
        q.text = kTerms[rng.uniform_int(0, 11)];
        q.field_filters = {{"resource_type", rng.chance(0.5)
                                                 ? "hyperspectral"
                                                 : "spatiotemporal"}};
        break;
      default: {
        q.field_filters = {{"subjects", kSubjects[rng.uniform_int(0, 5)]}};
        q.date_field = "dates.created";
        int64_t from = 0;
        util::parse_iso8601("2022-04-07T09:00:00Z", &from);
        from += rng.uniform_int(0, 300 * 86400);
        q.date_from_unix = from;
        q.date_to_unix = from + 60 * 86400;
      }
    }
    q.limit = 20;
    return q;
  }

  void tick() {
    search::Query q = next_query();
    int64_t t0 = now_ns();
    {
      LayerClock::Scope scope(clock, bucket);
      auto hits = index->search(q, caller);
      (void)hits;
    }
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    if (engine->now().seconds() + kQueryCadenceS < until_s) {
      auto self = shared_from_this();
      engine->post_after(sim::Duration::from_seconds(kQueryCadenceS),
                         [self] { self->tick(); });
    }
  }
};

/// Sum of every series of each counter family in the registry.
std::map<std::string, double> counter_totals(
    const std::vector<telemetry::MetricSample>& samples) {
  std::map<std::string, double> totals;
  for (const auto& s : samples) {
    if (s.kind == telemetry::MetricKind::Counter) totals[s.name] += s.value;
  }
  return totals;
}

// ------------------------------------------------------------ facility rig --

struct FacilityRig {
  std::unique_ptr<core::Facility> facility;
  LayerClock clock;
  std::map<std::string, ProviderTally> tallies;
  std::vector<std::unique_ptr<TimedProvider>> decorators;
  int64_t portal_ns = 0;
  int64_t probe_ns = 0;  ///< the mid-campaign reconstruction probe
  size_t corpus_docs = 0;
  double mid_reconstruct_ns = 0;
  size_t mid_spans = 0;

  FacilityRig(const std::string& w, const RunOptions& opt) {
    facility = std::make_unique<core::Facility>(facility_config(w, opt));
    if (w == "scale_stream") {
      corpus_docs = preload_corpus(facility->index(), opt.seed, kCorpusDocs);
    }
    if (opt.traced) install_decorators(opt);
  }

  /// Time flow::timing_from_spans halfway through the campaign, on the trace
  /// as it stands then, for up to 64 seeded settled runs. Runs as an engine
  /// event, so no pool thread writes spans meanwhile.
  void probe_reconstruction(uint64_t seed) {
    LayerClock::Scope scope(&clock, &probe_ns);
    std::vector<flow::RunId> settled;
    for (const auto& id : facility->flows().all_runs()) {
      auto state = facility->flows().status(id).state;
      if (state == flow::RunState::Succeeded ||
          state == flow::RunState::Failed) {
        settled.push_back(id);
      }
    }
    mid_spans = facility->trace().spans().size();
    util::Rng rng(seed ^ 0x31D5ull);
    std::vector<double> ns;
    for (int i = 0; i < 64 && !settled.empty(); ++i) {
      const auto& id = settled[rng.uniform_int(
          0, static_cast<int64_t>(settled.size()) - 1)];
      flow::RunTiming timing;
      int64_t t0 = now_ns();
      (void)flow::timing_from_spans(facility->trace(), id, &timing);
      ns.push_back(static_cast<double>(now_ns() - t0));
    }
    mid_reconstruct_ns = ns.empty() ? 0 : median(ns);
  }

  /// Replace the facility's four providers with timing decorators over fresh
  /// providers built from the facility's public services. The search-ingest
  /// provider is rebuilt with the facility's seed derivation (seed ^ 0x5E4)
  /// and cost model, so a decorated run must publish the same fingerprint.
  void install_decorators(const RunOptions& opt) {
    core::Facility& f = *facility;
    std::vector<std::unique_ptr<flow::ActionProvider>> inner;
    inner.push_back(std::make_unique<core::TransferProvider>(&f.transfer()));
    inner.push_back(std::make_unique<core::StreamProvider>(&f.stream()));
    inner.push_back(std::make_unique<core::ComputeProvider>(&f.compute()));
    auto search = std::make_unique<core::SearchIngestProvider>(
        &f.engine(), &f.auth(), &f.index(), f.cost().publication_s,
        f.cost().publication_jitter_s, opt.seed ^ 0x5E4);
    search->set_telemetry(&f.telemetry());
    inner.push_back(std::move(search));
    for (auto& p : inner) {
      std::string name = p->name();
      decorators.push_back(std::make_unique<TimedProvider>(
          std::move(p), &clock, &tallies[name]));
      f.flows().register_provider(decorators.back().get());
    }
  }
};

/// Settled-exactly-once and publish checks for one facility campaign.
void check_facility(const std::string& w, const FacilityRig& rig,
                    const core::CampaignResult& result, Outcome* out) {
  core::Facility& f = *rig.facility;
  auto fail = [out](const std::string& what) { out->errors.push_back(what); };
  size_t settled = result.in_window.size() + result.late.size();
  if (settled != result.robustness.launches) {
    fail(util::format("settled %zu != launched %zu", settled,
                      result.robustness.launches));
  }
  if (f.flows().all_runs().size() != result.robustness.launches) {
    fail("flow service run count != launched");
  }
  std::set<std::string> ids;
  size_t failed = 0;
  for (const auto* bucket : {&result.in_window, &result.late}) {
    for (const auto& flow : *bucket) {
      if (!ids.insert(flow.id).second) fail("flow settled twice: " + flow.id);
      auto state = f.flows().info(flow.id).state;
      if (state != flow::RunState::Succeeded &&
          state != flow::RunState::Failed) {
        fail("recorded flow not terminal: " + flow.id);
      }
      if (!flow.success) ++failed;
    }
  }
  if (failed != result.failed) fail("failed-flow count mismatch");
  if (f.index().size() != rig.corpus_docs + out->succeeded) {
    fail(util::format("index holds %zu docs, expected %zu", f.index().size(),
                      rig.corpus_docs + out->succeeded));
  }
  if (has_payload(w)) {
    size_t virtual_records = 0;
    for (const auto* doc : f.index().snapshot()) {
      if (doc->content.at("analysis").at("virtual").as_bool(false)) {
        ++virtual_records;
      }
    }
    if (virtual_records) {
      fail(util::format("%zu virtual analysis records on a real-payload run",
                        virtual_records));
    }
  }
}

/// Kernel probes: the public entry points the facility's analysis functions
/// call, in the same order, on the workload's own payload.
void probe_kernels(const std::string& w, const core::CampaignConfig& cfg,
                   const RunOptions& opt, core::Facility& f, Outcome* out) {
  MetricSet& L = out->layers;
  std::vector<uint8_t> payload;
  L.set("instrument.synth_s",
        median_ns(3, [&] { payload = synthesize_payload(cfg); }) / 1e9, "s");
  auto staged = f.user_store().get(util::format("staging/%s-0000.emd",
                                                cfg.label_prefix.c_str()));
  if (!staged || staged.value()->crc64 != util::crc64(payload)) {
    out->errors.push_back("probe payload differs from the staged payload");
    return;
  }
  const double bytes = static_cast<double>(payload.size());
  L.set("kernel.bytes_per_call", bytes, "B");
  {
    // CRC-64 over the payload, repeated to about 200 MB of input. Each result
    // must equal the checksum declared when the payload was staged.
    int reps = std::max(1, static_cast<int>(2e8 / std::max(bytes, 1.0)));
    bool crc_ok = true;
    double ns = median_ns(3, [&] {
      for (int i = 0; i < reps; ++i) {
        crc_ok &= util::crc64(payload) == staged.value()->crc64;
      }
    });
    L.set("util.crc64_gbps", bytes * reps / ns, "GB/s");
    if (!crc_ok) {
      out->errors.push_back("crc64 differs from the staged checksum");
    }
  }

  std::string art = opt.artifact_dir + "/probe-" + w;
  constexpr int kReps = 3;
  emd::File file;
  tensor::Tensor<double> data;
  const emd::Group* group = nullptr;
  L.set("emd.parse_ns", median_ns(kReps, [&] {
          file = emd::File::from_bytes(payload).value();
          auto signal = emd::first_signal_name(file).value();
          group = file.root.find_group(std::string(emd::Paths::kData) + "/" +
                                       signal);
          data = group->datasets.at("data").as<double>().value();
        }),
        "ns");
  L.set("analysis.metadata_ns", median_ns(kReps, [&] {
          auto md = analysis::extract_metadata(file);
          (void)md;
        }),
        "ns");
  if (cfg.use_case == core::UseCase::Hyperspectral) {
    double e_min = group->attrs.count("energy_min_kev")
                       ? group->attrs.at("energy_min_kev").as_double(0.0)
                       : 0.0;
    double e_max = group->attrs.count("energy_max_kev")
                       ? group->attrs.at("energy_max_kev").as_double(20.0)
                       : 20.0;
    size_t channels = data.dim(2);
    std::vector<double> axis(channels);
    for (size_t k = 0; k < channels; ++k) {
      axis[k] = e_min + (e_max - e_min) * (static_cast<double>(k) + 0.5) /
                            static_cast<double>(channels);
    }
    analysis::HyperspectralAnalysis result;
    L.set("analysis.hyperspectral_ns", median_ns(kReps, [&] {
            result = analysis::analyze_hyperspectral(data, axis, {},
                                                     &util::shared_pool());
          }),
          "ns");
    L.set("analysis.artifacts_ns", median_ns(kReps, [&] {
            (void)analysis::write_pgm(art + "_intensity.pgm", result.intensity);
            for (const auto& el : result.elements) {
              if (el.symbol == "C" || el.symbol == "N" || el.symbol == "O")
                continue;
              if (el.matched_kev.empty()) continue;
              auto map =
                  analysis::element_map(data, axis, el.matched_kev.front());
              (void)analysis::write_pgm(art + "_map_" + el.symbol + ".pgm",
                                        map);
            }
            analysis::LinePlotConfig plot;
            std::vector<double> counts(result.spectrum.data().begin(),
                                       result.spectrum.data().end());
            (void)util::write_file(art + "_spectrum.svg",
                                   analysis::render_line_svg(axis, counts,
                                                             plot));
          }),
          "ns");
    return;
  }
  tensor::Tensor<uint8_t> frames_u8;
  video::MpkVideo mpk;
  L.set("video.convert_ns", median_ns(kReps, [&] {
          frames_u8 = video::convert_parallel(data, util::shared_pool());
          mpk = video::MpkVideo::from_stack(frames_u8);
        }),
        "ns");
  const size_t frame_count = data.dim(0);
  std::vector<std::vector<vision::Detection>> detections(frame_count);
  vision::BlobDetector detector;
  L.set("vision.detect_ns", median_ns(kReps, [&] {
          util::shared_pool().parallel_for(frame_count, [&](size_t t) {
            detections[t] = detector.detect(data.slice0(t));
          });
        }),
        "ns");
  L.set("vision.track_ns", median_ns(kReps, [&] {
          vision::GreedyIoUTracker tracker;
          for (const auto& dets : detections) tracker.update(dets);
        }),
        "ns");
  L.set("video.annotate_ns", median_ns(kReps, [&] {
          video::MpkVideo annotated = video::annotate(mpk, detections);
          (void)annotated.save(art + "_annotated.mpk");
        }),
        "ns");
}

/// Every per-layer row at zero, so each workload prints the full list.
void zero_layers(MetricSet& L) {
  static const std::vector<std::pair<const char*, const char*>> kRows = {
      {"core.campaign_s", "s"},        {"core.unattributed_s", "s"},
      {"core.tracing_overhead_s", "s"}, {"core.timing_reconstruct_ns", "ns"},
      {"core.timing_reconstruct_mid_ns", "ns"},
      {"sim.trace_spans_mid", "count"},
      {"core.probe_s", "s"},
      {"sim.events", "count"},         {"sim.events_per_flow", "count"},
      {"sim.cancelled", "count"},      {"sim.trace_spans", "count"},
      {"flow.polls", "count"},         {"flow.notifications", "count"},
      {"flow.retries", "count"},       {"flow.timeouts", "count"},
      {"transfer.total_s", "s"},       {"transfer.start_ns", "ns"},
      {"transfer.poll_ns", "ns"},      {"transfer.calls", "count"},
      {"transfer.failed", "count"},    {"transfer.bytes", "B"},
      {"transfer.chunks", "count"},    {"transfer.crc_fused", "count"},
      {"transfer.subscriptions", "count"},
      {"transfer.progress_subscriptions", "count"},
      {"stream.subscriptions", "count"}, {"compute.subscriptions", "count"},
      {"compute.held_starts", "count"},
      {"util.crc64_gbps", "GB/s"},     {"stream.total_s", "s"},
      {"stream.start_ns", "ns"},       {"stream.poll_ns", "ns"},
      {"stream.calls", "count"},       {"stream.frames_sent", "count"},
      {"stream.spills", "count"},      {"stream.fallbacks", "count"},
      {"compute.total_s", "s"},        {"compute.start_ns", "ns"},
      {"compute.poll_ns", "ns"},       {"compute.calls", "count"},
      {"compute.failed", "count"},     {"compute.tasks", "count"},
      {"compute.cold_starts", "count"}, {"kernel.bytes_per_call", "B"},
      {"emd.parse_ns", "ns"},          {"analysis.metadata_ns", "ns"},
      {"analysis.hyperspectral_ns", "ns"}, {"analysis.artifacts_ns", "ns"},
      {"video.convert_ns", "ns"},      {"vision.detect_ns", "ns"},
      {"vision.track_ns", "ns"},       {"video.annotate_ns", "ns"},
      {"util.pool_busy_s", "s"},       {"util.pool_batches", "count"},
      {"util.pool_utilization", "fraction"}, {"instrument.synth_s", "s"},
      {"search.total_s", "s"},         {"search.ingest_ns", "ns"},
      {"search.ingest_calls", "count"}, {"search.index_ingest_ns", "ns"},
      {"search.query_ns_p50", "ns"},   {"search.query_ns_p99", "ns"},
      {"search.docs", "count"},        {"portal.total_s", "s"},
      {"portal.render_index_ms", "ms"}, {"scripted.total_s", "s"},
      {"telemetry.health_ticks", "count"},
      {"telemetry.alerts", "count"},   {"telemetry.snapshot_ns", "ns"},
      {"federation.rejected", "count"}, {"federation.failovers", "count"},
      {"federation.resumed", "count"}, {"federation.reconciled", "count"},
      {"federation.shed", "count"},    {"federation.events", "count"},
      {"fault.injections", "count"},
  };
  for (const auto& [name, unit] : kRows) L.set(name, 0, unit);
}

void fill_facility_layers(const std::string& w, FacilityRig& rig,
                          const core::CampaignResult& result,
                          const util::PoolStats& pool0,
                          const util::PoolStats& pool1, const RunOptions& opt,
                          const core::CampaignConfig& cfg, Outcome* out) {
  core::Facility& f = *rig.facility;
  MetricSet& L = out->layers;
  zero_layers(L);

  // Boundary-timed ledger: exclusive seconds inside each layer's calls; the
  // remainder of the campaign wall is core.unattributed_s.
  double attributed = 0;
  auto row = [&](const std::string& name, int64_t ns) {
    double s = static_cast<double>(ns) / 1e9;
    L.set(name, s, "s");
    attributed += s;
  };
  auto tally = [&](const std::string& provider) -> const ProviderTally& {
    return rig.tallies[provider];
  };
  row("transfer.total_s", tally("transfer").total_ns());
  row("stream.total_s", tally("stream").total_ns());
  row("compute.total_s", tally("compute").total_ns());
  row("search.total_s", tally("search-ingest").total_ns());
  row("portal.total_s", rig.portal_ns);
  row("core.probe_s", rig.probe_ns);
  L.set("core.campaign_s", out->campaign_s, "s");
  L.set("core.unattributed_s", out->campaign_s - attributed, "s");

  auto per_call = [](int64_t ns, uint64_t calls) {
    return calls ? static_cast<double>(ns) / static_cast<double>(calls) : 0.0;
  };
  for (const char* p : {"transfer", "stream", "compute"}) {
    const ProviderTally& t = tally(p);
    std::string prefix = p;
    L.set(prefix + ".start_ns", per_call(t.start_ns, t.starts), "ns");
    L.set(prefix + ".poll_ns", per_call(t.poll_ns, t.polls), "ns");
    L.set(prefix + ".calls", static_cast<double>(t.starts), "count");
    L.set(prefix + ".subscriptions", static_cast<double>(t.subscriptions),
          "count");
    if (prefix != "stream") {
      L.set(prefix + ".failed", static_cast<double>(t.failed), "count");
    }
    if (t.failed) {
      out->notes.push_back(util::format(
          "%s: %llu failed calls, first: %s", p,
          static_cast<unsigned long long>(t.failed), t.first_error.c_str()));
    }
  }
  L.set("transfer.progress_subscriptions",
        static_cast<double>(tally("transfer").progress_subscriptions), "count");
  L.set("compute.held_starts", static_cast<double>(tally("compute").held),
        "count");
  const ProviderTally& s = tally("search-ingest");
  L.set("search.ingest_ns", per_call(s.start_ns + s.poll_ns, s.starts), "ns");
  L.set("search.ingest_calls", static_cast<double>(s.starts), "count");

  sim::Engine& e = f.engine();
  L.set("sim.events", static_cast<double>(e.events_processed()), "count");
  L.set("sim.events_per_flow",
        static_cast<double>(e.events_processed()) /
            static_cast<double>(std::max<size_t>(1, out->attempted)),
        "count");
  L.set("sim.cancelled", static_cast<double>(e.cancelled_total()), "count");
  L.set("sim.trace_spans", static_cast<double>(f.trace().spans().size()),
        "count");

  L.set("telemetry.snapshot_ns",
        median_ns(5, [&] { (void)f.telemetry().metrics.snapshot(); }), "ns");
  auto count = [&](const char* name, const char* family) {
    auto it = out->counters.find(family);
    L.set(name, it == out->counters.end() ? 0 : it->second,
          name == std::string("transfer.bytes") ? "B" : "count");
  };
  count("flow.polls", "flow_polls_total");
  count("flow.notifications", "flow_notifications_total");
  count("flow.retries", "flow_retries_total");
  count("flow.timeouts", "flow_timeouts_total");
  count("transfer.bytes", "transfer_bytes_total");
  count("transfer.chunks", "transfer_chunks_total");
  count("transfer.crc_fused", "transfer_crc_fused_total");
  count("stream.frames_sent", "stream_frames_sent_total");
  count("stream.spills", "stream_spills_total");
  count("stream.fallbacks", "stream_fallbacks_total");
  count("compute.tasks", "compute_tasks_total");
  count("compute.cold_starts", "compute_cold_starts_total");
  count("telemetry.health_ticks", "health_ticks_total");
  count("telemetry.alerts", "health_alerts_total");

  double busy_s =
      static_cast<double>(pool1.chunk_time_ns - pool0.chunk_time_ns) / 1e9;
  size_t executors = util::shared_pool().thread_count() + 1;  // + caller
  L.set("util.pool_busy_s", busy_s, "s");
  L.set("util.pool_batches", static_cast<double>(pool1.batches - pool0.batches),
        "count");
  L.set("util.pool_utilization",
        busy_s / (out->campaign_s * static_cast<double>(executors)),
        "fraction");
  L.set("search.docs", static_cast<double>(f.index().size()), "count");
  for (auto [name, q] : {std::pair{"search.query_ns_p50", 0.5},
                         std::pair{"search.query_ns_p99", 0.99}}) {
    L.set(name, out->query_ms.empty() ? 0 : quantile(out->query_ms, q) * 1e6,
          "ns");
  }

  // Span-tree timing reconstruction over a seeded sample of settled runs;
  // each rebuilt timing must equal the one the campaign recorded.
  std::vector<const core::CompletedFlow*> flows;
  for (const auto* bucket : {&result.in_window, &result.late}) {
    for (const auto& fl : *bucket) flows.push_back(&fl);
  }
  util::Rng rng(opt.seed ^ 0x7E5Aull);
  std::vector<double> ns;
  for (int i = 0; i < 64 && !flows.empty(); ++i) {
    const core::CompletedFlow* fl = flows[rng.uniform_int(
        0, static_cast<int64_t>(flows.size()) - 1)];
    flow::RunTiming timing;
    int64_t t0 = now_ns();
    bool ok = flow::timing_from_spans(f.trace(), fl->id, &timing);
    ns.push_back(static_cast<double>(now_ns() - t0));
    if (!ok || timing.total_s() != fl->timing.total_s() ||
        timing.steps.size() != fl->timing.steps.size()) {
      out->errors.push_back("span-tree timing differs for " + fl->id);
    }
  }
  L.set("core.timing_reconstruct_ns", median(ns), "ns");
  L.set("core.timing_reconstruct_mid_ns", rig.mid_reconstruct_ns, "ns");
  L.set("sim.trace_spans_mid", static_cast<double>(rig.mid_spans), "count");

  // Index ingest cost per document, on this run's own published records.
  auto docs = f.index().snapshot();
  search::Index scratch("perfbench-scratch");
  int64_t t0 = now_ns();
  for (const auto* d : docs) scratch.ingest(*d);
  L.set("search.index_ingest_ns",
        docs.empty() ? 0
                     : static_cast<double>(now_ns() - t0) /
                           static_cast<double>(docs.size()),
        "ns");
  if (scratch.fingerprint() != f.index().fingerprint()) {
    out->errors.push_back("re-ingested index fingerprint differs");
  }

  portal::Portal portal(portal::PortalConfig{});
  L.set("portal.render_index_ms", median_ns(3, [&] {
          auto html = portal.render_index_html(f.index(), f.user_identity());
          (void)html;
        }) / 1e6,
        "ms");

  if (has_payload(w)) probe_kernels(w, cfg, opt, f, out);
}

Outcome run_facility(const std::string& w, const RunOptions& opt) {
  Outcome out;
  out.workload = w;
  out.seed = opt.seed;
  out.traced = opt.traced;

  int64_t t0 = now_ns();
  FacilityRig rig(w, opt);
  out.setup_s = seconds_since(t0);

  core::CampaignConfig cfg = campaign_config(w, opt);
  std::shared_ptr<PortalReader> reader;
  if (w == "scale_stream") {
    reader = std::make_shared<PortalReader>();
    reader->engine = &rig.facility->engine();
    reader->index = &rig.facility->index();
    reader->caller = rig.facility->user_identity();
    reader->clock = &rig.clock;
    reader->bucket = &rig.portal_ns;
    reader->rng = util::Rng(opt.seed ^ 0x9E7Dull);
    reader->until_s = cfg.duration_s;
    rig.facility->engine().post_after(sim::Duration::from_seconds(0),
                                      [reader] { reader->tick(); });
  }
  if (opt.traced) {
    FacilityRig* r = &rig;
    const uint64_t seed = opt.seed;
    rig.facility->engine().post_at(
        sim::SimTime::from_seconds(cfg.duration_s / 2),
        [r, seed] { r->probe_reconstruction(seed); });
  }

  util::PoolStats pool0 = util::shared_pool().stats();
  double cpu0 = process_cpu_s();
  t0 = now_ns();
  core::CampaignResult result = core::run_campaign(*rig.facility, cfg);
  out.campaign_s = seconds_since(t0);
  out.campaign_cpu_s = process_cpu_s() - cpu0;
  util::PoolStats pool1 = util::shared_pool().stats();

  out.attempted = result.robustness.launches;
  double first = kNaN;
  for (const auto* bucket : {&result.in_window, &result.late}) {
    for (const auto& fl : *bucket) {
      if (fl.success) {
        ++out.succeeded;
        out.latencies_vs.push_back(fl.timing.total_s());
        double at = fl.timing.finished.seconds();
        if (!(first <= at)) first = at;
      } else {
        ++out.failed;
        out.latencies_vs.push_back(std::numeric_limits<double>::infinity());
      }
    }
  }
  // Launched but never recorded: counts as failed (and as a check failure).
  size_t recorded = out.succeeded + out.failed;
  if (out.attempted > recorded) {
    out.failed += out.attempted - recorded;
    out.latencies_vs.insert(out.latencies_vs.end(), out.attempted - recorded,
                            std::numeric_limits<double>::infinity());
  }
  out.ttfr_vs = first;
  out.overhead_pct_p50 = result.overhead_pct_stats().median();
  if (reader) out.query_ms = reader->ms;
  out.fingerprint = rig.facility->index().fingerprint();
  out.index_docs = rig.facility->index().size();
  out.digest = out.latencies_vs;
  out.digest.push_back(static_cast<double>(out.index_docs));
  out.counters = counter_totals(rig.facility->telemetry().metrics.snapshot());

  check_facility(w, rig, result, &out);
  if (opt.traced) {
    fill_facility_layers(w, rig, result, pool0, pool1, opt, cfg, &out);
  }
  return out;
}

// ---------------------------------------------------------- federation rig --
//
// Untraced campaigns time federation::run_federated_campaign itself. It
// returns only p50/p99 latency, so the benchmark also drives the broker
// through its public API with the same sites, scripted providers, inputs and
// arrival schedule: that rig observes every flow's latency (for p90) and
// takes the timing decorators in a traced run. Every run checks the two
// drivers agree (fingerprint, completions, p50/p99, fairness, recovery,
// engine events).

class ScriptedProvider : public flow::ActionProvider {
 public:
  ScriptedProvider(sim::Engine* engine, std::string name,
                   search::Index* index = nullptr)
      : engine_(engine), name_(std::move(name)), index_(index) {}

  std::string name() const override { return name_; }

  util::Result<flow::ActionHandle> start(const Json& params,
                                         const auth::Token&) override {
    Action a;
    a.started = engine_->now();
    a.duration_ns =
        static_cast<int64_t>(params.at("duration_s").as_double(1.0) * 1e9);
    actions_.push_back(a);
    if (index_) {
      search::Document doc;
      doc.id = params.at("subject").as_string("doc");
      doc.content = Json::object(
          {{"name", doc.id}, {"resource_type", "federated_flow"}});
      index_->ingest(std::move(doc));
    }
    return util::Result<flow::ActionHandle>::ok(
        std::to_string(actions_.size() - 1));
  }

  flow::ActionPollResult poll(const flow::ActionHandle& handle) override {
    flow::ActionPollResult out;
    const Action& a = actions_[std::stoull(handle)];
    if ((engine_->now() - a.started).ns < a.duration_ns) return out;
    out.status = flow::ActionStatus::Succeeded;
    out.service_started = a.started;
    out.service_completed = a.started + sim::Duration{a.duration_ns};
    out.output = Json::object({{"ok", true}});
    return out;
  }

  bool subscribe(const flow::ActionHandle& handle,
                 std::function<void()> callback) override {
    const Action& a = actions_[std::stoull(handle)];
    engine_->post_at(a.started + sim::Duration{a.duration_ns},
                     std::move(callback));
    return true;
  }

 private:
  struct Action {
    sim::SimTime started;
    int64_t duration_ns = 0;
  };
  sim::Engine* engine_;
  std::string name_;
  search::Index* index_;
  std::vector<Action> actions_;
};

federation::FederatedCampaignConfig federated_config(const RunOptions& opt) {
  // bench_federation's full-size chaos script (site kill, brownout,
  // partition) over a one-hour arrival window.
  federation::FederatedCampaignConfig cfg;
  cfg.flows = static_cast<size_t>(static_cast<double>(kFederatedFlows) *
                                  opt.scale);
  cfg.users = 2000;
  cfg.arrival_window_s = 3600;
  cfg.broker.quota.max_inflight_total = 4000;
  cfg.broker.quota.min_user_inflight = 4;
  cfg.seed = opt.seed;
  cfg.chaos.name = "a14-site-chaos";
  cfg.chaos.add(
      {fault::FaultKind::SiteOutage, 1200, 600, cfg.sites[1].name, 0});
  cfg.chaos.add(
      {fault::FaultKind::SiteBrownout, 2000, 400, cfg.sites[2].name, 0.6});
  cfg.chaos.add(
      {fault::FaultKind::SitePartition, 2800, 120, cfg.sites[1].name, 0});
  return cfg;
}

std::string subject_of(size_t i) { return util::format("flow-%06zu", i); }

Json input_for(const federation::FederatedCampaignConfig& config, size_t i) {
  double j1 = 0.5 + static_cast<double>((i * 2654435761ull) % 1000) / 1000.0;
  double j2 = 0.5 + static_cast<double>((i * 40503ull + 7) % 1000) / 1000.0;
  Json input = Json::object();
  input["transfer_s"] = config.transfer_s * j1;
  input["analyze_s"] = config.analyze_s * j2;
  input["subject"] = subject_of(i);
  return input;
}

struct FederationRig {
  struct SiteRuntime {
    auth::AuthService auth;
    std::unique_ptr<flow::FlowService> flows;
    std::vector<std::unique_ptr<flow::ActionProvider>> providers;
    auth::Token token;
  };

  federation::FederatedCampaignConfig config;
  sim::Engine engine;
  search::Index index{"federated-publish"};
  std::unique_ptr<federation::Broker> broker;
  std::vector<std::unique_ptr<SiteRuntime>> sites;
  std::unique_ptr<fault::FaultInjector> injector;
  std::shared_ptr<const flow::FlowDefinition> definition;
  LayerClock clock;
  std::map<std::string, ProviderTally> tallies;

  // Submission state: arrivals are due on a fixed schedule (open loop);
  // a rejected submission is re-posted after the broker's retry-after hint.
  std::vector<sim::SimTime> due;
  std::vector<size_t> resubmits;
  std::vector<double> latencies;  ///< due -> final settle, completed flows
  size_t completed = 0, failed = 0, gave_up = 0;
  double first_done = kNaN;

  FederationRig(const FederationRig&) = delete;
  FederationRig& operator=(const FederationRig&) = delete;

  explicit FederationRig(const RunOptions& opt)
      : config(federated_config(opt)) {
    flow::FlowServiceConfig fcfg;
    fcfg.completion_mode = config.completion_mode;
    broker = std::make_unique<federation::Broker>(config.broker);
    for (size_t i = 0; i < config.sites.size(); ++i) {
      const auto& spec = config.sites[i];
      auto site = std::make_unique<SiteRuntime>();
      site->flows = std::make_unique<flow::FlowService>(
          &engine, &site->auth, fcfg, config.seed + i * 1000003ull);
      site->flows->set_site(spec.name);
      site->providers.push_back(
          std::make_unique<ScriptedProvider>(&engine, "null"));
      site->providers.push_back(
          std::make_unique<ScriptedProvider>(&engine, "publish", &index));
      if (opt.traced) {
        for (auto& p : site->providers) {
          std::string name = p->name();
          p = std::make_unique<TimedProvider>(std::move(p), &clock,
                                              &tallies[name]);
        }
      }
      for (auto& p : site->providers) site->flows->register_provider(p.get());
      site->token = site->auth.issue("broker@" + spec.name, {"flows"});
      federation::Site s;
      s.name = spec.name;
      s.engine = &engine;
      s.flows = site->flows.get();
      s.token = site->token;
      s.capacity = spec.capacity;
      broker->add_site(s);
      sites.push_back(std::move(site));
    }
    fault::FaultInjector::Services fs;
    fs.engine = &engine;
    fs.site_hook = [this](fault::FaultKind kind, const std::string& site,
                          double severity, bool begin) {
      broker->apply_site_fault(kind, site, severity, begin);
    };
    injector = std::make_unique<fault::FaultInjector>(fs);
    if (!config.chaos.empty()) (void)injector->install(config.chaos);
    definition = std::make_shared<const flow::FlowDefinition>(
        federation::federated_definition(config));

    const size_t n = config.flows;
    due.resize(n);
    resubmits.assign(n, 0);
    latencies.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      due[i] = sim::SimTime::from_seconds(
          config.arrival_window_s * static_cast<double>(i) /
          static_cast<double>(std::max<size_t>(1, n)));
      engine.post_at(due[i], [this, i] { submit(i); });
    }
  }

  void submit(size_t i) {
    std::string user =
        "user-" + std::to_string(i % std::max<size_t>(1, config.users));
    auto outcome = broker->submit(
        definition, input_for(config, i), user, subject_of(i),
        [this, i](bool ok) {
          if (!ok) {
            ++failed;
            return;
          }
          ++completed;
          latencies.push_back((engine.now() - due[i]).seconds());
          if (!(first_done <= engine.now().seconds())) {
            first_done = engine.now().seconds();
          }
        });
    if (outcome.admitted) return;
    if (resubmits[i] >= config.max_resubmits) {
      ++gave_up;
      return;
    }
    ++resubmits[i];
    double delay = outcome.retry_after_s + 0.001 * static_cast<double>(i % 101);
    engine.post_after(sim::Duration::from_seconds(delay),
                      [this, i] { submit(i); });
  }
};

/// The figures both federated drivers report, in Outcome::digest order.
std::vector<double> federated_digest(size_t completed, double p50, double p99,
                                     double jain, double recovery,
                                     uint64_t events) {
  return {static_cast<double>(completed), p50, p99, jain, recovery,
          static_cast<double>(events)};
}

void check_federated(size_t n, size_t completed, size_t failed, size_t gave_up,
                     Outcome* out) {
  if (completed != n || failed != 0 || gave_up != 0) {
    out->errors.push_back(util::format(
        "federated completion %zu/%zu (failed %zu, gave up %zu)", completed, n,
        failed, gave_up));
  }
}

/// One untraced campaign through the library driver, timed as a whole.
Outcome run_federated_library(const RunOptions& opt) {
  Outcome out;
  out.workload = "federated_chaos";
  out.seed = opt.seed;
  out.setup_s = kNaN;
  federation::FederatedCampaignConfig config = federated_config(opt);
  double cpu0 = process_cpu_s();
  int64_t t0 = now_ns();
  federation::FederatedCampaignResult r =
      federation::run_federated_campaign(config);
  out.campaign_s = seconds_since(t0);
  out.campaign_cpu_s = process_cpu_s() - cpu0;

  out.attempted = r.flows;
  out.succeeded = r.completed;
  out.failed = r.flows - r.completed;  // failed, unsettled and given up
  out.recovery_vs = r.broker.recovery_s;
  out.jain = r.jain_fairness;
  out.fingerprint = r.fingerprint;
  out.index_docs = r.completed;  // the library does not expose its index
  out.digest = federated_digest(r.completed, r.p50_s, r.p99_s, r.jain_fairness,
                                r.broker.recovery_s, r.engine_events);
  check_federated(r.flows, r.completed, r.failed + r.unsettled, r.gave_up,
                  &out);
  return out;
}

Outcome run_federated(const RunOptions& opt) {
  if (!opt.traced && !opt.broker_rig) return run_federated_library(opt);
  Outcome out;
  out.workload = "federated_chaos";
  out.seed = opt.seed;
  out.traced = opt.traced;

  int64_t t0 = now_ns();
  FederationRig rig(opt);
  out.setup_s = seconds_since(t0);

  const auto& config = rig.config;
  sim::Engine& engine = rig.engine;
  const size_t n = config.flows;
  double cpu0 = process_cpu_s();
  t0 = now_ns();
  engine.run();
  out.campaign_s = seconds_since(t0);
  out.campaign_cpu_s = process_cpu_s() - cpu0;

  federation::BrokerStats stats = rig.broker->stats();
  out.attempted = n;
  out.succeeded = rig.completed;
  out.failed = n - rig.completed;  // failed, unsettled and given up
  out.latencies_vs = rig.latencies;
  out.latencies_vs.insert(out.latencies_vs.end(), n - rig.completed,
                          std::numeric_limits<double>::infinity());
  out.ttfr_vs = rig.first_done;
  out.recovery_vs = stats.recovery_s;
  out.jain = rig.broker->quotas().fairness();
  out.fingerprint = rig.index.fingerprint();
  out.index_docs = rig.index.size();

  // p50/p99 exactly as run_federated_campaign takes them.
  std::vector<double> sorted = rig.latencies;
  std::sort(sorted.begin(), sorted.end());
  auto pct = [&](double p) {
    return sorted.empty()
               ? 0.0
               : sorted[static_cast<size_t>(
                     p * static_cast<double>(sorted.size() - 1))];
  };
  out.digest = federated_digest(rig.completed, pct(0.50), pct(0.99), out.jain,
                                stats.recovery_s, engine.events_processed());
  check_federated(n, rig.completed, rig.failed, rig.gave_up, &out);
  if (rig.index.size() != rig.completed) {
    out.errors.push_back("federated index size != completions");
  }

  if (opt.traced) {
    MetricSet& L = out.layers;
    zero_layers(L);
    int64_t provider_ns = 0;
    for (const auto& [name, t] : rig.tallies) provider_ns += t.total_ns();
    double scripted_s = static_cast<double>(provider_ns) / 1e9;
    L.set("scripted.total_s", scripted_s, "s");
    L.set("core.campaign_s", out.campaign_s, "s");
    L.set("core.unattributed_s", out.campaign_s - scripted_s, "s");
    L.set("sim.events", static_cast<double>(engine.events_processed()),
          "count");
    L.set("sim.events_per_flow",
          static_cast<double>(engine.events_processed()) /
              static_cast<double>(std::max<size_t>(1, n)),
          "count");
    L.set("sim.cancelled", static_cast<double>(engine.cancelled_total()),
          "count");
    L.set("search.docs", static_cast<double>(rig.index.size()), "count");
    L.set("federation.rejected", static_cast<double>(stats.rejected), "count");
    L.set("federation.failovers", static_cast<double>(stats.failovers),
          "count");
    L.set("federation.resumed", static_cast<double>(stats.resumed), "count");
    L.set("federation.reconciled", static_cast<double>(stats.reconciled),
          "count");
    L.set("federation.shed", static_cast<double>(stats.optional_dropped),
          "count");
    L.set("federation.events", static_cast<double>(engine.events_processed()),
          "count");
    L.set("fault.injections", static_cast<double>(rig.injector->log().size()),
          "count");
  }
  return out;
}

}  // namespace

Outcome run_workload(const std::string& workload, const RunOptions& options) {
  if (!is_facility(workload)) return run_federated(options);
  return run_facility(workload, options);
}

double setup_only(const std::string& workload, const RunOptions& options) {
  int64_t t0 = now_ns();
  if (is_facility(workload)) {
    FacilityRig rig(workload, options);
    return seconds_since(t0);
  }
  federation::FederatedCampaignConfig config = federated_config(options);
  config.flows = 0;
  (void)federation::run_federated_campaign(config);
  return seconds_since(t0);
}

}  // namespace perfbench
