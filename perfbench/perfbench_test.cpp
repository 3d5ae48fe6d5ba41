// The benchmark's own tests: decorators are transparent (fingerprint parity
// on the paths that use held starts, progress and stream subscriptions), the
// ledger rows stay within the campaign wall, and every output check passes
// on two seeds. Campaigns run at reduced size.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {
namespace {

RunOptions options(uint64_t seed, bool traced, double scale) {
  RunOptions o;
  o.seed = seed;
  o.traced = traced;
  o.scale = scale;
  o.artifact_dir = "perfbench-test-artifacts";
  return o;
}

void expect_same_outputs(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.counters, b.counters);
}

TEST(LayerClock, NestedScopesAreExclusive) {
  LayerClock clock;
  int64_t outer = 0, inner = 0;
  int64_t t0 = now_ns();
  {
    LayerClock::Scope a(&clock, &outer);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      LayerClock::Scope b(&clock, &inner);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  int64_t wall = now_ns() - t0;
  EXPECT_GE(inner, 5'000'000);
  EXPECT_GE(outer, 5'000'000);
  EXPECT_LE(outer + inner, wall);
}

TEST(Quantile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(quantile(v, 0.5), 50);
  EXPECT_EQ(quantile(v, 0.9), 90);
  EXPECT_EQ(quantile(v, 0.99), 99);
  EXPECT_EQ(median({3, 1, 2, 4}), 2.5);
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
}

// Cut-through spatiotemporal: chunked transfer progress feeds held compute
// starts through the decorators.
TEST(DecoratorParity, SpatioRealHeldStartsAndProgress) {
  Outcome plain = run_workload("spatio_real", options(3, false, 0.1));
  Outcome traced = run_workload("spatio_real", options(3, true, 0.1));
  EXPECT_TRUE(plain.errors.empty()) << plain.errors.front();
  EXPECT_TRUE(traced.errors.empty()) << traced.errors.front();
  expect_same_outputs(plain, traced);
  EXPECT_GT(traced.layers.value("compute.held_starts"), 0);
  EXPECT_GT(traced.layers.value("transfer.progress_subscriptions"), 0);
  EXPECT_GT(traced.layers.value("vision.detect_ns"), 0);
}

// Direct streaming: the stream provider settles on subscriptions.
TEST(DecoratorParity, ScaleStreamSubscriptions) {
  Outcome plain = run_workload("scale_stream", options(3, false, 0.05));
  Outcome traced = run_workload("scale_stream", options(3, true, 0.05));
  EXPECT_TRUE(plain.errors.empty()) << plain.errors.front();
  EXPECT_TRUE(traced.errors.empty()) << traced.errors.front();
  expect_same_outputs(plain, traced);
  EXPECT_GT(traced.layers.value("stream.subscriptions"), 0);
  EXPECT_GT(traced.layers.value("stream.calls"), 0);
  EXPECT_FALSE(traced.query_ms.empty());
}

// core.unattributed_s is the campaign wall minus the rows, so the sum holds
// by construction; what the timing must show is that no row, nor their sum,
// exceeds the wall.
TEST(Ledger, RowsPlusUnattributedSumToCampaignWall) {
  for (const char* w : {"hyper_real", "scale_stream", "federated_chaos"}) {
    Outcome traced = run_workload(w, options(5, true, 0.05));
    ASSERT_TRUE(traced.errors.empty()) << w << ": " << traced.errors.front();
    const MetricSet& L = traced.layers;
    double sum = L.value("core.unattributed_s");
    for (const auto& row : ledger_rows()) {
      EXPECT_GE(L.value(row), 0) << w << " " << row;
      EXPECT_LE(L.value(row), traced.campaign_s) << w << " " << row;
      sum += L.value(row);
    }
    EXPECT_NEAR(sum, traced.campaign_s, 1e-9) << w;
    EXPECT_EQ(L.value("core.campaign_s"), traced.campaign_s) << w;
    EXPECT_GE(L.value("core.unattributed_s"), 0) << w;
  }
}

// Every output check (settle-once accounting, index size, no virtual
// records on real payloads, federated 100% completion) passes on two seeds,
// and each seed repeats. For federated_chaos the untraced campaign runs
// run_federated_campaign and the traced one the broker rig, so the
// comparison is the parity between the two drivers.
TEST(OutputChecks, PassOnTwoSeeds) {
  for (const auto& w : workload_names()) {
    for (uint64_t seed : {1u, 2u}) {
      Outcome a = run_workload(w, options(seed, false, 0.05));
      Outcome b = run_workload(w, options(seed, w == "federated_chaos", 0.05));
      EXPECT_TRUE(a.errors.empty()) << w << " seed " << seed << ": "
                                    << a.errors.front();
      EXPECT_TRUE(b.errors.empty()) << w << " seed " << seed << ": "
                                    << b.errors.front();
      EXPECT_EQ(a.failed, 0u) << w;
      EXPECT_GT(a.attempted, 0u) << w;
      expect_same_outputs(a, b);
    }
  }
}

}  // namespace
}  // namespace perfbench
