// Tests for the discrete-event engine: ordering, cancellation, run_until
// semantics, trace recording.
#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace pico::sim {
namespace {

TEST(SimTime, Arithmetic) {
  SimTime t = SimTime::from_seconds(1.5);
  Duration d = Duration::from_seconds(0.5);
  EXPECT_DOUBLE_EQ((t + d).seconds(), 2.0);
  EXPECT_DOUBLE_EQ(time_between(t, t + d).seconds(), 0.5);
  EXPECT_LT(SimTime::from_seconds(1), SimTime::from_seconds(2));
  EXPECT_EQ(SimTime::from_millis(1000).ns, SimTime::from_seconds(1).ns);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(SimTime::from_seconds(3), [&] { order.push_back(3); });
  engine.schedule_at(SimTime::from_seconds(1), [&] { order.push_back(1); });
  engine.schedule_at(SimTime::from_seconds(2), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now().seconds(), 3.0);
}

TEST(Engine, TiesBreakByScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(SimTime::from_seconds(1), [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine engine;
  double fired_at = -1;
  engine.schedule_at(SimTime::from_seconds(5), [&] {
    engine.schedule_after(Duration::from_seconds(2),
                          [&] { fired_at = engine.now().seconds(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  auto handle = engine.schedule_at(SimTime::from_seconds(1), [&] { fired = true; });
  handle.cancel();
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(Engine, CancelIsIdempotentAndSafeAfterRun) {
  Engine engine;
  auto handle = engine.schedule_at(SimTime::from_seconds(1), [] {});
  engine.run();
  handle.cancel();  // no crash
  handle.cancel();
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(SimTime::from_seconds(1), [&] { ++fired; });
  engine.schedule_at(SimTime::from_seconds(10), [&] { ++fired; });
  engine.run_until(SimTime::from_seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now().seconds(), 5.0);
  EXPECT_FALSE(engine.idle());
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventAtBoundaryIncluded) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(SimTime::from_seconds(5), [&] { ++fired; });
  engine.run_until(SimTime::from_seconds(5));
  EXPECT_EQ(fired, 1);
}

TEST(Engine, ReentrantScheduling) {
  // A chain of events, each scheduling the next: simulates actor loops.
  Engine engine;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 100) {
      engine.schedule_after(Duration::from_seconds(1), hop);
    }
  };
  engine.schedule_at(SimTime::zero(), hop);
  engine.run();
  EXPECT_EQ(hops, 100);
  EXPECT_DOUBLE_EQ(engine.now().seconds(), 99.0);
}

TEST(Engine, ZeroDelayFiresImmediatelyInOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_after(Duration::zero(), [&] {
    order.push_back(1);
    engine.schedule_after(Duration::zero(), [&] { order.push_back(2); });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Trace, SelectFilters) {
  Trace trace;
  trace.add(Span{"transfer", "active", "t1", SimTime::zero(),
                 SimTime::from_seconds(2), {}});
  trace.add(Span{"compute", "active", "c1", SimTime::zero(),
                 SimTime::from_seconds(1), {}});
  trace.add(Span{"transfer", "failed", "t2", SimTime::zero(),
                 SimTime::from_seconds(3), {}});
  EXPECT_EQ(trace.select("transfer").size(), 2u);
  EXPECT_EQ(trace.select("transfer", "active").size(), 1u);
  EXPECT_EQ(trace.select("", "active").size(), 2u);
  EXPECT_EQ(trace.select("", "").size(), 3u);
  EXPECT_DOUBLE_EQ(trace.select("compute")[0]->duration_seconds(), 1.0);
}

TEST(Trace, JsonlSerialization) {
  Trace trace;
  trace.add(Span{"flow", "run", "r1", SimTime::zero(), SimTime::from_seconds(1),
                 util::Json::object({{"k", 1}})});
  std::string jsonl = trace.to_jsonl();
  EXPECT_NE(jsonl.find("\"component\":\"flow\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"k\":1"), std::string::npos);
  EXPECT_EQ(jsonl.back(), '\n');
}

}  // namespace
}  // namespace pico::sim

// Property: events always fire in non-decreasing time order, regardless of
// the (randomized) schedule shape, including re-entrant scheduling.
#include "util/rng.hpp"

namespace pico::sim {
namespace {

class EngineOrdering : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineOrdering, MonotonicFiringOrder) {
  util::Rng rng(GetParam());
  Engine engine;
  std::vector<double> fire_times;
  std::function<void(int)> maybe_chain = [&](int depth) {
    fire_times.push_back(engine.now().seconds());
    if (depth > 0 && rng.chance(0.6)) {
      engine.schedule_after(Duration::from_seconds(rng.uniform(0, 5)),
                            [&, depth] { maybe_chain(depth - 1); });
    }
  };
  for (int i = 0; i < 50; ++i) {
    engine.schedule_at(SimTime::from_seconds(rng.uniform(0, 100)),
                       [&] { maybe_chain(3); });
  }
  engine.run();
  ASSERT_GE(fire_times.size(), 50u);
  for (size_t i = 1; i < fire_times.size(); ++i) {
    ASSERT_LE(fire_times[i - 1], fire_times[i] + 1e-12) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrdering,
                         ::testing::Values(3, 17, 404, 9001));

}  // namespace
}  // namespace pico::sim

// Differential: the indexed Trace::find / children_of equal a brute-force
// scan over spans(), pointer for pointer and in order, across duplicate
// label keys, untraced (span_id 0) spans, children recorded before their
// parent, a many-child hub, and clear() followed by re-adding.
namespace pico::sim {
namespace {

const Span* scan_find(const Trace& trace, const std::string& component,
                      const std::string& category, const std::string& label) {
  for (const auto& s : trace.spans()) {
    if (s.component == component && s.category == category &&
        s.label == label) {
      return &s;
    }
  }
  return nullptr;
}

std::vector<const Span*> scan_children(const Trace& trace, uint64_t parent) {
  std::vector<const Span*> out;
  for (const auto& s : trace.spans()) {
    if (s.parent_id == parent && s.span_id != 0) out.push_back(&s);
  }
  return out;
}

const char* const kComponents[] = {"flow", "transfer", "compute"};
const char* const kCategories[] = {"run", "step", "active", "run-failed"};

void add_random_spans(Trace& trace, util::Rng& rng, size_t n,
                      uint64_t max_id) {
  for (size_t i = 0; i < n; ++i) {
    Span s;
    s.component = kComponents[rng.uniform_int(0, 2)];
    s.category = kCategories[rng.uniform_int(0, 3)];
    s.label = "r" + std::to_string(rng.uniform_int(0, 40));
    s.start = SimTime::from_seconds(rng.uniform(0, 100));
    s.end = s.start + Duration::from_seconds(1);
    // About a fifth untraced; parents drawn from the whole id range, so many
    // children land before (or without) their parent; a third of traced
    // spans hang off one hub.
    s.span_id = rng.chance(0.2) ? 0 : rng.uniform_int(1, max_id);
    s.parent_id = rng.chance(0.3) ? 7 : rng.uniform_int(0, max_id);
    trace.add(std::move(s));
  }
}

void expect_index_matches_scan(const Trace& trace, uint64_t max_id) {
  for (const char* c : kComponents) {
    for (const char* cat : kCategories) {
      for (int l = 0; l <= 42; ++l) {  // 41 and 42 are never recorded
        const std::string label = "r" + std::to_string(l);
        ASSERT_EQ(trace.find(c, cat, label), scan_find(trace, c, cat, label))
            << c << "/" << cat << "/" << label;
      }
    }
  }
  EXPECT_EQ(trace.find("", "", ""), nullptr);
  for (uint64_t p = 0; p <= max_id + 2; ++p) {
    ASSERT_EQ(trace.children_of(p), scan_children(trace, p)) << p;
  }
}

class TraceIndex : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceIndex, FindAndChildrenEqualBruteForceScan) {
  util::Rng rng(GetParam());
  constexpr uint64_t kMaxId = 300;
  Trace trace;
  add_random_spans(trace, rng, 4000, kMaxId);
  expect_index_matches_scan(trace, kMaxId);
  EXPECT_GT(trace.children_of(7).size(), 500u);  // the hub

  trace.clear();
  EXPECT_TRUE(trace.spans().empty());
  expect_index_matches_scan(trace, kMaxId);

  add_random_spans(trace, rng, 700, kMaxId);
  expect_index_matches_scan(trace, kMaxId);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceIndex, ::testing::Values(1, 29, 4242));

}  // namespace
}  // namespace pico::sim
