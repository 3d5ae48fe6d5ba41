#include "bench_report.hpp"

#include <cmath>
#include <cstdio>

#include "util/bytes.hpp"

namespace pico::bench {

namespace {

bool holds(double value, const std::string& op, double bound) {
  if (op == ">=") return value >= bound;
  if (op == ">") return value > bound;
  if (op == "<=") return value <= bound;
  if (op == "<") return value < bound;
  if (op == "==") return value == bound;
  return false;
}

}  // namespace

Report::Report(std::string bench, bool smoke)
    : bench_(std::move(bench)), smoke_(smoke) {}

void Report::metric(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::gate(const std::string& id, const std::string& metric,
                  const std::string& op, double bound) {
  gates_.push_back(util::Json::object(
      {{"id", id}, {"metric", metric}, {"op", op}, {"bound", bound}}));
  auto it = metrics_.find(metric);
  if (it == metrics_.end()) {
    std::printf("FAIL: %s: metric %s was never recorded\n", id.c_str(),
                metric.c_str());
    pass_ = false;
  } else if (!std::isfinite(it->second) || !holds(it->second, op, bound)) {
    std::printf("FAIL: %s: %s = %.9g, want %s %.9g\n", id.c_str(),
                metric.c_str(), it->second, op.c_str(), bound);
    pass_ = false;
  }
}

void Report::check(const std::string& name, double value,
                   const std::string& op, double bound) {
  metric(name, value);
  gate(name, name, op, bound);
}

int Report::write(const std::string& path, util::Json detail) const {
  util::Json metrics = util::Json::object();
  for (const auto& [name, value] : metrics_) metrics[name] = value;
  util::Json doc = util::Json::object({
      {"bench", bench_},
      {"schema", "pico.bench.report.v1"},
      {"smoke", smoke_},
      {"pass", pass_},
      {"metrics", std::move(metrics)},
      {"gates", gates_},
      {"detail", std::move(detail)},
  });
  if (!util::write_file(path, doc.dump(2) + "\n").is_ok()) {
    std::printf("FAIL: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%s, %zu gates)\n", path.c_str(),
              pass_ ? "pass" : "FAIL", gates_.size());
  return pass_ ? 0 : 1;
}

}  // namespace pico::bench
