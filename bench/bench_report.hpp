#pragma once
// One report path for the gated benches. A bench records flat metrics and
// the gates over them; write() emits the shared envelope
//
//   {bench, schema: "pico.bench.report.v1", smoke, pass,
//    metrics {name -> finite number}, gates [{id, metric, op, bound}],
//    detail {the bench's own payload}}
//
// and returns the process exit code. tools/check_bench.py re-evaluates every
// gate from the file and, given --against the checked-in baseline, fails any
// gate whose bound was loosened or whose id disappeared. Gate ids starting
// with "full." only apply to full-size runs, so a --smoke document may lack
// them.
#include <map>
#include <string>

#include "util/json.hpp"

namespace pico::bench {

class Report {
 public:
  Report(std::string bench, bool smoke);

  /// Record a flat metric (bools as 1/0); re-recording a name overwrites.
  void metric(const std::string& name, double value);
  /// Gate `metric op bound`, op one of ">=", ">", "<=", "<", "==". The metric
  /// must already be recorded and finite; a failing gate prints a FAIL line.
  void gate(const std::string& id, const std::string& metric,
            const std::string& op, double bound);
  /// metric(name, value) then gate(name, name, op, bound): the common case
  /// of one gate per metric, identified by the metric's name.
  void check(const std::string& name, double value, const std::string& op,
             double bound);

  bool pass() const { return pass_; }
  /// Write the envelope around `detail` to `path`; 0 iff every gate held and
  /// the file was written.
  int write(const std::string& path, util::Json detail) const;

 private:
  std::string bench_;
  bool smoke_;
  bool pass_ = true;
  std::map<std::string, double> metrics_;
  util::Json gates_ = util::Json::array();
};

}  // namespace pico::bench
