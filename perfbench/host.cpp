#include <sched.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "tensor/simd/simd.hpp"
#include "util/json.hpp"
#include "util/threadpool.hpp"

namespace perfbench {
namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// Size string of the first data/unified cache at `level` on cpu0 ("" if
/// sysfs does not say).
std::string cache_size(int level) {
  for (int i = 0; i < 8; ++i) {
    std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::string lv = read_line(dir + "level");
    if (lv.empty()) break;
    if (std::stoi(lv) != level) continue;
    if (read_line(dir + "type") == "Instruction") continue;
    return read_line(dir + "size");
  }
  return "";
}

}  // namespace

std::string host_record_json() {
  pico::util::Json host = pico::util::Json::object({
      {"cpu_model", cpu_model()},
      {"nproc", static_cast<int64_t>(online_cpus())},
      {"simd", pico::tensor::simd::active_level_name()},
      {"l2", cache_size(2)},
      {"l3", cache_size(3)},
      {"pool_threads",
       static_cast<int64_t>(pico::util::shared_pool().thread_count())},
  });
  return host.dump();
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return kNaN;
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user, nice, system, idle, iowait, irq, softirq, steal;
  if (!(in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      cpu != "cpu") {
    return kNaN;
  }
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
