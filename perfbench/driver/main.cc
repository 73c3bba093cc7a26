// perfbench: the repository benchmark driver.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --metrics=name:unit,... --work_dir=DIR [--node_bin=PATH]
//
// Runs one workload (sim_paper, engine_churn, live_lookup,
// live_cache_on_miss), prints one line per measured metric, and ends
// with a JSON line holding exactly the metrics named by --metrics
// (perfbench/run.py passes the end-to-end or the per-layer list of
// BENCHMARK.json). Exits 1 when a correctness check failed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace {

bool Flag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 --metrics=name:unit,... --work_dir=DIR "
               "[--node_bin=PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string metrics_arg, value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (Flag(arg, "workload", &o.workload)) continue;
    if (Flag(arg, "node_bin", &o.node_bin)) continue;
    if (Flag(arg, "work_dir", &o.work_dir)) continue;
    if (Flag(arg, "metrics", &metrics_arg)) continue;
    if (Flag(arg, "seed", &value)) {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (Flag(arg, "seconds", &value)) {
      o.seconds = std::strtod(value.c_str(), nullptr);
      continue;
    }
    if (Flag(arg, "trace", &value)) {
      o.trace = value == "1";
      continue;
    }
    std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
    return Usage();
  }
  if (o.workload.empty() || o.work_dir.empty() || metrics_arg.empty() ||
      o.seconds <= 0.0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);

  std::vector<std::pair<std::string, std::string>> wanted;  // name, unit
  std::stringstream list(metrics_arg);
  std::string item;
  while (std::getline(list, item, ',')) {
    const size_t colon = item.find(':');
    if (colon == std::string::npos) return Usage();
    wanted.emplace_back(item.substr(0, colon), item.substr(colon + 1));
  }

  perfbench::Report report;
  if (o.workload == "sim_paper") {
    perfbench::RunSimPaper(o, &report);
  } else if (o.workload == "engine_churn") {
    perfbench::RunEngineChurn(o, &report);
  } else if (o.workload == "live_lookup") {
    perfbench::RunLive(o, /*cache_on_miss=*/false, &report);
  } else if (o.workload == "live_cache_on_miss") {
    perfbench::RunLive(o, /*cache_on_miss=*/true, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return Usage();
  }

  // A per-layer metric of a layer this workload never calls reads 0.
  for (const auto& [name, unit] : wanted) {
    if (o.trace && !report.Has(name)) {
      report.Add(name, 0.0, unit, 0, "layer not exercised by this workload");
    }
  }
  report.Print(o.workload, wanted);
  return report.correct() ? 0 : 1;
}
