// perfbench_driver: runs one benchmark workload in this process and prints
// facts, one line per metric, and a final JSON result line. perfbench/run.py
// builds it, runs it under a watchdog and selects the metrics to report.
//
//   perfbench_driver --workload <train_kaist|serve_kaist>
//                    --seed <n> --seconds <s> --trace <0|1> --scratch <dir>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      ok = false;
      break;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      ok = false;
    }
  }
  int (*run)(const perfbench::Args&, perfbench::Report*) = nullptr;
  if (args.workload == "train_kaist") run = perfbench::RunTrainKaist;
  if (args.workload == "serve_kaist") run = perfbench::RunServeKaist;
  if (!ok || run == nullptr || args.seconds <= 0.0 || args.scratch.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "<train_kaist|serve_kaist> --seed N --seconds S "
                 "--trace 0|1 --scratch DIR\n");
    return 2;
  }
  if (!perfbench::PrintFacts(args)) return 2;

  perfbench::Report report;
  const int code = run(args, &report);
  if (code != 0) return code;
  report.Metric("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  report.Metric("fail_frac",
                static_cast<double>(report.failed()) /
                    static_cast<double>(report.attempted()),
                "ratio", "failed or mismatched over attempted operations");
  report.Print();
  return report.failed() == 0 ? 0 : 1;
}
