#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

// One entry point per workload. Each returns a process exit code and fills
// `report`; every workload reports every end-to-end metric, and with
// args.trace the per-layer metrics of the layers it exercises.

namespace perfbench {

int RunTrainKaist(const Args& args, Report* report);
int RunServeKaist(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
