// Entry points of the three workloads. Each generates its inputs from
// args.seed, runs its set-up and timed phases, checks every answer against
// its reference, prints the report, and returns the exit status.
#ifndef CQLOPT_PERFBENCH_WORKLOADS_H_
#define CQLOPT_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

int RunFlightsCold(const Args& args);
int RunServeRw(const Args& args);
int RunProgramCorpus(const Args& args);

}  // namespace perfbench

#endif  // CQLOPT_PERFBENCH_WORKLOADS_H_
