// The benchmark binary:
//
//   perfbench --workload <flights_cold|serve_rw|program_corpus>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--tmp-dir <dir>]
//
// Prints a human-readable table (lines starting with `#`) and, as the last
// line of stdout, one JSON object with `correct`, `attempted`, `failed` and
// `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
// of a run alternating untraced and traced blocks with --trace 1. Exits 1
// when an answer differs from its reference and 2 when the run could not
// be made.
#include <sched.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

perfbench::Args ParseArgs(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) perfbench::Fatal("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        perfbench::Fatal("--trace takes 0 or 1");
      }
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--tmp-dir") {
      args.tmp_dir = value;
    } else {
      perfbench::Fatal("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') {
      perfbench::Fatal("bad value for " + flag + ": " + value);
    }
  }
  if (!(args.seconds > 0)) perfbench::Fatal("--seconds must be positive");
  return args;
}

/// Pins the process, and so every thread it starts, to the last two CPUs
/// it may run on. Unpinned, the hand-offs between serve_rw's client,
/// serve-loop and worker threads landed on varying cores and its
/// epoch-hit latency moved by 40% between runs of one seed.
void PinToTwoCpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int n = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n < 2; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++n;
    }
  }
  (void)sched_setaffinity(0, sizeof(pinned), &pinned);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args = ParseArgs(argc, argv);
  PinToTwoCpus();
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  std::filesystem::create_directories(args.tmp_dir, ec);
  if (args.workload == "flights_cold") return perfbench::RunFlightsCold(args);
  if (args.workload == "serve_rw") return perfbench::RunServeRw(args);
  if (args.workload == "program_corpus") {
    return perfbench::RunProgramCorpus(args);
  }
  perfbench::Fatal("unknown workload '" + args.workload + "'");
}
