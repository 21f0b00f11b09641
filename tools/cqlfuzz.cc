// cqlfuzz: seeded differential fuzzing driver (DESIGN.md §9). Generates
// random CQL programs / queries / EDBs from a single seed and checks the
// metamorphic properties of src/testing/properties.h against them. On a
// failure the case is delta-debugged down to a minimal repro, written to
// the corpus directory (when --corpus-out is given), and the exact replay
// command line is printed.
//
//   cqlfuzz --seed 42 --iters 1000 --property all
//   cqlfuzz --seed 42 --iters 250 --faults        # crash-recovery only
//   cqlfuzz --seed 7331 --iters 1 --property rewrite_equiv   # replay
//   cqlfuzz --self-check --corpus-out tests/fuzz_corpus      # harness test
//   cqlfuzz --replay tests/fuzz_corpus/selfcheck-qrp-drop-atom.cql
//   cqlfuzz --list
//
// Every run is a pure function of --seed: iteration i fuzzes the case
// derived via Rng::DeriveSeed(seed, i), so `--seed S --iters 1` after
// seeing "iteration i (case seed S_i)" reproduces without replaying
// 0..i-1. Exit codes: 0 all checked properties held (or --self-check
// caught its planted bug), 1 a property failed (or --self-check did not
// catch the bug), 2 usage error.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "ast/printer.h"
#include "eval/validate.h"
#include "numeric_flags.h"
#include "testing/corpus.h"
#include "testing/generator.h"
#include "testing/properties.h"
#include "testing/shrinker.h"

namespace {

using cqlopt::ValidateProgram;
using cqlopt::testing::AllProperties;
using cqlopt::testing::CorpusCase;
using cqlopt::testing::FindProperty;
using cqlopt::testing::FuzzCase;
using cqlopt::testing::FuzzOptions;
using cqlopt::testing::GenerateCase;
using cqlopt::testing::GenOptions;
using cqlopt::testing::LoadCorpusFile;
using cqlopt::testing::PlantedBug;
using cqlopt::testing::PlantedBugName;
using cqlopt::testing::PropertyInfo;
using cqlopt::testing::PropertyOutcome;
using cqlopt::testing::RenderCaseProgram;
using cqlopt::testing::Rng;
using cqlopt::testing::ShrinkCase;
using cqlopt::testing::ShrinkStats;
using cqlopt::testing::WriteCorpusFile;

struct Args {
  uint64_t seed = 1;
  int iters = 100;
  std::string property = "all";
  bool self_check = false;
  bool list = false;
  std::string corpus_out;  // directory; empty = don't write repro files
  std::string replay;      // corpus file to replay
};

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--seed N] [--iters N] [--property NAME|all] [--corpus-out DIR]\n"
      << "       [--faults] [--self-check] [--replay FILE.cql] [--list]\n";
  return 2;
}

/// Usage errors in flag values print their own message naming the flag and
/// set `*bad_value`; other usage errors print the usage line.
bool ParseArgs(int argc, char** argv, Args* args, bool* bad_value) {
  const std::vector<cqlopt_tools::NumericFlag> numeric_flags = {
      {"--iters", 1, std::numeric_limits<int>::max(),
       cqlopt_tools::Store(&args->iters)},
  };
  for (int i = 1; i < argc; ++i) {
    cqlopt_tools::FlagMatch numeric = cqlopt_tools::MatchNumericFlag(
        "cqlfuzz", numeric_flags, argc, argv, &i);
    if (numeric == cqlopt_tools::FlagMatch::kBad) {
      *bad_value = true;
      return false;
    }
    if (numeric == cqlopt_tools::FlagMatch::kParsed) continue;
    std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--seed") {
      const char* seed = i + 1 < argc ? argv[++i] : nullptr;
      if (seed == nullptr || !cqlopt_tools::ParseUint64(seed, &args->seed)) {
        std::cerr << "cqlfuzz: --seed needs an integer in [0, "
                  << std::numeric_limits<uint64_t>::max() << "], got "
                  << (seed == nullptr ? "nothing"
                                      : "'" + std::string(seed) + "'")
                  << "\n";
        *bad_value = true;
        return false;
      }
    } else if (flag == "--property" && value(&v)) {
      args->property = v;
    } else if (flag == "--corpus-out" && value(&v)) {
      args->corpus_out = v;
    } else if (flag == "--replay" && value(&v)) {
      args->replay = v;
    } else if (flag == "--faults") {
      // Fault-injection mode: shorthand for the crash-recovery property
      // (WAL crash at every fail-point site, recover, compare to the
      // never-crashed run). The CI fault job runs exactly this.
      args->property = "crash_recovery";
    } else if (flag == "--self-check") {
      args->self_check = true;
    } else if (flag == "--list") {
      args->list = true;
    } else {
      return false;
    }
  }
  return true;
}

std::vector<const PropertyInfo*> SelectProperties(const std::string& name) {
  std::vector<const PropertyInfo*> selected;
  if (name == "all") {
    for (const PropertyInfo& info : AllProperties()) selected.push_back(&info);
  } else if (const PropertyInfo* info = FindProperty(name)) {
    selected.push_back(info);
  }
  return selected;
}

/// Shrinks a failing case, reports it, and writes the corpus repro.
/// Returns the shrunk case's rule count.
size_t HandleFailure(const Args& args, const PropertyInfo& property,
                     const FuzzCase& failing, const FuzzOptions& fuzz,
                     const std::string& message) {
  std::cerr << "FAIL " << property.name << " (case seed " << failing.seed
            << "): " << message << "\n";
  ShrinkStats stats;
  FuzzCase shrunk = ShrinkCase(failing, property, fuzz, {}, &stats);
  std::cerr << "shrunk to " << shrunk.program.rules.size() << " rule(s), "
            << shrunk.edb.size() << " EDB fact(s) in " << stats.attempts
            << " attempts\n";
  std::cerr << RenderCaseProgram(shrunk);
  if (!args.corpus_out.empty()) {
    std::string name =
        std::string(property.name) +
        (fuzz.bug != PlantedBug::kNone
             ? std::string("-") + PlantedBugName(fuzz.bug)
             : std::string("")) +
        "-" + std::to_string(failing.seed) + ".cql";
    std::string path = args.corpus_out + "/" + name;
    auto status = WriteCorpusFile(path, shrunk, property.name, fuzz.bug,
                                  message);
    if (status.ok()) {
      std::cerr << "repro written to " << path << "\n";
    } else {
      std::cerr << "could not write repro: " << status.ToString() << "\n";
    }
  }
  std::cerr << "replay: cqlfuzz --seed " << failing.seed
            << " --iters 1 --property " << property.name
            << (fuzz.bug != PlantedBug::kNone ? " --self-check" : "") << "\n";
  return shrunk.program.rules.size();
}

int RunFuzz(const Args& args) {
  std::vector<const PropertyInfo*> properties =
      SelectProperties(args.property);
  if (properties.empty()) {
    std::cerr << "unknown property: " << args.property
              << " (try --list)\n";
    return 2;
  }
  FuzzOptions fuzz;
  GenOptions gen;
  long checked = 0, skipped = 0;
  for (int i = 0; i < args.iters; ++i) {
    uint64_t case_seed = Rng::DeriveSeed(args.seed,
                                         static_cast<uint64_t>(i));
    FuzzCase c = GenerateCase(case_seed, gen);
    if (!ValidateProgram(c.program).ok()) {
      // The generator guarantees valid programs; a rejection here is a
      // generator bug worth failing loudly on.
      std::cerr << "FAIL generator emitted an invalid program (case seed "
                << case_seed << ")\n";
      return 1;
    }
    for (const PropertyInfo* property : properties) {
      PropertyOutcome outcome = property->fn(c, fuzz);
      if (!outcome.ok) {
        HandleFailure(args, *property, c, fuzz, outcome.message);
        return 1;
      }
      outcome.skipped ? ++skipped : ++checked;
    }
  }
  std::cout << "OK " << args.iters << " cases, " << checked
            << " property checks, " << skipped << " skipped (seed "
            << args.seed << ")\n";
  return 0;
}

/// --self-check: plant a pipeline bug and prove the harness catches it and
/// shrinks the repro to a handful of rules.
int RunSelfCheck(const Args& args) {
  const PropertyInfo* property = FindProperty("rewrite_equiv");
  if (property == nullptr) return 2;
  for (PlantedBug bug :
       {PlantedBug::kDropConstraintAtom, PlantedBug::kDropRule}) {
    FuzzOptions fuzz;
    fuzz.bug = bug;
    GenOptions gen;
    bool caught = false;
    for (int i = 0; i < args.iters && !caught; ++i) {
      uint64_t case_seed = Rng::DeriveSeed(args.seed,
                                           static_cast<uint64_t>(i));
      FuzzCase c = GenerateCase(case_seed, gen);
      PropertyOutcome outcome = property->fn(c, fuzz);
      if (outcome.ok) continue;
      caught = true;
      size_t rules =
          HandleFailure(args, *property, c, fuzz, outcome.message);
      if (rules > 10) {
        std::cerr << "self-check: shrunk repro has " << rules
                  << " rules, expected <= 10\n";
        return 1;
      }
    }
    if (!caught) {
      std::cerr << "self-check: planted bug " << PlantedBugName(bug)
                << " was NOT caught in " << args.iters << " iterations\n";
      return 1;
    }
    std::cout << "self-check: planted bug " << PlantedBugName(bug)
              << " caught and shrunk\n";
  }
  return 0;
}

/// --replay: run a corpus file's property, honoring its `% bug:` header.
/// A `% bug:` repro passes the replay when the property still *fails*
/// (the harness keeps catching the planted bug); a plain repro passes
/// when the property holds (the engine bug stays fixed).
int RunReplay(const Args& args) {
  auto loaded = LoadCorpusFile(args.replay);
  if (!loaded.ok()) {
    std::cerr << args.replay << ": " << loaded.status().ToString() << "\n";
    return 2;
  }
  const PropertyInfo* property = FindProperty(loaded->property);
  if (property == nullptr) {
    std::cerr << args.replay << ": unknown property " << loaded->property
              << "\n";
    return 2;
  }
  FuzzOptions fuzz;
  fuzz.bug = loaded->bug;
  PropertyOutcome outcome = property->fn(loaded->c, fuzz);
  bool expect_failure = loaded->bug != PlantedBug::kNone;
  bool failed = !outcome.ok;
  std::cout << args.replay << ": " << loaded->property
            << (failed ? " FAILED" : outcome.skipped ? " skipped" : " ok");
  if (!outcome.message.empty()) std::cout << " (" << outcome.message << ")";
  std::cout << (expect_failure ? " [planted bug: expected to fail]" : "")
            << "\n";
  return failed == expect_failure ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool bad_value = false;
  if (!ParseArgs(argc, argv, &args, &bad_value)) {
    return bad_value ? 2 : Usage(argv[0]);
  }
  if (args.list) {
    for (const PropertyInfo& info : AllProperties()) {
      std::cout << info.name << "\t" << info.summary << "\n";
    }
    return 0;
  }
  if (!args.replay.empty()) return RunReplay(args);
  if (args.self_check) return RunSelfCheck(args);
  return RunFuzz(args);
}
