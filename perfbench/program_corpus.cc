// program_corpus: a corpus of testing::GenerateCase programs (default
// GenOptions: Section 5's termination class, so every fixpoint ends), each
// run through the Optimizer facade with default options — FromText →
// LoadDatabaseText → Rewrite(q, "pred,qrp,mg") → Run → QueryAnswers.
// Relations are tiny, so parsing and rewriting carry a large share of each
// operation. The corpus is a fixed dataset (drawn from kCorpusSeed): its
// cost is heavy-tailed, and corpora drawn per seed differed by a factor of
// almost three in throughput. The seed sets the order the corpus is cycled
// in.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.h"
#include "core/equivalence.h"
#include "core/optimizer.h"
#include "eval/loader.h"
#include "testing/generator.h"
#include "testing/oracle.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqlopt::Fact;
using cqlopt::Result;

/// More than twice the prepared cache's 64 entries, bounded by the oracle,
/// which needs ≈45 ms a program to compute the references. Odd, so the
/// traced run's alternating operations visit every program.
constexpr int kCorpusSize = 129;
constexpr uint64_t kCorpusSeed = 7;
constexpr int kSetupReps = 3;

struct Case {
  std::string program_text;
  std::string edb_text;
  /// Reference answers of the unrewritten program (naive oracle).
  std::vector<Fact> expected;
};

/// Draws the corpus. Cases the oracle cannot finish within its round cap
/// are redrawn — they have no reference to check against.
std::vector<Case> DrawCorpus(long* redrawn) {
  Rng rng(kCorpusSeed);
  std::vector<Case> corpus;
  while (static_cast<int>(corpus.size()) < kCorpusSize) {
    cqlopt::testing::FuzzCase fc = cqlopt::testing::GenerateCase(
        rng.Next(), cqlopt::testing::GenOptions{});
    Result<cqlopt::testing::OracleResult> oracle =
        cqlopt::testing::OracleEvaluate(fc.program, fc.edb);
    if (!oracle.ok() || !oracle->reached_fixpoint) {
      ++*redrawn;
      continue;
    }
    Result<std::vector<Fact>> expected =
        cqlopt::testing::OracleQueryAnswers(*oracle, fc.query);
    if (!expected.ok()) Fatal("oracle answers: " + expected.status().message());
    corpus.push_back(Case{cqlopt::testing::RenderCaseProgram(fc),
                          cqlopt::testing::RenderCaseEdb(fc),
                          std::move(*expected)});
  }
  return corpus;
}

struct Record {
  int case_index = 0;
  bool ok = false;
  /// Generated programs carry numeric constants only, so answer constraints
  /// compare across symbol tables without re-interning.
  std::vector<Fact> answers;
};

/// One operation: the whole facade path for one corpus program.
Record RunCase(const std::vector<Case>& corpus, int case_index,
               Tracer& tracer, EvalCounts* counts) {
  Record rec;
  rec.case_index = case_index;
  const Case& c = corpus[rec.case_index];
  tracer.BeginOp();
  Result<cqlopt::Optimizer> opt = tracer.Call("ast.FromText", [&] {
    return cqlopt::Optimizer::FromText(c.program_text);
  });
  if (!opt.ok() || opt->queries().empty()) {
    tracer.EndOp("corpus.program");
    return rec;
  }
  cqlopt::Database edb;
  Result<int> loaded = tracer.Call("eval.LoadDatabaseText", [&] {
    return cqlopt::LoadDatabaseText(c.edb_text, opt->program().symbols, &edb);
  });
  Result<cqlopt::PipelineResult> rewritten =
      loaded.ok() ? tracer.Call("transform.Rewrite", [&] {
        return opt->Rewrite(opt->queries().front(), "pred,qrp,mg");
      })
                  : Result<cqlopt::PipelineResult>(loaded.status());
  Result<cqlopt::EvalResult> run =
      rewritten.ok() ? tracer.Call("eval.Run", [&] {
        return opt->Run(rewritten->program, edb);
      })
                     : Result<cqlopt::EvalResult>(rewritten.status());
  Result<std::vector<Fact>> answers =
      run.ok() ? tracer.Call("core.QueryAnswers", [&] {
        return cqlopt::QueryAnswers(*run, rewritten->query);
      })
               : Result<std::vector<Fact>>(run.status());
  tracer.EndOp("corpus.program");
  if (!answers.ok() || !run->stats.reached_fixpoint) return rec;
  rec.ok = true;
  rec.answers = std::move(*answers);
  if (counts != nullptr) counts->Add(rewritten->program.rules.size(), *run);
  return rec;
}

}  // namespace

int RunProgramCorpus(const Args& args) {
  long redrawn = 0;
  Clock::time_point inputs_start = Clock::now();
  std::vector<Case> corpus = DrawCorpus(&redrawn);
  Rng rng(args.seed);
  std::vector<size_t> order = SpreadOrder(corpus.size(), &rng);
  std::fprintf(stderr, "perfbench: corpus drawn in %.2f s\n",
               MsBetween(inputs_start, Clock::now()) / 1000.0);

  // Set-up: one lap of the corpus through the facade, from cold decision
  // caches each repetition, so the timed laps run with the caches filled.
  std::vector<double> setup_s;
  Tracer tracer;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ClearDecisionCaches();
    Clock::time_point start = Clock::now();
    for (int w = 0; w < kCorpusSize; ++w) {
      if (!RunCase(corpus, w, tracer, nullptr).ok) {
        Fatal("warm-up program " + std::to_string(w) + " failed");
      }
    }
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }

  // Answers against the naive oracle on the unrewritten program. A checked
  // record drops its answers, so that memory stays with the program.
  Report report(args.trace);
  int mismatches = 0;
  auto check = [&](Record& rec) {
    if (!rec.ok) return;
    const Case& c = corpus[rec.case_index];
    if (!cqlopt::SameAnswers(rec.answers, c.expected) && ++mismatches <= 3) {
      report.Note("MISMATCH corpus program " + std::to_string(rec.case_index) +
                  ": " + std::to_string(rec.answers.size()) +
                  " answers vs " + std::to_string(c.expected.size()) +
                  " expected");
    }
    rec.answers = {};
  };

  std::vector<Record> records;
  EvalCounts counts;  // over the traced operations
  auto op = [&](long i) {
    int index = static_cast<int>(order[i % static_cast<long>(order.size())]);
    records.push_back(
        RunCase(corpus, index, tracer, tracer.enabled() ? &counts : nullptr));
    return records.back().ok;
  };

  if (!args.trace) {
    // Each answer is checked right after its operation, outside the timed
    // operations: kept until the end of the window, the answers grew peak
    // RSS by ≈1.2 KiB per operation, so peak_rss_mb followed the host's
    // speed rather than the program's memory.
    Phase phase = RunClosedLoop(args.seconds, op,
                                [&](long) { check(records.back()); });
    // Every lap runs each program once, so each program's median time is
    // taken over the whole window. The sub-window rates each covered a
    // different stretch of the heavy-tailed cost mix, and their median
    // spread (IQR over median) by 0.13 and 0.29 in two sets of ten seeds.
    for (const Record& rec : records) phase.keys.push_back(rec.case_index);
    SetEndToEnd(phase, setup_s, PeakRssMb(), &report);
  } else {
    TracedRun run = RunTraced(args.seconds, 1, &tracer, op, [](bool) {});
    for (Record& rec : records) check(rec);
    SetTracedRun(run, &report);
    double ops = static_cast<double>(std::max(1L, run.traced.ops()));
    report.Set("ast.parse_ms", tracer.SumMs("ast.FromText") / ops);
    report.Set("eval.load_ms", tracer.SumMs("eval.LoadDatabaseText") / ops);
    report.Set("transform.rewrite_ms", tracer.SumMs("transform.Rewrite") / ops);
    report.Set("eval.evaluate_ms", tracer.SumMs("eval.Run") / ops);
    counts.SetMetrics(&report);
    WriteSpans(args, tracer);
  }
  report.Note("corpus=" + std::to_string(corpus.size()) +
              " programs, redrawn (oracle capped)=" + std::to_string(redrawn));
  report.correct = mismatches == 0;
  return report.Print();
}

}  // namespace perfbench
