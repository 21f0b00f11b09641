// flights_cold: the paper's Example 1.1/4.3 query served in-process by
// QueryService::Execute(..., "pred,qrp,mg") on the fixed acyclic flight
// network. The timed queries cycle through all 147 airport pairs outside
// the warm-up prefix (more than the prepared cache's 64 entries), so each
// misses the cache and pays the full rewrite plus stratified fixpoint (the
// cold path). The seed sets the order of the cycle.
#include <algorithm>
#include <map>
#include <memory>

#include "common.h"
#include "core/optimizer.h"
#include "eval/loader.h"
#include "service/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqlopt::QueryOutcome;
using cqlopt::QueryService;
using cqlopt::Result;

/// Distinct pairs queried during set-up to fill the decision cache: the
/// fixed prefix (k, kAirports - 1 - k), never queried again.
constexpr int kWarmup = 6;
constexpr int kSetupReps = 3;
/// Traced queries replayed through the Optimizer facade to read EvalStats.
constexpr size_t kReplaySample = 12;

FlightQuery WarmupQuery(int k) {
  return FlightQuery{k, kAirports - 1 - k, k % 2 == 1};
}

/// The timed queries: every pair outside the warm-up prefix (147, an odd
/// number, so the traced run's alternating operations visit every pair),
/// in a seeded spread order (each stretch of the cycle mixes cheap and
/// expensive origins in proportion), half of them with the `C <= 100`
/// selection.
/// The variant flips on every lap, so a revisited pair asks the other one.
class QueryCycle {
 public:
  explicit QueryCycle(Rng* rng) {
    for (int s = 0; s < kAirports; ++s) {
      for (int d = s + 1; d < kAirports; ++d) {
        if (s >= kWarmup || d != kAirports - 1 - s) pairs_.emplace_back(s, d);
      }
    }
    order_ = SpreadOrder(pairs_.size(), rng);
  }

  FlightQuery At(long i) const {
    long n = static_cast<long>(pairs_.size());
    const auto& [src, dst] = pairs_[order_[i % n]];
    return FlightQuery{src, dst, ((i + i / n) % 2) == 1};
  }

 private:
  std::vector<std::pair<int, int>> pairs_;  // (src, dst), sorted
  std::vector<size_t> order_;
};

struct Record {
  FlightQuery query;
  bool ok = false;
  std::vector<std::string> answers;
};

/// Evaluates a sample of the traced queries again through the Optimizer
/// facade, the same rewrite and the stratified engine the service forces,
/// and reads the EvalStats and resident bytes the service does not return.
void ReplayEvalStats(const std::string& edb_text,
                     const std::vector<FlightQuery>& sample,
                     const std::vector<int>& service_iterations,
                     Report* report) {
  Result<cqlopt::Optimizer> opt = cqlopt::Optimizer::FromText(kFlightsProgram);
  if (!opt.ok()) Fatal("replay parse: " + opt.status().message());
  cqlopt::Database edb;
  Result<int> loaded =
      cqlopt::LoadDatabaseText(edb_text, opt->program().symbols, &edb);
  if (!loaded.ok()) Fatal("replay load: " + loaded.status().message());
  cqlopt::EvalOptions options;
  options.strategy = cqlopt::EvalStrategy::kStratified;
  EvalCounts counts;
  int mismatched = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    Result<cqlopt::Query> query = opt->ParseQuery(sample[i].Text());
    if (!query.ok()) Fatal("replay query: " + query.status().message());
    Result<cqlopt::PipelineResult> rewritten =
        opt->Rewrite(*query, kFlightsSteps);
    if (!rewritten.ok()) {
      Fatal("replay rewrite: " + rewritten.status().message());
    }
    Result<cqlopt::EvalResult> run =
        opt->Run(rewritten->program, edb, options);
    if (!run.ok()) Fatal("replay run: " + run.status().message());
    counts.Add(rewritten->program.rules.size(), *run);
    if (run->stats.iterations != service_iterations[i]) ++mismatched;
  }
  counts.SetMetrics(report);
  report->Note("EvalStats from a facade replay of " +
               std::to_string(sample.size()) + " traced queries; " +
               std::to_string(mismatched) +
               " differ from the service in iteration count");
}

}  // namespace

int RunFlightsCold(const Args& args) {
  // Inputs: the fixed network; the query cycle's order from the seed.
  Rng rng(args.seed);
  std::vector<Leg> legs = FlightNetwork();
  QueryCycle cycle(&rng);
  const std::string edb_text = EdbText(legs);

  // Set-up: EDB load, service construction and the warm-up prefix, each
  // repetition from cold decision caches; the last service is kept.
  std::unique_ptr<QueryService> service;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    ClearDecisionCaches();
    Clock::time_point start = Clock::now();
    Result<std::unique_ptr<QueryService>> built =
        QueryService::FromText(kFlightsProgram, edb_text);
    if (!built.ok()) Fatal("service: " + built.status().message());
    service = std::move(*built);
    for (int w = 0; w < kWarmup; ++w) {
      Result<QueryOutcome> r =
          service->Execute(WarmupQuery(w).Text(), kFlightsSteps);
      if (!r.ok()) Fatal("warm-up query: " + r.status().message());
    }
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }

  // One operation. Untraced it is one Execute on the cold path; traced,
  // Prepare (the rewrite) and Execute (evaluation on the prepared-eval
  // path) are separate spans.
  Tracer tracer;
  std::vector<Record> records;
  long not_cold = 0;
  long traced_cached = 0;
  double traced_iterations = 0;
  std::vector<FlightQuery> sample;
  std::vector<int> sample_iterations;
  auto serve = [&](const std::string& text) -> Result<QueryOutcome> {
    if (!tracer.enabled()) {
      Result<QueryOutcome> r = service->Execute(text, kFlightsSteps);
      if (r.ok() && r->path != cqlopt::ServePath::kCold) ++not_cold;
      return r;
    }
    tracer.BeginOp();
    bool was_cached = false;
    Result<uint64_t> prepared = tracer.Call("transform.Prepare", [&] {
      return service->Prepare(text, kFlightsSteps, &was_cached);
    });
    Result<QueryOutcome> r =
        prepared.ok() ? tracer.Call("service.Execute", [&] {
          return service->Execute(text, kFlightsSteps);
        })
                      : Result<QueryOutcome>(prepared.status());
    tracer.EndOp("flights.query");
    traced_cached += was_cached ? 1 : 0;
    return r;
  };
  auto op = [&](long i) {
    Record rec{cycle.At(i), false, {}};
    Result<QueryOutcome> r = serve(rec.query.Text());
    if (r.ok() && r->reached_fixpoint) {
      rec.ok = true;
      rec.answers = std::move(r->answers);
      if (tracer.enabled()) {
        traced_iterations += r->iterations_run;
        if (sample.size() < kReplaySample) {
          sample.push_back(rec.query);
          sample_iterations.push_back(r->iterations_run);
        }
      }
    }
    records.push_back(std::move(rec));
    return records.back().ok;
  };

  Report report(args.trace);
  if (!args.trace) {
    Phase phase = RunClosedLoop(args.seconds, op);
    SetEndToEnd(phase, setup_s, PeakRssMb(), &report);
  } else {
    TracedRun run = RunTraced(args.seconds, 1, &tracer, op, [](bool) {});
    SetTracedRun(run, &report);
    double ops = static_cast<double>(std::max(1L, run.traced.ops()));
    report.Set("transform.rewrite_ms", tracer.SumMs("transform.Prepare") / ops);
    report.Set("eval.evaluate_ms", tracer.SumMs("service.Execute") / ops);
    report.Set("service.query_ms.cold",
               Quantile(tracer.DurationsMs("flights.query"), 0.5));
    report.Set("service.prepared_hit_ratio", traced_cached / ops);
    WriteSpans(args, tracer);
    if (!sample.empty()) {
      ReplayEvalStats(edb_text, sample, sample_iterations, &report);
    }
    // Over every traced query rather than the replayed sample.
    report.Set("eval.iterations", traced_iterations / ops);
  }
  if (not_cold > 0) {
    report.Note(std::to_string(not_cold) +
                " untraced queries missed the cold path");
  }

  // Answers against the depth-first reference, outside the timed window.
  std::map<FlightQuery, AnswerSet> reference;
  int mismatches = 0;
  for (const Record& rec : records) {
    if (!rec.ok) continue;
    auto it = reference.find(rec.query);
    if (it == reference.end()) {
      it = reference.emplace(rec.query, ReferenceAnswers(legs, rec.query))
               .first;
    }
    AnswerSet got;
    if (!ParseAnswers(rec.answers, rec.query, &got) || got != it->second) {
      if (++mismatches <= 3) {
        report.Note("MISMATCH " + rec.query.Text() + ": " +
                    std::to_string(rec.answers.size()) + " answers vs " +
                    std::to_string(it->second.size()) + " expected" +
                    (rec.answers.empty() ? "" : ", first " + rec.answers[0]));
      }
    }
  }
  report.correct = mismatches == 0;
  return report.Print();
}

}  // namespace perfbench
