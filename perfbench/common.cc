#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <tuple>

#include "constraint/decision_cache.h"
#include "constraint/interval.h"

namespace perfbench {

void Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Rng::Uniform(int lo, int hi) {
  return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

// ---- Tracer ---------------------------------------------------------------

void Tracer::BeginOp() {
  if (enabled_) op_start_ = Clock::now();
}

void Tracer::EndOp(const char* name) {
  if (!enabled_) return;
  spans_.push_back(Span{name, op_start_, Clock::now(), next_op_, true});
  ++next_op_;
}

Tracer::ChildScope::ChildScope(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name), start_(Clock::now()) {}

Tracer::ChildScope::~ChildScope() {
  tracer_->spans_.push_back(
      Span{name_, start_, Clock::now(), tracer_->next_op_, false});
}

double Tracer::SumMs(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (name == s.name) sum += MsBetween(s.start, s.end);
  }
  return sum;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(MsBetween(s.start, s.end));
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    // Children sit on the thread row under their root; the op id links a
    // root to its children.
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %ld, "
                  "\"root\": %s}}%s\n",
                  s.name, us(s.start), us(s.end) - us(s.start), s.op,
                  s.root ? "true" : "false",
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- Statistics -----------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

ConstraintCounters ConstraintCounters::Now() {
  cqlopt::DecisionCache::Counters cache =
      cqlopt::DecisionCache::Instance().Snapshot();
  cqlopt::prepass::Counters pre = cqlopt::prepass::Snapshot();
  ConstraintCounters c;
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  c.prepass_conclusive = pre.conclusive();
  c.prepass_fallback = pre.fallback;
  return c;
}

ConstraintCounters ConstraintCounters::Minus(
    const ConstraintCounters& earlier) const {
  ConstraintCounters d;
  d.cache_hits = cache_hits - earlier.cache_hits;
  d.cache_misses = cache_misses - earlier.cache_misses;
  d.prepass_conclusive = prepass_conclusive - earlier.prepass_conclusive;
  d.prepass_fallback = prepass_fallback - earlier.prepass_fallback;
  return d;
}

void ConstraintCounters::Add(const ConstraintCounters& delta) {
  cache_hits += delta.cache_hits;
  cache_misses += delta.cache_misses;
  prepass_conclusive += delta.prepass_conclusive;
  prepass_fallback += delta.prepass_fallback;
}

void ClearDecisionCaches() {
  cqlopt::DecisionCache::Instance().Clear();
  cqlopt::prepass::ClearMemo();
}

// ---- Report ---------------------------------------------------------------

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json's end_to_end and per_layer lists (test_run.py
// checks that the two agree).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_ops_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"ast.parse_ms", "ms"},
    {"eval.load_ms", "ms"},
    {"transform.rewrite_ms", "ms"},
    {"transform.rules_out", "count/op"},
    {"eval.evaluate_ms", "ms"},
    {"eval.iterations", "count/op"},
    {"eval.derivations", "count/op"},
    {"eval.useful_ratio", "ratio"},
    {"eval.subsumed", "count/op"},
    {"eval.index_candidates", "count/op"},
    {"eval.scan_candidates", "count/op"},
    {"eval.interval_candidates", "count/op"},
    {"eval.bytes_per_fact", "B/fact"},
    {"constraint.cache_hits", "count/op"},
    {"constraint.cache_misses", "count/op"},
    {"constraint.cache_hit_ratio", "ratio"},
    {"constraint.prepass_conclusive", "count/op"},
    {"constraint.prepass_fallback", "count/op"},
    {"constraint.prepass_conclusive_ratio", "ratio"},
    {"service.query_ms.cold", "ms"},
    {"service.query_ms.epoch-hit", "ms"},
    {"service.query_ms.resumed", "ms"},
    {"service.query_ms.resumed_p90", "ms"},
    {"service.ingest_ms", "ms"},
    {"service.retract_ms", "ms"},
    {"service.prepared_hit_ratio", "ratio"},
    {"service.resumes", "count/op"},
    {"service.resumed_iterations", "count/resume"},
    {"service.retract_resumes", "count/op"},
    {"service.wal_appends", "count/op"},
    {"service.wal_bytes_per_write", "B/write"},
    {"service.sched_wait_ms", "ms"},
    {"service.sched_run_ms", "ms"},
    {"service.transport_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

Report::Report(bool trace) {
  if (trace) {
    for (const MetricDef& d : kPerLayer) metrics_.push_back({d.name, d.unit});
  } else {
    for (const MetricDef& d : kEndToEnd) metrics_.push_back({d.name, d.unit});
  }
}

void Report::Set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  Fatal("unknown metric " + name);
}

int Report::Print() const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  std::printf("# attempted=%ld failed=%ld failed_frac=%.6f correct=%s\n",
              attempted, failed,
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              correct ? "yes" : "NO");
  for (const Metric& m : metrics_) {
    std::printf("# %-38s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    json << (i > 0 ? ", " : "") << "\"" << metrics_[i].name
         << "\": {\"value\": " << value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void EvalCounts::Add(size_t rules, const cqlopt::EvalResult& run) {
  const cqlopt::EvalStats& s = run.stats;
  ++evaluations;
  rules_out += static_cast<long>(rules);
  iterations += s.iterations;
  derivations += s.derivations;
  inserted += s.inserted;
  subsumed += s.subsumed;
  index_candidates += s.index_candidates;
  scan_candidates += s.scan_candidates;
  interval_candidates += s.interval_candidates;
  bytes += static_cast<double>(run.db.ApproxBytes());
  facts += static_cast<double>(run.db.TotalFacts());
}

void EvalCounts::SetMetrics(Report* report) const {
  double n = static_cast<double>(std::max(1L, evaluations));
  report->Set("transform.rules_out", rules_out / n);
  report->Set("eval.iterations", iterations / n);
  report->Set("eval.derivations", derivations / n);
  report->Set("eval.useful_ratio",
              derivations > 0 ? static_cast<double>(inserted) / derivations
                              : 0);
  report->Set("eval.subsumed", subsumed / n);
  report->Set("eval.index_candidates", index_candidates / n);
  report->Set("eval.scan_candidates", scan_candidates / n);
  report->Set("eval.interval_candidates", interval_candidates / n);
  report->Set("eval.bytes_per_fact", facts > 0 ? bytes / facts : 0);
}

namespace {

/// Each operation's latency replaced by the median latency of the
/// operations with its key; sets *min_samples to the fewest operations any
/// key has.
std::vector<double> KeyMedians(const Phase& phase, long* min_samples) {
  std::map<long, std::vector<double>> by_key;
  for (long i = 0; i < phase.ops(); ++i) {
    by_key[phase.keys[i]].push_back(phase.latencies_ms[i]);
  }
  std::map<long, double> median;
  *min_samples = by_key.empty() ? 0 : phase.ops();
  for (const auto& [key, latencies] : by_key) {
    median[key] = Quantile(latencies, 0.5);
    *min_samples = std::min(*min_samples, static_cast<long>(latencies.size()));
  }
  std::vector<double> typical;
  typical.reserve(phase.keys.size());
  for (long key : phase.keys) typical.push_back(median[key]);
  return typical;
}

}  // namespace

void SetEndToEnd(const Phase& phase, const std::vector<double>& setup_s,
                 double peak_rss_mb, Report* report) {
  report->Set("setup_s", Quantile(setup_s, 0.5));
  report->Note("timed ops=" + std::to_string(phase.ops()) +
               " setup repetitions=" + std::to_string(setup_s.size()) +
               "; whole window " +
               std::to_string(phase.elapsed_s > 0
                                  ? phase.ops() / phase.elapsed_s
                                  : 0) +
               " ops/s");
  report->attempted += phase.ops();
  report->failed += phase.failed;
  if (!phase.keys.empty()) {
    if (static_cast<long>(phase.keys.size()) != phase.ops()) {
      Fatal("one key per timed operation expected");
    }
    long min_samples = 0;
    std::vector<double> typical = KeyMedians(phase, &min_samples);
    double total_ms = std::accumulate(typical.begin(), typical.end(), 0.0);
    report->Set("throughput_ops_s",
                total_ms > 0 ? phase.ops() / (total_ms / 1000.0) : 0);
    report->Set("latency_p50_ms", Quantile(typical, 0.5));
    report->Set("latency_p90_ms", Quantile(typical, 0.9));
    report->Set("peak_rss_mb", peak_rss_mb);
    report->Note("per-key medians; fewest operations of one key=" +
                 std::to_string(min_samples));
    return;
  }
  double slice_s = phase.elapsed_s / kSubWindows;
  std::vector<double> per_slice(kSubWindows, 0);
  for (double end : phase.end_s) {
    int k = slice_s > 0 ? static_cast<int>(end / slice_s) : 0;
    per_slice[std::min(k, kSubWindows - 1)] += 1;
  }
  std::string rates;
  for (double& ops : per_slice) {
    ops = slice_s > 0 ? ops / slice_s : 0;
    char rate[32];
    std::snprintf(rate, sizeof(rate), " %.2f", ops);
    rates += rate;
  }
  report->Set("throughput_ops_s", Quantile(per_slice, 0.5));
  report->Set("latency_p50_ms", Quantile(phase.latencies_ms, 0.5));
  report->Set("latency_p90_ms", Quantile(phase.latencies_ms, 0.9));
  report->Set("peak_rss_mb", peak_rss_mb);
  report->Note("ops/s per sub-window:" + rates);
}

void SetTracedRun(const TracedRun& run, Report* report) {
  double base = run.untraced.mean_ms();
  report->Set("trace.overhead_pct",
              base > 0 ? (run.traced.mean_ms() / base - 1.0) * 100.0 : 0);
  const ConstraintCounters& c = run.constraint;
  double ops = static_cast<double>(std::max(1L, run.traced.ops()));
  double decisions = static_cast<double>(c.cache_hits + c.cache_misses);
  double probes =
      static_cast<double>(c.prepass_conclusive + c.prepass_fallback);
  report->Set("constraint.cache_hits", c.cache_hits / ops);
  report->Set("constraint.cache_misses", c.cache_misses / ops);
  report->Set("constraint.cache_hit_ratio",
              decisions > 0 ? c.cache_hits / decisions : 0);
  report->Set("constraint.prepass_conclusive", c.prepass_conclusive / ops);
  report->Set("constraint.prepass_fallback", c.prepass_fallback / ops);
  report->Set("constraint.prepass_conclusive_ratio",
              probes > 0 ? c.prepass_conclusive / probes : 0);
  report->attempted += run.untraced.ops() + run.traced.ops();
  report->failed += run.untraced.failed + run.traced.failed;
  report->Note("untraced ops=" + std::to_string(run.untraced.ops()) +
               " traced ops=" + std::to_string(run.traced.ops()));
}

Clock::time_point DeadlineAfter(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

void WriteSpans(const Args& args, const Tracer& tracer) {
  std::string path = args.out_dir + "/" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".trace.json";
  if (!tracer.WriteChromeTrace(path)) Fatal("cannot write " + path);
  std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
}

// ---- Flight networks ------------------------------------------------------

const char kFlightsProgram[] =
    "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n"
    "r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n"
    "r3: flight(S, D, T, C) :- singleleg(S, D, T, C), C > 0, T > 0.\n"
    "r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),\n"
    "                          T = T1 + T2 + 30, C = C1 + C2.\n";

const char kFlightsSteps[] = "pred,qrp,mg";

bool Leg::operator<(const Leg& o) const {
  return std::tie(src, dst, time, cost) <
         std::tie(o.src, o.dst, o.time, o.cost);
}

bool Leg::operator==(const Leg& o) const {
  return std::tie(src, dst, time, cost) ==
         std::tie(o.src, o.dst, o.time, o.cost);
}

std::string Leg::Statement() const {
  return "singleleg(a" + std::to_string(src) + ", a" + std::to_string(dst) +
         ", " + std::to_string(time) + ", " + std::to_string(cost) + ").";
}

Leg RandomLeg(Rng* rng) {
  Leg leg;
  leg.src = rng->Uniform(0, kAirports - 1);
  leg.dst = rng->Uniform(0, kAirports - 1);
  if (leg.dst == leg.src) leg.dst = (leg.dst + 1) % kAirports;
  if (leg.src > leg.dst) std::swap(leg.src, leg.dst);
  leg.time = rng->Uniform(30, 600);
  leg.cost = rng->Uniform(20, 400);
  return leg;
}

std::vector<Leg> FlightNetwork() {
  Rng rng(kNetworkSeed);
  std::set<Leg> seen;
  std::vector<Leg> legs;
  while (static_cast<int>(legs.size()) < kLegs) {
    Leg leg = RandomLeg(&rng);
    if (seen.insert(leg).second) legs.push_back(leg);
  }
  return legs;
}

std::string EdbText(const std::vector<Leg>& legs) {
  std::string text;
  for (const Leg& leg : legs) text += leg.Statement() + "\n";
  return text;
}

std::string FlightQuery::Text() const {
  return "?- cheaporshort(a" + std::to_string(src) + ", a" +
         std::to_string(dst) + ", T, C)" +
         (cost_selection ? ", C <= 100." : ".");
}

bool FlightQuery::operator<(const FlightQuery& o) const {
  return std::tie(src, dst, cost_selection) <
         std::tie(o.src, o.dst, o.cost_selection);
}

std::vector<size_t> SpreadOrder(size_t n, Rng* rng) {
  std::vector<size_t> order;
  if (n == 0) return order;
  size_t stride = std::max<size_t>(1, static_cast<size_t>(n * 0.6180339887));
  while (std::gcd(stride, n) != 1) ++stride;
  size_t at = rng->Next() % n;
  for (size_t j = 0; j < n; ++j, at = (at + stride) % n) order.push_back(at);
  return order;
}

AnswerSet ReferenceAnswers(const std::vector<Leg>& legs,
                           const FlightQuery& query) {
  std::vector<std::vector<const Leg*>> out;
  for (const Leg& leg : legs) {
    if (static_cast<int>(out.size()) <= leg.src) out.resize(leg.src + 1);
    out[leg.src].push_back(&leg);
  }
  AnswerSet answers;
  std::function<void(int, long, long)> visit = [&](int at, long time,
                                                   long cost) {
    if (at >= static_cast<int>(out.size())) return;
    for (const Leg* leg : out[at]) {
      long t = time < 0 ? leg->time : time + leg->time + 30;
      long c = (time < 0 ? 0 : cost) + leg->cost;
      if (t > 240 && c > 150) continue;
      if (leg->dst == query.dst && (!query.cost_selection || c <= 100)) {
        answers.emplace(t, c);
      }
      visit(leg->dst, t, c);
    }
  };
  visit(query.src, -1, 0);
  return answers;
}

bool ParseAnswers(const std::vector<std::string>& rendered,
                  const FlightQuery& query, AnswerSet* out) {
  // The served predicate is the rewritten query predicate (for example
  // `cheaporshort_bbff_7` after magic adornment); its arguments are the
  // query's.
  const std::string args = "(a" + std::to_string(query.src) + ", a" +
                           std::to_string(query.dst) + ", ";
  for (const std::string& answer : rendered) {
    size_t open = answer.find('(');
    if (answer.rfind("cheaporshort", 0) != 0 || open == std::string::npos ||
        answer.compare(open, args.size(), args) != 0) {
      return false;
    }
    long time = 0;
    long cost = 0;
    char tail = 0;
    if (std::sscanf(answer.c_str() + open + args.size(), "%ld, %ld%c", &time,
                    &cost, &tail) != 3 ||
        tail != ')' || answer.find(')', open) + 1 != answer.size()) {
      return false;
    }
    out->emplace(time, cost);
  }
  return true;
}

}  // namespace perfbench
