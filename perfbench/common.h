// Shared pieces of the benchmark binary: arguments, the in-memory span
// tracer, latency statistics, the result report, and the flight-network
// inputs and reference shared by the flights_cold and serve_rw workloads.
#ifndef CQLOPT_PERFBENCH_COMMON_H_
#define CQLOPT_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "eval/seminaive.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".bench_build/out";
  /// Scratch directory for sockets and write-ahead logs.
  std::string tmp_dir = ".bench_build/tmp";
};

/// Prints `message` to stderr and exits with status 2 without a result
/// line — the benchmark could not run, which is not a measurement.
[[noreturn]] void Fatal(const std::string& message);

/// Deterministic generator (SplitMix64): the same seed gives the same
/// stream on every platform, so inputs depend on `--seed` alone.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi].
  int Uniform(int lo, int hi);

 private:
  uint64_t state_;
};

/// Spans kept in memory while the traced phase runs and written out at the
/// end: one root span per operation, one child span per public call the
/// benchmark makes into a layer. Disabled, every call is a plain call.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void BeginOp();
  /// Closes the current operation's root span under `name` (known only
  /// once the operation finished, e.g. the serving path it took).
  void EndOp(const char* name);

  /// Runs `fn` as a child span `name` of the current operation.
  template <typename Fn>
  decltype(auto) Call(const char* name, Fn&& fn) {
    if (!enabled_) return fn();
    ChildScope scope(this, name);
    return fn();
  }

  /// Sum of the durations of spans named `name`.
  double SumMs(const std::string& name) const;
  /// Durations of the spans named `name`, in recording order.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes every span as a Chrome trace-event file (viewable in Perfetto
  /// or chrome://tracing). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    long op;       // operation id shared by a root span and its children
    bool root;
  };
  class ChildScope {
   public:
    ChildScope(Tracer* tracer, const char* name);
    ~ChildScope();
    ChildScope(const ChildScope&) = delete;
    ChildScope& operator=(const ChildScope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    Clock::time_point start_;
  };

  bool enabled_ = false;
  long next_op_ = 0;
  Clock::time_point op_start_;
  std::vector<Span> spans_;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB (VmHWM).
double PeakRssMb();

/// Snapshot of the process-wide constraint decision counters
/// (DecisionCache::Snapshot and prepass::Snapshot).
struct ConstraintCounters {
  long cache_hits = 0;
  long cache_misses = 0;
  long prepass_conclusive = 0;
  long prepass_fallback = 0;

  static ConstraintCounters Now();
  ConstraintCounters Minus(const ConstraintCounters& earlier) const;
  void Add(const ConstraintCounters& delta);
};

/// Empties the decision cache and the prepass memo, so each repetition of
/// a workload's set-up starts from the same cold state.
void ClearDecisionCaches();

/// The metrics of one run, printed as a human-readable table and then, as
/// the last line of stdout, the JSON result object. Every metric of the
/// selected set (end-to-end when untraced, per-layer when traced) is
/// printed, starting at 0, so names and units never depend on a workload.
class Report {
 public:
  explicit Report(bool trace);

  /// Sets a metric of the selected set; unknown names abort (a typo would
  /// otherwise print a silent 0).
  void Set(const std::string& name, double value);
  /// Extra human-readable line printed before the result (not parsed).
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct = true;
  long attempted = 0;
  long failed = 0;

  /// Prints the report; returns the process exit status (1 when an answer
  /// differed from its reference).
  int Print() const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// EvalStats and resident-size counters summed over evaluations, for the
/// eval.* and transform.rules_out per-layer metrics.
struct EvalCounts {
  long evaluations = 0;
  long rules_out = 0;
  long iterations = 0;
  long derivations = 0;
  long inserted = 0;
  long subsumed = 0;
  long index_candidates = 0;
  long scan_candidates = 0;
  long interval_candidates = 0;
  double bytes = 0;
  double facts = 0;

  /// Adds one evaluation of a rewritten program with `rules_out` rules.
  void Add(size_t rules_out, const cqlopt::EvalResult& run);
  /// Sets the metrics as means per evaluation (ratios over the sums).
  void SetMetrics(Report* report) const;
};

/// Latency samples of one closed-loop phase.
struct Phase {
  std::vector<double> latencies_ms;
  /// Completion time of each operation, seconds from the phase start.
  std::vector<double> end_s;
  double elapsed_s = 0;
  long failed = 0;
  /// Optional, one per operation: operations with the same key do the same
  /// work (the same input through the same calls). See SetEndToEnd.
  std::vector<long> keys;

  long ops() const { return static_cast<long>(latencies_ms.size()); }
  double mean_ms() const { return Mean(latencies_ms); }
};

constexpr int kSubWindows = 8;

Clock::time_point DeadlineAfter(double seconds);

/// Runs `op(i)` for i = 0, 1, ... until `seconds` have elapsed (closed
/// loop: the next operation starts when the previous one returned).
/// `op` returns false for a failed operation. `after(i)` runs between
/// operation i and the next, outside both their latencies (it still counts
/// in the completion times).
template <typename Op, typename After>
Phase RunClosedLoop(double seconds, Op&& op, After&& after) {
  Phase phase;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = DeadlineAfter(seconds);
  Clock::time_point now = start;
  for (long i = 0; now < deadline; ++i) {
    Clock::time_point op_start = now;
    bool ok = op(i);
    now = Clock::now();
    phase.latencies_ms.push_back(MsBetween(op_start, now));
    phase.end_s.push_back(MsBetween(start, now) / 1000.0);
    if (!ok) ++phase.failed;
    after(i);
    now = Clock::now();
  }
  phase.elapsed_s = MsBetween(start, now) / 1000.0;
  return phase;
}

template <typename Op>
Phase RunClosedLoop(double seconds, Op&& op) {
  return RunClosedLoop(seconds, std::forward<Op>(op), [](long) {});
}

/// The traced run: one closed loop whose blocks of `block` operations are
/// alternately untraced and traced, so both halves see the same stretch of
/// the workload and their difference is the tracing overhead. `hook(true)`
/// runs before and `hook(false)` after each traced block (outside the
/// measured operations), for counter snapshots.
struct TracedRun {
  Phase untraced;
  Phase traced;
  /// Constraint counter deltas summed over the traced blocks.
  ConstraintCounters constraint;
};

template <typename Op, typename Hook>
TracedRun RunTraced(double seconds, long block, Tracer* tracer, Op&& op,
                    Hook&& hook) {
  TracedRun run;
  Clock::time_point deadline = DeadlineAfter(seconds);
  Clock::time_point now = Clock::now();
  ConstraintCounters before;
  for (long i = 0; now < deadline; ++i) {
    bool traced = (i / block) % 2 == 1;
    if (i % block == 0) {
      tracer->set_enabled(traced);
      if (traced) {
        hook(true);
        before = ConstraintCounters::Now();
        now = Clock::now();
      }
    }
    Clock::time_point op_start = now;
    bool ok = op(i);
    now = Clock::now();
    Phase& phase = traced ? run.traced : run.untraced;
    phase.latencies_ms.push_back(MsBetween(op_start, now));
    if (!ok) ++phase.failed;
    if (traced && (i % block == block - 1 || now >= deadline)) {
      run.constraint.Add(ConstraintCounters::Now().Minus(before));
      hook(false);
      now = Clock::now();
    }
  }
  tracer->set_enabled(false);
  return run;
}

/// Fills the end-to-end metrics shared by every workload from the timed
/// phase and the set-up repetitions, and adds the phase to the attempted
/// and failed counts. Without keys, throughput is the median of the rates
/// of kSubWindows equal slices of the phase (by completion time), so a
/// slowdown of the host that lasts a few seconds moves it less than a
/// change to the program, and the latency quantiles pool the whole phase,
/// which covers every workload's operation mix evenly (a slice of
/// flights_cold holds too few of its 147 pairs for a stable median). With
/// keys, each operation counts at the median latency of its key over the
/// phase: throughput is the operations over the sum of those times, and the
/// latency quantiles are taken over them. A slow stretch of the host then
/// moves a key's time only if it covers half of that key's operations.
void SetEndToEnd(const Phase& phase, const std::vector<double>& setup_s,
                 double peak_rss_mb, Report* report);

/// Sets the metrics every traced run reports: trace.overhead_pct (mean
/// operation time of the traced blocks against the untraced ones) and the
/// constraint.* counters per traced operation. Adds both halves to the
/// attempted and failed counts.
void SetTracedRun(const TracedRun& run, Report* report);

/// Writes the tracer's spans to <out_dir>/<workload>-seed<seed>.trace.json.
void WriteSpans(const Args& args, const Tracer& tracer);

// ---- Flight networks (Example 1.1 / 4.3) --------------------------------

/// The flight network every flights workload runs on: a fixed dataset
/// (drawn once from kNetworkSeed, not from --seed). Per-query cost grows
/// steeply with the density of cheap short legs, so seeded networks made
/// runs on different seeds incomparable; seeds vary the queries and the
/// write stream instead.
constexpr int kAirports = 18;
constexpr int kLegs = 165;
constexpr uint64_t kNetworkSeed = 42;

/// The paper's Example 1.1 program (programs/flights.cql without its
/// inline query).
extern const char kFlightsProgram[];
/// Rewrite sequence every flights query is served with.
extern const char kFlightsSteps[];

struct Leg {
  int src = 0;
  int dst = 0;
  int time = 0;
  int cost = 0;

  bool operator<(const Leg& o) const;
  bool operator==(const Leg& o) const;
  /// `singleleg(a3, a9, 120, 200).`
  std::string Statement() const;
};

/// kLegs distinct legs drawn from kNetworkSeed, each from a lower- to a
/// higher-numbered airport (acyclic, like AddFlightNetwork's default), with
/// times in [30, 600] and costs in [20, 400].
std::vector<Leg> FlightNetwork();
/// One more leg from the same distribution.
Leg RandomLeg(Rng* rng);
/// The legs as EDB text in the loader syntax, one statement a line.
std::string EdbText(const std::vector<Leg>& legs);

/// One flights query: `?- cheaporshort(a<src>, a<dst>, T, C)`, optionally
/// with the query-side selection `C <= 100`.
struct FlightQuery {
  int src = 0;
  int dst = 0;
  bool cost_selection = false;

  std::string Text() const;
  bool operator<(const FlightQuery& o) const;
};

/// A permutation of [0, n) that visits an ordered list evenly: position j
/// is (offset + j * stride) mod n, with a seeded offset and stride ≈ 0.618 n
/// coprime to n, so every stretch of a cyclic walk samples the whole list
/// in proportion.
std::vector<size_t> SpreadOrder(size_t n, Rng* rng);

/// (time, cost) of each answer.
using AnswerSet = std::set<std::pair<long, long>>;

/// The independent reference: a depth-first search over `legs` from the
/// query's source, composing legs the way rule r4 does (times add plus a
/// 30-minute connection, costs add) and pruning a path once both
/// time > 240 and cost > 150 — no extension can satisfy r1 or r2 again,
/// since every leg has positive time and cost.
AnswerSet ReferenceAnswers(const std::vector<Leg>& legs,
                           const FlightQuery& query);

/// Parses rendered answers (`cheaporshort(a3, a9, 240, 209)`) of `query`.
/// False when an answer is not a ground fact of that pair.
bool ParseAnswers(const std::vector<std::string>& rendered,
                  const FlightQuery& query, AnswerSet* out);

}  // namespace perfbench

#endif  // CQLOPT_PERFBENCH_COMMON_H_
