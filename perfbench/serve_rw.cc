// serve_rw: cqld as deployed — an in-process ServeLoop with default
// SchedulerOptions on a unix socket, the write-ahead log on (fsync per
// commit), and one closed-loop LineClient caller, like cqlc, that waits for
// each reply before sending the next request. The seeded mix is ≈90% QUERY
// over 8 hot pairs (resident in the prepared cache, so served from the
// materialization or resumed with the epoch deltas), 8% single-leg INGEST
// and 2% RETRACT of legs the workload ingested earlier (see OpStream).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "common.h"
#include "service/client.h"
#include "service/query_service.h"
#include "service/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqlopt::LineClient;
using cqlopt::QueryService;
using cqlopt::Result;
using cqlopt::Status;

constexpr int kSetupReps = 3;
/// Client deadline per request; a reply later than this counts as failed.
constexpr int kTimeoutMs = 30000;

enum class OpKind { kQuery, kIngest, kRetract };

struct Op {
  OpKind kind = OpKind::kQuery;
  FlightQuery query;     // kQuery
  std::vector<Leg> legs;  // kIngest: one leg; kRetract: a round's ingests
};

/// Round size and burst shape of the request stream.
constexpr int kIngestsPerRound = 4;
constexpr int kQueriesPerRound = 45;
/// Groups of kIngestsPerRound volatile legs the stream cycles through. Odd,
/// so the traced run's alternating rounds see every group.
constexpr int kVolatileGroups = 9;

/// The legs the write stream ingests and retracts: a fixed dataset like
/// the network (drawn from the stream after it), grouped by round.
std::vector<std::vector<Leg>> VolatileGroups(const std::vector<Leg>& base) {
  Rng rng(kNetworkSeed + 1);
  std::set<Leg> seen(base.begin(), base.end());
  std::vector<std::vector<Leg>> groups(kVolatileGroups);
  for (std::vector<Leg>& group : groups) {
    while (static_cast<int>(group.size()) < kIngestsPerRound) {
      Leg leg = RandomLeg(&rng);
      if (seen.insert(leg).second) group.push_back(leg);
    }
  }
  return groups;
}

/// The seeded request stream, in rounds of 50 requests: a burst of writes
/// — one RETRACT of the legs the previous round ingested, then four
/// single-leg INGESTs of the next volatile group — followed by 45 queries,
/// passes over the hot pairs each in a seeded order. The first pass after
/// a burst catches every hot materialization up (resumed); later passes
/// find it current (epoch hits). Every round is 8% ingests, 2%
/// retractions, 16% resumed and 74% epoch-hit queries, so the median
/// request is an epoch hit and the 90th percentile a resumed query; and
/// since each round retracts what the one before added, the database stays
/// the same size however many rounds a run gets through. The seed picks
/// the first group and the query order.
class OpStream {
 public:
  OpStream(uint64_t seed, std::vector<FlightQuery> hot,
           std::vector<std::vector<Leg>> groups)
      : rng_(seed), hot_(std::move(hot)), groups_(std::move(groups)) {
    group_ = rng_.Next() % groups_.size();
  }

  Op Next() {
    if (next_ == round_.size()) FillRound();
    return round_[next_++];
  }

 private:
  void FillRound() {
    round_.clear();
    next_ = 0;
    if (started_) {
      Op op;
      op.kind = OpKind::kRetract;
      op.legs = groups_[group_];
      round_.push_back(op);
      group_ = (group_ + 1) % groups_.size();
    }
    started_ = true;
    for (const Leg& leg : groups_[group_]) {
      Op op;
      op.kind = OpKind::kIngest;
      op.legs = {leg};
      round_.push_back(op);
    }
    std::vector<size_t> pass(hot_.size());
    for (int q = 0; q < kQueriesPerRound; ++q) {
      size_t at = q % pass.size();
      if (at == 0) {
        for (size_t i = 0; i < pass.size(); ++i) {
          size_t j = rng_.Next() % (i + 1);
          pass[i] = pass[j];
          pass[j] = i;
        }
      }
      Op op;
      op.query = hot_[pass[at]];
      round_.push_back(op);
    }
  }

  Rng rng_;
  std::vector<FlightQuery> hot_;
  std::vector<std::vector<Leg>> groups_;
  size_t group_ = 0;  // the group ingested this round
  bool started_ = false;
  std::vector<Op> round_;
  size_t next_ = 0;
};

/// A QueryService served by ServeLoop on a background thread, with one
/// connected client. Stop() shuts the loop down and joins the thread.
class Server {
 public:
  Server(const std::string& edb_text, const std::string& dir) : dir_(dir) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cqlopt::ServiceOptions options;
    options.wal_dir = dir_ + "/wal";
    Result<std::unique_ptr<QueryService>> built =
        QueryService::FromText(kFlightsProgram, edb_text, options);
    if (!built.ok()) Fatal("service: " + built.status().message());
    service_ = std::move(*built);
    Status recovered = service_->Recover();
    if (!recovered.ok()) Fatal("recover: " + recovered.message());

    cqlopt::ServerOptions server;
    server.socket_path = dir_ + "/cqld.sock";
    server.on_ready = [this](const cqlopt::ServerEndpoints&) { Signal(true); };
    thread_ = std::thread([this, server] {
      serve_status_ = cqlopt::ServeLoop(*service_, server);
      Signal(false);
    });
    if (!ready_.get_future().get()) {
      thread_.join();
      Fatal("serve loop: " + serve_status_.message());
    }
    Result<std::unique_ptr<LineClient>> client =
        LineClient::ConnectUnix(server.socket_path, kTimeoutMs);
    if (!client.ok()) {
      Stop();
      Fatal("connect: " + client.status().message());
    }
    client_ = std::move(*client);
  }

  ~Server() { Stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  LineClient& client() { return *client_; }
  QueryService& service() { return *service_; }

  void Stop() {
    if (!thread_.joinable()) return;
    LineClient::Response response;
    Status st = client_ != nullptr
                    ? client_->Exchange("SHUTDOWN", kTimeoutMs, &response)
                    : Status::Unavailable("no client");
    if (!st.ok()) {
      // Without a connection the loop cannot be told to stop; open one.
      Result<std::unique_ptr<LineClient>> other =
          LineClient::ConnectUnix(dir_ + "/cqld.sock", kTimeoutMs);
      if (other.ok()) {
        (void)(*other)->Exchange("SHUTDOWN", kTimeoutMs, &response);
      }
    }
    thread_.join();
    client_.reset();
    service_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

 private:
  void Signal(bool ok) {
    if (!signalled_.exchange(true)) ready_.set_value(ok);
  }

  std::string dir_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<LineClient> client_;
  std::promise<bool> ready_;
  std::atomic<bool> signalled_{false};
  Status serve_status_;
  std::thread thread_;
};

/// Parses `key=value` fields of a response header such as
/// `OK path=resumed epoch=12 answers=3 fixpoint=1`.
std::map<std::string, std::string> HeaderFields(const std::string& header) {
  std::map<std::string, std::string> fields;
  std::istringstream in(header);
  std::string word;
  while (in >> word) {
    size_t eq = word.find('=');
    if (eq != std::string::npos) {
      fields[word.substr(0, eq)] = word.substr(eq + 1);
    }
  }
  return fields;
}

/// One answered request, kept for the reference check.
struct Record {
  Op op;
  bool ok = false;
  std::string path;  // QUERY only: the serving path the header names
  long epoch = -1;
  long changed = 0;  // writes: accepted= / removed=
  std::vector<std::string> answers;
};

const char* SpanName(const Record& rec) {
  switch (rec.op.kind) {
    case OpKind::kIngest:
      return "serve.ingest";
    case OpKind::kRetract:
      return "serve.retract";
    case OpKind::kQuery:
      break;
  }
  if (rec.path == "epoch-hit") return "serve.query.epoch-hit";
  if (rec.path == "resumed") return "serve.query.resumed";
  if (rec.path == "cold") return "serve.query.cold";
  return "serve.query.other";
}

Record Execute(LineClient& client, Tracer& tracer, const Op& op) {
  std::string line;
  switch (op.kind) {
    case OpKind::kQuery:
      line = "QUERY " + std::string(kFlightsSteps) + " " + op.query.Text();
      break;
    case OpKind::kIngest:
    case OpKind::kRetract:
      line = op.kind == OpKind::kIngest ? "INGEST" : "RETRACT";
      for (const Leg& leg : op.legs) line += " " + leg.Statement();
      break;
  }
  Record rec;
  rec.op = op;
  LineClient::Response response;
  tracer.BeginOp();
  Status st = tracer.Call("client.Exchange", [&] {
    return client.Exchange(line, kTimeoutMs, &response);
  });
  if (st.ok() && !response.is_error && !response.lines.empty()) {
    std::map<std::string, std::string> f = HeaderFields(response.lines[0]);
    rec.epoch = std::atol(f["epoch"].c_str());
    if (op.kind == OpKind::kQuery) {
      rec.path = f["path"];
      rec.ok = f["fixpoint"] == "1";
      rec.answers.assign(response.lines.begin() + 1, response.lines.end());
    } else {
      rec.ok = true;
      rec.changed = std::atol(
          f[op.kind == OpKind::kIngest ? "accepted" : "removed"].c_str());
    }
  }
  tracer.EndOp(SpanName(rec));
  return rec;
}

/// Replays the acknowledged writes in epoch order and checks every query
/// against the depth-first reference over the legs live at the epoch its
/// response names. Returns the number of mismatches.
int CheckAnswers(const std::vector<Leg>& base, const std::vector<Record>& log,
                 Report* report) {
  std::set<Leg> legs(base.begin(), base.end());
  long epoch = 0;
  std::map<long, std::vector<const Record*>> writes;  // by epoch
  int mismatches = 0;
  auto mismatch = [&](const std::string& what) {
    if (++mismatches <= 3) report->Note("MISMATCH " + what);
  };
  for (const Record& rec : log) {
    if (!rec.ok || rec.op.kind == OpKind::kQuery) continue;
    if (rec.changed != static_cast<long>(rec.op.legs.size())) {
      mismatch(rec.op.legs[0].Statement() + " changed " +
               std::to_string(rec.changed) + " facts");
    }
    writes[rec.epoch].push_back(&rec);
  }
  std::map<FlightQuery, AnswerSet> reference;  // valid at `epoch`
  for (const Record& rec : log) {
    if (!rec.ok || rec.op.kind != OpKind::kQuery) continue;
    if (rec.epoch < epoch) {
      mismatch("query answered at epoch " + std::to_string(rec.epoch) +
               " after epoch " + std::to_string(epoch));
      continue;
    }
    for (auto it = writes.upper_bound(epoch);
         it != writes.end() && it->first <= rec.epoch; ++it) {
      for (const Record* w : it->second) {
        for (const Leg& leg : w->op.legs) {
          if (w->op.kind == OpKind::kIngest) {
            legs.insert(leg);
          } else {
            legs.erase(leg);
          }
        }
      }
      reference.clear();
    }
    epoch = rec.epoch;
    auto ref = reference.find(rec.op.query);
    if (ref == reference.end()) {
      std::vector<Leg> live(legs.begin(), legs.end());
      ref = reference
                .emplace(rec.op.query, ReferenceAnswers(live, rec.op.query))
                .first;
    }
    AnswerSet got;
    if (!ParseAnswers(rec.answers, rec.op.query, &got) || got != ref->second) {
      mismatch(rec.op.query.Text() + " at epoch " + std::to_string(epoch) +
               ": " + std::to_string(rec.answers.size()) + " answers vs " +
               std::to_string(ref->second.size()) + " expected");
    }
  }
  return mismatches;
}

/// ServiceStats counters (the numbers the STATS verb prints) summed over
/// the traced rounds. Read in-process, so reading them adds no request.
struct StatsDelta {
  double prepared_hits = 0;
  double prepared_misses = 0;
  double resumes = 0;
  double resumed_iterations = 0;
  double retract_resumes = 0;
  double wal_appends = 0;
  double wal_bytes = 0;
  double sched_completed = 0;
  double sched_wait_ms = 0;
  double sched_run_ms = 0;

  void Add(const cqlopt::ServiceStats& a, const cqlopt::ServiceStats& b) {
    prepared_hits += b.prepared_hits - a.prepared_hits;
    prepared_misses += b.prepared_misses - a.prepared_misses;
    resumes += b.resumes - a.resumes;
    resumed_iterations += b.resumed_iterations - a.resumed_iterations;
    retract_resumes += b.retract_resumes - a.retract_resumes;
    wal_appends += b.wal_appends - a.wal_appends;
    wal_bytes += b.wal_bytes - a.wal_bytes;
    sched_completed += b.scheduler.completed - a.scheduler.completed;
    for (int c = 0; c < cqlopt::SchedulerStats::kClasses; ++c) {
      sched_wait_ms += b.scheduler.priority[c].wait_ms -
                       a.scheduler.priority[c].wait_ms;
      sched_run_ms +=
          b.scheduler.priority[c].run_ms - a.scheduler.priority[c].run_ms;
    }
  }
};

/// Stats once the scheduler has finished accounting every answered
/// request (a worker records a request's run time just after its reply is
/// on the wire).
cqlopt::ServiceStats SettledStats(QueryService& service) {
  cqlopt::ServiceStats stats = service.Stats();
  Clock::time_point deadline = DeadlineAfter(0.1);
  while ((stats.scheduler.in_flight > 0 || stats.scheduler.queued > 0) &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    stats = service.Stats();
  }
  return stats;
}

}  // namespace

int RunServeRw(const Args& args) {
  // Inputs: the fixed network, hot set and volatile legs; the request
  // stream's order from the seed. The hot pairs are those whose cold
  // evaluation costs 24-47 ms on this network: similar costs keep the
  // resumed queries, which set the 90th percentile, in one narrow mode.
  std::vector<Leg> legs = FlightNetwork();
  std::vector<FlightQuery> hot;
  for (const auto& [src, dst] : std::vector<std::pair<int, int>>{
           {6, 11}, {6, 15}, {7, 12}, {7, 16},
           {9, 13}, {9, 14}, {12, 16}, {12, 17}}) {
    hot.push_back(FlightQuery{src, dst, false});
  }
  const std::string edb_text = EdbText(legs);
  OpStream stream(args.seed, hot, VolatileGroups(legs));

  // Set-up: service construction with its WAL, log recovery, server start,
  // connection, and one cold query per hot pair to materialize them.
  const std::string dir_prefix = args.tmp_dir + "/serve_rw-" +
                                 std::to_string(::getpid()) + "-";
  std::unique_ptr<Server> server;
  std::vector<double> setup_s;
  Tracer tracer;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    ClearDecisionCaches();
    Clock::time_point start = Clock::now();
    server = std::make_unique<Server>(edb_text,
                                      dir_prefix + std::to_string(rep));
    for (const FlightQuery& q : hot) {
      Op op;
      op.query = q;
      if (!Execute(server->client(), tracer, op).ok) {
        Fatal("warm-up query failed: " + q.Text());
      }
    }
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }

  std::vector<Record> log;
  auto op = [&](long) {
    log.push_back(Execute(server->client(), tracer, stream.Next()));
    return log.back().ok;
  };

  Report report(args.trace);
  if (!args.trace) {
    Phase phase = RunClosedLoop(args.seconds, op);
    SetEndToEnd(phase, setup_s, PeakRssMb(), &report);
  } else {
    // Rounds alternate untraced and traced.
    StatsDelta d;
    cqlopt::ServiceStats before;
    TracedRun run = RunTraced(
        args.seconds, 1 + kIngestsPerRound + kQueriesPerRound, &tracer, op,
        [&](bool begin) {
          cqlopt::ServiceStats now = SettledStats(server->service());
          if (!begin) d.Add(before, now);
          before = now;
        });
    SetTracedRun(run, &report);
    double ops = static_cast<double>(std::max(1L, run.traced.ops()));
    auto median = [&](const char* span) {
      return Quantile(tracer.DurationsMs(span), 0.5);
    };
    report.Set("service.query_ms.epoch-hit", median("serve.query.epoch-hit"));
    report.Set("service.query_ms.resumed", median("serve.query.resumed"));
    report.Set("service.query_ms.resumed_p90",
               Quantile(tracer.DurationsMs("serve.query.resumed"), 0.9));
    report.Set("service.query_ms.cold", median("serve.query.cold"));
    report.Set("service.ingest_ms", median("serve.ingest"));
    report.Set("service.retract_ms", median("serve.retract"));
    double prepared = d.prepared_hits + d.prepared_misses;
    report.Set("service.prepared_hit_ratio",
               prepared > 0 ? d.prepared_hits / prepared : 0);
    report.Set("service.resumes", d.resumes / ops);
    report.Set("service.resumed_iterations",
               d.resumes > 0 ? d.resumed_iterations / d.resumes : 0);
    report.Set("service.retract_resumes", d.retract_resumes / ops);
    report.Set("service.wal_appends", d.wal_appends / ops);
    report.Set("service.wal_bytes_per_write",
               d.wal_appends > 0 ? d.wal_bytes / d.wal_appends : 0);
    double wait = d.sched_completed > 0 ? d.sched_wait_ms / d.sched_completed
                                        : 0;
    double run_ms =
        d.sched_completed > 0 ? d.sched_run_ms / d.sched_completed : 0;
    report.Set("service.sched_wait_ms", wait);
    report.Set("service.sched_run_ms", run_ms);
    report.Set("service.transport_ms",
               tracer.SumMs("client.Exchange") / ops - wait - run_ms);
    WriteSpans(args, tracer);
  }
  server.reset();

  report.correct = CheckAnswers(legs, log, &report) == 0;
  return report.Print();
}

}  // namespace perfbench
