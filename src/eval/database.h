#ifndef CQLOPT_EVAL_DATABASE_H_
#define CQLOPT_EVAL_DATABASE_H_

#include <map>
#include <string>
#include <vector>

#include "eval/relation.h"
#include "util/rational.h"

namespace cqlopt {

/// A finite set of relations (Section 2's database). Holds EDB facts given
/// as input and, during evaluation, the derived facts as well.
class Database {
 public:
  Database() = default;

  /// Inserts a fact; convenience for EDB loading (birth -1, no
  /// subsumption pruning so the EDB is taken verbatim). Rows entered here
  /// are flagged as base facts — the targets retraction may name
  /// (eval/retract.h).
  InsertOutcome AddFact(Fact fact) {
    return relations_[fact.pred].Insert(std::move(fact), /*birth=*/-1,
                                        /*rule_label=*/"", /*parents=*/{},
                                        /*edb=*/true);
  }

  /// Builds and inserts a ground fact from argument values, each either a
  /// number or a symbolic constant name (interned via `symbols`).
  struct Value {
    static Value Number(Rational r) { return Value{false, std::move(r), ""}; }
    static Value Symbol(std::string name) {
      return Value{true, Rational(0), std::move(name)};
    }
    bool is_symbol;
    Rational number;
    std::string symbol;
  };
  Status AddGroundFact(SymbolTable* symbols, const std::string& pred_name,
                       const std::vector<Value>& values);

  /// Batch EDB ingest: inserts every fact verbatim (no subsumption pruning,
  /// like the single-fact AddFact; structural duplicates are dropped) with
  /// the given birth stamp. EDB loading uses birth -1; the incremental
  /// resume path (seminaive.h ResumeEvaluate) stamps the batch with the
  /// resuming iteration so the facts drive the semi-naive delta discipline.
  struct BatchOutcome {
    int inserted = 0;
    int duplicates = 0;
  };
  BatchOutcome AddFacts(const std::vector<Fact>& batch, int birth = -1);

  /// Epoch tag of this database snapshot. The service layer
  /// (src/service/query_service.h) publishes immutable `Database` copies,
  /// one per committed ingest batch, and advances the tag on commit; a
  /// reader evaluating against a snapshot can assert which epoch it saw.
  /// Plain evaluation ignores the tag (EvalResult::db inherits the EDB's).
  int64_t epoch() const { return epoch_; }
  void set_epoch(int64_t epoch) { epoch_ = epoch; }

  const Relation* Find(PredId pred) const;
  Relation* FindMutable(PredId pred) { return &relations_[pred]; }
  const std::map<PredId, Relation>& relations() const { return relations_; }

  size_t TotalFacts() const;
  size_t FactsFor(PredId pred) const;

  /// True if every stored fact is ground (Theorem 4.4's property).
  bool AllGround() const;

  /// Total nanoseconds the relations spent building interval-index state
  /// (Relation::interval_build_ns summed) — surfaced through
  /// EvalStats::interval_index_build_ns.
  long IntervalBuildNs() const;

  /// Approximate resident bytes across all relations (chunked columns,
  /// fact payloads, provenance, indexes) — the bytes-per-fact numerator the
  /// benches report. An estimate, not exact allocator accounting.
  size_t ApproxBytes() const;

  /// Approximate bytes held in chunks shared with other Database copies —
  /// the storage a snapshot epoch reuses instead of duplicating.
  size_t SharedBytes() const;

 private:
  std::map<PredId, Relation> relations_;
  int64_t epoch_ = 0;
};

}  // namespace cqlopt

#endif  // CQLOPT_EVAL_DATABASE_H_
