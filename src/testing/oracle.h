#ifndef CQLOPT_TESTING_ORACLE_H_
#define CQLOPT_TESTING_ORACLE_H_

#include <map>
#include <vector>

#include "ast/program.h"
#include "eval/fact.h"

namespace cqlopt {
namespace testing {

/// A deliberately naive reference evaluator for the differential harness,
/// kept independent of the production engine (src/eval/seminaive.cc,
/// relation.cc, rule_application.cc): no semi-naive delta discipline, no
/// hash indexes, no decision cache (it is scope-disabled for the whole
/// run), no subsumption shortcuts — just the textbook naive fixpoint of
/// Section 2 with scan joins and exact rational arithmetic, re-deriving
/// everything every round and deduplicating structurally. ~60 lines of
/// obviously-correct code whose answers the optimized engine must
/// reproduce on every generated program.
///
/// It shares only the value types (Fact, Conjunction) and the PTOL/LTOP
/// conversions with the system under test; an engine bug cannot hide in
/// machinery both sides share because the oracle exercises none of the
/// engine's evaluation machinery.

struct OracleOptions {
  /// Round cap; a capped run reports reached_fixpoint == false and the
  /// differential properties skip the comparison (capped states depend on
  /// evaluation order).
  int max_rounds = 64;
};

struct OracleResult {
  /// All facts (EDB + derived) per predicate, in first-derivation order.
  std::map<PredId, std::vector<Fact>> facts;
  bool reached_fixpoint = false;
  int rounds = 0;
};

/// Runs the naive fixpoint of `program` over the EDB facts.
Result<OracleResult> OracleEvaluate(const Program& program,
                                    const std::vector<Fact>& edb,
                                    const OracleOptions& options = {});

/// The oracle-side answer extraction: facts of the query's predicate
/// conjoined with the query's constraints, unsatisfiable combinations
/// dropped (the naive mirror of core/equivalence.h QueryAnswers).
Result<std::vector<Fact>> OracleQueryAnswers(const OracleResult& result,
                                             const Query& query);

/// True iff the two per-predicate fact sets denote the same ground facts:
/// for every predicate, each side's facts are covered by the disjunction
/// of the other side's. Empty relations and absent relations coincide.
bool SameDenotation(const std::map<PredId, std::vector<Fact>>& a,
                    const std::map<PredId, std::vector<Fact>>& b);

}  // namespace testing
}  // namespace cqlopt

#endif  // CQLOPT_TESTING_ORACLE_H_
