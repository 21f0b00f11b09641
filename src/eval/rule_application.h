#ifndef CQLOPT_EVAL_RULE_APPLICATION_H_
#define CQLOPT_EVAL_RULE_APPLICATION_H_

#include <functional>

#include "ast/rule.h"
#include "eval/database.h"
#include "eval/stats.h"

namespace cqlopt {

/// Callback receiving each fact derived by a rule application, along with
/// the body facts that derived it (in body-literal order) — the provenance
/// edges of Definition 2.2's derivation trees.
using EmitFn =
    std::function<Status(Fact, const std::vector<Relation::FactRef>&)>;

/// One rule application (Section 2's basic evaluation step): enumerates
/// every combination of body facts, conjoins the rule's constraints with the
/// facts' constraints, checks satisfiability, eliminates the non-head
/// variables by projection, and emits the resulting head facts.
///
/// Semi-naive discipline: only facts with birth <= `max_birth` participate,
/// and when `require_delta` is set at least one chosen fact must have birth
/// == `max_birth` (the facts newly derived in the previous iteration).
///
/// Delta-availability pruning: under `require_delta`, Relation::max_birth()
/// bounds tell in O(body) whether any combination can contain a delta fact.
/// A rule none of whose body relations reach `max_birth` is skipped
/// outright; during the join, a branch that has not yet taken a delta fact
/// is cut as soon as no remaining literal can supply one, and when only the
/// current literal can, its enumeration is restricted to delta-born
/// entries. All three cuts discard only combinations the leaf check would
/// reject, so the emitted derivations and their order are identical to the
/// unpruned join.
///
/// Delta rotation (`delta_rotate`, requires `require_delta`): instead of
/// enumerating in body order and checking for a delta at the leaf, the rule
/// is applied once per delta-capable body position p — that pass enumerates
/// p's delta entries FIRST, so the delta fact's bindings drive index probes
/// for the remaining literals, while positions before p are held to
/// pre-delta facts (making "first delta position == p" a partition: every
/// delta-containing combination is derived exactly once). This is what
/// makes a resumed fixpoint (ResumeEvaluate) cost proportional to the
/// batch's consequences instead of the database: without it, a rule whose
/// early literals are delta-capable still walks its full relations. The
/// derived fact set is identical to the classic order, but derivations
/// arrive grouped by pivot — callers that pin derivation order (the
/// paper-table traces) must keep `delta_rotate` off.
///
/// Join access path: each body literal whose accumulated join state binds
/// some argument position to a unique symbol or number is resolved by
/// probing the relation's per-position hash index at the most selective
/// such position. Direct bindings are read cheaply (Conjunction::GetSymbol
/// / QuickNumericValue); numeric values that are only entailed — e.g. `X = N - 1` after joining a fact with `N = 2` —
/// are recovered by the exact projection (Conjunction::GetNumericValue).
/// Literals with no uniquely-bound position (unbound, or restricted only
/// by non-point constraints like `X > 0`) fall back to the linear scan.
/// A probe skips exactly the candidates the scan would discard as
/// unsatisfiable value clashes and enumerates the rest in entry
/// (insertion) order under the same birth, arity, and signature filters,
/// so both paths make the same derivations in the same order. When `stats`
/// is non-null, probe/candidate counters (and nothing else) are
/// accumulated into it.
///
/// Interval pruning (`interval_index`): when no position is bound to a
/// unique value, the accumulated state's interval box
/// (IntervalDomain::Propagate over its linear part) is intersected against the relation's per-position interval index
/// (DESIGN.md §12) at the most selective numerically-ranged position — a
/// pushed selection like `T <= 60` then skips whole sorted runs of facts
/// whose stored value or propagated bound summary cannot meet the range.
/// Every skipped fact would have failed the leaf satisfiability check
/// (its value/box at the position is disjoint from a sound
/// over-approximation of the accumulated solutions), and surviving
/// candidates are re-sorted into insertion order, so derivations and
/// their order are again identical to the scan.
///
/// Emit-visibility contract: a `emit` callback MAY insert facts into `db`
/// immediately (streaming evaluation); such facts are not visible to the
/// in-flight application provided they are inserted with birth >
/// `max_birth`. Candidate enumeration snapshots each relation's size before
/// iterating (Relation entry storage is append-only) and additionally
/// filters on birth, so mid-application inserts can neither join into the
/// current application nor invalidate its iteration state.
///
/// Body-free rules (constraint facts in the program) derive their head
/// directly; callers fire them only in iteration 0.
Status ApplyRule(const Rule& rule, const Database& db, int max_birth,
                 bool require_delta, const EmitFn& emit,
                 EvalStats* stats = nullptr, bool delta_rotate = false,
                 bool interval_index = false);

}  // namespace cqlopt

#endif  // CQLOPT_EVAL_RULE_APPLICATION_H_
