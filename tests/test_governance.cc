// Tests for per-query resource governance (seminaive.h EvalOptions):
// wall-clock deadlines, cooperative cancellation, the derived-fact budget,
// and how governed aborts surface — typed Status codes, position-annotated
// messages, partial stats via abort_stats, and a query service that keeps
// serving after a governed (or injected) evaluation failure.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/seminaive.h"
#include "service/query_service.h"
#include "util/failpoint.h"

namespace cqlopt {
namespace {

Program ParseOrDie(const std::string& text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->program;
}

/// The unbounded counter — Table 1's divergence in miniature. Evaluation
/// never reaches a fixpoint, so only a governance limit (or the iteration
/// cap) can stop it.
Program Counter() { return ParseOrDie("c(0).\nc(X + 1) :- c(X).\n"); }

EvalOptions Governed(EvalStrategy strategy = EvalStrategy::kStratified) {
  EvalOptions options;
  options.strategy = strategy;
  options.max_iterations = 1000000;
  return options;
}

TEST(GovernanceTest, FactBudgetAbortsWithResourceExhausted) {
  Program p = Counter();
  EvalOptions options = Governed();
  options.max_derived_facts = 10;
  EvalStats partial;
  options.abort_stats = &partial;
  auto result = Evaluate(p, Database(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("derived-fact budget of 10"),
            std::string::npos)
      << result.status().message();
  // The abort is position-annotated and the partial stats surfaced.
  EXPECT_NE(result.status().message().find("global iteration"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("facts stored"),
            std::string::npos);
  EXPECT_TRUE(partial.aborted);
  EXPECT_FALSE(partial.abort_point.empty());
  EXPECT_GT(partial.inserted, 10);
}

TEST(GovernanceTest, FactBudgetAbortIsPrepassInvariant) {
  // The budget is only checked at the iteration boundary, so the abort
  // point — and the partial database the service would discard — is a
  // fully committed iteration. The fast decision tier changes which
  // machinery answers constraint queries, never how many facts an
  // iteration stores, so the abort point is the same with the interval
  // prepass on and off.
  Program p = Counter();
  std::string first_point;
  long first_inserted = -1;
  for (bool prepass : {true, false}) {
    EvalOptions options = Governed();
    options.prepass = prepass;
    options.max_derived_facts = 25;
    EvalStats partial;
    options.abort_stats = &partial;
    auto result = Evaluate(p, Database(), options);
    ASSERT_FALSE(result.ok()) << "prepass=" << prepass;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    if (first_inserted < 0) {
      first_point = partial.abort_point;
      first_inserted = partial.inserted;
    } else {
      EXPECT_EQ(partial.abort_point, first_point) << "prepass=" << prepass;
      EXPECT_EQ(partial.inserted, first_inserted) << "prepass=" << prepass;
    }
  }
}

TEST(GovernanceTest, DeadlineAbortsADivergingEvaluation) {
  Program p = Counter();
  EvalOptions options = Governed();
  options.deadline_ms = 5;
  auto result = Evaluate(p, Database(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("wall-clock deadline of 5ms"),
            std::string::npos)
      << result.status().message();
}

TEST(GovernanceTest, PreCancelledTokenAbortsImmediately) {
  Program p = Counter();
  EvalOptions options = Governed();
  options.cancel = CancelToken::Cancellable();
  options.cancel.RequestCancel();
  auto result = Evaluate(p, Database(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(GovernanceTest, CancelFromAnotherThreadAborts) {
  Program p = Counter();
  EvalOptions options = Governed();
  options.cancel = CancelToken::Cancellable();
  CancelToken token = options.cancel;
  std::thread killer([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.RequestCancel();
  });
  auto result = Evaluate(p, Database(), options);
  killer.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(GovernanceTest, LimitsOffMeansUnlimited) {
  // All limits default to off: a converging program is untouched, and its
  // stats carry no abort marker.
  Program p = ParseOrDie("t(X, Y) :- e(X, Y).\n");
  Database edb;
  ASSERT_TRUE(edb.AddGroundFact(p.symbols.get(), "e",
                                {Database::Value::Number(Rational(1)),
                                 Database::Value::Number(Rational(2))})
                  .ok());
  auto result = Evaluate(p, edb, Governed());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.reached_fixpoint);
  EXPECT_FALSE(result->stats.aborted);
  EXPECT_TRUE(result->stats.abort_point.empty());
}

TEST(GovernanceTest, NegativeLimitsAreRejected) {
  Program p = Counter();
  EvalOptions bad_deadline = Governed();
  bad_deadline.deadline_ms = -1;
  EXPECT_EQ(Evaluate(p, Database(), bad_deadline).status().code(),
            StatusCode::kInvalidArgument);
  EvalOptions bad_budget = Governed();
  bad_budget.max_derived_facts = -5;
  EXPECT_EQ(Evaluate(p, Database(), bad_budget).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GovernanceTest, ResumeRefusalPinpointsTheAbort) {
  // Resuming an aborted base must fail with the abort position, not a bare
  // precondition — the message is the operator's breadcrumb.
  Program p = Counter();
  EvalOptions options = Governed();
  options.max_derived_facts = 10;
  EvalStats partial;
  options.abort_stats = &partial;
  ASSERT_FALSE(Evaluate(p, Database(), options).ok());

  // Rebuild a base EvalResult carrying the aborted stats, as a caller
  // holding the abort_stats of a failed materialization would see it.
  EvalResult base;
  base.stats = partial;
  auto resumed = ResumeEvaluate(p, std::move(base), {}, Governed());
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("was aborted at"),
            std::string::npos)
      << resumed.status().message();
  EXPECT_NE(resumed.status().message().find("re-evaluate from scratch"),
            std::string::npos);
}

TEST(GovernanceTest, ResumeRefusalOnCappedBaseNamesTheIteration) {
  Program p = Counter();
  EvalOptions capped = Governed();
  capped.max_iterations = 3;
  auto base = Evaluate(p, Database(), capped);
  ASSERT_TRUE(base.ok());
  ASSERT_FALSE(base->stats.reached_fixpoint);
  auto resumed = ResumeEvaluate(p, std::move(*base), {}, Governed());
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.status().message().find(
                "hit its iteration cap at global iteration 3"),
            std::string::npos)
      << resumed.status().message();
  EXPECT_NE(resumed.status().message().find("facts stored"),
            std::string::npos);
}

TEST(GovernanceTest, ServiceMapsBudgetAbortToTypedErrorAndKeepsServing) {
  ServiceOptions options;
  options.eval.max_derived_facts = 2;
  options.eval.max_iterations = 1000000;
  auto service = QueryService::FromText("c(0).\nc(X + 1) :- c(X).\n", "",
                                        options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto denied = (*service)->Execute("?- c(X).", "");
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*service)->Stats().governed_aborts, 1);

  // The abort poisoned nothing: ingest still commits, a second attempt
  // fails identically (deterministic budget), and the error stays typed.
  ASSERT_TRUE((*service)->Ingest("seed(1).\n").ok());
  auto again = (*service)->Execute("?- c(X).", "");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*service)->Stats().governed_aborts, 2);
}

TEST(GovernanceTest, ServiceRecoversAfterInjectedAllocFailure) {
  auto service = QueryService::FromText(
      "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, Z), t(Z, Y).\n",
      "e(1, 2).\ne(2, 3).\n", {});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  failpoint::Arm(failpoint::kEvalRuleAlloc);
  auto denied = (*service)->Execute("?- t(1, Y).", "");
  failpoint::DisarmAll();
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(denied.status().message().find("injected allocation failure"),
            std::string::npos)
      << denied.status().message();

  // The same query succeeds once the fault clears — the failed evaluation
  // left no half-materialized entry behind.
  auto served = (*service)->Execute("?- t(1, Y).", "");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->answers.size(), 2u);
  EXPECT_EQ((*service)->Stats().governed_aborts, 1);
}

}  // namespace
}  // namespace cqlopt
