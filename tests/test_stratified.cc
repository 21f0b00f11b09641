// Differential-testing suite over the evaluator: for every program in
// programs/*.cql and for workloads built from the core/workload.h
// generators, Evaluate must compute the same fixpoint as the reference
// oracle (testing::OracleEvaluate: naive rounds, scan joins, no subsumption,
// no caches) — equal denotations whenever both reach a fixpoint — under all
// three SubsumptionModes, with the interval prepass on and off. This is
// the exact-vs-exact analogue of the exact-vs-approximate checking in
// Campagna et al.'s differential setup: the oracle is the reference, the
// stratified, indexed engine the system under test.

#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "core/workload.h"
#include "eval/loader.h"
#include "eval/seminaive.h"
#include "testing/oracle.h"
#include "testing/properties.h"

namespace cqlopt {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::string ProgramPath(const std::string& name) {
  return std::string(CQLOPT_PROGRAMS_DIR) + "/" + name;
}

/// Corpus-style EDB: 12 numeric tuples per database predicate (matches
/// test_corpus.cc so divergence behaviour is the same there and here).
Database SyntheticEdb(const Program& program, uint64_t seed) {
  Database db;
  for (PredId pred : program.DatabasePredicates()) {
    const std::string& name = program.symbols->PredicateName(pred);
    int arity = program.Arity(pred);
    std::mt19937_64 rng(seed + static_cast<uint64_t>(pred));
    for (int i = 0; i < 12; ++i) {
      std::vector<Database::Value> values;
      for (int a = 0; a < arity; ++a) {
        values.push_back(Database::Value::Number(
            Rational(static_cast<int64_t>(rng() % 30))));
      }
      (void)db.AddGroundFact(program.symbols.get(), name, values);
    }
  }
  return db;
}

std::vector<Fact> AllFacts(const Database& db) {
  std::vector<Fact> out;
  for (const auto& [pred, rel] : db.relations()) {
    for (size_t i = 0; i < rel.size(); ++i) out.push_back(rel.fact(i));
  }
  return out;
}

/// Runs the engine over the subsumption × prepass matrix and compares each
/// run against the oracle. Returns how many runs were compared: a run is
/// compared only when both it and the oracle reached a fixpoint (capped
/// states depend on evaluation order). The oracle's round cap is the
/// engine's iteration cap. A program known to `diverge` skips the oracle —
/// its naive rounds, without subsumption, explode — and instead every run
/// must hit the cap.
int ExpectEngineMatchesOracle(const Program& program, const Database& db,
                              const std::string& label,
                              int max_iterations = 48, bool diverges = false) {
  std::optional<testing::OracleResult> oracle;
  if (!diverges) {
    testing::OracleOptions oracle_options;
    oracle_options.max_rounds = max_iterations;
    auto ran = testing::OracleEvaluate(program, AllFacts(db), oracle_options);
    EXPECT_TRUE(ran.ok()) << label << ": " << ran.status().ToString();
    if (!ran.ok()) return 0;
    oracle = std::move(*ran);
  }
  // The prepass-on arm records a storage fingerprint per subsumption mode;
  // the prepass-off arm must reproduce it byte for byte — the approximate
  // decision tier never changes a verdict, a fact, or a counter.
  std::map<std::string, std::string> on_fingerprints;
  auto fingerprint = [](const EvalResult& r) {
    std::string out;
    for (const auto& [pred, rel] : r.db.relations()) {
      out += std::to_string(pred) + "{";
      for (size_t i = 0; i < rel.size(); ++i) {
        out += rel.fact(i).Key() + "@" + std::to_string(rel.birth(i)) + ";";
      }
      out += "}";
    }
    out += "|d=" + std::to_string(r.stats.derivations) +
           " i=" + std::to_string(r.stats.inserted) +
           " s=" + std::to_string(r.stats.subsumed) +
           " it=" + std::to_string(r.stats.iterations);
    return out;
  };
  int compared = 0;
  for (bool prepass : {true, false}) {
    for (auto [mode_name, mode] :
         {std::pair<const char*, SubsumptionMode>{"none",
                                                  SubsumptionMode::kNone},
          {"single-fact", SubsumptionMode::kSingleFact},
          {"set-implication", SubsumptionMode::kSetImplication}}) {
      SCOPED_TRACE(label + " / subsumption=" + mode_name +
                   (prepass ? " / prepass=on" : " / prepass=off"));
      EvalOptions options;
      options.subsumption = mode;
      options.max_iterations = max_iterations;
      options.prepass = prepass;
      auto run = Evaluate(program, db, options);
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      if (!run.ok()) continue;
      // The toggle must gate the tier completely.
      if (!prepass) {
        EXPECT_EQ(run->stats.prepass_conclusive, 0);
        EXPECT_EQ(run->stats.prepass_fallback, 0);
      }
      if (diverges) {
        EXPECT_FALSE(run->stats.reached_fixpoint);
      }
      if (oracle && oracle->reached_fixpoint && run->stats.reached_fixpoint) {
        EXPECT_TRUE(
            testing::SameDenotation(testing::EvalToMap(*run), oracle->facts))
            << "engine and oracle denotations differ";
        ++compared;
      }
      // Stratified bookkeeping must be coherent: per-stratum iterations sum
      // to the global count, and every derivation is attributed to a rule.
      long scc_sum = 0;
      for (long n : run->stats.scc_iterations) scc_sum += n;
      EXPECT_EQ(scc_sum, run->stats.iterations);
      long per_rule = 0;
      for (const auto& [rule, n] : run->stats.derivations_per_rule) {
        per_rule += n;
      }
      EXPECT_EQ(per_rule, run->stats.derivations);
      // Cross-arm byte identity, per subsumption mode: the prepass-off run
      // must reproduce the prepass-on one exactly.
      std::string fp = fingerprint(*run);
      if (prepass) {
        on_fingerprints[mode_name] = fp;
      } else {
        auto it = on_fingerprints.find(mode_name);
        if (it != on_fingerprints.end()) {
          EXPECT_EQ(fp, it->second)
              << "prepass-off storage/stats diverged from prepass-on";
        }
      }
    }
  }
  return compared;
}

class CorpusDifferentialTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusDifferentialTest, EngineMatchesOracle) {
  std::string text = ReadFile(ProgramPath(GetParam()));
  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program& program = parsed->program;
  Database db;
  if (std::string(GetParam()) == "flights.cql") {
    auto loaded = LoadDatabaseText(ReadFile(ProgramPath("flights_edb.cql")),
                                   program.symbols, &db);
    ASSERT_TRUE(loaded.ok());
  } else {
    db = SyntheticEdb(program, 1234);
  }
  // fib.cql diverges bottom-up under every subsumption mode; a low cap
  // keeps the engine from growing the exploding frontier for 48 rounds.
  bool diverges = std::string(GetParam()) == "fib.cql";
  int compared = ExpectEngineMatchesOracle(program, db, GetParam(),
                                           diverges ? 14 : 48, diverges);
  EXPECT_EQ(compared, diverges ? 0 : 6);
}

INSTANTIATE_TEST_SUITE_P(Programs, CorpusDifferentialTest,
                         ::testing::Values("flights.cql", "fib.cql",
                                           "example41.cql", "example42.cql",
                                           "example61.cql", "example71.cql",
                                           "example72.cql"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

Program ParseOrDie(const std::string& text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->program;
}

TEST(WorkloadDifferentialTest, TransitiveClosureOnLayeredGraph) {
  Program p = ParseOrDie(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n");
  Database db;
  ASSERT_TRUE(AddLayeredGraph(p.symbols.get(), "e", 5, 4, 2, 7, &db).ok());
  EXPECT_EQ(ExpectEngineMatchesOracle(p, db, "tc/layered-graph"), 6);
}

TEST(WorkloadDifferentialTest, MultiStratumSelectionOverClosure) {
  // Three strata above the EDB: t (recursive), then s, then top — exercises
  // the freeze-lower-strata discipline, not just single-SCC equivalence.
  Program p = ParseOrDie(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n"
      "s(X, Y) :- t(X, Y), X <= 5.\n"
      "top(X) :- s(X, Y), t(Y, Z).\n");
  Database db;
  ASSERT_TRUE(AddLayeredGraph(p.symbols.get(), "e", 4, 3, 2, 11, &db).ok());
  EXPECT_EQ(ExpectEngineMatchesOracle(p, db, "multi-stratum/layered-graph"),
            6);
}

TEST(WorkloadDifferentialTest, FlightNetworkSymbolJoins) {
  Program p = ParseOrDie(
      "cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n"
      "cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n"
      "flight(S, D, T, C) :- singleleg(S, D, T, C), C > 0, T > 0.\n"
      "flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), "
      "T = T1 + T2 + 30, C = C1 + C2.\n");
  Database db;
  FlightNetworkSpec spec;
  spec.airports = 8;
  spec.legs = 16;
  spec.seed = 5;
  ASSERT_TRUE(AddFlightNetwork(p.symbols.get(), spec, &db).ok());
  EXPECT_EQ(ExpectEngineMatchesOracle(p, db, "flights/generated-network"),
            6);

  // The recursive flight join binds the connecting airport to a symbol, so
  // the engine must actually exercise the hash index here.
  auto run = Evaluate(p, db, EvalOptions());
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->stats.index_probes, 0);
  EXPECT_LT(run->stats.index_candidates, run->stats.indexed_scan_equivalent);
}

TEST(WorkloadDifferentialTest, BinaryRelationJoin) {
  Program p = ParseOrDie(
      "j(X, Z) :- b1(X, Y), b2(Y, Z), X <= 20.\n"
      "k(X) :- j(X, Y), j(Y, Z).\n");
  Database db;
  ASSERT_TRUE(AddBinaryRelation(p.symbols.get(), "b1", 40, 12, 3, &db).ok());
  ASSERT_TRUE(AddBinaryRelation(p.symbols.get(), "b2", 40, 12, 4, &db).ok());
  EXPECT_EQ(ExpectEngineMatchesOracle(p, db, "binary-join"), 6);
}

TEST(WorkloadDifferentialTest, UnaryConstraintFactsAcrossStrata) {
  // Constraint facts (body-free rules with non-ground heads) must fire in
  // the first iteration of their own stratum, and no subsumption mode may
  // change the denotation.
  Program p = ParseOrDie(
      "base(X) :- X >= 0, X <= 10.\n"
      "base(X) :- X >= 3, X <= 5.\n"
      "lifted(X) :- base(X), u(X).\n");
  Database db;
  ASSERT_TRUE(AddUnaryRelation(p.symbols.get(), "u", 20, 15, 9, &db).ok());
  EXPECT_EQ(ExpectEngineMatchesOracle(p, db, "constraint-facts"), 6);
}

}  // namespace
}  // namespace cqlopt
