#include "eval/relation.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "eval/database.h"

namespace cqlopt {
namespace {

LinearConstraint Atom(std::vector<std::pair<VarId, int>> terms, int constant,
                      CmpOp op) {
  LinearExpr e;
  for (auto& [v, c] : terms) e.Add(v, Rational(c));
  e.AddConstant(Rational(constant));
  return LinearConstraint(e, op);
}

Fact MakeFact(int bound, CmpOp op = CmpOp::kLe) {
  Conjunction c;
  EXPECT_TRUE(c.AddLinear(Atom({{1, 1}}, -bound, op)).ok());
  return Fact(0, 1, c);
}

TEST(RelationTest, InsertAndDuplicate) {
  Relation rel;
  EXPECT_EQ(rel.Insert(MakeFact(3), 0), InsertOutcome::kInserted);
  EXPECT_EQ(rel.Insert(MakeFact(3), 1), InsertOutcome::kDuplicate);
  EXPECT_EQ(rel.size(), 1u);
}

TEST(RelationTest, InsertKeepsImpliedFact) {
  // Insert drops structural duplicates only; subsumption is the fixpoint
  // reconciliation's decision (see EvalTest's subsumption cases).
  Relation rel;
  EXPECT_EQ(rel.Insert(MakeFact(5), 0), InsertOutcome::kInserted);
  // x <= 3 implies x <= 5, and is stored all the same.
  EXPECT_EQ(rel.Insert(MakeFact(3), 1), InsertOutcome::kInserted);
  EXPECT_EQ(rel.size(), 2u);
}

TEST(RelationTest, InsertKeyedUsesGivenKeyAndGroundness) {
  Relation rel;
  Conjunction ground;
  ASSERT_TRUE(ground.AddLinear(Atom({{1, 1}}, -3, CmpOp::kEq)).ok());
  Fact fact(0, 1, ground);
  std::string key = fact.Key();
  EXPECT_EQ(rel.InsertKeyed(fact, key, /*is_ground=*/true, 0, "r", {}),
            InsertOutcome::kInserted);
  EXPECT_TRUE(rel.ground(0));
  EXPECT_EQ(rel.RowOf(key), std::optional<size_t>(0));
  EXPECT_EQ(rel.Insert(fact, 1), InsertOutcome::kDuplicate);
}

TEST(RelationTest, BirthRecorded) {
  Relation rel;
  (void)rel.Insert(MakeFact(3), 4);
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.birth(0), 4);
}

TEST(RelationTest, AllGround) {
  Relation rel;
  Conjunction ground;
  ASSERT_TRUE(ground.AddLinear(Atom({{1, 1}}, -3, CmpOp::kEq)).ok());
  (void)rel.Insert(Fact(0, 1, ground), 0);
  EXPECT_TRUE(rel.AllGround());
  (void)rel.Insert(MakeFact(7), 0);
  EXPECT_FALSE(rel.AllGround());
}

// --- Per-position hash index -------------------------------------------
//
// The contract under test (relation.h): Probe(pos, value, limit) visits, in
// ascending entry order, exactly the entries < limit that a linear scan
// keeps after the ArgSignature pre-filter at that position — facts directly
// bound to the probed value, merged with facts whose position is
// constraint-only bound (unbound signature, e.g. `$1 > 0`).

/// $1 = n: direct equality, so QuickNumericValue binds the signature.
Fact NumberFact(int n) {
  Conjunction c;
  EXPECT_TRUE(c.AddLinear(Atom({{1, 1}}, -n, CmpOp::kEq)).ok());
  return Fact(0, 1, c);
}

/// $1 bound to a symbol.
Fact SymbolFact(SymbolId s) {
  Conjunction c;
  EXPECT_TRUE(c.BindSymbol(1, s).ok());
  return Fact(0, 1, c);
}

/// lo <= $1 <= hi: the position is restricted only through inequalities,
/// so its signature stays unbound (constraint-only bound).
Fact RangeFact(int lo, int hi) {
  Conjunction c;
  EXPECT_TRUE(c.AddLinear(Atom({{1, -1}}, lo, CmpOp::kLe)).ok());
  EXPECT_TRUE(c.AddLinear(Atom({{1, 1}}, -hi, CmpOp::kLe)).ok());
  return Fact(0, 1, c);
}

/// The linear scan the index replaces: rows [0, limit) surviving the value
/// column pre-filter at `position`.
std::vector<size_t> ScanWithPrefilter(const Relation& rel, int position,
                                      const Relation::ArgSignature& value,
                                      size_t limit) {
  std::vector<size_t> out;
  size_t n = std::min(limit, rel.size());
  for (size_t i = 0; i < n; ++i) {
    switch (rel.tag(i, position)) {
      case Relation::ColTag::kSymbol:
        if (!value.symbol.has_value() ||
            rel.symbol_at(i, position) != *value.symbol) {
          continue;
        }
        break;
      case Relation::ColTag::kNumber:
        if (!value.number.has_value() ||
            !(rel.number_at(i, position) == *value.number)) {
          continue;
        }
        break;
      default:
        break;  // absent / unbound / interval-bound: never pre-filtered
    }
    out.push_back(i);
  }
  return out;
}

/// Probe through a local scratch buffer, copied out for comparison.
std::vector<size_t> ProbeVec(const Relation& rel, int position,
                             const Relation::ArgSignature& value,
                             size_t limit) {
  std::vector<size_t> scratch;
  return rel.Probe(position, value, limit, &scratch);
}

Relation::ArgSignature NumberValue(int n) {
  return Relation::ArgSignature{std::nullopt, Rational(n)};
}

Relation::ArgSignature SymbolValue(SymbolId s) {
  return Relation::ArgSignature{s, std::nullopt};
}

TEST(RelationIndexTest, ProbeEqualsScanWithPrefilter) {
  Relation rel;
  (void)rel.Insert(NumberFact(3), 0);
  (void)rel.Insert(RangeFact(0, 10), 0);
  (void)rel.Insert(NumberFact(7), 1);
  (void)rel.Insert(SymbolFact(4), 1);
  (void)rel.Insert(NumberFact(9), 2);
  (void)rel.Insert(RangeFact(2, 5), 2);
  for (const auto& value :
       {NumberValue(3), NumberValue(7), NumberValue(99), SymbolValue(4),
        SymbolValue(5)}) {
    for (size_t limit : {size_t{0}, size_t{3}, rel.size(), size_t{100}}) {
      EXPECT_EQ(ProbeVec(rel, 1, value, limit),
                ScanWithPrefilter(rel, 1, value, limit));
    }
  }
}

TEST(RelationIndexTest, ConstraintOnlyBoundEnumeratedForEveryValue) {
  Relation rel;
  (void)rel.Insert(RangeFact(0, 10), 0);
  // The range fact's position 1 has no direct binding: it must appear in
  // every probe, even for values outside the range — the caller's
  // constraint conjunction, not the index, decides satisfiability.
  EXPECT_EQ(ProbeVec(rel, 1, NumberValue(5), rel.size()),
            std::vector<size_t>({0}));
  EXPECT_EQ(ProbeVec(rel, 1, NumberValue(99), rel.size()),
            std::vector<size_t>({0}));
  EXPECT_EQ(ProbeVec(rel, 1, SymbolValue(1), rel.size()),
            std::vector<size_t>({0}));
}

TEST(RelationIndexTest, RejectedFactsAreNeverIndexed) {
  Relation rel;
  EXPECT_EQ(rel.Insert(NumberFact(3), 0), InsertOutcome::kInserted);
  EXPECT_EQ(rel.Insert(NumberFact(3), 1), InsertOutcome::kDuplicate);
  EXPECT_EQ(rel.Insert(MakeFact(5), 1), InsertOutcome::kInserted);
  EXPECT_EQ(rel.Insert(MakeFact(5), 2), InsertOutcome::kDuplicate);
  // Only the two stored entries are reachable through the index.
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(ProbeVec(rel, 1, NumberValue(3), rel.size()),
            std::vector<size_t>({0, 1}));  // row 1 is interval-bound (x <= 5)
  EXPECT_EQ(rel.ProbeCost(1, NumberValue(3)), 2u);
}

TEST(RelationIndexTest, ProbeCostMatchesUnlimitedProbe) {
  Relation rel;
  (void)rel.Insert(NumberFact(1), 0);
  (void)rel.Insert(NumberFact(2), 0);
  (void)rel.Insert(RangeFact(0, 3), 0);
  (void)rel.Insert(SymbolFact(2), 0);
  for (const auto& value : {NumberValue(1), NumberValue(2), SymbolValue(2),
                            SymbolValue(9), NumberValue(42)}) {
    EXPECT_EQ(rel.ProbeCost(1, value),
              ProbeVec(rel, 1, value, rel.size()).size());
  }
}

TEST(RelationIndexTest, SymbolAndNumberKeysNeverCollide) {
  Relation rel;
  (void)rel.Insert(NumberFact(7), 0);
  (void)rel.Insert(SymbolFact(7), 0);
  EXPECT_EQ(ProbeVec(rel, 1, NumberValue(7), rel.size()),
            std::vector<size_t>({0}));
  EXPECT_EQ(ProbeVec(rel, 1, SymbolValue(7), rel.size()),
            std::vector<size_t>({1}));
}

TEST(RelationIndexTest, MergedResultIsAscendingInsertionOrder) {
  Relation rel;
  // Interleave bound and unbound entries so the merge has real work to do.
  (void)rel.Insert(RangeFact(0, 1), 0);  // 0
  (void)rel.Insert(NumberFact(5), 0);    // 1
  (void)rel.Insert(RangeFact(0, 2), 0);  // 2
  (void)rel.Insert(NumberFact(6), 0);    // 3
  (void)rel.Insert(RangeFact(0, 3), 0);  // 4
  EXPECT_EQ(ProbeVec(rel, 1, NumberValue(5), rel.size()),
            std::vector<size_t>({0, 1, 2, 4}));
  // The snapshot limit cuts the merged stream, not just one side.
  EXPECT_EQ(ProbeVec(rel, 1, NumberValue(5), 2), std::vector<size_t>({0, 1}));
  EXPECT_EQ(ProbeVec(rel, 1, NumberValue(6), 4),
            std::vector<size_t>({0, 2, 3}));
}

TEST(RelationIndexTest, ProbeBeyondSeenArityIsEmpty) {
  Relation rel;
  (void)rel.Insert(NumberFact(3), 0);
  EXPECT_EQ(ProbeVec(rel, 2, NumberValue(3), rel.size()),
            std::vector<size_t>{});
  EXPECT_EQ(rel.ProbeCost(2, NumberValue(3)), 0u);
}

TEST(DatabaseTest, AddGroundFactBuildsConstraints) {
  SymbolTable symbols;
  Database db;
  ASSERT_TRUE(db.AddGroundFact(&symbols, "leg",
                               {Database::Value::Symbol("a"),
                                Database::Value::Number(Rational(7))})
                  .ok());
  PredId leg = symbols.LookupPredicate("leg");
  const Relation* rel = db.Find(leg);
  ASSERT_NE(rel, nullptr);
  ASSERT_EQ(rel->size(), 1u);
  EXPECT_TRUE(rel->fact(0).IsGround());
  EXPECT_EQ(rel->birth(0), -1);
  EXPECT_EQ(db.TotalFacts(), 1u);
  EXPECT_EQ(db.FactsFor(leg), 1u);
  EXPECT_TRUE(db.AllGround());
}

TEST(DatabaseTest, FindMissingRelationIsNull) {
  Database db;
  EXPECT_EQ(db.Find(99), nullptr);
  EXPECT_EQ(db.FactsFor(99), 0u);
}

}  // namespace
}  // namespace cqlopt
