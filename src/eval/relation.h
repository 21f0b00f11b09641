#ifndef CQLOPT_EVAL_RELATION_H_
#define CQLOPT_EVAL_RELATION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "constraint/interval.h"
#include "eval/fact.h"

namespace cqlopt {

/// Duplicate-elimination policy applied to freshly derived facts (the
/// "compared against previously generated p facts to check whether it is
/// indeed a new fact" step of Section 2). The fixpoint's end-of-iteration
/// reconciliation (eval/fixpoint.cc) is the one place that applies it;
/// Relation::Insert itself only drops structural duplicates.
enum class SubsumptionMode {
  /// Only structurally identical facts are duplicates. Constraint facts
  /// that are semantically subsumed survive — the ablation arm of
  /// bench_flights; can prevent termination.
  kNone,
  /// A new fact is discarded when some single existing fact implies it —
  /// the check the paper's Tables 1–2 apply (subsumed facts in boldface are
  /// "discarded, and not used to make new derivations").
  kSingleFact,
  /// A new fact is discarded when the *disjunction* of the existing facts
  /// implies it (exact set containment). Strictly stronger pruning than
  /// kSingleFact — e.g. p(X; 0<=X<=10) is discarded given p(X; X<=5) and
  /// p(X; X>=5) — at the cost of an exponential-in-principle case split
  /// per check (constraint/implication.h). An extension beyond the paper,
  /// which only discusses the single-fact check.
  kSetImplication,
};

/// What happened to an inserted fact.
enum class InsertOutcome {
  kInserted,
  kDuplicate,  // structurally identical fact already present
  kSubsumed,   // covered by other facts (decided by the reconciliation)
};

/// The set of facts of one predicate, each stamped with the iteration that
/// derived it (EDB facts carry birth -1), supporting the semi-naive
/// delta discipline.
///
/// Storage is *columnar* (DESIGN.md §12): rows live in fixed-size chunks of
/// parallel arrays — fact payloads, birth stamps, ground flags, provenance,
/// and one value column per argument position (tag + symbol + number) — so
/// the delta scan walks a contiguous birth array and the join pre-filter
/// reads value columns instead of chasing a per-fact signature vector.
/// Chunks are held by shared_ptr and copied lazily: copying a Relation (the
/// service layer publishes one immutable Database per snapshot epoch)
/// shares every chunk, and an append into a shared tail chunk clones just
/// that chunk first — sealed segments are never duplicated, so the
/// bytes-per-epoch cost of a snapshot is the indexes plus at most one
/// partial chunk per relation.
class Relation {
 public:
  /// Per-position quick values of a fact (the probe *query* shape): the
  /// directly-bound symbol or number of one argument position. Candidate
  /// facts whose column value clashes with the accumulated join state are
  /// skipped without touching the constraint machinery.
  struct ArgSignature {
    std::optional<SymbolId> symbol;
    std::optional<Rational> number;
  };

  /// Reference to a fact in a database: predicate plus row index.
  struct FactRef {
    PredId pred;
    size_t index;
  };

  /// Classification of one argument position of one stored fact, computed
  /// once at insertion and stored in the position's column.
  enum class ColTag : uint8_t {
    /// The fact's arity does not reach this position. Such rows are never
    /// enumerated by probes at the position (the arity check would reject
    /// them anyway).
    kAbsent = 0,
    /// No direct value and no finite numeric bounds — matches any probe.
    kUnbound,
    /// Bound to a symbolic constant (column's `symbols` array holds it).
    kSymbol,
    /// Bound to a single numeric point (column's `numbers` array holds it).
    /// These rows feed the interval index's sorted bound runs.
    kNumber,
    /// Numerically constrained short of a stored point: the fact's
    /// constraint gives the position finite lower and/or upper bounds
    /// (interval-propagated at insertion, kept in the interval index).
    kInterval,
  };

  /// Appends `fact` unless a structurally identical fact is stored
  /// (kDuplicate); no subsumption check. `birth` is the deriving
  /// iteration. `rule_label` and `parents` record provenance (empty for
  /// EDB facts). `edb` marks a base fact — a row retractions may target
  /// (eval/retract.h); the derivation path never sets it.
  InsertOutcome Insert(Fact fact, int birth, std::string rule_label = "",
                       std::vector<FactRef> parents = {}, bool edb = false);

  /// Insert for callers that already hold `fact.Key()` and
  /// `fact.IsGround()` (the fixpoint's commit loop, whose reconciliation
  /// computed both), so neither is recomputed.
  InsertOutcome InsertKeyed(Fact fact, std::string key, bool is_ground,
                            int birth, std::string rule_label,
                            std::vector<FactRef> parents, bool edb = false);

  /// True if a structurally identical fact is stored.
  bool ContainsKey(const std::string& key) const {
    return keys_.count(key) > 0;
  }

  /// Row index of the structurally identical stored fact, if any.
  std::optional<size_t> RowOf(const std::string& key) const {
    auto it = keys_.find(key);
    if (it == keys_.end()) return std::nullopt;
    return it->second;
  }

  /// Row storage is append-only: Insert never reorders or removes, so row
  /// indexes are stable and iterating over a size snapshot taken before a
  /// batch of inserts visits exactly the pre-batch facts (the
  /// emit-visibility contract of rule_application.h relies on this together
  /// with birth stamps).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Row accessors; `i < size()` is the caller's obligation.
  const Fact& fact(size_t i) const {
    return chunks_[i >> kChunkShift]->facts[i & kChunkMask];
  }
  int birth(size_t i) const {
    return chunks_[i >> kChunkShift]->births[i & kChunkMask];
  }
  /// Cached Fact::IsGround(), computed once at insertion: the subsumption
  /// fast path relies on it (a ground fact cannot subsume a distinct fact).
  bool ground(size_t i) const {
    return chunks_[i >> kChunkShift]->ground[i & kChunkMask] != 0;
  }
  /// Provenance (Definition 2.2's derivation trees): the rule that derived
  /// this fact and the body facts used, in body-literal order. Empty rule
  /// label and parents for EDB facts.
  const std::string& rule_label(size_t i) const {
    return chunks_[i >> kChunkShift]->rule_labels[i & kChunkMask];
  }
  const std::vector<FactRef>& parents(size_t i) const {
    return chunks_[i >> kChunkShift]->parents[i & kChunkMask];
  }

  /// True if the row is a base (EDB) fact — the only rows a retraction may
  /// name directly.
  bool edb(size_t i) const {
    return chunks_[i >> kChunkShift]->edb[i & kChunkMask] != 0;
  }
  /// Counting maintenance (DESIGN.md §14): number of derivation events that
  /// produced this fact — 1 for the storing event (EDB load or the first
  /// kInserted derivation) plus one per later duplicate-discarded event.
  /// support() == 1 means the recorded parents are the row's *only*
  /// derivation, so losing one of them kills the row without re-derivation.
  long support(size_t i) const {
    return chunks_[i >> kChunkShift]->support[i & kChunkMask];
  }
  /// Number of candidate derivations this row discarded by single-fact
  /// subsumption. A retracted row with blocked() > 0 may have suppressed
  /// facts a scratch run would store, so deleting it forces re-derivation.
  long blocked(size_t i) const {
    return chunks_[i >> kChunkShift]->blocked[i & kChunkMask];
  }
  /// Bump the counters above for row `i` (clones a shared chunk first, so
  /// snapshot copies never observe the update).
  void BumpSupport(size_t i);
  void BumpBlocked(size_t i);

  /// Subsumption events charged against this relation that cannot be pinned
  /// on one stored row (a set-implication cover, or a subsumer that was
  /// itself discarded). Any such event poisons row-level counting for the
  /// whole relation: a retraction must fall back to re-derivation there.
  long opaque_subsumption_events() const { return opaque_subsumption_events_; }
  void NoteOpaqueSubsumption() { ++opaque_subsumption_events_; }

  /// Rebuilds this relation without the rows marked in `dead` (indexed by
  /// row; rows beyond dead.size() are kept), preserving births, provenance
  /// labels, EDB flags, and the support/blocked counters of surviving rows.
  /// `remap` (may be null) rewrites each surviving row's parent references —
  /// callers pass the old-row -> new-row maps of *other* spliced relations;
  /// it is never called on a reference into this relation. Surviving rows
  /// are re-inserted in order, so indexes, chunk boundaries, and interval
  /// runs end up exactly as if only the survivors had ever been inserted.
  Relation Spliced(const std::vector<uint8_t>& dead,
                   const std::function<FactRef(FactRef)>& remap) const;

  /// Column reads for the join pre-filter. `position` is 1-based; positions
  /// beyond the fact's arity read kAbsent. symbol_at / number_at are only
  /// meaningful when the tag is kSymbol / kNumber respectively.
  ColTag tag(size_t i, int position) const {
    const Chunk& chunk = *chunks_[i >> kChunkShift];
    size_t p = static_cast<size_t>(position - 1);
    if (p >= chunk.columns.size()) return ColTag::kAbsent;
    return static_cast<ColTag>(chunk.columns[p].tags[i & kChunkMask]);
  }
  SymbolId symbol_at(size_t i, int position) const {
    const Chunk& chunk = *chunks_[i >> kChunkShift];
    return chunk.columns[static_cast<size_t>(position - 1)]
        .symbols[i & kChunkMask];
  }
  const Rational& number_at(size_t i, int position) const {
    const Chunk& chunk = *chunks_[i >> kChunkShift];
    return chunk.columns[static_cast<size_t>(position - 1)]
        .numbers[i & kChunkMask];
  }

  /// Number of rows a hash-index probe at 1-based `position` for `value`
  /// would enumerate (bound matches plus the unbound fallback list), with
  /// no limit applied. Used to pick the most selective bound position
  /// before materializing a probe.
  size_t ProbeCost(int position, const ArgSignature& value) const;

  /// Hash-index probe: the row indexes, in ascending (= insertion) order
  /// and restricted to indexes < `limit`, of facts that can match `value`
  /// at 1-based `position`. That is facts whose column binds the position
  /// to exactly the probed symbol/number, merged with facts whose column
  /// leaves the position unbound — constraint facts restrict such positions
  /// only through their constraint part (e.g. `$1 > 0`), so they can match
  /// any probed value and are always enumerated.
  ///
  /// `value` must have exactly one of symbol/number set. Enumerating the
  /// result under the caller's arity and column checks visits exactly the
  /// facts a linear scan over rows [0, limit) keeps after its column
  /// pre-filter at this position.
  ///
  /// Returns a reference valid until the next Insert: either a posting list
  /// owned by the index (the common no-merge case — no allocation, the hot
  /// join path's win) or `*scratch` after filling it. `scratch` must be
  /// non-null and outlive the use of the returned reference.
  const std::vector<size_t>& Probe(int position, const ArgSignature& value,
                                   size_t limit,
                                   std::vector<size_t>* scratch) const;

  /// Upper bound on the rows an interval probe at `position` with `query`
  /// would enumerate: the sorted-run ranges admitted by the query (binary
  /// searched, exact) plus every not-yet-sealed point row, ranged row, and
  /// unprunable (symbol/unbound) row. Cheap — no per-row value checks — and
  /// never under-reports, so callers can compare it against the scan size
  /// when choosing an access path.
  size_t IntervalProbeCost(int position, const Interval& query) const;

  /// Interval-index probe (DESIGN.md §12): the row indexes, ascending and
  /// < `limit`, of facts NOT provably excluded by `query` at 1-based
  /// `position`:
  ///  - point rows (ColTag::kNumber) whose value lies in `query` — whole
  ///    runs of out-of-range rows are skipped by binary search on the
  ///    sorted bound runs;
  ///  - ranged rows (kInterval) whose propagated bound summary intersects
  ///    `query`;
  ///  - every kSymbol / kUnbound row (never numerically excluded).
  /// A pruned row is one whose conjunction with any join state entailing
  /// `query` at this position is unsatisfiable, so enumerating the result
  /// makes exactly the derivations the full scan would, in the same order.
  /// When `runs_pruned` is non-null it accumulates the number of sealed
  /// runs the binary search rejected wholesale. Reference semantics as
  /// Probe (`*scratch` is used whenever filtering or merging is needed).
  const std::vector<size_t>& IntervalProbe(int position, const Interval& query,
                                           size_t limit,
                                           std::vector<size_t>* scratch,
                                           long* runs_pruned = nullptr) const;

  /// True if any row at `position` carries numeric content the interval
  /// index can prune on (a point value or a finite bound summary).
  bool HasIntervalIndex(int position) const;

  /// True if every stored fact is ground.
  bool AllGround() const;

  /// Largest birth stamp ever stored (-2 while empty). A cheap
  /// delta-availability bound for semi-naive joins: no row of this relation
  /// can have birth == b when max_birth() < b. The bound is an
  /// over-approximation in the other direction — it never decreases, so it
  /// can exceed the birth of every *current* row; callers may only use it
  /// to prune, never to assert a delta exists.
  int max_birth() const { return max_birth_; }

  /// Nanoseconds spent building interval-index state (bound propagation of
  /// inserted constraints, run sealing and merging) over this relation's
  /// lifetime. Monotone; surfaced through EvalStats.
  long interval_build_ns() const { return interval_build_ns_; }

  /// Approximate resident bytes of this relation: chunked columns, fact
  /// payloads, provenance, key set, and both indexes. An estimate (heap
  /// allocator overhead and small-string storage are approximated), meant
  /// for bytes-per-fact trend reporting, not exact accounting. Chunks
  /// shared with other Relation copies are counted in full here; see
  /// SharedBytes for the portion a copy would share.
  size_t ApproxBytes() const;

  /// Approximate bytes of this relation held in chunks shared with at least
  /// one other Relation copy — the storage a snapshot copy reuses instead
  /// of duplicating (the copy-on-write saving of DESIGN.md §12).
  size_t SharedBytes() const;

 private:
  /// Rows per chunk. Power of two so row -> (chunk, offset) is a shift and
  /// a mask on the hot accessors.
  static constexpr size_t kChunkShift = 8;
  static constexpr size_t kChunkRows = size_t{1} << kChunkShift;
  static constexpr size_t kChunkMask = kChunkRows - 1;

  /// Point rows accumulate in an unsorted tail; at this size the tail is
  /// sorted and sealed into a bound run.
  static constexpr size_t kRunSeal = 128;
  /// Sealed runs beyond this count are merged into one (amortized O(log n)
  /// sort work per row), bounding the binary searches per probe.
  static constexpr size_t kMaxRuns = 8;

  /// One argument position's value column within a chunk; arrays are
  /// parallel to the chunk's row arrays (padded with kAbsent defaults for
  /// rows inserted before the column first appeared).
  struct Column {
    std::vector<uint8_t> tags;      // ColTag per row
    std::vector<SymbolId> symbols;  // valid where tag == kSymbol
    std::vector<Rational> numbers;  // valid where tag == kNumber
  };

  /// A columnar segment of kChunkRows rows. Only the last chunk of a
  /// relation is ever appended to; a chunk reachable from more than one
  /// Relation is cloned before mutation (copy-on-write), so shared chunks
  /// are de-facto immutable.
  struct Chunk {
    std::vector<Fact> facts;
    std::vector<int> births;
    std::vector<uint8_t> ground;
    std::vector<uint8_t> edb;     // base-fact flag (retraction targets)
    std::vector<long> support;    // derivation events per row (counting)
    std::vector<long> blocked;    // derivations this row subsumed away
    std::vector<std::string> rule_labels;
    std::vector<std::vector<FactRef>> parents;
    std::vector<Column> columns;
  };

  /// Exact map key of a directly-bound value — the bound symbol, or the
  /// bound number when no symbol is bound. An exact key (not a bare hash):
  /// conflating two distinct values would merge their posting lists and
  /// corrupt join results. Symbols and numbers cannot collide (a key is a
  /// symbol key iff `symbol` is set; `number` is ignored then).
  struct IndexKey {
    std::optional<SymbolId> symbol;
    Rational number;

    bool operator==(const IndexKey& other) const {
      return symbol == other.symbol &&
             (symbol.has_value() || number == other.number);
    }
  };
  struct IndexKeyHash {
    size_t operator()(const IndexKey& key) const {
      // Tags keep a symbol's hash distinct from a number's even when the
      // underlying integer values coincide.
      return key.symbol.has_value()
                 ? std::hash<SymbolId>()(*key.symbol) ^ size_t{0x9e3779b9}
                 : key.number.Hash();
    }
  };

  /// Per-argument-position hash index, maintained by Insert. Only facts
  /// that were actually stored (InsertOutcome::kInserted) are indexed;
  /// duplicates and subsumed facts never enter. Row-id lists are ascending
  /// because ids are assigned in insertion order.
  struct PositionIndex {
    std::unordered_map<IndexKey, std::vector<size_t>, IndexKeyHash> by_value;
    std::vector<size_t> unbound;
  };

  /// A sealed sorted run of point-valued rows: `values` ascending (ties by
  /// row id), `rows` parallel. Binary search admits or rejects the whole
  /// run range for a query interval.
  struct BoundRun {
    std::vector<Rational> values;
    std::vector<size_t> rows;
  };

  /// Per-argument-position interval index over the numeric content of the
  /// column: sorted bound runs + unsorted tail for point rows, propagated
  /// bound summaries for ranged rows, and the unprunable remainder.
  struct IntervalIndex {
    std::vector<BoundRun> runs;
    std::vector<size_t> tail_rows;      // insertion order
    std::vector<Rational> tail_values;  // parallel
    std::vector<size_t> ranged_rows;    // kInterval rows, insertion order
    std::vector<Interval> ranged_ivals;  // parallel bound summaries
    std::vector<size_t> loose;  // kSymbol + kUnbound rows — always enumerated
  };

  /// Index key of a signature binding a symbol or a number (exactly one
  /// must be set). No string is materialized — Probe/ProbeCost run once
  /// per candidate join, and the old "s<id>"/"n<rational>" string keys
  /// showed up as allocation hot spots.
  static IndexKey KeyOf(const ArgSignature& value);

  /// The chunk the next row lands in, exclusively owned: starts a fresh
  /// chunk when the tail is full, clones the tail first when it is shared
  /// with another Relation copy (copy-on-write).
  Chunk* TailChunkForAppend();

  /// Exclusive ownership of an arbitrary chunk for a counter update
  /// (clone-on-write when shared with a snapshot copy).
  Chunk* ChunkForCounterUpdate(size_t chunk_index);

  /// Seals the tail of `idx` into a sorted run; merges all runs into one
  /// when their count exceeds kMaxRuns.
  void SealTail(IntervalIndex* idx);

  /// Approximate resident bytes of one chunk (rows, provenance, columns).
  static size_t ApproxChunkBytes(const Chunk& chunk);

  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t size_ = 0;
  std::unordered_map<std::string, size_t> keys_;  // structural key -> row
  std::vector<PositionIndex> index_;   // index_[p-1]; sized to max arity seen
  std::vector<IntervalIndex> ival_index_;  // parallel to index_
  int max_birth_ = -2;
  long interval_build_ns_ = 0;
  long opaque_subsumption_events_ = 0;
};

}  // namespace cqlopt

#endif  // CQLOPT_EVAL_RELATION_H_
