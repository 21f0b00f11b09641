#include "eval/relation.h"

#include <algorithm>
#include <chrono>

namespace cqlopt {

namespace {

/// Rough heap footprint of one stored fact: the conjunction's linear atoms
/// (map-node overhead per coefficient), union-find / symbol maps, and the
/// struct itself. Allocator slack is folded into the per-node constants.
size_t ApproxFactBytes(const Fact& fact) {
  constexpr size_t kMapNode = 48;  // red-black node + key/value payload
  size_t bytes = sizeof(Fact);
  for (const LinearConstraint& atom : fact.constraint.linear()) {
    bytes += sizeof(LinearConstraint) + sizeof(Rational);
    bytes += atom.expr().coefficients().size() * kMapNode;
  }
  bytes += fact.constraint.EqualityPairs().size() * kMapNode;
  bytes += fact.constraint.SymbolBindings().size() * kMapNode;
  return bytes;
}

/// The contiguous index range [first, last) of an ascending value array
/// whose values satisfy `query`'s bounds — exact, by binary search.
std::pair<size_t, size_t> AdmittedRange(const std::vector<Rational>& values,
                                        const Interval& query) {
  size_t first = 0;
  size_t last = values.size();
  if (!query.lower_infinite()) {
    const Rational& lo = query.lower();
    first = static_cast<size_t>(
        (query.lower_strict()
             ? std::upper_bound(values.begin(), values.end(), lo)
             : std::lower_bound(values.begin(), values.end(), lo)) -
        values.begin());
  }
  if (!query.upper_infinite()) {
    const Rational& hi = query.upper();
    last = static_cast<size_t>(
        (query.upper_strict()
             ? std::lower_bound(values.begin(), values.end(), hi)
             : std::upper_bound(values.begin(), values.end(), hi)) -
        values.begin());
  }
  if (last < first) last = first;
  return {first, last};
}

long ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Relation::Chunk* Relation::TailChunkForAppend() {
  if (chunks_.empty() || chunks_.back()->facts.size() == kChunkRows) {
    chunks_.push_back(std::make_shared<Chunk>());
  } else if (chunks_.back().use_count() > 1) {
    // The tail chunk is shared with a snapshot copy: clone it so the append
    // stays invisible to every other holder (copy-on-write).
    chunks_.back() = std::make_shared<Chunk>(*chunks_.back());
  }
  return chunks_.back().get();
}

void Relation::SealTail(IntervalIndex* idx) {
  if (idx->tail_rows.empty()) return;
  std::vector<size_t> order(idx->tail_rows.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    int cmp = idx->tail_values[a].Compare(idx->tail_values[b]);
    if (cmp != 0) return cmp < 0;
    return idx->tail_rows[a] < idx->tail_rows[b];
  });
  BoundRun run;
  run.values.reserve(order.size());
  run.rows.reserve(order.size());
  for (size_t k : order) {
    run.values.push_back(std::move(idx->tail_values[k]));
    run.rows.push_back(idx->tail_rows[k]);
  }
  idx->tail_rows.clear();
  idx->tail_values.clear();
  idx->runs.push_back(std::move(run));
  if (idx->runs.size() <= kMaxRuns) return;
  // Too many runs: collapse them all into one sorted run (amortized
  // O(log n) sort work per row over the relation's lifetime).
  size_t total = 0;
  for (const BoundRun& r : idx->runs) total += r.rows.size();
  std::vector<std::pair<size_t, size_t>> flat;  // (run, offset)
  flat.reserve(total);
  for (size_t r = 0; r < idx->runs.size(); ++r) {
    for (size_t k = 0; k < idx->runs[r].rows.size(); ++k) {
      flat.emplace_back(r, k);
    }
  }
  std::sort(flat.begin(), flat.end(),
            [&](const std::pair<size_t, size_t>& a,
                const std::pair<size_t, size_t>& b) {
              int cmp = idx->runs[a.first].values[a.second].Compare(
                  idx->runs[b.first].values[b.second]);
              if (cmp != 0) return cmp < 0;
              return idx->runs[a.first].rows[a.second] <
                     idx->runs[b.first].rows[b.second];
            });
  BoundRun merged;
  merged.values.reserve(total);
  merged.rows.reserve(total);
  for (const auto& [r, k] : flat) {
    merged.values.push_back(std::move(idx->runs[r].values[k]));
    merged.rows.push_back(idx->runs[r].rows[k]);
  }
  idx->runs.clear();
  idx->runs.push_back(std::move(merged));
}

InsertOutcome Relation::Insert(Fact fact, int birth, std::string rule_label,
                               std::vector<FactRef> parents, bool edb) {
  std::string key = fact.Key();
  bool is_ground = fact.IsGround();
  return InsertKeyed(std::move(fact), std::move(key), is_ground, birth,
                     std::move(rule_label), std::move(parents), edb);
}

InsertOutcome Relation::InsertKeyed(Fact fact, std::string key,
                                    bool is_ground, int birth,
                                    std::string rule_label,
                                    std::vector<FactRef> parents, bool edb) {
  if (keys_.count(key) > 0) return InsertOutcome::kDuplicate;

  // Classify each argument position (the column tag) and collect interval
  // summaries for numerically constrained positions. Bound propagation runs
  // at most once per fact, lazily, and never for facts with no linear atoms
  // (their positions classify from the direct lookups alone).
  size_t arity = static_cast<size_t>(fact.arity);
  std::vector<ColTag> tags(arity, ColTag::kUnbound);
  std::vector<SymbolId> syms(arity, SymbolId{});
  std::vector<Rational> nums(arity);
  std::vector<std::pair<size_t, Interval>> summaries;  // (pos-1, bounds)
  std::optional<IntervalDomain> domain;
  for (size_t p = 0; p < arity; ++p) {
    VarId v = static_cast<VarId>(p + 1);
    if (auto sym = fact.constraint.GetSymbol(v)) {
      tags[p] = ColTag::kSymbol;
      syms[p] = *sym;
      continue;
    }
    if (auto num = fact.constraint.QuickNumericValue(v)) {
      tags[p] = ColTag::kNumber;
      nums[p] = std::move(*num);
      continue;
    }
    if (fact.constraint.linear().empty()) continue;  // stays kUnbound
    auto start = std::chrono::steady_clock::now();
    if (!domain.has_value()) {
      domain =
          IntervalDomain::Propagate(fact.constraint.LinearWithEqualities());
    }
    const Interval& iv = domain->Of(fact.constraint.Find(v));
    interval_build_ns_ += ElapsedNs(start);
    if (!iv.lower_infinite() || !iv.upper_infinite()) {
      tags[p] = ColTag::kInterval;
      summaries.emplace_back(p, iv);
    }
  }

  // Append the row.
  size_t id = size_;
  keys_.emplace(std::move(key), id);
  if (birth > max_birth_) max_birth_ = birth;
  Chunk* tail = TailChunkForAppend();
  size_t row_in_chunk = tail->facts.size();
  if (tail->columns.size() < arity) {
    tail->columns.resize(arity);
    // Columns added mid-chunk are padded so every column array stays
    // parallel to the chunk's row arrays.
    for (Column& col : tail->columns) {
      col.tags.resize(row_in_chunk, static_cast<uint8_t>(ColTag::kAbsent));
      col.symbols.resize(row_in_chunk, SymbolId{});
      col.numbers.resize(row_in_chunk);
    }
  }
  tail->facts.push_back(std::move(fact));
  tail->births.push_back(birth);
  tail->ground.push_back(is_ground ? 1 : 0);
  tail->edb.push_back(edb ? 1 : 0);
  tail->support.push_back(1);
  tail->blocked.push_back(0);
  tail->rule_labels.push_back(std::move(rule_label));
  tail->parents.push_back(std::move(parents));
  for (size_t p = 0; p < tail->columns.size(); ++p) {
    Column& col = tail->columns[p];
    ColTag t = p < arity ? tags[p] : ColTag::kAbsent;
    col.tags.push_back(static_cast<uint8_t>(t));
    col.symbols.push_back(t == ColTag::kSymbol ? syms[p] : SymbolId{});
    col.numbers.push_back(t == ColTag::kNumber ? std::move(nums[p])
                                               : Rational());
  }
  ++size_;

  // Maintain both per-position indexes.
  if (index_.size() < arity) {
    index_.resize(arity);
    ival_index_.resize(arity);
  }
  auto start = std::chrono::steady_clock::now();
  for (size_t p = 0; p < arity; ++p) {
    const Column& col = tail->columns[p];
    ColTag t = static_cast<ColTag>(col.tags[row_in_chunk]);
    switch (t) {
      case ColTag::kSymbol:
        index_[p]
            .by_value[IndexKey{col.symbols[row_in_chunk], Rational()}]
            .push_back(id);
        ival_index_[p].loose.push_back(id);
        break;
      case ColTag::kNumber:
        index_[p]
            .by_value[IndexKey{std::nullopt, col.numbers[row_in_chunk]}]
            .push_back(id);
        ival_index_[p].tail_rows.push_back(id);
        ival_index_[p].tail_values.push_back(col.numbers[row_in_chunk]);
        if (ival_index_[p].tail_rows.size() >= kRunSeal) {
          SealTail(&ival_index_[p]);
        }
        break;
      case ColTag::kInterval:
        // Bounded short of a point: the hash index treats the position as
        // unbound (the row can match any probed value), while the interval
        // index keeps the bound summary for range pruning.
        index_[p].unbound.push_back(id);
        break;
      case ColTag::kUnbound:
        index_[p].unbound.push_back(id);
        ival_index_[p].loose.push_back(id);
        break;
      case ColTag::kAbsent:
        break;
    }
  }
  for (auto& [p, iv] : summaries) {
    ival_index_[p].ranged_rows.push_back(id);
    ival_index_[p].ranged_ivals.push_back(std::move(iv));
  }
  interval_build_ns_ += ElapsedNs(start);
  return InsertOutcome::kInserted;
}

Relation::Chunk* Relation::ChunkForCounterUpdate(size_t chunk_index) {
  if (chunks_[chunk_index].use_count() > 1) {
    chunks_[chunk_index] = std::make_shared<Chunk>(*chunks_[chunk_index]);
  }
  return chunks_[chunk_index].get();
}

void Relation::BumpSupport(size_t i) {
  ++ChunkForCounterUpdate(i >> kChunkShift)->support[i & kChunkMask];
}

void Relation::BumpBlocked(size_t i) {
  ++ChunkForCounterUpdate(i >> kChunkShift)->blocked[i & kChunkMask];
}

Relation Relation::Spliced(const std::vector<uint8_t>& dead,
                           const std::function<FactRef(FactRef)>& remap) const {
  Relation out;
  for (size_t i = 0; i < size_; ++i) {
    if (i < dead.size() && dead[i] != 0) continue;
    std::vector<FactRef> refs = parents(i);
    if (remap) {
      for (FactRef& ref : refs) ref = remap(ref);
    }
    out.InsertKeyed(fact(i), fact(i).Key(), ground(i), birth(i),
                    rule_label(i), std::move(refs), edb(i));
    Chunk* tail = out.chunks_.back().get();
    size_t row_in_chunk = (out.size_ - 1) & kChunkMask;
    tail->support[row_in_chunk] = support(i);
    tail->blocked[row_in_chunk] = blocked(i);
  }
  out.opaque_subsumption_events_ = opaque_subsumption_events_;
  return out;
}

Relation::IndexKey Relation::KeyOf(const ArgSignature& value) {
  if (value.symbol.has_value()) return IndexKey{value.symbol, Rational()};
  return IndexKey{std::nullopt, *value.number};
}

size_t Relation::ProbeCost(int position, const ArgSignature& value) const {
  size_t p = static_cast<size_t>(position - 1);
  if (p >= index_.size()) return 0;
  const PositionIndex& idx = index_[p];
  size_t cost = idx.unbound.size();
  auto it = idx.by_value.find(KeyOf(value));
  if (it != idx.by_value.end()) cost += it->second.size();
  return cost;
}

const std::vector<size_t>& Relation::Probe(int position,
                                           const ArgSignature& value,
                                           size_t limit,
                                           std::vector<size_t>* scratch) const {
  static const std::vector<size_t> kNoMatches;
  size_t p = static_cast<size_t>(position - 1);
  if (p >= index_.size()) return kNoMatches;
  const PositionIndex& idx = index_[p];
  auto it = idx.by_value.find(KeyOf(value));
  const std::vector<size_t>& bound =
      it == idx.by_value.end() ? kNoMatches : it->second;
  // Single-list fast paths: posting lists are ascending, so when the other
  // list is empty and the last id is below the limit the stored list itself
  // is the answer — no copy, no allocation (the hot ground-workload case).
  const std::vector<size_t>* only = nullptr;
  if (idx.unbound.empty()) {
    only = &bound;
  } else if (bound.empty()) {
    only = &idx.unbound;
  }
  if (only != nullptr) {
    if (only->empty() || only->back() < limit) return *only;
    std::vector<size_t>& out = *scratch;
    out.clear();
    out.assign(only->begin(),
               std::lower_bound(only->begin(), only->end(), limit));
    return out;
  }
  // Merge the two ascending lists, keeping insertion order, so the caller
  // enumerates candidates in exactly the order the linear scan would.
  std::vector<size_t>& out = *scratch;
  out.clear();
  out.reserve(bound.size() + idx.unbound.size());
  size_t bi = 0;
  size_t ui = 0;
  while (bi < bound.size() || ui < idx.unbound.size()) {
    size_t next;
    if (bi == bound.size()) {
      next = idx.unbound[ui++];
    } else if (ui == idx.unbound.size() || bound[bi] < idx.unbound[ui]) {
      next = bound[bi++];
    } else {
      next = idx.unbound[ui++];
    }
    if (next >= limit) break;
    out.push_back(next);
  }
  return out;
}

bool Relation::HasIntervalIndex(int position) const {
  size_t p = static_cast<size_t>(position - 1);
  if (p >= ival_index_.size()) return false;
  const IntervalIndex& idx = ival_index_[p];
  return !idx.runs.empty() || !idx.tail_rows.empty() ||
         !idx.ranged_rows.empty();
}

size_t Relation::IntervalProbeCost(int position, const Interval& query) const {
  size_t p = static_cast<size_t>(position - 1);
  if (p >= ival_index_.size()) return 0;
  const IntervalIndex& idx = ival_index_[p];
  size_t cost =
      idx.tail_rows.size() + idx.ranged_rows.size() + idx.loose.size();
  for (const BoundRun& run : idx.runs) {
    auto [first, last] = AdmittedRange(run.values, query);
    cost += last - first;
  }
  return cost;
}

const std::vector<size_t>& Relation::IntervalProbe(
    int position, const Interval& query, size_t limit,
    std::vector<size_t>* scratch, long* runs_pruned) const {
  static const std::vector<size_t> kNoMatches;
  size_t p = static_cast<size_t>(position - 1);
  if (p >= ival_index_.size()) return kNoMatches;
  const IntervalIndex& idx = ival_index_[p];
  std::vector<size_t>& out = *scratch;
  out.clear();
  for (const BoundRun& run : idx.runs) {
    auto [first, last] = AdmittedRange(run.values, query);
    if (first == last) {
      if (runs_pruned != nullptr) ++*runs_pruned;
      continue;
    }
    for (size_t k = first; k < last; ++k) out.push_back(run.rows[k]);
  }
  for (size_t k = 0; k < idx.tail_rows.size(); ++k) {
    if (query.Contains(idx.tail_values[k])) out.push_back(idx.tail_rows[k]);
  }
  for (size_t k = 0; k < idx.ranged_rows.size(); ++k) {
    if (query.Intersects(idx.ranged_ivals[k])) {
      out.push_back(idx.ranged_rows[k]);
    }
  }
  out.insert(out.end(), idx.loose.begin(), idx.loose.end());
  // Candidates must come out in ascending row order: the emit-visibility
  // and trace-identity contracts require probe enumeration to match the
  // scan's insertion order exactly.
  std::sort(out.begin(), out.end());
  out.erase(std::lower_bound(out.begin(), out.end(), limit), out.end());
  return out;
}

bool Relation::AllGround() const {
  for (const auto& chunk : chunks_) {
    for (uint8_t g : chunk->ground) {
      if (g == 0) return false;
    }
  }
  return true;
}

size_t Relation::ApproxChunkBytes(const Chunk& chunk) {
  size_t bytes = sizeof(Chunk);
  bytes += chunk.births.capacity() * sizeof(int);
  bytes += chunk.ground.capacity() + chunk.edb.capacity();
  bytes += (chunk.support.capacity() + chunk.blocked.capacity()) *
           sizeof(long);
  for (const Fact& fact : chunk.facts) bytes += ApproxFactBytes(fact);
  for (const std::string& label : chunk.rule_labels) {
    bytes += sizeof(std::string) + label.capacity();
  }
  for (const auto& refs : chunk.parents) {
    bytes += sizeof(refs) + refs.capacity() * sizeof(FactRef);
  }
  for (const Column& col : chunk.columns) {
    bytes += col.tags.capacity();
    bytes += col.symbols.capacity() * sizeof(SymbolId);
    bytes += col.numbers.capacity() * sizeof(Rational);
  }
  return bytes;
}

size_t Relation::ApproxBytes() const {
  size_t bytes = sizeof(Relation);
  for (const auto& chunk : chunks_) bytes += ApproxChunkBytes(*chunk);
  for (const auto& [key, row] : keys_) {
    bytes += sizeof(std::string) + key.capacity() + sizeof(row) +
             16;  // map node overhead
  }
  for (const PositionIndex& idx : index_) {
    bytes += idx.unbound.capacity() * sizeof(size_t);
    for (const auto& [key, rows] : idx.by_value) {
      bytes += sizeof(key) + 32 + rows.capacity() * sizeof(size_t);
    }
  }
  for (const IntervalIndex& idx : ival_index_) {
    for (const BoundRun& run : idx.runs) {
      bytes += run.values.capacity() * sizeof(Rational) +
               run.rows.capacity() * sizeof(size_t);
    }
    bytes += idx.tail_rows.capacity() * sizeof(size_t) +
             idx.tail_values.capacity() * sizeof(Rational);
    bytes += idx.ranged_rows.capacity() * sizeof(size_t) +
             idx.ranged_ivals.capacity() * sizeof(Interval);
    bytes += idx.loose.capacity() * sizeof(size_t);
  }
  return bytes;
}

size_t Relation::SharedBytes() const {
  size_t bytes = 0;
  for (const auto& chunk : chunks_) {
    if (chunk.use_count() > 1) bytes += ApproxChunkBytes(*chunk);
  }
  return bytes;
}

}  // namespace cqlopt
