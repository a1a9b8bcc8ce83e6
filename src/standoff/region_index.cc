#include "standoff/region_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/string_util.h"
#include "storage/columns.h"
#include "storage/delta.h"

namespace standoff {
namespace so {

ResolvedConfig Resolve(const StandoffConfig& config,
                       const storage::NameTable& names) {
  ResolvedConfig resolved;
  resolved.start_attr = names.Lookup(config.start_attr);
  resolved.end_attr = names.Lookup(config.end_attr);
  return resolved;
}

std::string ConfigFingerprint(const StandoffConfig& config) {
  return config.start_attr + "|" + config.end_attr + "|" + config.type;
}

StatusOr<StandoffConfig> ParseConfigFingerprint(
    const std::string& fingerprint) {
  const size_t first = fingerprint.find('|');
  const size_t second =
      first == std::string::npos ? std::string::npos
                                 : fingerprint.find('|', first + 1);
  if (second == std::string::npos ||
      fingerprint.find('|', second + 1) != std::string::npos) {
    return Status::Invalid("malformed config fingerprint: " + fingerprint);
  }
  StandoffConfig config;
  config.start_attr = fingerprint.substr(0, first);
  config.end_attr = fingerprint.substr(first + 1, second - first - 1);
  config.type = fingerprint.substr(second + 1);
  if (config.start_attr.empty() || config.end_attr.empty()) {
    return Status::Invalid("malformed config fingerprint: " + fingerprint);
  }
  return config;
}

namespace {

/// Rounds to int64 iff the result is representable. std::round matches
/// llround's round-half-away-from-zero; 2^63 is exactly representable
/// as a double and is the first value above every valid int64, so the
/// half-open bound test is exact and the final cast never overflows.
bool RoundToInt64(double value, int64_t* out) {
  if (!std::isfinite(value)) return false;
  const double rounded = std::round(value);
  if (rounded < -9223372036854775808.0 || rounded >= 9223372036854775808.0) {
    return false;
  }
  *out = static_cast<int64_t>(rounded);
  return true;
}

}  // namespace

bool ParseRegionValue(std::string_view text, int64_t* out) {
  text = TrimWhitespace(text);
  if (text.empty()) return false;
  if (text.find(':') != std::string_view::npos) {
    // Timecode: colon-separated parts, most significant first. Parts
    // accumulate as doubles so fractional components keep their scale;
    // only the final total is rounded. Non-leading parts are sub-unit
    // digits and must lie in [0, 60) — "1:99:00" is malformed, not
    // 99 minutes.
    double total = 0;
    size_t begin = 0;
    bool leading = true;
    while (begin <= text.size()) {
      size_t colon = text.find(':', begin);
      std::string_view part = colon == std::string_view::npos
                                  ? text.substr(begin)
                                  : text.substr(begin, colon - begin);
      StatusOr<double> value = ParseDouble(part);
      if (!value.ok()) return false;
      if (!leading && (*value < 0 || *value >= 60)) return false;
      total = total * 60 + *value;
      leading = false;
      if (colon == std::string_view::npos) break;
      begin = colon + 1;
    }
    return RoundToInt64(total, out);
  }
  // Plain numbers. Integer-looking text takes the exact int64 path ONLY:
  // doubles lose precision past 2^53 and would round some out-of-range
  // integers (e.g. INT64_MIN - 1) back into range, so an integer that
  // fails the strict parse is an overflow, not a fraction.
  const size_t digits_from = text[0] == '+' || text[0] == '-' ? 1 : 0;
  bool looks_integer = digits_from < text.size();
  for (size_t i = digits_from; i < text.size() && looks_integer; ++i) {
    looks_integer = text[i] >= '0' && text[i] <= '9';
  }
  if (looks_integer) {
    StatusOr<int64_t> integer = ParseInt64(text);
    if (!integer.ok()) return false;
    *out = *integer;
    return true;
  }
  StatusOr<double> value = ParseDouble(text);
  if (!value.ok()) return false;
  return RoundToInt64(*value, out);
}

void RegionColumnsData::Reserve(size_t n) {
  start_.reserve(n);
  end_.reserve(n);
  id_.reserve(n);
}

void RegionColumnsData::Append(int64_t start, int64_t end, storage::Pre id) {
  if (!start_.empty() && start < start_.back()) start_sorted_ = false;
  start_.push_back(start);
  end_.push_back(end);
  id_.push_back(id);
}

void RegionColumnsData::Clear() {
  start_.clear();
  end_.clear();
  id_.clear();
  start_sorted_ = true;
}

void RegionColumnsData::SortCanonical() {
  const int64_t* s = start_.data();
  const int64_t* e = end_.data();
  const storage::Pre* d = id_.data();
  const auto less = [s, e, d](uint32_t a, uint32_t b) {
    if (s[a] != s[b]) return s[a] < s[b];
    if (e[a] != e[b]) return e[a] < e[b];
    return d[a] < d[b];
  };
  bool sorted = true;
  for (size_t i = 1; i < size(); ++i) {
    if (less(static_cast<uint32_t>(i), static_cast<uint32_t>(i - 1))) {
      sorted = false;
      break;
    }
  }
  if (!sorted) {
    const std::vector<uint32_t> perm = storage::SortPermutation(size(), less);
    storage::ApplyPermutation(perm, &start_);
    storage::ApplyPermutation(perm, &end_);
    storage::ApplyPermutation(perm, &id_);
  }
  start_sorted_ = true;
}

void RegionColumnsData::GatherFrom(const RegionColumnsData& src,
                                   const std::vector<uint32_t>& rows) {
  storage::GatherColumn(src.start_, rows, &start_);
  storage::GatherColumn(src.end_, rows, &end_);
  storage::GatherColumn(src.id_, rows, &id_);
  // Ascending rows gathered from a start-sorted source into an empty
  // table stay start-sorted; appending after prior rows loses the
  // promise until SortCanonical runs.
  start_sorted_ =
      start_sorted_ && src.start_sorted_ && start_.size() == rows.size();
}

void RegionColumnsData::AppendRows(const RegionColumns& src, size_t lo,
                                   size_t hi) {
  if (lo == hi) return;
  if (!src.start_sorted ||
      (!start_.empty() && src.start[lo] < start_.back())) {
    start_sorted_ = false;
  }
  start_.append(src.start + lo, hi - lo);
  end_.append(src.end + lo, hi - lo);
  id_.append(src.id + lo, hi - lo);
}

void RegionColumnsData::BorrowFrom(const RegionColumns& view) {
  start_.Borrow(view.start, view.size);
  end_.Borrow(view.end, view.size);
  id_.Borrow(view.id, view.size);
  start_sorted_ = view.start_sorted;
}

RegionColumns RegionColumnsData::View() const {
  RegionColumns view;
  view.start = start_.data();
  view.end = end_.data();
  view.id = id_.data();
  view.size = size();
  view.start_sorted = start_sorted_;
  return view;
}

void RegionIndex::BuildIdIndex() {
  rows_by_id_.Adopt(storage::SortPermutation(
      cols_.size(), [this](uint32_t a, uint32_t b) {
        return cols_.id()[a] < cols_.id()[b];
      }));
  std::vector<storage::Pre> ids;
  ids.reserve(cols_.size());
  for (uint32_t i : rows_by_id_) {
    const storage::Pre id = cols_.id()[i];
    if (ids.empty() || ids.back() != id) ids.push_back(id);
  }
  annotated_ids_.Adopt(std::move(ids));
}

StatusOr<RegionIndex> RegionIndex::FromBorrowed(const BorrowedParts& parts) {
  if (!parts.columns.start_sorted) {
    return Status::Invalid("borrowed region columns lack the start_sorted "
                           "promise");
  }
  if (parts.rows_by_id.size() != parts.columns.size) {
    return Status::Invalid("borrowed rows_by_id size mismatch");
  }
  if (parts.annotated_ids.size() > parts.columns.size) {
    return Status::Invalid("borrowed id-index size mismatch");
  }
  RegionIndex index;
  index.cols_.BorrowFrom(parts.columns);
  index.annotated_ids_.Borrow(parts.annotated_ids.data(),
                              parts.annotated_ids.size());
  index.rows_by_id_.Borrow(parts.rows_by_id.data(), parts.rows_by_id.size());
  return index;
}

RegionIndex RegionIndex::FromEntries(std::vector<RegionEntry> entries) {
  RegionIndex index;
  index.cols_.Reserve(entries.size());
  for (const RegionEntry& e : entries) index.cols_.Append(e.start, e.end, e.id);
  index.cols_.SortCanonical();
  index.BuildIdIndex();
  return index;
}

RegionColumns RegionIndex::columns() const { return cols_.View(); }

StatusOr<RegionIndex> RegionIndex::Build(const storage::NodeTable& table,
                                         const ResolvedConfig& config) {
  std::vector<RegionEntry> entries;
  if (config.start_attr != storage::kInvalidName &&
      config.end_attr != storage::kInvalidName) {
    const storage::Pre n = static_cast<storage::Pre>(table.size());
    for (storage::Pre pre = 0; pre < n; ++pre) {
      if (!table.IsElement(pre)) continue;
      auto [has_start, start_text] =
          table.FindAttribute(pre, config.start_attr);
      if (!has_start) continue;
      auto [has_end, end_text] = table.FindAttribute(pre, config.end_attr);
      if (!has_end) continue;
      int64_t start, end;
      if (!ParseRegionValue(start_text, &start) ||
          !ParseRegionValue(end_text, &end)) {
        return Status::Invalid(
            "unparsable region boundary on node " + std::to_string(pre) +
            ": start='" + std::string(start_text) + "' end='" +
            std::string(end_text) + "'");
      }
      if (end < start) {
        return Status::Invalid("region ends before it starts on node " +
                               std::to_string(pre));
      }
      entries.push_back(RegionEntry{start, end, pre});
    }
  }
  return FromEntries(std::move(entries));
}

namespace {

/// First index in [lo, n) with a[i] >= v over sorted `a`: gallops from
/// lo, so a forward walk of m sorted probes through n values costs
/// O(m log(n/m)) instead of m full binary searches.
size_t GallopLowerBound(const storage::Pre* a, size_t lo, size_t n,
                        storage::Pre v) {
  size_t step = 1;
  size_t hi = lo;
  while (hi < n && a[hi] < v) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  return static_cast<size_t>(
      std::lower_bound(a + lo, a + std::min(hi, n), v) - a);
}

}  // namespace

void RegionIndex::AppendRowsOfIds(storage::Span<storage::Pre> ids,
                                  std::vector<uint32_t>* rows) const {
  const storage::Pre* ann = annotated_ids_.begin();
  const size_t n_ann = annotated_ids_.size();
  const uint32_t* rows_end = rows_by_id_.end();
  size_t rank = 0;
  for (size_t k = 0; k < ids.size() && rank < n_ann; ++k) {
    const storage::Pre id = ids[k];
    if (k > 0 && id == ids[k - 1]) continue;  // a repeat selects nothing new
    rank = GallopLowerBound(ann, rank, n_ann, id);
    if (rank == n_ann || ann[rank] != id) continue;
    for (const uint32_t* it = FirstRowOfRank(rank);
         it != rows_end && cols_.id()[*it] == id; ++it) {
      rows->push_back(*it);
    }
  }
}

RegionColumnsData RegionIndex::IntersectColumns(
    storage::Span<storage::Pre> ids) const {
  std::vector<uint32_t> selected;
  AppendRowsOfIds(ids, &selected);
  std::sort(selected.begin(), selected.end());  // back into start order
  RegionColumnsData result;
  result.GatherFrom(cols_, selected);
  return result;
}

RegionIndex MergeBaseDelta(const RegionIndex& base,
                           const storage::DeltaRun& delta) {
  const RegionColumns b = base.columns();
  const std::vector<storage::DeltaInsert>& ins = delta.inserts;
  const size_t n = b.size;
  const size_t m = ins.size();

  // Dead base rows: the tombstoned ids' rows, through the base's id
  // index.
  std::vector<storage::Pre> tombstoned;
  tombstoned.reserve(delta.tombstones.size());
  for (const storage::DeltaTombstone& t : delta.tombstones) {
    tombstoned.push_back(t.id);
  }
  std::vector<uint32_t> dead;
  base.AppendRowsOfIds(tombstoned, &dead);
  std::sort(dead.begin(), dead.end());

  // Column pass: live base runs bulk-copied between the insert positions
  // and the dead rows. Each insert lands after every base row <= it in
  // (start, end, id) order (upper bound; ties go to the base); inserts
  // are sorted, so each search starts at the previous position.
  constexpr uint32_t kDead = UINT32_MAX;
  std::vector<uint32_t> new_row(n);  // base row -> merged row, or kDead
  std::vector<uint32_t> ins_row(m);  // insert -> merged row
  RegionIndex out;
  RegionColumnsData& cols = out.cols_;
  cols.Reserve(n - dead.size() + m);
  size_t i = 0;  // next base row to place
  size_t d = 0;  // next dead row
  const auto copy_base_until = [&](size_t hi) {
    while (i < hi) {
      const size_t run_end = d < dead.size() && dead[d] < hi ? dead[d] : hi;
      const uint32_t first = static_cast<uint32_t>(cols.size());
      for (size_t r = i; r < run_end; ++r) {
        new_row[r] = first + static_cast<uint32_t>(r - i);
      }
      cols.AppendRows(b, i, run_end);
      i = run_end;
      if (i < hi) {  // dead[d] == i
        new_row[i++] = kDead;
        ++d;
      }
    }
  };
  size_t pos = 0;
  for (size_t j = 0; j < m; ++j) {
    const storage::DeltaInsert& x = ins[j];
    size_t hi = n;
    while (pos < hi) {
      const size_t mid = pos + (hi - pos) / 2;
      const bool row_le =
          b.start[mid] != x.start
              ? b.start[mid] < x.start
              : (b.end[mid] != x.end ? b.end[mid] < x.end : b.id[mid] <= x.id);
      if (row_le) {
        pos = mid + 1;
      } else {
        hi = mid;
      }
    }
    copy_base_until(pos);
    ins_row[j] = static_cast<uint32_t>(cols.size());
    cols.Append(x.start, x.end, x.id);
  }
  copy_base_until(n);

  // Id pass: the base's rows_by_id renumbered (dead rows dropped) keeps
  // ascending (id, row) order, because renumbering preserves row order;
  // merged with the inserts in (id, row) order, it is exactly the
  // stable id sort BuildIdIndex would produce. annotated_ids falls out
  // of the same pass.
  std::vector<uint32_t> ins_by_id(m);
  std::iota(ins_by_id.begin(), ins_by_id.end(), 0u);
  std::stable_sort(ins_by_id.begin(), ins_by_id.end(),
                   [&ins](uint32_t a, uint32_t c) {
                     return ins[a].id < ins[c].id;
                   });
  std::vector<uint32_t> rows_by_id;
  rows_by_id.reserve(cols.size());
  std::vector<storage::Pre> annotated;
  annotated.reserve(base.annotated_ids_.size() + m);
  const auto emit = [&](uint32_t row, storage::Pre id) {
    rows_by_id.push_back(row);
    if (annotated.empty() || annotated.back() != id) annotated.push_back(id);
  };
  size_t k = 0;
  for (const uint32_t r : base.rows_by_id_) {
    const uint32_t row = new_row[r];
    if (row == kDead) continue;
    const storage::Pre id = b.id[r];
    for (; k < m; ++k) {
      const uint32_t j = ins_by_id[k];
      if (ins[j].id > id || (ins[j].id == id && ins_row[j] > row)) break;
      emit(ins_row[j], ins[j].id);
    }
    emit(row, id);
  }
  for (; k < m; ++k) emit(ins_row[ins_by_id[k]], ins[ins_by_id[k]].id);
  out.rows_by_id_.Adopt(std::move(rows_by_id));
  out.annotated_ids_.Adopt(std::move(annotated));
  return out;
}

StatusOr<const RegionIndex*> RegionIndexCache::Get(
    const storage::StoreView& store, storage::DocId doc,
    const StandoffConfig& config) {
  if (doc >= store.document_count()) {
    return Status::NotFound("no document " + std::to_string(doc));
  }
  const std::string fingerprint = ConfigFingerprint(config);
  // Resolve the BASE index: a snapshot-preloaded index serves the exact
  // config it was saved under; anything else falls through to a build
  // from the node table, cached in Entry.built.
  const RegionIndex* base = nullptr;
  for (const auto& [saved_fingerprint, index] :
       store.document(doc).preloaded_indexes) {
    if (saved_fingerprint == fingerprint) {
      base = index.get();
      break;
    }
  }
  Entry* entry = nullptr;
  if (base == nullptr) {
    auto key = std::make_pair(doc, fingerprint);
    entry = &cache_[key];
    if (!entry->built) {
      StatusOr<RegionIndex> built =
          RegionIndex::Build(store.table(doc), Resolve(config, store.names()));
      if (!built.ok()) {
        cache_.erase(key);
        return built.status();
      }
      entry->built = std::make_unique<RegionIndex>(built.MoveValueUnsafe());
    }
    base = entry->built.get();
  }
  // No pending delta for the key: exactly the pre-delta path (one
  // virtual call returning null for plain stores).
  const std::shared_ptr<const storage::DeltaRun> run =
      store.delta_run(doc, fingerprint);
  if (run == nullptr || run->empty()) return base;
  if (entry == nullptr) entry = &cache_[std::make_pair(doc, fingerprint)];
  if (!entry->merged || entry->merged_seq != run->seq) {
    entry->merged.reset();  // free the stale merge before building anew
    entry->merged = std::make_unique<RegionIndex>(MergeBaseDelta(*base, *run));
    entry->merged_seq = run->seq;
  }
  return entry->merged.get();
}

}  // namespace so
}  // namespace standoff
