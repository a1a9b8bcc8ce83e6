// The region index: the sorted set of {start, end, id} annotation
// regions that every StandOff MergeJoin scans, stored as separate
// contiguous start[]/end[]/id[] columns (struct-of-arrays) so the merge
// kernels stream one cache-friendly column per comparison and can
// binary-search/gallop over the start column directly. Built once per
// (document, standoff config) and cached; kept sorted by region start so
// each join is a single forward pass.
//
// Every column (including the derived id-order index) is a
// storage::Column<T>: owned when the index was built from a node table,
// borrowed when it views an mmap'ed snapshot (RegionIndex::FromBorrowed)
// — queries cannot tell the difference, and snapshot-backed indexes pay
// no heap copy of any column payload.
//
// The array-of-structs RegionEntry form is only an input format
// (FromEntries) and the row type of RegionColumns::row(); every reader
// goes through the columns.
#ifndef STANDOFF_STANDOFF_REGION_INDEX_H_
#define STANDOFF_STANDOFF_REGION_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/columns.h"
#include "storage/document_store.h"
#include "storage/store_view.h"

namespace standoff {
namespace so {

/// One annotated region. An element becomes an entry when it carries
/// both standoff attributes (by default start="..." end="...").
struct RegionEntry {
  int64_t start = 0;
  int64_t end = 0;
  storage::Pre id = 0;
};

inline bool operator==(const RegionEntry& a, const RegionEntry& b) {
  return a.start == b.start && a.end == b.end && a.id == b.id;
}

/// Borrowed columnar view over region columns: three parallel arrays of
/// `size` rows. `start_sorted` is the caller's promise that the start
/// column is non-decreasing (true by construction for RegionIndex views
/// and their slices); kernels verify sequences that lack the promise.
struct RegionColumns {
  const int64_t* start = nullptr;
  const int64_t* end = nullptr;
  const storage::Pre* id = nullptr;
  size_t size = 0;
  bool start_sorted = false;

  bool empty() const { return size == 0; }

  /// The sub-view of rows [lo, hi); sortedness is inherited.
  RegionColumns Slice(size_t lo, size_t hi) const {
    RegionColumns s;
    s.start = start + lo;
    s.end = end + lo;
    s.id = id + lo;
    s.size = hi - lo;
    s.start_sorted = start_sorted;
    return s;
  }

  RegionEntry row(size_t i) const { return RegionEntry{start[i], end[i], id[i]}; }
};

/// Owning (or, after BorrowFrom, borrowing) struct-of-arrays region
/// columns — the builder behind RegionIndex and the name-test pushdown
/// candidate sets.
class RegionColumnsData {
 public:
  void Reserve(size_t n);
  void Append(int64_t start, int64_t end, storage::Pre id);
  void Clear();
  size_t size() const { return start_.size(); }

  /// Sorts all three columns by (start, end, id) via one permutation.
  /// Owned columns only (borrowed views were saved sorted).
  void SortCanonical();

  /// Appends src's rows at the (ascending) positions in `rows` to this
  /// table, column by column. Requires `rows` sorted, so src's start
  /// order — and its sortedness promise — carry over.
  void GatherFrom(const RegionColumnsData& src,
                  const std::vector<uint32_t>& rows);

  /// Bulk-appends src's rows [lo, hi), column by column. The start_sorted
  /// promise survives when src carries it and the run does not start
  /// below the current last row.
  void AppendRows(const RegionColumns& src, size_t lo, size_t hi);

  /// Points the three columns at externally-owned memory (the mmap'ed
  /// snapshot); `view.start_sorted` carries the saved promise.
  void BorrowFrom(const RegionColumns& view);

  /// View over the columns. `start_sorted` reflects whether rows were
  /// only ever appended in non-decreasing start order or SortCanonical
  /// ran since the last out-of-order append.
  RegionColumns View() const;

  const storage::Column<int64_t>& start() const { return start_; }
  const storage::Column<int64_t>& end() const { return end_; }
  const storage::Column<storage::Pre>& id() const { return id_; }

 private:
  storage::Column<int64_t> start_;
  storage::Column<int64_t> end_;
  storage::Column<storage::Pre> id_;
  bool start_sorted_ = true;  // vacuously, while empty
};

/// User-facing configuration: which attributes carry region boundaries
/// and how their values are interpreted. `type` is advisory ("auto"
/// accepts both plain numbers and h:mm:ss timecodes; "timecode" is what
/// `declare option standoff-type "timecode"` selects — values still
/// parse the same way, the option only documents intent and keys caches).
struct StandoffConfig {
  std::string start_attr = "start";
  std::string end_attr = "end";
  std::string type = "auto";
};

/// Cache / snapshot key for a config: "start|end|type". Shared by
/// RegionIndexCache, Document::preloaded_indexes, the delta layer's
/// run keys, and the snapshot directory so a saved index is found by
/// exactly the config that built it.
std::string ConfigFingerprint(const StandoffConfig& config);

/// Inverse of ConfigFingerprint: splits "start|end|type" back into a
/// config ('|' cannot occur in an XML attribute name, so the encoding
/// is injective). Compaction uses this to re-embed every config a base
/// snapshot or delta run names. Invalid on a malformed fingerprint.
StatusOr<StandoffConfig> ParseConfigFingerprint(const std::string& fingerprint);

/// StandoffConfig with attribute names resolved against a NameTable.
struct ResolvedConfig {
  storage::NameId start_attr = storage::kInvalidName;
  storage::NameId end_attr = storage::kInvalidName;
};

ResolvedConfig Resolve(const StandoffConfig& config,
                       const storage::NameTable& names);

/// Parses a region boundary value: a plain (possibly fractional) number,
/// or a colon-separated timecode ("1:04" -> 64, "1:02:03" -> 3723).
/// Rejects values whose rounded magnitude cannot be represented in
/// int64, and timecodes with out-of-range (>= 60 or negative) or empty
/// non-leading parts ("1:99:00", "::").
bool ParseRegionValue(std::string_view text, int64_t* out);

class RegionIndex {
 public:
  RegionIndex() = default;
  RegionIndex(RegionIndex&&) = default;
  RegionIndex& operator=(RegionIndex&&) = default;

  /// Sorts `entries` by (start, end, id) and takes ownership.
  static RegionIndex FromEntries(std::vector<RegionEntry> entries);

  /// Scans the node table once and indexes every element that carries
  /// both configured region attributes.
  static StatusOr<RegionIndex> Build(const storage::NodeTable& table,
                                     const ResolvedConfig& config);

  /// Snapshot columns for FromBorrowed: the three region columns plus
  /// the derived id-order arrays exactly as a built index holds them.
  /// All spans point into memory the caller keeps alive (the mapped
  /// file); rows_by_id permutes [0, columns.size) into ascending-id
  /// order.
  struct BorrowedParts {
    RegionColumns columns;
    storage::Span<storage::Pre> annotated_ids;
    storage::Span<uint32_t> rows_by_id;
  };

  /// Wraps saved columns without copying any payload. Validates shape
  /// (sizes consistent, start_sorted promised) but trusts content — the
  /// snapshot checksum vouches for the bytes.
  static StatusOr<RegionIndex> FromBorrowed(const BorrowedParts& parts);

  /// Columnar view over all entries, sorted by (start, end, id) — what
  /// the join kernels consume.
  RegionColumns columns() const;

  /// All annotated node ids, sorted ascending (document order). This is
  /// the candidate universe the reject- operators complement against.
  storage::Span<storage::Pre> annotated_ids() const {
    return annotated_ids_.span();
  }

  size_t size() const { return cols_.size(); }

  /// Columns of the entries whose id occurs in `ids` (sorted ascending;
  /// repeats and ids without a region are allowed), in index (start)
  /// order: the name-test pushdown intersection. Output-bounded: the
  /// ids gallop forward through annotated_ids, each hit's rows come
  /// from the id index, and only the selected row positions are sorted
  /// — O(m log(n/m) + k log k) for m ids selecting k rows, never a scan
  /// of the n index rows.
  RegionColumnsData IntersectColumns(storage::Span<storage::Pre> ids) const;

  /// Calls fn(start, end) for every region of annotated node `id`, in
  /// start order (ids may carry several regions; none for an id without
  /// a region). The one id→region lookup: MatchesToContext uses it to
  /// turn context nodes and matched candidates into context rows.
  template <typename Fn>
  void ForEachRegionOf(storage::Pre id, Fn fn) const {
    const storage::Pre* ids = annotated_ids_.begin();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(ids, annotated_ids_.end(), id) - ids);
    if (rank == annotated_ids_.size() || ids[rank] != id) return;
    const uint32_t* end_it = rows_by_id_.end();
    for (const uint32_t* it = FirstRowOfRank(rank);
         it != end_it && cols_.id()[*it] == id; ++it) {
      fn(cols_.start()[*it], cols_.end()[*it]);
    }
  }

 private:
  friend class storage::SnapshotIO;
  friend RegionIndex MergeBaseDelta(const RegionIndex& base,
                                    const storage::DeltaRun& delta);

  /// Appends the row positions of every region of each id in `ids`
  /// (sorted ascending; repeats and ids without a region add nothing),
  /// in id order: the ids gallop forward through annotated_ids_, and
  /// each hit's rows come from rows_by_id_. The lookup behind
  /// IntersectColumns and MergeBaseDelta's tombstones.
  void AppendRowsOfIds(storage::Span<storage::Pre> ids,
                       std::vector<uint32_t>* rows) const;

  /// The position in rows_by_id_ of the first row of annotated_ids_[rank].
  /// Each of the `rank` smaller ids owns at least one row and at most
  /// all the surplus rows, so that position lies in [rank, rank +
  /// surplus]: with one region per id (surplus 0) it is `rank` itself.
  const uint32_t* FirstRowOfRank(size_t rank) const {
    const size_t surplus = rows_by_id_.size() - annotated_ids_.size();
    return std::lower_bound(
        rows_by_id_.begin() + rank, rows_by_id_.begin() + rank + surplus + 1,
        annotated_ids_[rank], [this](uint32_t row, storage::Pre value) {
          return cols_.id()[row] < value;
        });
  }

  RegionColumnsData cols_;                 // sorted by (start, end, id)
  storage::Column<storage::Pre> annotated_ids_;  // sorted by id
  // Row positions permuted into ascending-id order (equal ids in row
  // order): the id→region lookup of ForEachRegionOf, IntersectColumns
  // and MergeBaseDelta.
  storage::Column<uint32_t> rows_by_id_;

  void BuildIdIndex();
};

/// The delta layer's merge-on-read: builds the owning RegionIndex of
/// (base entries ∖ tombstoned ids) ∪ inserts, byte-identical — columns,
/// annotated_ids and rows_by_id — to an index rebuilt from scratch over
/// that set (the differential contract), so the unchanged
/// scalar/SIMD/gallop kernels consume it like any other index. Linear
/// in the base, with no sort or order check of it: the base's id index
/// finds the tombstoned rows, each insert is placed by binary search
/// (ties after equal base rows), the live base runs between them are
/// bulk-copied, and rows_by_id is the base's permutation renumbered and
/// merged with the inserts in (id, row) order.
RegionIndex MergeBaseDelta(const RegionIndex& base,
                           const storage::DeltaRun& delta);

/// Caches one RegionIndex per (document, config) over any StoreView,
/// consulting the document's snapshot-preloaded indexes first — a
/// snapshot-backed store serves its mmap'ed indexes through the same
/// Get. Views with pending deltas (StoreView::delta_run) are served a
/// merged (base ⊎ delta) index instead, cached per delta sequence; a
/// view with NO delta for the key costs exactly the pre-delta path.
/// A returned base index stays valid for the life of the cache (or, if
/// preloaded, of the Snapshot that owns it); a merged one only until a
/// Get for its key at another delta sequence, which frees it before
/// building its successor. Not thread-safe; each Engine owns one.
class RegionIndexCache {
 public:
  StatusOr<const RegionIndex*> Get(const storage::StoreView& store,
                                   storage::DocId doc,
                                   const StandoffConfig& config);

 private:
  struct Entry {
    std::unique_ptr<RegionIndex> built;   // from the node table
    std::unique_ptr<RegionIndex> merged;  // base ⊎ delta at merged_seq
    uint64_t merged_seq = 0;
  };
  std::map<std::pair<storage::DocId, std::string>, Entry> cache_;
};

}  // namespace so
}  // namespace standoff

#endif  // STANDOFF_STANDOFF_REGION_INDEX_H_
