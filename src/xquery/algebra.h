// Value vocabulary of the query engine: items (stored nodes or atomics)
// and the loop-lifted intermediate representation, the paper's Section
// 4.1 loop-lifted tables. A node sequence is the chain executor's own
// (iter, pre) rows over the query document; atomics are (iter, Item)
// rows beside them.
#ifndef STANDOFF_XQUERY_ALGEBRA_H_
#define STANDOFF_XQUERY_ALGEBRA_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "standoff/merge_join.h"
#include "storage/node_table.h"

namespace standoff {
namespace algebra {

struct NodeId {
  storage::DocId doc = 0;
  storage::Pre pre = 0;
};

inline bool operator==(const NodeId& a, const NodeId& b) {
  return a.doc == b.doc && a.pre == b.pre;
}

class Item {
 public:
  enum class Kind { kNode, kInt, kDouble, kString };

  static Item Node(NodeId node) {
    Item item(Kind::kNode);
    item.node_ = node;
    return item;
  }
  static Item Int(int64_t value) {
    Item item(Kind::kInt);
    item.int_ = value;
    return item;
  }
  static Item Double(double value) {
    Item item(Kind::kDouble);
    item.double_ = value;
    return item;
  }
  static Item String(std::string value) {
    Item item(Kind::kString);
    item.string_ = std::move(value);
    return item;
  }

  Kind kind() const { return kind_; }
  bool is_node() const { return kind_ == Kind::kNode; }

  NodeId stored_node() const {
    assert(kind_ == Kind::kNode);
    return node_;
  }
  int64_t int_value() const {
    assert(kind_ == Kind::kInt);
    return int_;
  }
  double double_value() const {
    assert(kind_ == Kind::kDouble);
    return double_;
  }
  const std::string& string_value() const {
    assert(kind_ == Kind::kString);
    return string_;
  }

 private:
  explicit Item(Kind kind) : kind_(kind) {}

  Kind kind_;
  NodeId node_{};
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
};

struct QueryResult {
  std::vector<Item> items;
};

/// One atomic row: `item` (never a node) is live in loop iteration
/// `iter`.
struct AtomicRow {
  uint32_t iter = 0;
  Item item;
};

/// A loop-lifted sequence over an iteration space of `iter_count`
/// iterations (iterations may be empty), rows sorted by iteration. It is
/// all nodes or all atomics, so at most one vector is non-empty: `nodes`
/// holds (iter, pre) rows over the query document (xquery::kQueryDoc),
/// the rows so::MatchesToContext reads and so::ExecuteChain returns;
/// `atomics` holds the values of count(), '+' and literals.
struct Lifted {
  std::vector<so::IterMatch> nodes;
  std::vector<AtomicRow> atomics;
  uint32_t iter_count = 1;
};

}  // namespace algebra
}  // namespace standoff

#endif  // STANDOFF_XQUERY_ALGEBRA_H_
