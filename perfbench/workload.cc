#include "workload.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "standoff/region_index.h"
#include "xmark/queries.h"

namespace perfbench {

namespace {

using standoff::storage::DocId;
using standoff::storage::Pre;
using standoff::storage::StoreView;

/// Element names the write stream targets. No fixed-mix shape and no
/// Figure 6 query names them, so only `ctx=*` chains can see a write.
const char* const kWriteTargetNames[] = {"zipcode", "phone", "street", "city"};

/// The fixed read mix of hot_reads and read_write. Chains cover a
/// one-step probe, three-layer chains, a second document, and the
/// any-context sweep whose result ships every annotated element id.
/// Weights set each shape's share of a pass over the mix.
struct MixEntry {
  const char* chain;
  int weight;
};
const MixEntry kChainMix[] = {
    {"chain doc=0 ctx=item steps=sn:description", 1},
    {"chain doc=0 ctx=open_auction steps=sn:bidder,sn:increase", 1},
    {"chain doc=0 ctx=person steps=sn:profile,sn:interest", 1},
    {"chain doc=0 ctx=regions steps=sn:item,sn:location", 1},
    {"chain doc=2 ctx=open_auction steps=sn:bidder", 1},
    {"chain doc=0 ctx=* steps=sn:emailaddress", 1},
};
/// Figure 6 FLWOR weights, in BenchmarkQueries() order (Q1, Q2, Q6, Q7).
/// Q7 is half the class so the class p50 falls inside Q7's latency mode
/// rather than on the boundary between two queries' modes.
const int kFlworWeights[] = {1, 1, 1, 3};

/// One Figure 6 query every this many scan operations.
constexpr uint32_t kScanFlworEvery = 10;

bool IsWriteTarget(std::string_view name) {
  for (const char* target : kWriteTargetNames) {
    if (name == target) return true;
  }
  return false;
}

std::vector<Shape> FlworShapes() {
  std::vector<Shape> shapes;
  for (const auto& query : standoff::xmark::BenchmarkQueries()) {
    Shape shape;
    shape.text = std::string("flwor ") + query.standoff;
    shape.flwor = true;
    shapes.push_back(std::move(shape));
  }
  return shapes;
}

/// Distinct (A, B, C) element-name triples with an A region containing
/// a B region containing a C region in `doc`. Region containment in a
/// StandOff transform is ancestorship in the nested original, so the
/// triples come from one stack walk over the start-sorted regions;
/// each distinct ancestor name path is expanded once.
std::vector<std::vector<std::string>> AncestorTriples(const StoreView& store,
                                                      DocId doc) {
  std::vector<std::vector<std::string>> triples;
  standoff::so::RegionIndexCache cache;
  auto index = cache.Get(store, doc, standoff::so::StandoffConfig{});
  if (!index.ok()) return triples;
  const standoff::so::RegionColumns cols = (*index)->columns();
  const auto& table = store.table(doc);
  // Trie over name paths: node -> (parent node, name); children keyed by
  // (parent node, name).
  struct TrieNode {
    int parent;
    uint32_t name;
  };
  std::vector<TrieNode> trie;
  std::map<std::pair<int, uint32_t>, int> children;
  std::set<std::vector<uint32_t>> seen;
  struct Open {
    int64_t end;
    int node;
  };
  std::vector<Open> stack;
  for (size_t row = 0; row < cols.size; ++row) {
    while (!stack.empty() && stack.back().end <= cols.start[row]) {
      stack.pop_back();
    }
    const int parent = stack.empty() ? -1 : stack.back().node;
    const uint32_t name = table.name(cols.id[row]);
    auto [it, inserted] = children.emplace(
        std::make_pair(parent, name), static_cast<int>(trie.size()));
    if (inserted) {
      trie.push_back({parent, name});
      std::vector<uint32_t> path;  // root first, this node last
      for (int n = it->second; n >= 0; n = trie[static_cast<size_t>(n)].parent) {
        path.push_back(trie[static_cast<size_t>(n)].name);
      }
      std::reverse(path.begin(), path.end());
      for (size_t i = 0; i + 2 < path.size(); ++i) {
        for (size_t j = i + 1; j + 1 < path.size(); ++j) {
          seen.insert({path[i], path[j], path.back()});
        }
      }
    }
    stack.push_back({cols.end[row], it->second});
  }
  for (const auto& names : seen) {
    std::vector<std::string> triple;
    for (uint32_t n : names) triple.emplace_back(store.names().name(n));
    triples.push_back(std::move(triple));
  }
  return triples;
}

}  // namespace

standoff::StatusOr<WorkloadSpec> MakeSpec(const std::string& name,
                                          bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "hot_reads") {
    spec.setup_reps = 21;
    spec.recovery_restarts = 21;
    spec.recovery_rounds = 5;
  } else if (name == "scan_large") {
    spec.scale = 0.1;
    spec.documents = 8;
    spec.scan = true;
    spec.setup_reps = 7;
    spec.recovery_restarts = 9;
  } else if (name == "read_write") {
    spec.setup_reps = 21;
    spec.recovery_restarts = 21;
    spec.recovery_rounds = 5;
    spec.write_every = 10;
    spec.compact_threshold = 150;
  } else {
    return standoff::Status::Invalid("unknown workload '" + name +
                                     "' (want hot_reads, scan_large, "
                                     "read_write)");
  }
  if (tiny) {
    spec.tiny = true;
    spec.scale = 0.004;
    spec.warmup_seconds = 0.05;
    spec.setup_reps = 2;
    spec.recovery_writes = 20;
    spec.recovery_restarts = 2;
    spec.recovery_rounds = 1;
    if (spec.compact_threshold > 0) spec.compact_threshold = 20;
  }
  return spec;
}

standoff::server::BootstrapOptions CorpusOptions(const WorkloadSpec& spec,
                                                 uint64_t seed) {
  standoff::server::BootstrapOptions options;
  options.scale = spec.scale;
  options.documents = spec.documents;
  options.shard_count = spec.shards;
  // Documents use seeds base..base+documents-1; keep seeds disjoint.
  options.seed = 20060619 + 1000 * seed;
  return options;
}

std::vector<Shape> BuildShapes(const WorkloadSpec& spec,
                               const StoreView& store) {
  std::vector<Shape> shapes;
  if (!spec.scan) {
    for (const MixEntry& entry : kChainMix) {
      Shape shape;
      shape.text = entry.chain;
      shape.doc = shape.text.find("doc=2") != std::string::npos ? 2 : 0;
      shape.write_sensitive =
          shape.doc == 0 && shape.text.find("ctx=*") != std::string::npos;
      shapes.push_back(std::move(shape));
    }
    for (Shape& shape : FlworShapes()) shapes.push_back(std::move(shape));
    return shapes;
  }
  // Every ancestor triple of every StandOff document: 599 per document
  // for XMark, two memo prefixes each, several times the 256-entry memo
  // of each shard engine.
  for (DocId doc = 0; doc < store.document_count(); ++doc) {
    if (store.document(doc).blob.empty()) continue;  // nested original
    for (const auto& t : AncestorTriples(store, doc)) {
      Shape shape;
      shape.doc = doc;
      shape.text = "chain doc=" + std::to_string(doc) + " ctx=" + t[0] +
                   " steps=sn:" + t[1] + ",sn:" + t[2];
      shape.write_sensitive =
          doc == 0 && (IsWriteTarget(t[0]) || IsWriteTarget(t[1]) ||
                       IsWriteTarget(t[2]));
      shapes.push_back(std::move(shape));
    }
  }
  for (Shape& shape : FlworShapes()) shapes.push_back(std::move(shape));
  return shapes;
}

std::vector<uint32_t> WriteTargets(const StoreView& store) {
  std::vector<uint32_t> ids;
  const auto& table = store.table(0);
  for (Pre pre = 0; pre < table.size(); ++pre) {
    if (table.IsElement(pre) &&
        IsWriteTarget(store.names().name(table.name(pre)))) {
      ids.push_back(pre);
    }
  }
  return ids;
}

int64_t RegionExtent(const StoreView& store) {
  return static_cast<int64_t>(store.document(0).blob.size());
}

OpStream::OpStream(const WorkloadSpec& spec, const std::vector<Shape>& shapes,
                   const std::vector<uint32_t>& write_targets, int64_t extent,
                   uint64_t seed)
    : spec_(spec),
      targets_(write_targets),
      extent_(std::max<int64_t>(extent, 2)),
      rng_(seed) {
  if (spec.scan) {
    for (uint32_t i = 0; i < shapes.size(); ++i) {
      (shapes[i].flwor ? flwors_ : chains_).push_back(i);
    }
    return;
  }
  const size_t chains = sizeof kChainMix / sizeof kChainMix[0];
  for (uint32_t i = 0; i < shapes.size(); ++i) {
    const int weight =
        i < chains ? kChainMix[i].weight : kFlworWeights[i - chains];
    for (int w = 0; w < weight; ++w) cycle_.push_back(i);
  }
}

uint32_t OpStream::NextShape() {
  const uint64_t read = reads_++;
  if (!spec_.scan) {
    // Every pass over the mix takes a fresh seeded order: shares stay
    // exact per pass, and no shape is tied to one position relative to
    // the writes (which would make per-seed costs differ systematically).
    const size_t pos = static_cast<size_t>(read % cycle_.size());
    if (pos == 0) {
      for (size_t i = cycle_.size(); i > 1; --i) {
        std::swap(cycle_[i - 1], cycle_[rng_.NextUint64() % i]);
      }
    }
    return cycle_[pos];
  }
  if (read % kScanFlworEvery == kScanFlworEvery - 1) {
    return flwors_[rng_.NextUint64() % flwors_.size()];
  }
  return chains_[rng_.NextUint64() % chains_.size()];
}

WriteOp OpStream::NextWrite() {
  WriteOp write;
  write.insert = rng_.NextUint64() % 2 == 0;
  write.id = targets_[rng_.NextUint64() % targets_.size()];
  if (write.insert) {
    write.start = rng_.UniformRange(0, extent_ - 2);
    write.end = std::min<int64_t>(extent_ - 1,
                                  write.start + rng_.UniformRange(1, 4000));
  }
  return write;
}

Op OpStream::Next() {
  Op op;
  if (spec_.write_every > 0 && index_ % spec_.write_every ==
                                   spec_.write_every - 1) {
    op.kind = Op::Kind::kWrite;
    op.write = NextWrite();
  } else {
    op.shape = NextShape();
  }
  ++index_;
  return op;
}

}  // namespace perfbench
