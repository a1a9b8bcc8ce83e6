// In-process reference results for the output check: every shape is
// evaluated on an Engine over the same store view the server reads,
// encoded exactly as the server encodes its reply payload, and hashed.
// A reply is correct when its payload hash equals the reference hash.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/store_view.h"
#include "workload.h"
#include "xquery/engine.h"

namespace perfbench {

uint64_t HashPayload(std::string_view payload);

/// The server's chain reply payload: u32 context count + ids, u32
/// match count + (u32 iter, u32 pre) rows, little-endian.
std::string EncodeChain(const standoff::xquery::ChainResult& result);

/// The server's FLWOR reply payload: u32 item count, then per item a
/// u8 kind tag and its value.
std::string EncodeFlwor(const standoff::algebra::QueryResult& result);

struct Reference {
  std::vector<uint64_t> hash;  // per shape
  std::vector<uint64_t> rows;  // per shape: chain matches / FLWOR items
};

/// Evaluates every shape on `threads` engines over `view`. Fails on any
/// evaluation error and on a shape that returns no rows (a shape that
/// matches nothing measures nothing).
standoff::StatusOr<Reference> ComputeReference(
    const standoff::storage::StoreView& view, const std::vector<Shape>& shapes,
    int threads);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
