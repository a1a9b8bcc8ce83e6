#include "reference.h"

#include <cstring>
#include <thread>

#include "server/query_text.h"
#include "server/wire.h"

namespace perfbench {

using standoff::Status;
using standoff::StatusOr;
using standoff::server::AppendU32;
using standoff::server::AppendU64;

uint64_t HashPayload(std::string_view payload) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (unsigned char c : payload) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash ^ payload.size();
}

std::string EncodeChain(const standoff::xquery::ChainResult& result) {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(result.context_ids.size()));
  for (auto id : result.context_ids) AppendU32(&payload, id);
  AppendU32(&payload, static_cast<uint32_t>(result.matches.size()));
  for (const auto& match : result.matches) {
    AppendU32(&payload, match.iter);
    AppendU32(&payload, match.pre);
  }
  return payload;
}

std::string EncodeFlwor(const standoff::algebra::QueryResult& result) {
  using Kind = standoff::algebra::Item::Kind;
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(result.items.size()));
  for (const auto& item : result.items) {
    payload.push_back(static_cast<char>(item.kind()));
    switch (item.kind()) {
      case Kind::kNode:
        AppendU32(&payload, item.stored_node().doc);
        AppendU32(&payload, item.stored_node().pre);
        break;
      case Kind::kInt:
        AppendU64(&payload, static_cast<uint64_t>(item.int_value()));
        break;
      case Kind::kDouble: {
        uint64_t bits = 0;
        const double value = item.double_value();
        std::memcpy(&bits, &value, sizeof bits);
        AppendU64(&payload, bits);
        break;
      }
      case Kind::kString:
        AppendU32(&payload, static_cast<uint32_t>(item.string_value().size()));
        payload.append(item.string_value());
        break;
    }
  }
  return payload;
}

StatusOr<Reference> ComputeReference(const standoff::storage::StoreView& view,
                                     const std::vector<Shape>& shapes,
                                     int threads) {
  Reference ref;
  ref.hash.assign(shapes.size(), 0);
  ref.rows.assign(shapes.size(), 0);
  std::vector<Status> failures(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      standoff::xquery::Engine engine(&view);
      for (size_t i = static_cast<size_t>(t); i < shapes.size();
           i += static_cast<size_t>(threads)) {
        auto parsed = standoff::server::ParseQueryText(shapes[i].text);
        if (!parsed.ok()) {
          failures[static_cast<size_t>(t)] = parsed.status();
          return;
        }
        std::string payload;
        if (parsed->kind == standoff::server::ParsedQuery::Kind::kChain) {
          auto result = engine.EvaluateChain(parsed->chain);
          if (!result.ok()) {
            failures[static_cast<size_t>(t)] = result.status();
            return;
          }
          payload = EncodeChain(*result);
          ref.rows[i] = result->matches.size();
        } else {
          auto result = engine.Evaluate(parsed->flwor);
          if (!result.ok()) {
            failures[static_cast<size_t>(t)] = result.status();
            return;
          }
          payload = EncodeFlwor(*result);
          ref.rows[i] = result->items.size();
        }
        ref.hash[i] = HashPayload(payload);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const Status& failure : failures) {
    if (!failure.ok()) return failure;
  }
  for (size_t i = 0; i < shapes.size(); ++i) {
    if (ref.rows[i] == 0) {
      return Status::Invalid("shape returns no rows: " + shapes[i].text);
    }
  }
  return ref;
}

}  // namespace perfbench
