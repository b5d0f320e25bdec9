#pragma once
// The one replica factory: every place that builds an honest replica -- the
// tetrabft.hpp facade on every backend, and the chaos engine on start and on
// each restart -- builds it here, so the durable data-dir layout lives in
// this module only:
//
//   <root>/node-<id>              the chain directory at S = 1
//   <root>/node-<id>/shard-<k>    shard k's chain directory at S > 1
//
// Each chain directory holds a write-ahead log plus an atomic checkpoint
// (storage::DurableChain). A replica built over a directory that holds
// state recovers it before it starts.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "multishot/node.hpp"
#include "shard/mux.hpp"
#include "storage/durable_chain.hpp"

namespace tbft::shard {

/// Replica `id`'s directory under the data root `root`.
[[nodiscard]] std::filesystem::path node_dir(const std::filesystem::path& root, NodeId id);

/// A replica's mux and the durability drivers its instances persist
/// through ([shard]; empty for an in-memory replica). The drivers must
/// outlive the mux's instances' last commit.
struct Replica {
  std::unique_ptr<ShardMux> mux;
  std::vector<std::unique_ptr<storage::DurableChain>> durables;
};

/// A ShardMux of `shards` chain instances built from `cfg`. With a
/// non-empty `dir` (a node_dir) each instance recovers whatever its chain
/// directory holds and persists every finalized block there; an empty `dir`
/// keeps the replica in memory.
[[nodiscard]] Replica make_replica(const multishot::MultishotConfig& cfg, std::uint32_t shards,
                                   const std::filesystem::path& dir,
                                   const storage::DurableOptions& opts);

}  // namespace tbft::shard
