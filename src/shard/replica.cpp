#include "shard/replica.hpp"

#include <string>
#include <utility>

namespace tbft::shard {

std::filesystem::path node_dir(const std::filesystem::path& root, NodeId id) {
  return root / ("node-" + std::to_string(id));
}

Replica make_replica(const multishot::MultishotConfig& cfg, std::uint32_t shards,
                     const std::filesystem::path& dir, const storage::DurableOptions& opts) {
  Replica r;
  std::vector<std::unique_ptr<multishot::MultishotNode>> instances;
  for (std::uint32_t k = 0; k < shards; ++k) {
    auto node = std::make_unique<multishot::MultishotNode>(cfg);
    if (!dir.empty()) {
      // S = 1 keeps the single-chain layout; S > 1 nests one dir per shard.
      auto durable = std::make_unique<storage::DurableChain>(
          shards == 1 ? dir : dir / ("shard-" + std::to_string(k)), opts);
      storage::RecoveredState rec = durable->recover();
      if (rec.tip() > 0 || !rec.commit_state.empty()) {
        node->restore_chain(rec.checkpoint, rec.commit_state, std::move(rec.tail));
      }
      node->set_durable(durable.get());
      r.durables.push_back(std::move(durable));
    }
    instances.push_back(std::move(node));
  }
  r.mux = std::make_unique<ShardMux>(std::move(instances));
  return r;
}

}  // namespace tbft::shard
