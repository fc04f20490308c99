#include "workload/parallelism.h"

#include <set>
#include <sstream>

namespace lumos::workload {

std::string ParallelConfig::label() const {
  std::ostringstream out;
  out << tp << "x" << pp << "x" << dp;
  return out.str();
}

std::string ParallelConfig::validate(const ModelSpec& model) const {
  std::ostringstream err;
  if (tp < 1 || pp < 1 || dp < 1) {
    err << "parallel degrees must be >= 1; ";
  }
  if (pp > 0 && model.num_layers % pp != 0) {
    err << "num_layers (" << model.num_layers << ") not divisible by pp ("
        << pp << "); ";
  }
  if (tp > 0 && model.num_heads % tp != 0) {
    err << "num_heads (" << model.num_heads << ") not divisible by tp ("
        << tp << "); ";
  }
  if (tp > 0 && model.d_ff % tp != 0) {
    err << "d_ff (" << model.d_ff << ") not divisible by tp (" << tp << "); ";
  }
  // Attention splits d_model into num_heads heads of head_dim each; a
  // remainder would be silently truncated away.
  if (model.num_heads > 0 && model.d_model % model.num_heads != 0) {
    err << "d_model (" << model.d_model << ") not divisible by num_heads ("
        << model.num_heads << "); ";
  }
  if (tp > gpus_per_node) {
    err << "tp (" << tp << ") exceeds gpus_per_node (" << gpus_per_node
        << "); ";
  }
  if (microbatch_size < 1) err << "microbatch_size must be >= 1; ";
  return err.str();
}

std::int32_t Placement::global_rank(const RankCoord& c) const {
  return c.pp_rank * (config_.dp * config_.tp) + c.dp_rank * config_.tp +
         c.tp_rank;
}

RankCoord Placement::coord(std::int32_t rank) const {
  RankCoord c;
  c.tp_rank = rank % config_.tp;
  c.dp_rank = (rank / config_.tp) % config_.dp;
  c.pp_rank = rank / (config_.tp * config_.dp);
  return c;
}

std::int32_t Placement::node_of(std::int32_t rank) const {
  return rank / config_.gpus_per_node;
}

std::vector<std::int32_t> Placement::tp_group(std::int32_t rank) const {
  RankCoord c = coord(rank);
  std::vector<std::int32_t> group;
  group.reserve(static_cast<std::size_t>(config_.tp));
  for (std::int32_t t = 0; t < config_.tp; ++t) {
    group.push_back(global_rank({t, c.dp_rank, c.pp_rank}));
  }
  return group;
}

std::vector<std::int32_t> Placement::dp_group(std::int32_t rank) const {
  RankCoord c = coord(rank);
  std::vector<std::int32_t> group;
  group.reserve(static_cast<std::size_t>(config_.dp));
  for (std::int32_t d = 0; d < config_.dp; ++d) {
    group.push_back(global_rank({c.tp_rank, d, c.pp_rank}));
  }
  return group;
}

std::vector<std::int32_t> Placement::pp_group(std::int32_t rank) const {
  RankCoord c = coord(rank);
  std::vector<std::int32_t> group;
  group.reserve(static_cast<std::size_t>(config_.pp));
  for (std::int32_t p = 0; p < config_.pp; ++p) {
    group.push_back(global_rank({c.tp_rank, c.dp_rank, p}));
  }
  return group;
}

cost::CommPlacement Placement::placement_of(
    const std::vector<std::int32_t>& ranks) const {
  std::set<std::int32_t> nodes;
  for (std::int32_t r : ranks) nodes.insert(node_of(r));
  cost::CommPlacement p;
  p.group_size = static_cast<std::int32_t>(ranks.size());
  p.nodes_spanned = static_cast<std::int32_t>(nodes.size());
  return p;
}

cost::CommPlacement Placement::tp_placement(std::int32_t rank) const {
  return placement_of(tp_group(rank));
}

cost::CommPlacement Placement::dp_placement(std::int32_t rank) const {
  return placement_of(dp_group(rank));
}

cost::CommPlacement Placement::pp_placement(std::int32_t rank) const {
  RankCoord c = coord(rank);
  cost::CommPlacement p;
  p.group_size = 2;
  if (config_.pp == 1) {
    p.nodes_spanned = 1;
    return p;
  }
  const std::int32_t next_stage = (c.pp_rank + 1) % config_.pp;
  const std::int32_t peer = global_rank({c.tp_rank, c.dp_rank, next_stage});
  p.nodes_spanned = node_of(rank) == node_of(peer) ? 1 : 2;
  return p;
}

}  // namespace lumos::workload
