#include "core/template_provider.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

namespace lumos::core {

namespace {

/// Per-(rank, block, layer, phase, microbatch) ordinal counters used to
/// reconstruct the builder's within-block ordinals during extraction; the
/// strings are the profiled graph's pool ids.
struct InstanceKey {
  std::int32_t rank;
  std::uint32_t block;
  std::int32_t layer;
  std::uint32_t phase;
  std::int32_t microbatch;
  bool operator==(const InstanceKey&) const = default;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x9E3779B97F4A7C15ULL;
}

struct InstanceKeyHash {
  std::size_t operator()(const InstanceKey& k) const {
    std::uint64_t h = static_cast<std::uint32_t>(k.rank);
    h = mix(h, k.block);
    h = mix(h, static_cast<std::uint32_t>(k.layer));
    h = mix(h, k.phase);
    h = mix(h, static_cast<std::uint32_t>(k.microbatch));
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

std::size_t TemplateProvider::KeyHash::operator()(const Key& k) const {
  const std::hash<std::string_view> text;
  std::uint64_t h = text(k.block);
  h = mix(h, text(k.phase));
  h = mix(h, text(k.name));
  h = mix(h, static_cast<std::uint32_t>(k.ordinal));
  return static_cast<std::size_t>(h);
}

TemplateProvider::TemplateProvider(const ExecutionGraph& profiled,
                                   workload::ModelSpec base_model,
                                   workload::ParallelConfig base_config,
                                   const cost::KernelPerfModel& kernel_model)
    : base_model_(std::move(base_model)),
      base_config_(base_config),
      kernel_model_(kernel_model),
      fallback_(kernel_model) {
  extract(profiled);
}

void TemplateProvider::extract(const ExecutionGraph& profiled) {
  // Profiled collective kernel durations include peer-wait skew (early
  // members spin until the last rank arrives). Within one rendezvous
  // instance the *minimum* member duration is the last arrival's — pure
  // transfer plus real fabric contention, no skew. Use that value for
  // every member so the template averages transfer+contention across
  // instances while the coupled simulator re-derives the waits. The meta
  // table already materializes the rendezvous groups, so this is one pass
  // over dense member lists instead of a string-keyed map fill.
  const TaskMetaTable& meta = profiled.meta();
  std::vector<std::int64_t> group_min(meta.rendezvous_group_count());
  for (std::size_t g = 0; g < group_min.size(); ++g) {
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    for (TaskId member : meta.rendezvous_group(g).members) {
      lo = std::min(lo, meta.duration_ns(member));
    }
    group_min[g] = lo;
  }

  // Profiled name ids -> the provider's own copy of the text, interned
  // once per distinct string (the invalid id is the empty string).
  const ColumnTaskSource& cols = meta.columns();
  const trace::EventTable& ev = cols.events();
  std::vector<std::string_view> text_of(ev.names().size());
  auto text = [&](trace::NameId id) -> std::string_view {
    if (!id.valid()) return {};
    std::string_view& slot = text_of[id.index];
    if (slot.empty()) {
      slot = keys_.view(keys_.intern(ev.names().view(id.index)));
    }
    return slot;
  };

  std::unordered_map<InstanceKey, std::pair<std::int32_t, std::int32_t>,
                     InstanceKeyHash>
      counters;
  for (std::size_t i = 0; i < cols.count(); ++i) {
    const trace::NameId block = ev.block_id(i);
    if (!block.valid()) continue;
    const bool gpu = cols.gpu(i);
    auto& [cpu_ordinal, kernel_ordinal] =
        counters[{cols.rank(i), block.index, ev.layer(i), ev.phase_id(i).index,
                  ev.microbatch(i)}];
    const std::int32_t ordinal = gpu ? kernel_ordinal++ : cpu_ordinal++;
    const Key key{text(block), text(ev.phase_id(i)), text(ev.name_id(i)),
                  ordinal};
    Stats& stats = gpu ? kernel_stats_[key] : cpu_stats_[key];
    std::int64_t dur = ev.dur_ns(i);
    if (const std::int32_t g = meta.group_index(static_cast<TaskId>(i));
        g >= 0) {
      dur = group_min[static_cast<std::size_t>(g)];
    }
    if (stats.count == 0) {
      stats.min_ns = dur;
      stats.collective = ev.collective_op(i).valid();
      if (stats.collective) {
        stats.coll_bytes = ev.collective_bytes(i);
        stats.coll_group_size = ev.collective_group_size(i);
        stats.coll_placement = base_placement(ev.collective_group_view(i));
      }
      stats.gemm = ev.gemm(i);
      stats.bytes_moved = ev.bytes_moved(i);
    }
    stats.total_ns += dur;
    stats.min_ns = std::min(stats.min_ns, dur);
    ++stats.count;
  }
}

const TemplateProvider::Stats* TemplateProvider::find(const Table& table,
                                                      const Key& key) {
  auto it = table.find(key);
  return it == table.end() ? nullptr : &it->second;
}

cost::CommPlacement TemplateProvider::base_placement(
    std::string_view group) const {
  workload::Placement placement(base_config_);
  // Any member rank of the right kind of group yields the same placement;
  // rank 0 belongs to a tp/dp group and stage-0 pp links.
  if (group.starts_with("tp_")) return placement.tp_placement(0);
  if (group.starts_with("dp_")) return placement.dp_placement(0);
  if (group.starts_with("pp_")) return placement.pp_placement(0);
  // Model-parallel (grad-norm) group: tp*pp ranks spread over the replica.
  cost::CommPlacement p;
  p.group_size = base_config_.tp * base_config_.pp;
  p.nodes_spanned = std::max<std::int32_t>(
      1, base_config_.world_size() / base_config_.gpus_per_node);
  return p;
}

std::int64_t TemplateProvider::cpu_ns(const workload::CpuOpDesc& desc) const {
  const Stats* stats =
      find(cpu_stats_, {desc.block, desc.phase, desc.name, desc.ordinal});
  if (stats == nullptr) {
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return fallback_.cpu_ns(desc);
  }
  return stats->mean_ns();
}

std::int64_t TemplateProvider::kernel_ns(
    const workload::KernelDesc& desc) const {
  const Stats* found =
      find(kernel_stats_, {desc.block, desc.phase, desc.name, desc.ordinal});
  if (found == nullptr) {
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return fallback_.kernel_ns(desc);
  }
  const Stats& stats = *found;

  if (desc.collective.valid()) {
    // Extraction already reduced collective durations to per-instance
    // minima (transfer + contention, no peer-wait skew); average across
    // instances and scale by the collective-model ratio when the
    // communicator or payload changed.
    std::int64_t base = stats.mean_ns();
    if (stats.collective &&
        (stats.coll_bytes != desc.collective.bytes ||
         stats.coll_group_size != desc.collective.group_size)) {
      const auto kind = cost::collective_kind_from_string(desc.collective.op);
      if (kind) {
        const double new_cost = static_cast<double>(kernel_model_.collective_ns(
            *kind, desc.collective.bytes, desc.placement));
        const double old_cost = static_cast<double>(kernel_model_.collective_ns(
            *kind, stats.coll_bytes, stats.coll_placement));
        if (old_cost > 0) {
          base = static_cast<std::int64_t>(static_cast<double>(base) *
                                           new_cost / old_cost);
        }
      }
    }
    return base;
  }

  if (desc.gemm.valid() && stats.gemm.valid()) {
    std::int64_t base = stats.mean_ns();
    if (!(desc.gemm == stats.gemm)) {
      const double new_cost =
          static_cast<double>(kernel_model_.gemm_ns(desc.gemm));
      const double old_cost =
          static_cast<double>(kernel_model_.gemm_ns(stats.gemm));
      if (old_cost > 0) {
        base = static_cast<std::int64_t>(static_cast<double>(base) *
                                         new_cost / old_cost);
      }
    }
    return base;
  }

  if (desc.is_attention()) {
    // Reconstruct the base run's attention dims from the base model/config.
    const std::int64_t base_heads = base_model_.num_heads / base_config_.tp;
    const bool backward = desc.phase == "backward";
    const auto attn = [&](std::int64_t batch, std::int64_t heads,
                          std::int64_t seq, std::int64_t hd) {
      return backward
                 ? kernel_model_.attention_backward_ns(batch, heads, seq, hd)
                 : kernel_model_.attention_forward_ns(batch, heads, seq, hd);
    };
    const double old_cost = static_cast<double>(
        attn(base_config_.microbatch_size, base_heads, base_model_.seq_len,
             base_model_.head_dim));
    const double new_cost = static_cast<double>(
        attn(desc.attn_batch, desc.attn_heads, desc.attn_seq,
             desc.attn_head_dim));
    double base = static_cast<double>(stats.mean_ns());
    if (old_cost > 0 && new_cost != old_cost) base *= new_cost / old_cost;
    return static_cast<std::int64_t>(base);
  }

  // Memory-bound kernels re-cost by bytes moved (the paper re-costs only
  // GEMM and communication).
  if (desc.elementwise_bytes > 0) {
    std::int64_t base = stats.mean_ns();
    if (stats.bytes_moved > 0 && stats.bytes_moved != desc.elementwise_bytes) {
      const double new_cost = static_cast<double>(
          kernel_model_.memory_bound_ns(desc.elementwise_bytes));
      const double old_cost = static_cast<double>(
          kernel_model_.memory_bound_ns(stats.bytes_moved));
      if (old_cost > 0) {
        base = static_cast<std::int64_t>(static_cast<double>(base) *
                                         new_cost / old_cost);
      }
    }
    return base;
  }

  return stats.mean_ns();
}

}  // namespace lumos::core
