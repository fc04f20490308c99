#include "workload/graph_builder.h"

#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lumos::workload {

namespace {

using core::DepType;
using core::ExecutionGraph;
using core::TaskId;
using trace::CudaApi;
using trace::EventCategory;
using Row = trace::EventTable::Row;

constexpr std::uint32_t kNoString = trace::NameId::kInvalidIndex;

/// Interns a non-empty string; the empty string is the invalid id, the way
/// trace::EventTable encodes it.
std::uint32_t intern(trace::StringPool& pool, std::string_view s) {
  return s.empty() ? kNoString : pool.intern(s);
}

/// Block instance (block, layer, phase, microbatch) over interned ids.
struct InstanceKey {
  std::uint32_t block;
  std::int32_t layer;
  std::uint32_t phase;
  std::int32_t microbatch;
  auto operator<=>(const InstanceKey&) const = default;
};

/// Interned ids of a collective kernel's op and communicator.
struct CollIds {
  std::uint32_t op = kNoString;
  std::uint32_t group = kNoString;
};

/// A string the builder emits over and over, with its interned id.
struct Label {
  std::string_view text;
  std::uint32_t id;

  Label(trace::StringPool& pool, std::string_view s)
      : text(s), id(intern(pool, s)) {}
};

/// Every fixed block, phase, runtime-call and op name of a build, interned
/// once per build.
struct BuildLabels {
  explicit BuildLabels(trace::TracePools& pools)
      : sched(pools.names, "sched"),
        embed(pools.names, "embed"),
        head(pools.names, "head"),
        layer(pools.names, "layer"),
        dp(pools.names, "dp"),
        pp(pools.names, "pp"),
        opt(pools.names, "opt"),
        norm(pools.names, "norm"),
        forward(pools.names, "forward"),
        backward(pools.names, "backward"),
        optimizer(pools.names, "optimizer"),
        launch_kernel(pools.names, "cudaLaunchKernel"),
        memset_async(pools.names, "cudaMemsetAsync"),
        event_record(pools.names, "cudaEventRecord"),
        stream_wait_event(pools.names, "cudaStreamWaitEvent"),
        stream_synchronize(pools.names, "cudaStreamSynchronize"),
        device_synchronize(pools.names, "cudaDeviceSynchronize"),
        allreduce(pools.ops, "allreduce"),
        send(pools.ops, "send"),
        recv(pools.ops, "recv") {}

  Label sched, embed, head, layer, dp, pp, opt, norm;  ///< blocks
  Label forward, backward, optimizer;                   ///< phases
  Label launch_kernel, memset_async, event_record, stream_wait_event,
      stream_synchronize, device_synchronize;  ///< CUDA runtime calls
  Label allreduce, send, recv;                 ///< collective ops
};

/// A build's sink: every task becomes a graph row, with its edges.
struct GraphSink {
  static constexpr bool kCosting = false;
  ExecutionGraph& graph;

  TaskId add_task(const core::Processor& processor, const Row& row) {
    return graph.add_task(processor, row);
  }
  void reserve(std::size_t factor) {
    graph.reserve(graph.size() * factor, graph.edges().size() * factor);
  }
};

/// A costing pass's sink: only each task's duration, in task id order —
/// no per-task interning, rows or edges.
struct DurationSink {
  static constexpr bool kCosting = true;
  std::vector<std::int64_t>& durations;

  TaskId add_task(const core::Processor&, const Row& row) {
    durations.push_back(row.dur_ns);
    return static_cast<TaskId>(durations.size() - 1);
  }
  void reserve(std::size_t factor) {
    durations.reserve(durations.size() * factor);
  }
};

/// Builds all tasks of one rank as column rows. Tasks are appended
/// rank-by-rank so task ids encode per-rank launch order (required by the
/// simulator's runtime dependency resolution). Fixed names come interned
/// (BuildLabels), the rank's communicators are interned at construction;
/// only operator and kernel names are looked up per task. Every task goes
/// to the `Sink`, a graph for a build or a duration column for a costing
/// pass: the emission is one, the sink a compile-time choice.
template <typename Sink>
class RankBuilder {
 public:
  RankBuilder(Sink& sink, trace::TracePools& pools, const BuildLabels& labels,
              const DurationProvider& provider, const ModelSpec& model,
              const ParallelConfig& config, const BuildOptions& options,
              const Placement& placement, std::int32_t stage,
              std::int32_t tp_rank)
      : sink_(sink),
        pools_(pools),
        labels_(labels),
        provider_(provider),
        model_(model),
        config_(config),
        options_(options),
        stage_(stage),
        tp_rank_(tp_rank),
        rank_(placement.global_rank({tp_rank, options.dp_rank, stage})),
        tp_placement_(placement.tp_placement(rank_)),
        dp_placement_(placement.dp_placement(rank_)),
        pp_placement_(placement.pp_placement(rank_)),
        tp_group_("tp_pp" + std::to_string(stage) + "_dp" +
                  std::to_string(options.dp_rank)),
        dp_group_("dp_tp" + std::to_string(tp_rank) + "_pp" +
                  std::to_string(stage)),
        mp_group_("mp_dp" + std::to_string(options.dp_rank)),
        tp_group_id_(intern(pools.groups, tp_group_)),
        dp_group_id_(intern(pools.groups, dp_group_)),
        mp_group_id_(intern(pools.groups, mp_group_)) {}

  void build() {
    const auto schedule =
        pipeline_schedule(options_.policy, stage_, config_.pp,
                          config_.microbatches());
    begin_block(labels_.sched, -1, labels_.forward, -1);
    cpu(lanes::kMainThread, "Optimizer.zero_grad#start");
    for (const PipelineAction& action : schedule) {
      if (action.kind == PassKind::Forward) {
        forward_pass(action.microbatch);
      } else {
        backward_pass(action.microbatch);
      }
    }
    if (options_.include_optimizer) optimizer_epilogue();
  }

 private:
  // ---------------------------------------------------------------------
  // Low-level task emission
  // ---------------------------------------------------------------------

  /// Within-block ordinals are keyed by the block *instance* (block, layer,
  /// phase, microbatch) and persist across interleavings — the same rule
  /// template extraction applies, so descriptors line up exactly. The
  /// instance's counters are resolved once per block change.
  void begin_block(const Label& block, std::int32_t layer,
                   const Label& phase, std::int32_t microbatch) {
    block_ = &block;
    layer_ = layer;
    phase_ = &phase;
    microbatch_ = microbatch;
    ordinals_cur_ = &ordinals_[{block.id, layer, phase.id, microbatch}];
  }

  std::int32_t next_cpu_ordinal() { return ordinals_cur_->first++; }
  std::int32_t next_kernel_ordinal() { return ordinals_cur_->second++; }

  Row base_row(std::uint32_t name, EventCategory cat) {
    Row row;
    row.name = name;
    row.cat = static_cast<std::uint8_t>(cat);
    row.pid = rank_;
    row.ts_ns = seq_++;  // synthetic program order; the simulator's tie-break
    row.layer = layer_;
    row.microbatch = microbatch_;
    row.phase = phase_->id;
    row.block = block_->id;
    return row;
  }

  /// A CPU row named `name` (interned as `name_id`) in the current block —
  /// a CUDA runtime call when `api` is set — its duration from the provider.
  Row cpu_row(std::string_view name, std::uint32_t name_id,
              CudaApi api = CudaApi::None) {
    const CpuOpDesc desc{name, block_->text, phase_->text, layer_,
                         next_cpu_ordinal()};
    Row row = base_row(name_id, api == CudaApi::None
                                    ? EventCategory::CpuOp
                                    : EventCategory::CudaRuntime);
    row.api = api;
    row.dur_ns = provider_.cpu_ns(desc);
    return row;
  }
  Row runtime_row(const Label& call, CudaApi api) {
    return cpu_row(call.text, call.id, api);
  }

  /// Interns a string only a graph row carries; a costing pass skips it.
  std::uint32_t intern_row(trace::StringPool& pool, std::string_view s) {
    if constexpr (Sink::kCosting) {
      return kNoString;
    } else {
      return intern(pool, s);
    }
  }

  /// Appends a CPU row on `tid`, chained to the previous task on the thread
  /// and (when `take_handoff`) to a pending cross-thread handoff.
  TaskId emit_cpu(std::int32_t tid, Row& row, bool take_handoff = true) {
    row.tid = tid;
    const TaskId id = sink_.add_task({rank_, /*gpu=*/false, tid}, row);
    if constexpr (!Sink::kCosting) {
      if (auto it = last_cpu_.find(tid); it != last_cpu_.end()) {
        sink_.graph.add_edge(it->second, id, DepType::IntraThread);
      }
      // Cross-thread handoff requested by a previous dispatch/join point.
      if (auto it = pending_thread_dep_.find(tid);
          take_handoff && it != pending_thread_dep_.end()) {
        sink_.graph.add_edge(it->second, id, DepType::InterThread);
        pending_thread_dep_.erase(it);
      }
      last_cpu_[tid] = id;
    }
    return id;
  }

  /// Emits a CPU operator task on `tid`.
  TaskId cpu(std::int32_t tid, std::string_view name) {
    Row row = cpu_row(name, intern_row(pools_.names, name));
    return emit_cpu(tid, row);
  }

  /// Emits a launch (cudaLaunchKernel) on `tid` plus the GPU kernel on
  /// `stream`, linked by a fresh correlation id. Applies pending
  /// inter-stream waits targeted at `stream`. `coll` carries the interned
  /// op / communicator of a collective kernel.
  TaskId kernel(std::int32_t tid, KernelDesc desc, std::int64_t stream,
                EventCategory gpu_cat = EventCategory::Kernel,
                CollIds coll = {}) {
    desc.block = block_->text;
    desc.phase = phase_->text;
    desc.layer = layer_;
    desc.ordinal = next_kernel_ordinal();
    const std::int64_t corr = next_correlation_++;

    Row launch =
        gpu_cat == EventCategory::Memset
            ? runtime_row(labels_.memset_async, CudaApi::MemsetAsync)
            : runtime_row(labels_.launch_kernel, CudaApi::LaunchKernel);
    launch.correlation = corr;
    launch.stream = stream;
    const TaskId launch_id = emit_cpu(tid, launch);

    Row row = base_row(intern_row(pools_.names, desc.name), gpu_cat);
    row.tid = static_cast<std::int32_t>(stream);
    row.dur_ns = provider_.kernel_ns(desc);
    row.correlation = corr;
    row.stream = stream;
    row.bytes_moved = desc.elementwise_bytes;
    if (desc.gemm != trace::GemmShape{}) {
      row.has_gemm = true;
      row.gemm_m = desc.gemm.m;
      row.gemm_n = desc.gemm.n;
      row.gemm_k = desc.gemm.k;
    }
    if (desc.collective.valid()) {
      row.has_collective = true;
      row.coll_op = coll.op;
      row.coll_group = coll.group;
      row.coll_bytes = desc.collective.bytes;
      row.coll_group_size = desc.collective.group_size;
      row.coll_instance = desc.collective.instance;
    }
    const TaskId kernel_id = sink_.add_task({rank_, true, stream}, row);
    if constexpr (!Sink::kCosting) {
      ExecutionGraph& graph = sink_.graph;
      graph.add_edge(launch_id, kernel_id, DepType::CpuToGpu);
      if (auto it = last_kernel_.find(stream); it != last_kernel_.end()) {
        graph.add_edge(it->second, kernel_id, DepType::IntraStream);
      }
      last_kernel_[stream] = kernel_id;
      if (auto it = pending_waits_.find(stream); it != pending_waits_.end()) {
        for (TaskId src : it->second) {
          graph.add_edge(src, kernel_id, DepType::InterStream);
        }
        pending_waits_.erase(it);
      }
    }
    return kernel_id;
  }

  /// cudaEventRecord on `src_stream` + cudaStreamWaitEvent on `dst_stream`:
  /// the next kernel launched to dst waits for the last kernel currently on
  /// src. This is the inter-stream dependency mechanism of paper §3.3.2.
  void record_wait(std::int32_t tid, std::int64_t src_stream,
                   std::int64_t dst_stream) {
    const std::int64_t event_id = next_cuda_event_++;
    Row record = runtime_row(labels_.event_record, CudaApi::EventRecord);
    record.stream = src_stream;
    record.cuda_event = event_id;
    emit_cpu(tid, record);
    Row wait =
        runtime_row(labels_.stream_wait_event, CudaApi::StreamWaitEvent);
    wait.stream = dst_stream;
    wait.cuda_event = event_id;
    emit_cpu(tid, wait, /*take_handoff=*/false);
    if (auto it = last_kernel_.find(src_stream); it != last_kernel_.end()) {
      pending_waits_[dst_stream].push_back(it->second);
    }
  }

  /// Blocking cudaStreamSynchronize on `stream`; the wait itself is a
  /// *runtime* dependency resolved by the simulator.
  TaskId sync_stream(std::int32_t tid, std::int64_t stream) {
    Row row = runtime_row(labels_.stream_synchronize,
                          CudaApi::StreamSynchronize);
    row.stream = stream;
    return emit_cpu(tid, row);
  }

  TaskId device_sync(std::int32_t tid) {
    Row row = runtime_row(labels_.device_synchronize,
                          CudaApi::DeviceSynchronize);
    return emit_cpu(tid, row, /*take_handoff=*/false);
  }

  // ---------------------------------------------------------------------
  // Model building blocks
  // ---------------------------------------------------------------------

  std::int64_t tokens() const {
    return static_cast<std::int64_t>(config_.microbatch_size) *
           model_.seq_len;
  }
  std::int64_t dtype_bytes() const { return 2; }  // BF16 activations

  KernelDesc gemm_desc(const char* name, std::int64_t m, std::int64_t n,
                       std::int64_t k) const {
    KernelDesc d;
    d.name = name;
    d.gemm = {m, n, k};
    return d;
  }

  KernelDesc elementwise_desc(const char* name, std::int64_t bytes) const {
    KernelDesc d;
    d.name = name;
    d.elementwise_bytes = bytes;
    return d;
  }

  /// TP all-reduce with full event-sync choreography: the NCCL stream waits
  /// for compute, and subsequent compute waits for the collective.
  void tp_allreduce(std::int32_t tid, std::int64_t bytes) {
    if (config_.tp <= 1) return;
    record_wait(tid, lanes::kComputeStream, lanes::kTpStream);
    cpu(tid, "c10d::allreduce_");
    KernelDesc d;
    d.name = "ncclDevKernel_AllReduce_Sum_bf16_RING";
    d.collective = {labels_.allreduce.text, tp_group_, bytes, config_.tp,
                    group_instance_[tp_group_id_]++};
    d.placement = tp_placement_;
    kernel(tid, d, lanes::kTpStream, EventCategory::Kernel,
           {labels_.allreduce.id, tp_group_id_});
    record_wait(tid, lanes::kTpStream, lanes::kComputeStream);
  }

  /// Pipeline point-to-point. Group names pair sender and receiver:
  /// "pp_<dir>_s<from>to<to>_tp<t>_dp<d>_mb<m>".
  void p2p(std::int32_t tid, bool send, bool forward_dir,
           std::int32_t from_stage, std::int32_t to_stage,
           std::int32_t microbatch) {
    const std::string group =
        std::string("pp_") + (forward_dir ? "fwd" : "bwd") + "_s" +
        std::to_string(from_stage) + "to" + std::to_string(to_stage) +
        "_tp" + std::to_string(tp_rank_) + "_dp" +
        std::to_string(options_.dp_rank) + "_mb" + std::to_string(microbatch);
    const std::int64_t stream =
        send ? lanes::kPpSendStream : lanes::kPpRecvStream;
    if (send) {
      // The payload must exist before the send kernel may run.
      record_wait(tid, lanes::kComputeStream, stream);
    }
    cpu(tid, send ? "c10d::send" : "c10d::recv");
    KernelDesc d;
    d.name = "ncclDevKernel_SendRecv";
    // Group names are unique per transfer, so the instance is always 0.
    d.collective = {send ? labels_.send.text : labels_.recv.text, group,
                    tokens() * model_.d_model * dtype_bytes(), 2, 0};
    d.placement = pp_placement_;
    kernel(tid, d, stream, EventCategory::Kernel,
           {send ? labels_.send.id : labels_.recv.id,
            intern_row(pools_.groups, group)});
    if (!send) {
      // Compute consumes the received tensor.
      record_wait(tid, stream, lanes::kComputeStream);
    }
  }

  void embedding_forward(std::int32_t microbatch) {
    begin_block(labels_.embed, -1, labels_.forward, microbatch);
    const std::int64_t act_bytes = tokens() * model_.d_model * dtype_bytes();
    cpu(lanes::kMainThread, "aten::embedding");
    kernel(lanes::kMainThread,
           elementwise_desc("embedding_dense_kernel", 2 * act_bytes),
           lanes::kComputeStream);
  }

  void embedding_backward() {
    begin_block(labels_.embed, -1, labels_.backward, microbatch_);
    const std::int64_t act_bytes = tokens() * model_.d_model * dtype_bytes();
    cpu(lanes::kAutogradThread, "autograd::EmbeddingBackward0");
    kernel(lanes::kAutogradThread,
           elementwise_desc("embedding_backward_kernel", 3 * act_bytes),
           lanes::kComputeStream);
  }

  void head_forward(std::int32_t microbatch) {
    begin_block(labels_.head, -1, labels_.forward, microbatch);
    const std::int64_t T = tokens();
    const std::int64_t d = model_.d_model;
    const std::int64_t vshard = model_.vocab_size / config_.tp;
    cpu(lanes::kMainThread, "aten::native_layer_norm");
    kernel(lanes::kMainThread,
           elementwise_desc("layer_norm_fwd_kernel",
                            3 * T * d * dtype_bytes()),
           lanes::kComputeStream);
    cpu(lanes::kMainThread, "aten::linear");
    kernel(lanes::kMainThread,
           gemm_desc("sm90_xmma_gemm_bf16_lm_head", T, vshard, d),
           lanes::kComputeStream);
    cpu(lanes::kMainThread, "aten::log_softmax");
    kernel(lanes::kMainThread,
           elementwise_desc("vocab_parallel_cross_entropy_kernel",
                            3 * T * vshard * dtype_bytes()),
           lanes::kComputeStream);
    // Vocab-parallel loss reduction (small TP all-reduce of per-token loss).
    tp_allreduce(lanes::kMainThread, T * 4);
  }

  void head_backward() {
    begin_block(labels_.head, -1, labels_.backward, microbatch_);
    const std::int64_t T = tokens();
    const std::int64_t d = model_.d_model;
    const std::int64_t vshard = model_.vocab_size / config_.tp;
    cpu(lanes::kAutogradThread, "autograd::NllLossBackward0");
    kernel(lanes::kAutogradThread,
           elementwise_desc("cross_entropy_backward_kernel",
                            3 * T * vshard * dtype_bytes()),
           lanes::kComputeStream);
    cpu(lanes::kAutogradThread, "autograd::MmBackward0");
    kernel(lanes::kAutogradThread,
           gemm_desc("sm90_xmma_gemm_bf16_lm_head_dgrad", T, d, vshard),
           lanes::kComputeStream);
    kernel(lanes::kAutogradThread,
           gemm_desc("sm90_xmma_gemm_bf16_lm_head_wgrad", d, vshard, T),
           lanes::kComputeStream);
    cpu(lanes::kAutogradThread, "autograd::NativeLayerNormBackward0");
    kernel(lanes::kAutogradThread,
           elementwise_desc("layer_norm_bwd_kernel",
                            4 * T * d * dtype_bytes()),
           lanes::kComputeStream);
  }

  void forward_layer(std::int32_t layer, std::int32_t microbatch) {
    begin_block(labels_.layer, layer, labels_.forward, microbatch);
    const std::int64_t T = tokens();
    const std::int64_t d = model_.d_model;
    const std::int64_t ff_shard = model_.d_ff / config_.tp;
    const std::int64_t d_shard = d / config_.tp;
    const std::int64_t act = T * d * dtype_bytes();
    const std::int32_t tid = lanes::kMainThread;

    cpu(tid, "aten::native_layer_norm");
    kernel(tid, elementwise_desc("layer_norm_fwd_kernel", 3 * act),
           lanes::kComputeStream);
    cpu(tid, "aten::linear");
    kernel(tid, gemm_desc("sm90_xmma_gemm_bf16_qkv", T, 3 * d_shard, d),
           lanes::kComputeStream);
    cpu(tid, "aten::scaled_dot_product_attention");
    {
      KernelDesc a;
      a.name = "flash_fwd_kernel";
      a.attn_batch = config_.microbatch_size;
      a.attn_heads = model_.num_heads / config_.tp;
      a.attn_seq = model_.seq_len;
      a.attn_head_dim = model_.head_dim;
      kernel(tid, a, lanes::kComputeStream);
    }
    cpu(tid, "aten::linear");
    kernel(tid, gemm_desc("sm90_xmma_gemm_bf16_attn_proj", T, d, d_shard),
           lanes::kComputeStream);
    tp_allreduce(tid, act);
    cpu(tid, "aten::add_");
    kernel(tid, elementwise_desc("vectorized_elementwise_kernel", 3 * act),
           lanes::kComputeStream);

    cpu(tid, "aten::native_layer_norm");
    kernel(tid, elementwise_desc("layer_norm_fwd_kernel", 3 * act),
           lanes::kComputeStream);
    cpu(tid, "aten::linear");
    kernel(tid, gemm_desc("sm90_xmma_gemm_bf16_fc1", T, ff_shard, d),
           lanes::kComputeStream);
    cpu(tid, "aten::gelu");
    kernel(tid,
           elementwise_desc("gelu_forward_kernel",
                            2 * T * ff_shard * dtype_bytes()),
           lanes::kComputeStream);
    cpu(tid, "aten::linear");
    kernel(tid, gemm_desc("sm90_xmma_gemm_bf16_fc2", T, d, ff_shard),
           lanes::kComputeStream);
    tp_allreduce(tid, act);
    cpu(tid, "aten::add_");
    kernel(tid, elementwise_desc("vectorized_elementwise_kernel", 3 * act),
           lanes::kComputeStream);
  }

  void backward_layer(std::int32_t layer, std::int32_t microbatch) {
    begin_block(labels_.layer, layer, labels_.backward, microbatch);
    const std::int64_t T = tokens();
    const std::int64_t d = model_.d_model;
    const std::int64_t ff_shard = model_.d_ff / config_.tp;
    const std::int64_t d_shard = d / config_.tp;
    const std::int64_t act = T * d * dtype_bytes();
    const std::int32_t tid = lanes::kAutogradThread;

    cpu(tid, "autograd::AddBackward0");
    kernel(tid, elementwise_desc("vectorized_elementwise_kernel", 2 * act),
           lanes::kComputeStream);
    cpu(tid, "autograd::MmBackward0");  // fc2
    kernel(tid, gemm_desc("sm90_xmma_gemm_bf16_fc2_dgrad", T, ff_shard, d),
           lanes::kComputeStream);
    kernel(tid, gemm_desc("sm90_xmma_gemm_bf16_fc2_wgrad", d, ff_shard, T),
           lanes::kComputeStream);
    cpu(tid, "autograd::GeluBackward0");
    kernel(tid,
           elementwise_desc("gelu_backward_kernel",
                            3 * T * ff_shard * dtype_bytes()),
           lanes::kComputeStream);
    cpu(tid, "autograd::MmBackward0");  // fc1
    kernel(tid, gemm_desc("sm90_xmma_gemm_bf16_fc1_dgrad", T, d, ff_shard),
           lanes::kComputeStream);
    kernel(tid, gemm_desc("sm90_xmma_gemm_bf16_fc1_wgrad", d, ff_shard, T),
           lanes::kComputeStream);
    tp_allreduce(tid, act);
    cpu(tid, "autograd::NativeLayerNormBackward0");
    kernel(tid, elementwise_desc("layer_norm_bwd_kernel", 4 * act),
           lanes::kComputeStream);
    cpu(tid, "autograd::FlashAttentionBackward0");
    {
      KernelDesc a;
      a.name = "flash_bwd_kernel";
      a.attn_batch = config_.microbatch_size;
      a.attn_heads = model_.num_heads / config_.tp;
      a.attn_seq = model_.seq_len;
      a.attn_head_dim = model_.head_dim;
      kernel(tid, a, lanes::kComputeStream);
    }
    cpu(tid, "autograd::MmBackward0");  // attn out projection
    kernel(tid, gemm_desc("sm90_xmma_gemm_bf16_attn_dgrad", T, d_shard, d),
           lanes::kComputeStream);
    kernel(tid, gemm_desc("sm90_xmma_gemm_bf16_attn_wgrad", d_shard, d, T),
           lanes::kComputeStream);
    cpu(tid, "autograd::MmBackward0");  // qkv
    kernel(tid, gemm_desc("sm90_xmma_gemm_bf16_qkv_dgrad", T, d, 3 * d_shard),
           lanes::kComputeStream);
    kernel(tid,
           gemm_desc("sm90_xmma_gemm_bf16_qkv_wgrad", d, 3 * d_shard, T),
           lanes::kComputeStream);
    tp_allreduce(tid, act);
    cpu(tid, "autograd::NativeLayerNormBackward0");
    kernel(tid, elementwise_desc("layer_norm_bwd_kernel", 4 * act),
           lanes::kComputeStream);
  }

  /// One DP gradient bucket: reducer hook on the autograd thread launches
  /// an all-reduce on the DP stream after the bucket's grads are ready.
  void dp_bucket_allreduce(std::int64_t param_elems, std::int32_t bucket) {
    // The bucket index rides in the layer field so each bucket forms a
    // distinct block instance for template extraction.
    begin_block(labels_.dp, bucket, labels_.backward, -1);
    record_wait(lanes::kAutogradThread, lanes::kComputeStream,
                lanes::kDpStream);
    cpu(lanes::kAutogradThread, "c10d::allreduce_");
    KernelDesc d;
    d.name = "ncclDevKernel_AllReduce_Sum_bf16_RING";
    d.collective = {labels_.allreduce.text, dp_group_,
                    param_elems * dtype_bytes(), config_.dp,
                    group_instance_[dp_group_id_]++};
    d.placement = dp_placement_;
    kernel(lanes::kAutogradThread, d, lanes::kDpStream, EventCategory::Kernel,
           {labels_.allreduce.id, dp_group_id_});
  }

  void forward_pass(std::int32_t microbatch) {
    begin_block(labels_.sched, -1, labels_.forward, microbatch);
    cpu(lanes::kMainThread, "megatron::forward_step");
    if (stage_ > 0) {
      begin_block(labels_.pp, -1, labels_.forward, microbatch);
      p2p(lanes::kMainThread, /*send=*/false, /*forward_dir=*/true,
          stage_ - 1, stage_, microbatch);
    }
    if (stage_ == 0) embedding_forward(microbatch);
    const std::int32_t layers_per_stage = model_.num_layers / config_.pp;
    for (std::int32_t i = 0; i < layers_per_stage; ++i) {
      forward_layer(stage_ * layers_per_stage + i, microbatch);
    }
    if (stage_ == config_.pp - 1) {
      head_forward(microbatch);
    } else {
      begin_block(labels_.pp, -1, labels_.forward, microbatch);
      p2p(lanes::kMainThread, /*send=*/true, /*forward_dir=*/true, stage_,
          stage_ + 1, microbatch);
    }
  }

  void backward_pass(std::int32_t microbatch) {
    begin_block(labels_.sched, -1, labels_.backward, microbatch);
    cpu(lanes::kMainThread, "megatron::backward_step");
    if (stage_ < config_.pp - 1) {
      begin_block(labels_.pp, -1, labels_.backward, microbatch);
      p2p(lanes::kMainThread, /*send=*/false, /*forward_dir=*/false,
          stage_ + 1, stage_, microbatch);
    }
    // Main thread dispatches into the autograd engine; the first autograd
    // op of this segment waits on the dispatch (InterThread dependency).
    begin_block(labels_.sched, -1, labels_.backward, microbatch);
    const TaskId dispatch = cpu(lanes::kMainThread, "torch::autograd::backward");
    pending_thread_dep_[lanes::kAutogradThread] = dispatch;

    if (stage_ == config_.pp - 1) head_backward();
    const std::int32_t layers_per_stage = model_.num_layers / config_.pp;
    const bool last_microbatch = microbatch == config_.microbatches() - 1;
    std::int32_t layers_in_bucket = 0;
    std::int64_t bucket_params = 0;
    std::int32_t bucket_index = 0;
    for (std::int32_t i = layers_per_stage - 1; i >= 0; --i) {
      backward_layer(stage_ * layers_per_stage + i, microbatch);
      if (last_microbatch) {
        ++layers_in_bucket;
        bucket_params += model_.params_per_layer() / config_.tp;
        if (layers_in_bucket == options_.bucket_layers || i == 0) {
          // Embedding / LM-head grads join the final bucket of their stage.
          if (i == 0 && stage_ == 0) {
            bucket_params +=
                (model_.vocab_size + model_.seq_len) * model_.d_model /
                config_.tp;
          }
          if (i == 0 && stage_ == config_.pp - 1) {
            bucket_params += model_.vocab_size * model_.d_model / config_.tp;
          }
          dp_bucket_allreduce(bucket_params, bucket_index++);
          layers_in_bucket = 0;
          bucket_params = 0;
        }
      }
    }
    if (stage_ == 0) embedding_backward();

    // Main thread resumes once the autograd segment drains.
    if (auto it = last_cpu_.find(lanes::kAutogradThread);
        it != last_cpu_.end()) {
      pending_thread_dep_[lanes::kMainThread] = it->second;
    }
    if (stage_ > 0) {
      begin_block(labels_.pp, -1, labels_.backward, microbatch);
      p2p(lanes::kMainThread, /*send=*/true, /*forward_dir=*/false, stage_,
          stage_ - 1, microbatch);
    }
  }

  void optimizer_epilogue() {
    // All DP buckets must land before gradient clipping / optimizer.
    begin_block(labels_.opt, -1, labels_.optimizer, -1);
    sync_stream(lanes::kMainThread, lanes::kDpStream);

    // Global grad-norm: local reduction + all-reduce across the model-
    // parallel group (synchronizes all pipeline stages and TP ranks).
    begin_block(labels_.norm, -1, labels_.optimizer, -1);
    const std::int64_t params =
        model_.params_per_rank(config_.tp, config_.pp, stage_);
    cpu(lanes::kMainThread, "megatron::clip_grad_norm");
    kernel(lanes::kMainThread,
           elementwise_desc("multi_tensor_l2norm_kernel",
                            params * dtype_bytes()),
           lanes::kComputeStream);
    record_wait(lanes::kMainThread, lanes::kComputeStream, lanes::kTpStream);
    cpu(lanes::kMainThread, "c10d::allreduce_");
    {
      KernelDesc d;
      d.name = "ncclDevKernel_AllReduce_Sum_f32_RING";
      d.collective = {labels_.allreduce.text, mp_group_, 8,
                      config_.tp * config_.pp,
                      group_instance_[mp_group_id_]++};
      cost::CommPlacement p;
      p.group_size = config_.tp * config_.pp;
      p.nodes_spanned =
          std::max<std::int32_t>(1, config_.tp * config_.pp * config_.dp /
                                        config_.gpus_per_node);
      d.placement = p;
      kernel(lanes::kMainThread, d, lanes::kTpStream, EventCategory::Kernel,
             {labels_.allreduce.id, mp_group_id_});
    }
    record_wait(lanes::kMainThread, lanes::kTpStream, lanes::kComputeStream);

    // Fused Adam over the stage's parameter shard, in chunks the way
    // multi_tensor_apply launches.
    begin_block(labels_.opt, -1, labels_.optimizer, -1);
    cpu(lanes::kMainThread, "Optimizer.step#Adam.step");
    constexpr std::int32_t kAdamChunks = 4;
    for (std::int32_t c = 0; c < kAdamChunks; ++c) {
      kernel(lanes::kMainThread,
             elementwise_desc("multi_tensor_apply_kernel_adam",
                              params / kAdamChunks * 28),
             lanes::kComputeStream);
    }
    cpu(lanes::kMainThread, "Optimizer.zero_grad#Adam.zero_grad");
    kernel(lanes::kMainThread,
           elementwise_desc("Memset (Device)", params * dtype_bytes()),
           lanes::kComputeStream, EventCategory::Memset);
    device_sync(lanes::kMainThread);
  }

  Sink& sink_;
  trace::TracePools& pools_;
  const BuildLabels& labels_;
  const DurationProvider& provider_;
  const ModelSpec& model_;
  const ParallelConfig& config_;
  const BuildOptions& options_;
  std::int32_t stage_;
  std::int32_t tp_rank_;
  std::int32_t rank_;
  cost::CommPlacement tp_placement_, dp_placement_, pp_placement_;

  // communicators of this rank, interned once
  std::string tp_group_, dp_group_, mp_group_;
  std::uint32_t tp_group_id_, dp_group_id_, mp_group_id_;

  // annotation context
  const Label* block_ = nullptr;
  std::int32_t layer_ = -1;
  const Label* phase_ = nullptr;
  std::int32_t microbatch_ = -1;

  // per-rank construction state
  std::int64_t seq_ = 0;
  std::int64_t next_correlation_ = 1;
  std::int64_t next_cuda_event_ = 1;
  // Two CPU threads per rank: ordered maps beat hashing at this size.
  std::map<std::int32_t, TaskId> last_cpu_;
  std::map<std::int32_t, TaskId> pending_thread_dep_;
  std::map<std::int64_t, TaskId> last_kernel_;
  std::map<std::int64_t, std::vector<TaskId>> pending_waits_;
  /// Collective instance counters per communicator (group id).
  std::unordered_map<std::uint32_t, std::int64_t> group_instance_;
  /// Block instance -> (next cpu ordinal, next kernel ordinal); mirrors
  /// template extraction's counters. Node-based, so ordinals_cur_ (the
  /// current block instance's entry) stays valid across inserts.
  std::map<InstanceKey, std::pair<std::int32_t, std::int32_t>> ordinals_;
  std::pair<std::int32_t, std::int32_t>* ordinals_cur_ = nullptr;
};

void validate_or_throw(const ModelSpec& model, const ParallelConfig& config) {
  if (std::string err = config.validate(model); !err.empty()) {
    throw std::invalid_argument("IterationGraphBuilder: " + err);
  }
}

/// Runs every rank's emission into `sink`.
template <typename Sink>
void emit_ranks(const ModelSpec& model, const ParallelConfig& config,
                const DurationProvider& provider, const BuildOptions& options,
                trace::TracePools& pools, Sink sink) {
  const BuildLabels labels(pools);
  Placement placement(config);
  const auto ranks = static_cast<std::size_t>(config.pp * config.tp);
  for (std::int32_t stage = 0; stage < config.pp; ++stage) {
    for (std::int32_t t = 0; t < config.tp; ++t) {
      RankBuilder<Sink> rank(sink, pools, labels, provider, model, config,
                             options, placement, stage, t);
      rank.build();
      if (stage == 0 && t == 0 && ranks > 1) {
        // Ranks emit near-identical task counts (stages differ by a few
        // embedding / head tasks per microbatch): size the columns once
        // from the first rank instead of regrowing them.
        sink.reserve(ranks + ranks / 8);
      }
    }
  }
}

}  // namespace

StructureKey structure_key(const ModelSpec& model, const ParallelConfig& config,
                           const BuildOptions& options) {
  return {model.num_layers, config.tp,
          config.pp,        config.microbatches(),
          options.policy,   options.bucket_layers,
          options.dp_rank,  options.include_optimizer};
}

IterationGraphBuilder::IterationGraphBuilder(ModelSpec model,
                                             ParallelConfig config,
                                             const DurationProvider& provider,
                                             BuildOptions options)
    : model_(std::move(model)),
      config_(config),
      provider_(provider),
      options_(options) {}

BuiltJob IterationGraphBuilder::build() {
  validate_or_throw(model_, config_);
  BuiltJob job;
  job.model = model_;
  job.config = config_;
  job.options = options_;
  // One fresh pool set per build: rows carry ids into it, and the meta
  // table classifies from those ids without re-interning.
  auto pools = std::make_shared<trace::TracePools>();
  job.graph = core::ExecutionGraph(pools);
  emit_ranks(model_, config_, provider_, options_, *pools,
             GraphSink{job.graph});
  // Build-time classification: materialize the columnar metadata and the
  // adjacency before the job is handed out.
  job.graph.finalize();
  return job;
}

std::vector<std::int64_t> IterationGraphBuilder::durations() {
  validate_or_throw(model_, config_);
  // Holds only the fixed labels and the ranks' communicators, which key
  // the emission's per-block ordinals and collective instances.
  trace::TracePools pools;
  std::vector<std::int64_t> column;
  emit_ranks(model_, config_, provider_, options_, pools,
             DurationSink{column});
  return column;
}

}  // namespace lumos::workload
