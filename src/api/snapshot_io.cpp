// Baseline snapshot save/load at the api layer: wraps snapshot::write /
// snapshot::load (the core binary format) with the Scenario/model/config
// metadata JSON and the facade's Status mapping. The baseline's compiled
// program travels in the image, so a loaded baseline needs no compile; the
// profiled trace does not, since no prediction reads it.
#include <utility>

#include "api/session.h"
#include "core/replay_program.h"
#include "json/json.h"
#include "snapshot/snapshot.h"

namespace lumos::api {

namespace {

json::Object model_to_json(const workload::ModelSpec& m) {
  return json::Object{{"name", m.name},
                      {"num_layers", m.num_layers},
                      {"d_model", m.d_model},
                      {"d_ff", m.d_ff},
                      {"num_heads", m.num_heads},
                      {"head_dim", m.head_dim},
                      {"vocab_size", m.vocab_size},
                      {"seq_len", m.seq_len}};
}

workload::ModelSpec model_from_json(const json::Value& v) {
  workload::ModelSpec m;
  m.name = v.get_string("name", "");
  m.num_layers = v.get_int32("num_layers", 0);
  m.d_model = v.get_int("d_model", 0);
  m.d_ff = v.get_int("d_ff", 0);
  m.num_heads = v.get_int32("num_heads", 0);
  m.head_dim = v.get_int("head_dim", 0);
  m.vocab_size = v.get_int("vocab_size", 51200);
  m.seq_len = v.get_int("seq_len", 2048);
  return m;
}

json::Object config_to_json(const workload::ParallelConfig& c) {
  return json::Object{{"tp", c.tp},
                      {"pp", c.pp},
                      {"dp", c.dp},
                      {"microbatch_size", c.microbatch_size},
                      {"num_microbatches", c.num_microbatches},
                      {"gpus_per_node", c.gpus_per_node}};
}

workload::ParallelConfig config_from_json(const json::Value& v) {
  workload::ParallelConfig c;
  c.tp = v.get_int32("tp", 1);
  c.pp = v.get_int32("pp", 1);
  c.dp = v.get_int32("dp", 1);
  c.microbatch_size = v.get_int32("microbatch_size", 1);
  c.num_microbatches = v.get_int32("num_microbatches", 0);
  c.gpus_per_node = v.get_int32("gpus_per_node", 8);
  return c;
}

json::Object hardware_to_json(const cost::HardwareSpec& hw) {
  return json::Object{
      {"peak_flops_bf16", hw.peak_flops_bf16},
      {"peak_flops_fp32", hw.peak_flops_fp32},
      {"hbm_bandwidth", hw.hbm_bandwidth},
      {"nvlink_bandwidth", hw.nvlink_bandwidth},
      {"nic_bandwidth", hw.nic_bandwidth},
      {"gpus_per_node", hw.gpus_per_node},
      {"kernel_launch_overhead_ns", hw.kernel_launch_overhead_ns},
      {"cuda_launch_cpu_ns", hw.cuda_launch_cpu_ns},
      {"cuda_sync_cpu_ns", hw.cuda_sync_cpu_ns},
      {"cuda_event_cpu_ns", hw.cuda_event_cpu_ns},
      {"nccl_base_latency_ns", hw.nccl_base_latency_ns},
      {"nvlink_hop_latency_ns", hw.nvlink_hop_latency_ns},
      {"network_hop_latency_ns", hw.network_hop_latency_ns},
      {"gemm_max_efficiency", hw.gemm_max_efficiency},
      {"collective_max_efficiency", hw.collective_max_efficiency},
      {"memory_kernel_efficiency", hw.memory_kernel_efficiency}};
}

cost::HardwareSpec hardware_from_json(const json::Value& v) {
  cost::HardwareSpec hw;
  hw.peak_flops_bf16 = v.get_double("peak_flops_bf16", hw.peak_flops_bf16);
  hw.peak_flops_fp32 = v.get_double("peak_flops_fp32", hw.peak_flops_fp32);
  hw.hbm_bandwidth = v.get_double("hbm_bandwidth", hw.hbm_bandwidth);
  hw.nvlink_bandwidth = v.get_double("nvlink_bandwidth", hw.nvlink_bandwidth);
  hw.nic_bandwidth = v.get_double("nic_bandwidth", hw.nic_bandwidth);
  hw.gpus_per_node = v.get_int32("gpus_per_node", hw.gpus_per_node);
  hw.kernel_launch_overhead_ns =
      v.get_double("kernel_launch_overhead_ns", hw.kernel_launch_overhead_ns);
  hw.cuda_launch_cpu_ns =
      v.get_double("cuda_launch_cpu_ns", hw.cuda_launch_cpu_ns);
  hw.cuda_sync_cpu_ns = v.get_double("cuda_sync_cpu_ns", hw.cuda_sync_cpu_ns);
  hw.cuda_event_cpu_ns =
      v.get_double("cuda_event_cpu_ns", hw.cuda_event_cpu_ns);
  hw.nccl_base_latency_ns =
      v.get_double("nccl_base_latency_ns", hw.nccl_base_latency_ns);
  hw.nvlink_hop_latency_ns =
      v.get_double("nvlink_hop_latency_ns", hw.nvlink_hop_latency_ns);
  hw.network_hop_latency_ns =
      v.get_double("network_hop_latency_ns", hw.network_hop_latency_ns);
  hw.gemm_max_efficiency =
      v.get_double("gemm_max_efficiency", hw.gemm_max_efficiency);
  hw.collective_max_efficiency =
      v.get_double("collective_max_efficiency", hw.collective_max_efficiency);
  hw.memory_kernel_efficiency =
      v.get_double("memory_kernel_efficiency", hw.memory_kernel_efficiency);
  return hw;
}

std::string build_meta_json(const BaselineArtifacts& base) {
  const Scenario& s = base.scenario;
  json::Object meta{
      {"lumos_snapshot_meta", 1},
      {"source", s.source() == Scenario::Source::kSynthetic ? "synthetic"
                                                            : "trace_files"},
      {"trace_prefix", s.trace_prefix()},
      {"num_ranks", static_cast<std::int64_t>(s.num_ranks())},
      {"seed", static_cast<std::int64_t>(s.seed())},
      {"actual_seed", static_cast<std::int64_t>(s.actual_seed())},
      {"hardware", hardware_to_json(s.hardware())},
      {"build_options",
       json::Object{
           {"policy", static_cast<std::int64_t>(s.build_options().policy)},
           {"bucket_layers", s.build_options().bucket_layers},
           {"dp_rank", s.build_options().dp_rank},
           {"include_optimizer", s.build_options().include_optimizer}}},
      {"parser_options",
       json::Object{
           {"sync_duration_clamp_ns",
            s.parser_options().sync_duration_clamp_ns},
           {"interthread_gap_ns", s.parser_options().interthread_gap_ns},
           {"infer_interthread", s.parser_options().infer_interthread},
           {"infer_interstream", s.parser_options().infer_interstream}}}};
  if (base.model) meta["model"] = model_to_json(*base.model);
  if (base.config) meta["config"] = config_to_json(*base.config);
  return json::write(json::Value(std::move(meta)));
}

Status parse_meta_json(const std::string& meta_json,
                       BaselineArtifacts& out) try {
  const json::Value meta = json::parse(meta_json);
  if (!meta.is_object() ||
      meta.get_int("lumos_snapshot_meta", 0) != 1) {
    return parse_error("snapshot metadata: unrecognized layout");
  }

  const bool synthetic = meta.get_string("source", "synthetic") == "synthetic";
  const std::int64_t num_ranks = meta.get_int("num_ranks", 0);
  if (num_ranks < 0) {
    return parse_error("snapshot metadata: num_ranks out of range");
  }
  Scenario scenario =
      synthetic ? Scenario::synthetic()
                : Scenario::from_trace(meta.get_string("trace_prefix", ""),
                                       static_cast<std::size_t>(num_ranks));
  scenario.with_seed(static_cast<std::uint64_t>(meta.get_int("seed", 1)))
      .with_actual_seed(
          static_cast<std::uint64_t>(meta.get_int("actual_seed", 2)));
  const json::Object& obj = meta.as_object();
  if (const json::Value* hw = obj.find("hardware")) {
    scenario.with_hardware(hardware_from_json(*hw));
  }
  if (const json::Value* bo = obj.find("build_options")) {
    workload::BuildOptions options;
    const std::int64_t policy = bo->get_int("policy", 0);
    if (policy < 0 ||
        policy > static_cast<std::int64_t>(workload::SchedulePolicy::GPipe)) {
      return parse_error("snapshot metadata: policy out of range");
    }
    options.policy = static_cast<workload::SchedulePolicy>(policy);
    options.bucket_layers =
        bo->get_int32("bucket_layers", options.bucket_layers);
    options.dp_rank = bo->get_int32("dp_rank", options.dp_rank);
    options.include_optimizer =
        bo->get_bool("include_optimizer", options.include_optimizer);
    scenario.with_build_options(options);
  }
  if (const json::Value* po = obj.find("parser_options")) {
    core::ParserOptions options;
    options.sync_duration_clamp_ns =
        po->get_int("sync_duration_clamp_ns", options.sync_duration_clamp_ns);
    options.interthread_gap_ns =
        po->get_int("interthread_gap_ns", options.interthread_gap_ns);
    options.infer_interthread =
        po->get_bool("infer_interthread", options.infer_interthread);
    options.infer_interstream =
        po->get_bool("infer_interstream", options.infer_interstream);
    scenario.with_parser_options(options);
  }
  if (const json::Value* model = obj.find("model")) {
    out.model = model_from_json(*model);
    scenario.with_model(*out.model);
  }
  if (const json::Value* config = obj.find("config")) {
    out.config = config_from_json(*config);
    scenario.with_parallelism(*out.config);
  }
  out.scenario = std::move(scenario);
  return Status::ok();
} catch (const std::exception& e) {
  // Malformed JSON, or a number an integer field cannot hold.
  return parse_error(std::string("snapshot metadata: ") + e.what());
}

Status map_snapshot_error(const snapshot::Error& e) {
  switch (e.kind()) {
    case snapshot::ErrorKind::kIo: return io_error(e.what());
    case snapshot::ErrorKind::kVersion: return unsupported_error(e.what());
    case snapshot::ErrorKind::kCorrupt: break;
  }
  return parse_error(e.what());
}

}  // namespace

Status save_baseline_snapshot(const BaselineArtifacts& base,
                              const std::string& path) {
  snapshot::Bundle bundle;
  bundle.meta_json = build_meta_json(base);
  bundle.graph = base.graph;
  bundle.program = base.program;
  try {
    // A caller-built baseline may come without its program: compile it
    // here, so a loaded null program means the graph does not compile.
    if (bundle.program == nullptr) {
      bundle.program = core::ReplayCompiler::compile(*base.graph).program;
    }
    snapshot::write(path, bundle);
  } catch (const snapshot::Error& e) {
    return map_snapshot_error(e);
  } catch (const std::exception& e) {
    return internal_error(std::string("snapshot write: ") + e.what());
  }
  return Status::ok();
}

Status Session::save_snapshot(const std::string& path) {
  Result<BaselineArtifacts> base = share_baseline();
  if (!base.is_ok()) return base.status();
  return save_baseline_snapshot(*base, path);
}

Result<BaselineArtifacts> load_baseline_snapshot(const std::string& path) {
  snapshot::Bundle bundle;
  try {
    bundle = snapshot::load(path);
  } catch (const snapshot::Error& e) {
    return map_snapshot_error(e);
  } catch (const std::exception& e) {
    return internal_error(std::string("snapshot load: ") + e.what());
  }
  BaselineArtifacts out;
  if (Status status = parse_meta_json(bundle.meta_json, out);
      !status.is_ok()) {
    return status;
  }
  out.graph = std::move(bundle.graph);
  out.program = std::move(bundle.program);
  return out;
}

Result<std::uint64_t> peek_snapshot_content_hash(const std::string& path) {
  try {
    return snapshot::peek_content_hash(path);
  } catch (const snapshot::Error& e) {
    return map_snapshot_error(e);
  } catch (const std::exception& e) {
    return internal_error(std::string("snapshot peek: ") + e.what());
  }
}

}  // namespace lumos::api
