#include "workload/analytical_provider.h"

#include <stdexcept>
#include <string>

namespace lumos::workload {

std::int64_t AnalyticalProvider::cpu_ns(const CpuOpDesc& desc) const {
  const auto& hw = model_.hardware();
  const trace::CudaApi api = trace::cuda_api_from_name(desc.name);
  if (trace::launches_device_work(api)) {
    return static_cast<std::int64_t>(hw.cuda_launch_cpu_ns);
  }
  if (trace::blocks_cpu(api)) {
    return static_cast<std::int64_t>(hw.cuda_sync_cpu_ns);
  }
  if (api == trace::CudaApi::EventRecord ||
      api == trace::CudaApi::StreamWaitEvent) {
    return static_cast<std::int64_t>(hw.cuda_event_cpu_ns);
  }
  // Framework (aten/autograd) operator dispatch cost. Backward dispatch is
  // a bit pricier than forward in real PyTorch profiles.
  return desc.phase == "backward" ? 14'000 : 10'000;
}

std::int64_t AnalyticalProvider::kernel_ns(const KernelDesc& desc) const {
  if (desc.collective.valid()) {
    auto kind = cost::collective_kind_from_string(desc.collective.op);
    if (!kind) {
      throw std::invalid_argument("AnalyticalProvider: unknown collective '" +
                                  std::string(desc.collective.op) + "'");
    }
    return model_.collective_ns(*kind, desc.collective.bytes, desc.placement);
  }
  if (desc.gemm.valid()) {
    return model_.gemm_ns(desc.gemm);
  }
  if (desc.is_attention()) {
    return desc.phase == "backward"
               ? model_.attention_backward_ns(desc.attn_batch, desc.attn_heads,
                                              desc.attn_seq,
                                              desc.attn_head_dim)
               : model_.attention_forward_ns(desc.attn_batch, desc.attn_heads,
                                             desc.attn_seq,
                                             desc.attn_head_dim);
  }
  if (desc.elementwise_bytes > 0) {
    return model_.memory_bound_ns(desc.elementwise_bytes);
  }
  throw std::invalid_argument("AnalyticalProvider: kernel '" +
                              std::string(desc.name) +
                              "' has no cost-relevant description");
}

}  // namespace lumos::workload
