// AnalyticalProvider: durations from the kernel cost model (used to build
// ground-truth graphs and as the fallback for brand-new kernels during
// graph manipulation).
#pragma once

#include "costmodel/kernel_model.h"
#include "workload/duration_provider.h"

namespace lumos::workload {

class AnalyticalProvider : public DurationProvider {
 public:
  explicit AnalyticalProvider(const cost::KernelPerfModel& model)
      : model_(model) {}

  std::int64_t cpu_ns(const CpuOpDesc& desc) const override;
  std::int64_t kernel_ns(const KernelDesc& desc) const override;

 private:
  const cost::KernelPerfModel& model_;
};

}  // namespace lumos::workload
