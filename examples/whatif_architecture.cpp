// What-if study: model-architecture tuning from one trace.
//
// From the GPT-3 15B baseline trace, predict iteration time as the
// architecture is varied along two axes — depth (number of layers) and
// width (hidden / feedforward size) — the paper's §4.3.2 evaluation,
// extended into a small design-space sweep. Also demonstrates the paper's
// "how much would the overall runtime drop if a kernel ran twice as fast?"
// question via custom simulator hooks, registered once in the api's hooks
// registry and instantiated per sweep point.
#include <cstdio>
#include <memory>
#include <vector>

#include "api/api.h"

namespace {

/// Hook answering "what if every GEMM ran 2x faster?" (e.g. a new kernel
/// library) without re-profiling — paper §5, Kernel Execution Time
/// Prediction.
class FasterGemmHooks : public lumos::core::SimulatorHooks {
 public:
  explicit FasterGemmHooks(double speedup) : speedup_(speedup) {}
  std::int64_t task_duration_ns(const lumos::core::Task& t) override {
    if (t.is_gpu() && t.event.gemm.valid()) {
      return static_cast<std::int64_t>(
          static_cast<double>(t.event.dur_ns) / speedup_);
    }
    return t.event.dur_ns;
  }

 private:
  double speedup_;
};

}  // namespace

int main() {
  using namespace lumos;

  api::Scenario baseline = api::Scenario::synthetic()
                               .with_model("15b")
                               .with_parallelism("2x2x4")
                               .with_seed(1);
  Result<api::Session> session = api::Session::create(baseline);
  if (!session.is_ok()) {
    std::fprintf(stderr, "error: %s\n", session.status().to_string().c_str());
    return 1;
  }
  std::printf("profiling GPT-3 15B baseline (%s)...\n",
              baseline.resolved_parallelism()->label().c_str());

  std::printf("\n-- depth sweep (layers) --\n%-10s %12s %14s\n", "layers",
              "iter(ms)", "ms per layer");
  for (std::int32_t layers : {32, 48, 64, 96, 128}) {
    Result<api::Prediction> r =
        session->predict(api::whatif().with_num_layers(layers));
    if (!r.is_ok()) {
      std::printf("%-10d %s\n", layers, r.status().to_string().c_str());
      continue;
    }
    std::printf("%-10d %12.0f %14.2f\n", layers, r->makespan_ms(),
                r->makespan_ms() / layers);
  }

  std::printf("\n-- width sweep (d_model, d_ff = 2*d_model) --\n%-10s %12s\n",
              "d_model", "iter(ms)");
  for (std::int64_t d : {3072, 6144, 9216, 12288}) {
    Result<api::Prediction> r =
        session->predict(api::whatif().with_hidden_size(d, 2 * d));
    if (!r.is_ok()) {
      std::printf("%-10lld %s\n", static_cast<long long>(d),
                  r.status().to_string().c_str());
      continue;
    }
    std::printf("%-10lld %12.0f\n", static_cast<long long>(d),
                r->makespan_ms());
  }

  std::printf("\n-- kernel-speedup what-if (no re-profiling) --\n");
  const double baseline_ms =
      static_cast<double>((*session->replay())->makespan_ns) / 1e6;
  // Register one hooks factory in the api registry (a real deployment would
  // do this once at startup and select hooks by name per query)...
  api::Session::register_hooks("gemm_2x_faster", [] {
    return std::make_unique<FasterGemmHooks>(2.0);
  });
  for (double speedup : {1.25, 1.5, 2.0, 4.0}) {
    // ...and/or hand a hooks instance straight to the what-if Scenario.
    api::Scenario whatif =
        speedup == 2.0
            ? api::whatif().with_hooks("gemm_2x_faster")
            : api::whatif().with_hooks(
                  std::make_shared<FasterGemmHooks>(speedup));
    Result<api::Prediction> r = session->predict(whatif);
    if (!r.is_ok()) {
      std::printf("  %.2fx: %s\n", speedup, r.status().to_string().c_str());
      continue;
    }
    std::printf("  GEMMs %.2fx faster -> iteration %.0f ms (%.1f%% of "
                "baseline)\n",
                speedup, r->makespan_ms(), 100.0 * r->makespan_ms() /
                    baseline_ms);
  }
  std::printf("\nDiminishing returns beyond ~2x indicate the iteration is "
              "shifting from compute-bound to communication/bubble-bound.\n");
  return 0;
}
