// lumos::api::Scenario: declarative description of one Lumos experiment.
//
// A Scenario captures *what* should be simulated — model architecture,
// 3D-parallel deployment, hardware, seeds, trace source — and, optionally,
// the what-if manipulations of the paper's §3.4 (parallelism change,
// architecture change, operator fusion, dependency ablation, custom
// simulator hooks). It performs no work: a Scenario is handed to
// api::Session, which owns execution and caching.
//
// Construction is fluent and infallible; anything that can fail (an unknown
// model name, a malformed "TPxPPxDP" label, a config that does not divide
// the model) is resolved lazily through Status/Result so front ends never
// see exceptions:
//
//   auto s = Scenario::synthetic().with_model("15b").with_parallelism("2x2x4");
//   auto session = Session::create(s);       // Result<Session>
//   auto whatif  = api::whatif().with_data_parallelism(8);
//   auto predicted = session->predict(whatif);  // Result<Prediction>
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/status.h"
#include "core/fusion.h"
#include "faults/fault_spec.h"
#include "core/simulator.h"
#include "core/trace_parser.h"
#include "costmodel/hardware.h"
#include "trace/chrome_trace.h"
#include "workload/graph_builder.h"
#include "workload/model_spec.h"
#include "workload/parallelism.h"

namespace lumos::api {

/// Resolves a model registry name ("15b" | "44b" | "117b" | "175b" | "v1" |
/// "v2" | "v3" | "v4" | "tiny") to its specification. kUnknownModel
/// otherwise.
Result<workload::ModelSpec> model_by_name(std::string_view name);

/// Registry names accepted by model_by_name, in display order.
const std::vector<std::string>& known_model_names();

/// Parses a "TPxPPxDP" label (e.g. "2x2x4") into a ParallelConfig.
/// kInvalidArgument on malformed input or non-positive degrees.
Result<workload::ParallelConfig> parse_parallelism(std::string_view label);

class Scenario {
 public:
  /// Where the baseline trace comes from.
  enum class Source : std::uint8_t {
    kSynthetic,   ///< ground-truth cluster engine (model + config + seed)
    kTraceFiles,  ///< <prefix>_rank<k>.json files on disk
  };

  Scenario() = default;

  /// A scenario backed by the synthetic cluster engine (the default).
  static Scenario synthetic() { return Scenario(); }

  /// A scenario backed by on-disk Kineto traces. `num_ranks` > 0 requires
  /// exactly that many files.
  static Scenario from_trace(std::string prefix, std::size_t num_ranks = 0);

  // -- base configuration ---------------------------------------------------
  Scenario& with_model(workload::ModelSpec spec);
  Scenario& with_model(std::string_view name);  ///< resolved lazily
  Scenario& with_parallelism(workload::ParallelConfig config);
  Scenario& with_parallelism(std::string_view label);  ///< "TPxPPxDP"
  Scenario& with_microbatches(std::int32_t num_microbatches);
  Scenario& with_hardware(cost::HardwareSpec hw);
  Scenario& with_seed(std::uint64_t seed);         ///< profiled run
  Scenario& with_actual_seed(std::uint64_t seed);  ///< measured run
  Scenario& with_build_options(workload::BuildOptions options);
  Scenario& with_parser_options(core::ParserOptions options);
  /// Cluster-ingest parallelism: rank files are parsed across `workers`
  /// threads with a deterministic pool merge, so any value — 0 (one worker
  /// per hardware thread, the default), 1 (serial), N — produces a
  /// bit-identical trace. The knob behind lumos_cli --ingest-workers; see
  /// "Parallel ingest" in src/api/README.md.
  Scenario& with_ingest_workers(std::size_t workers);

  // -- what-if manipulations (paper §3.4) -----------------------------------
  Scenario& with_data_parallelism(std::int32_t new_dp);
  Scenario& with_pipeline_parallelism(std::int32_t new_pp);
  Scenario& with_scaled_parallelism(std::int32_t new_pp, std::int32_t new_dp);
  /// Recorded but rejected with kUnsupported at predict time, as in the
  /// paper ("We currently do not support modifications to tensor
  /// parallelism").
  Scenario& with_tensor_parallelism(std::int32_t new_tp);
  Scenario& with_architecture(workload::ModelSpec model);
  Scenario& with_num_layers(std::int32_t layers);
  Scenario& with_hidden_size(std::int64_t d_model, std::int64_t d_ff);
  Scenario& with_fusion(core::FusionOptions options = {});
  Scenario& without_dependencies(core::DepType type);
  /// Custom kernel-duration hooks: either an instance, or the name of a
  /// factory registered via Session::register_hooks.
  Scenario& with_hooks(std::shared_ptr<core::SimulatorHooks> hooks);
  Scenario& with_hooks(std::string registered_name);
  /// Deterministic fault injection (stragglers, link degradation, jitter,
  /// contention, rank dropout — see faults::FaultSpec). Lowered against the
  /// baseline graph at predict time; hook-free plans ride the compiled
  /// fast path. Mutually exclusive with with_hooks (kInvalidArgument):
  /// composing user hooks with a fault column would be ambiguous.
  Scenario& with_faults(faults::FaultSpec spec);
  /// Cost model by registry name (Session::register_cost_model); the
  /// default is the built-in KernelPerfModel on this scenario's hardware.
  Scenario& with_cost_model(std::string registered_name);

  // -- resolution (non-throwing) --------------------------------------------
  /// The model spec, resolving a deferred name. kUnknownModel /
  /// kFailedPrecondition (none specified).
  Result<workload::ModelSpec> resolved_model() const;
  /// The parallel config, resolving a deferred label and applying
  /// with_microbatches. kInvalidArgument / kFailedPrecondition.
  Result<workload::ParallelConfig> resolved_parallelism() const;
  /// Checks model/parallelism consistency (divisibility etc.).
  /// kValidationError when the combination is rejected.
  Status validate() const;

  // -- introspection --------------------------------------------------------
  /// True when with_model / with_parallelism / with_microbatches was called
  /// (regardless of whether the value resolves).
  bool has_model() const { return model_.has_value() || !model_name_.empty(); }
  bool has_parallelism() const {
    return config_.has_value() || !config_label_.empty();
  }
  bool has_microbatches() const { return microbatches_.has_value(); }

  Source source() const { return source_; }
  const std::string& trace_prefix() const { return trace_prefix_; }
  std::size_t num_ranks() const { return num_ranks_; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t actual_seed() const { return actual_seed_; }
  const cost::HardwareSpec& hardware() const { return hardware_; }
  const workload::BuildOptions& build_options() const {
    return build_options_;
  }
  const core::ParserOptions& parser_options() const {
    return parser_options_;
  }
  const trace::IoOptions& io_options() const { return io_options_; }

  bool has_manipulations() const;
  const std::optional<std::int32_t>& new_dp() const { return new_dp_; }
  const std::optional<std::int32_t>& new_pp() const { return new_pp_; }
  const std::optional<std::int32_t>& new_tp() const { return new_tp_; }
  const std::optional<workload::ModelSpec>& new_architecture() const {
    return new_architecture_;
  }
  const std::optional<std::int32_t>& new_layers() const {
    return new_layers_;
  }
  const std::optional<std::pair<std::int64_t, std::int64_t>>& new_hidden()
      const {
    return new_hidden_;
  }
  const std::optional<core::FusionOptions>& fusion() const { return fusion_; }
  const std::vector<core::DepType>& dropped_dependencies() const {
    return dropped_dependencies_;
  }
  const std::shared_ptr<core::SimulatorHooks>& hooks() const {
    return hooks_;
  }
  const std::string& hooks_name() const { return hooks_name_; }
  /// Non-null when with_faults was called (shared so copies of a what-if
  /// spec fanned across sweep workers alias one immutable FaultSpec).
  const std::shared_ptr<const faults::FaultSpec>& faults() const {
    return faults_;
  }
  const std::string& cost_model_name() const { return cost_model_name_; }

  /// One-line human-readable summary of the scenario.
  std::string describe() const;

 private:
  Source source_ = Source::kSynthetic;
  std::string trace_prefix_;
  std::size_t num_ranks_ = 0;

  std::optional<workload::ModelSpec> model_;
  std::string model_name_;
  std::optional<workload::ParallelConfig> config_;
  std::string config_label_;
  std::optional<std::int32_t> microbatches_;

  cost::HardwareSpec hardware_ = cost::HardwareSpec::h100_cluster();
  std::uint64_t seed_ = 1;
  std::uint64_t actual_seed_ = 2;
  workload::BuildOptions build_options_;
  core::ParserOptions parser_options_;
  trace::IoOptions io_options_;

  std::optional<std::int32_t> new_dp_, new_pp_, new_tp_;
  std::optional<workload::ModelSpec> new_architecture_;
  std::optional<std::int32_t> new_layers_;
  std::optional<std::pair<std::int64_t, std::int64_t>> new_hidden_;
  std::optional<core::FusionOptions> fusion_;
  std::vector<core::DepType> dropped_dependencies_;
  std::shared_ptr<core::SimulatorHooks> hooks_;
  std::string hooks_name_;
  std::shared_ptr<const faults::FaultSpec> faults_;
  std::string cost_model_name_;
};

/// An empty scenario used as a manipulation spec for Session::predict —
/// reads as `session.predict(api::whatif().with_data_parallelism(8))`.
inline Scenario whatif() { return Scenario(); }

}  // namespace lumos::api
