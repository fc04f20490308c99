#include "api/scenario.h"

#include <limits>

namespace lumos::api {

namespace {

workload::ModelSpec tiny_model() {
  workload::ModelSpec m;
  m.name = "GPT-tiny";
  m.num_layers = 8;
  m.d_model = 1024;
  m.d_ff = 4096;
  m.num_heads = 8;
  m.head_dim = 128;
  m.vocab_size = 8192;
  m.seq_len = 512;
  return m;
}

}  // namespace

Result<workload::ModelSpec> model_by_name(std::string_view name) {
  if (name == "15b") return workload::ModelSpec::gpt3_15b();
  if (name == "44b") return workload::ModelSpec::gpt3_44b();
  if (name == "117b") return workload::ModelSpec::gpt3_117b();
  if (name == "175b") return workload::ModelSpec::gpt3_175b();
  if (name == "v1") return workload::ModelSpec::gpt3_v1();
  if (name == "v2") return workload::ModelSpec::gpt3_v2();
  if (name == "v3") return workload::ModelSpec::gpt3_v3();
  if (name == "v4") return workload::ModelSpec::gpt3_v4();
  if (name == "tiny") return tiny_model();
  std::string names;
  for (const std::string& n : known_model_names()) {
    if (!names.empty()) names += "|";
    names += n;
  }
  return unknown_model_error("no model named '" + std::string(name) +
                             "' (use " + names + ")");
}

const std::vector<std::string>& known_model_names() {
  static const std::vector<std::string> names = {
      "15b", "44b", "117b", "175b", "v1", "v2", "v3", "v4", "tiny"};
  return names;
}

namespace {

/// Consumes one parallelism degree at `pos`: a plain run of decimal digits
/// (no sign, no whitespace — sscanf-style leniency let "-1x2x4" and
/// " 2x2x4" through). Returns false on anything else or on overflow;
/// otherwise advances `pos` past the digits.
bool parse_degree(std::string_view text, std::size_t& pos,
                  std::int32_t& out) {
  const std::size_t begin = pos;
  std::int64_t value = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    value = value * 10 + (text[pos] - '0');
    if (value > std::numeric_limits<std::int32_t>::max()) return false;
    ++pos;
  }
  if (pos == begin) return false;
  out = static_cast<std::int32_t>(value);
  return true;
}

}  // namespace

Result<workload::ParallelConfig> parse_parallelism(std::string_view label) {
  const std::string text(label);
  const auto malformed = [&text] {
    return invalid_argument_error("parallelism must look like TPxPPxDP "
                                  "(e.g. 2x2x4), got '" +
                                  text + "'");
  };
  workload::ParallelConfig c;
  std::int32_t* const dims[] = {&c.tp, &c.pp, &c.dp};
  std::size_t pos = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (i > 0) {
      if (pos >= label.size() || label[pos] != 'x') return malformed();
      ++pos;
    }
    if (!parse_degree(label, pos, *dims[i])) return malformed();
  }
  if (pos != label.size()) return malformed();  // trailing garbage
  if (c.tp < 1 || c.pp < 1 || c.dp < 1) {
    return invalid_argument_error(
        "parallelism degrees must be >= 1, got '" + text + "'");
  }
  return c;
}

Scenario Scenario::from_trace(std::string prefix, std::size_t num_ranks) {
  Scenario s;
  s.source_ = Source::kTraceFiles;
  s.trace_prefix_ = std::move(prefix);
  s.num_ranks_ = num_ranks;
  return s;
}

Scenario& Scenario::with_model(workload::ModelSpec spec) {
  model_ = std::move(spec);
  model_name_.clear();
  return *this;
}

Scenario& Scenario::with_model(std::string_view name) {
  model_.reset();
  model_name_ = std::string(name);
  return *this;
}

Scenario& Scenario::with_parallelism(workload::ParallelConfig config) {
  config_ = config;
  config_label_.clear();
  return *this;
}

Scenario& Scenario::with_parallelism(std::string_view label) {
  config_.reset();
  config_label_ = std::string(label);
  return *this;
}

Scenario& Scenario::with_microbatches(std::int32_t num_microbatches) {
  microbatches_ = num_microbatches;
  return *this;
}

Scenario& Scenario::with_hardware(cost::HardwareSpec hw) {
  hardware_ = hw;
  return *this;
}

Scenario& Scenario::with_seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

Scenario& Scenario::with_actual_seed(std::uint64_t seed) {
  actual_seed_ = seed;
  return *this;
}

Scenario& Scenario::with_ingest_workers(std::size_t workers) {
  io_options_.ingest_workers = workers;
  return *this;
}

Scenario& Scenario::with_build_options(workload::BuildOptions options) {
  build_options_ = options;
  return *this;
}

Scenario& Scenario::with_parser_options(core::ParserOptions options) {
  parser_options_ = options;
  return *this;
}

Scenario& Scenario::with_data_parallelism(std::int32_t new_dp) {
  new_dp_ = new_dp;
  return *this;
}

Scenario& Scenario::with_pipeline_parallelism(std::int32_t new_pp) {
  new_pp_ = new_pp;
  return *this;
}

Scenario& Scenario::with_scaled_parallelism(std::int32_t new_pp,
                                            std::int32_t new_dp) {
  new_pp_ = new_pp;
  new_dp_ = new_dp;
  return *this;
}

Scenario& Scenario::with_tensor_parallelism(std::int32_t new_tp) {
  new_tp_ = new_tp;
  return *this;
}

Scenario& Scenario::with_architecture(workload::ModelSpec model) {
  new_architecture_ = std::move(model);
  return *this;
}

Scenario& Scenario::with_num_layers(std::int32_t layers) {
  new_layers_ = layers;
  return *this;
}

Scenario& Scenario::with_hidden_size(std::int64_t d_model,
                                     std::int64_t d_ff) {
  new_hidden_ = std::make_pair(d_model, d_ff);
  return *this;
}

Scenario& Scenario::with_fusion(core::FusionOptions options) {
  fusion_ = options;
  return *this;
}

Scenario& Scenario::without_dependencies(core::DepType type) {
  dropped_dependencies_.push_back(type);
  return *this;
}

Scenario& Scenario::with_hooks(std::shared_ptr<core::SimulatorHooks> hooks) {
  hooks_ = std::move(hooks);
  hooks_name_.clear();
  return *this;
}

Scenario& Scenario::with_hooks(std::string registered_name) {
  hooks_.reset();
  hooks_name_ = std::move(registered_name);
  return *this;
}

Scenario& Scenario::with_faults(faults::FaultSpec spec) {
  faults_ = std::make_shared<const faults::FaultSpec>(std::move(spec));
  return *this;
}

Scenario& Scenario::with_cost_model(std::string registered_name) {
  cost_model_name_ = std::move(registered_name);
  return *this;
}

Result<workload::ModelSpec> Scenario::resolved_model() const {
  if (model_) return *model_;
  if (!model_name_.empty()) return model_by_name(model_name_);
  return failed_precondition_error("scenario has no model (with_model)");
}

Result<workload::ParallelConfig> Scenario::resolved_parallelism() const {
  workload::ParallelConfig config;
  if (config_) {
    config = *config_;
  } else if (!config_label_.empty()) {
    Result<workload::ParallelConfig> parsed = parse_parallelism(config_label_);
    if (!parsed.is_ok()) return parsed.status();
    config = *parsed;
  } else {
    return failed_precondition_error(
        "scenario has no parallelism (with_parallelism)");
  }
  if (microbatches_) config.num_microbatches = *microbatches_;
  return config;
}

Status Scenario::validate() const {
  Result<workload::ModelSpec> model = resolved_model();
  if (!model.is_ok()) return model.status();
  Result<workload::ParallelConfig> config = resolved_parallelism();
  if (!config.is_ok()) return config.status();
  const std::string err = config->validate(*model);
  if (!err.empty()) {
    return validation_error(model->name + " on " + config->label() + ": " +
                            err);
  }
  return Status::ok();
}

bool Scenario::has_manipulations() const {
  return new_dp_ || new_pp_ || new_tp_ || new_architecture_ || new_layers_ ||
         new_hidden_ || fusion_ || !dropped_dependencies_.empty() ||
         hooks_ != nullptr || !hooks_name_.empty() || faults_ != nullptr;
}

std::string Scenario::describe() const {
  std::string out = source_ == Source::kSynthetic
                        ? "synthetic"
                        : "trace:" + trace_prefix_;
  if (Result<workload::ModelSpec> m = resolved_model(); m.is_ok()) {
    out += " model=" + m->name;
  } else if (!model_name_.empty()) {
    out += " model=?" + model_name_;
  }
  if (Result<workload::ParallelConfig> c = resolved_parallelism();
      c.is_ok()) {
    out += " parallelism=" + c->label();
  } else if (!config_label_.empty()) {
    out += " parallelism=?" + config_label_;
  }
  out += " seed=" + std::to_string(seed_);
  if (has_manipulations()) {
    out += " whatif:";
    if (new_tp_) out += " tp=" + std::to_string(*new_tp_);
    if (new_pp_) out += " pp=" + std::to_string(*new_pp_);
    if (new_dp_) out += " dp=" + std::to_string(*new_dp_);
    if (new_architecture_) out += " arch=" + new_architecture_->name;
    if (new_layers_) out += " layers=" + std::to_string(*new_layers_);
    if (new_hidden_) {
      out += " hidden=" + std::to_string(new_hidden_->first) + "/" +
             std::to_string(new_hidden_->second);
    }
    if (fusion_) out += " fusion";
    for (core::DepType type : dropped_dependencies_) {
      out += " -" + std::string(core::to_string(type));
    }
    if (hooks_ || !hooks_name_.empty()) {
      out += " hooks=" + (hooks_name_.empty() ? "<custom>" : hooks_name_);
    }
    if (faults_) out += " faults=[" + faults_->describe() + "]";
  }
  return out;
}

}  // namespace lumos::api
