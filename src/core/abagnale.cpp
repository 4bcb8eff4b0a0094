#include "core/abagnale.hpp"

#include <algorithm>
#include <cmath>

#include "dsl/known_handlers.hpp"
#include "util/log.hpp"

namespace abg::core {

util::Status PipelineOptions::validate() const {
  auto bad = [](const std::string& msg) {
    return util::Status(util::StatusCode::kInvalidArgument, msg);
  };
  if (auto st = synth.validate(); !st.is_ok()) return st;
  if (min_segment_samples < 1) return bad("min_segment_samples must be >= 1");
  if (std::isnan(warmup_s) || warmup_s < 0.0) return bad("warmup_s must be finite and >= 0");
  if (dsl_override) {
    const auto names = dsl::curated_dsl_names();
    if (std::find(names.begin(), names.end(), *dsl_override) == names.end()) {
      return bad("unknown dsl_override '" + *dsl_override + "'");
    }
  }
  return util::Status::ok();
}

std::string PipelineResult::handler_string() const {
  return found() ? dsl::to_string(*synthesis.best.handler) : "<none>";
}

std::string dsl_for_classification(const classify::Classification& c) {
  auto hint_for = [](const std::string& cca) -> std::optional<std::string> {
    for (const auto& k : dsl::all_known_handlers()) {
      if (k.cca == cca) return k.dsl_hint;
    }
    return std::nullopt;
  };
  if (!c.is_unknown()) {
    if (auto h = hint_for(c.label)) return *h;
  }
  for (const auto& close : c.closest) {
    if (auto h = hint_for(close)) return *h;
  }
  return "vegas";
}

std::vector<trace::Segment> build_segment_pool(const std::vector<trace::Trace>& traces,
                                               const PipelineOptions& opts) {
  std::vector<trace::Trace> steady;
  steady.reserve(traces.size());
  for (const auto& t : traces) steady.push_back(trace::trim_warmup(t, opts.warmup_s));
  return trace::segment_all(steady, opts.min_segment_samples, opts.skip_first_segment);
}

Abagnale::Abagnale(PipelineOptions opts) : opts_(std::move(opts)) {}

PipelineResult Abagnale::run_with_dsl(const std::vector<trace::Trace>& traces,
                                      const std::string& dsl_name,
                                      const Synthesizer& synthesize) const {
  PipelineResult result;
  result.dsl_name = dsl_name;
  if (auto st = opts_.validate(); !st.is_ok()) {
    result.synthesis.status = st.with_context("PipelineOptions");
    return result;
  }
  const auto segments = build_segment_pool(traces, opts_);
  result.segments_total = segments.size();
  ABG_INFO("synthesizing in DSL '%s' over %zu segments from %zu traces", dsl_name.c_str(),
           segments.size(), traces.size());
  const dsl::Dsl dsl = dsl::dsl_by_name(dsl_name);
  result.synthesis = synthesize ? synthesize(dsl, segments, opts_.synth)
                                : synth::synthesize(dsl, segments, opts_.synth);
  return result;
}

PipelineResult Abagnale::run(const std::vector<trace::Trace>& traces,
                             const Synthesizer& synthesize) const {
  if (auto st = opts_.validate(); !st.is_ok()) {
    PipelineResult result;
    result.synthesis.status = st.with_context("PipelineOptions");
    return result;
  }
  if (opts_.dsl_override) {
    return run_with_dsl(traces, *opts_.dsl_override, synthesize);
  }
  classify::Classifier classifier(opts_.classifier);
  auto classification = classifier.classify(traces);
  const std::string dsl_name = dsl_for_classification(classification);
  ABG_INFO("classifier: label=%s -> DSL '%s'", classification.label.c_str(), dsl_name.c_str());
  PipelineResult result = run_with_dsl(traces, dsl_name, synthesize);
  result.classification = std::move(classification);
  return result;
}

}  // namespace abg::core
