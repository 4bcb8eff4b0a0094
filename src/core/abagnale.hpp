// The Abagnale pipeline façade (Figure 1): packet traces -> CCA classifier
// -> sub-DSL selection -> trace segmentation + diversity sampling ->
// bucketized, SMT-enumerated, distance-guided refinement loop -> the
// simplest handler expression whose synthesized trace best matches the
// observations.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "classify/classifier.hpp"
#include "dsl/dsl.hpp"
#include "synth/refinement.hpp"
#include "trace/trace.hpp"
#include "util/status.hpp"

namespace abg::core {

struct PipelineOptions {
  synth::SynthesisOptions synth;
  classify::ClassifierOptions classifier;
  // Segments shorter than this many ACK samples are dropped (§3.2).
  std::size_t min_segment_samples = 20;
  // Drop each trace's first `warmup_s` seconds (connection ramp-up): the
  // cwnd-ack handler model targets steady-state behaviour.
  double warmup_s = 2.0;
  // Additionally drop each trace's pre-first-loss segment.
  bool skip_first_segment = false;
  // Skip classification and force a curated DSL by name.
  std::optional<std::string> dsl_override;

  // Eager validation of the whole option tree (synth options included).
  // Returns kInvalidArgument naming the first bad field; called by run()/
  // run_with_dsl() and by every abg::api entry point before any work starts.
  util::Status validate() const;
};

struct PipelineResult {
  classify::Classification classification;  // empty label if overridden
  std::string dsl_name;                     // sub-DSL the search ran in
  std::size_t segments_total = 0;           // segment pool size
  synth::SynthesisResult synthesis;

  // Convenience accessors.
  bool found() const { return synthesis.best.valid(); }
  std::string handler_string() const;
  double distance() const { return synthesis.best.distance; }
};

// Map a classifier outcome to the curated sub-DSL to search (§3.3): a
// definitive label uses that CCA family's DSL; an Unknown result falls back
// to the closest known CCA's family; no hint at all defaults to the Vegas
// DSL (the broadest curated space).
std::string dsl_for_classification(const classify::Classification& c);

// The segment pool a run searches (§3.2): each trace loses its first
// `warmup_s` seconds, and the steady state is cut at loss events into
// segments of at least `min_segment_samples` samples. Every entry point —
// core::Abagnale, api::Engine, dist::Coordinator and each worker — builds
// its pool here, so a worker's pool matches the coordinator's by
// construction.
std::vector<trace::Segment> build_segment_pool(const std::vector<trace::Trace>& traces,
                                               const PipelineOptions& opts);

// The refinement stage of a pipeline run. Empty means synth::synthesize;
// dist::Coordinator substitutes the same driver over its worker fleet.
using Synthesizer = std::function<synth::SynthesisResult(
    const dsl::Dsl&, const std::vector<trace::Segment>&, const synth::SynthesisOptions&)>;

class Abagnale {
 public:
  explicit Abagnale(PipelineOptions opts = {});

  // Full pipeline over a set of connections collected from one CCA.
  PipelineResult run(const std::vector<trace::Trace>& traces,
                     const Synthesizer& synthesize = {}) const;

  // Synthesis only, with an explicit DSL (used by the §6.3 DSL-impact
  // experiments and by callers that already know the family).
  PipelineResult run_with_dsl(const std::vector<trace::Trace>& traces,
                              const std::string& dsl_name,
                              const Synthesizer& synthesize = {}) const;

  const PipelineOptions& options() const { return opts_; }

 private:
  PipelineOptions opts_;
};

}  // namespace abg::core
