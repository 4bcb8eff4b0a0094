// Prometheus text exposition (version 0.0.4) of the metrics registry, served
// by the embedded status listener at /metrics. Dependency-free: renders
// straight from obs::snapshot().
//
// Mapping: metric names are mangled to the Prometheus charset (`.` -> `_`)
// and prefixed `abg_`; counters keep their name, a Gauge exports two series
// (`abg_<name>` = last write, `abg_<name>_max` = high-watermark), and a
// Histogram exports the conventional `_bucket{le=...}` cumulative series plus
// `_sum` and `_count`. Registry labels pass through as Prometheus labels.
#pragma once

#include <string>

namespace abg::obs {

struct Snapshot;

// Render a snapshot (or the live registry) as Prometheus text exposition.
std::string prometheus_text(const Snapshot& s);
std::string prometheus_text();

}  // namespace abg::obs
