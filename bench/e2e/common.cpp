#include "obs/metrics.h"
#include "workloads.h"

namespace fcm::e2e {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string quartiles_json(const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  return "{\"n\":" + std::to_string(values.size()) +
         ",\"q1\":" + json_number(q.q1) +
         ",\"median\":" + json_number(q.median) +
         ",\"q3\":" + json_number(q.q3) + "}";
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

void start_library_counters() {
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
}

void start_traced_pass() {
  start_library_counters();
  set_alloc_counting(true);
}

std::uint64_t library_counter(const std::string& name) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

void set_closed_loop_metrics(Outcome& outcome, const std::vector<double>& op_s,
                             std::uint64_t correct_ops,
                             const std::vector<Clock::time_point>& starts,
                             const std::vector<Clock::time_point>& ends) {
  std::vector<double> op_ms;
  for (const double s : op_s) op_ms.push_back(s * 1e3);
  outcome.metrics["latency_p50_ms"] = quantile(op_ms, 0.5);
  const double window_s =
      starts.empty() ? 0.0 : seconds_between(starts.front(), ends.back());
  outcome.metrics["goodput_per_s"] =
      ratio(static_cast<double>(correct_ops), window_s);
  outcome.detail["op_ms"] = quartiles_json(op_ms);
}

void set_closed_loop_lag(Outcome& outcome,
                         const std::vector<Clock::time_point>& starts,
                         const std::vector<Clock::time_point>& ends) {
  std::vector<double> lag_ms;
  for (std::size_t i = 1; i < starts.size(); ++i) {
    lag_ms.push_back(seconds_between(ends[i - 1], starts[i]) * 1e3);
  }
  outcome.metrics["bench.gen_lag_p99_ms"] = quantile(lag_ms, 0.99);
}

void set_attribution_detail(Outcome& outcome, double traced_total_s,
                            const std::vector<std::string>& layers,
                            const std::vector<double>& self_s,
                            double unattributed_s) {
  std::string self = "{";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (i > 0) self += ",";
    self += json_string(layers[i]) + ":" + json_number(self_s[i]);
  }
  outcome.detail["attribution"] =
      "{\"traced_total_s\":" + json_number(traced_total_s) +
      ",\"self_s\":" + self + "},\"unattributed_s\":" +
      json_number(unattributed_s) + "}";
}

void set_layer_metrics(Outcome& outcome, const SpanRecorder& spans,
                       const std::string& root_name,
                       double untraced_median_s) {
  double total_s = 0.0;
  std::vector<double> op_s;
  for (const SpanRecorder::Span& span : spans.spans()) {
    if (span.name != root_name) continue;
    op_s.push_back(seconds_between(span.start, span.end));
    total_s += op_s.back();
  }
  const auto ops = static_cast<double>(op_s.size());
  const SpanRecorder::SelfTotals self = spans.self_totals();
  std::vector<std::string> layers;
  std::vector<double> layer_s;
  double unattributed_s = 0.0;
  std::uint64_t cluster_allocs = 0;
  for (std::size_t i = 0; i < self.names.size(); ++i) {
    const std::string& name = self.names[i];
    if (name == root_name) {
      unattributed_s = self.seconds[i];
      continue;
    }
    layers.push_back(name);
    layer_s.push_back(self.seconds[i]);
    outcome.metrics[name + "_frac"] = ratio(self.seconds[i], total_s);
    const double per_op = ratio(static_cast<double>(self.allocs[i]), ops);
    if (name == "mapping.swgraph_build" || name == "mapping.assign" ||
        name == "mapping.quality") {
      outcome.metrics[name + "_allocs"] = per_op;
    } else if (name.rfind("mapping.cluster_", 0) == 0) {
      cluster_allocs += self.allocs[i];
    }
  }
  outcome.metrics["mapping.cluster_allocs"] =
      ratio(static_cast<double>(cluster_allocs), ops);
  outcome.metrics["bench.unattributed_frac"] = ratio(unattributed_s, total_s);
  // Medians on both sides: the first operation of a process pays for
  // growing the heap, which would otherwise read as (negative) overhead.
  const double traced_median_s = quantile(op_s, 0.5);
  outcome.metrics["bench.traced_op_ms"] = traced_median_s * 1e3;
  outcome.metrics["bench.trace_overhead_frac"] =
      ratio(traced_median_s - untraced_median_s, untraced_median_s);
  set_attribution_detail(outcome, total_s, layers, layer_s, unattributed_s);
}

}  // namespace fcm::e2e
