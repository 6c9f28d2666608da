#include "scale/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace pasched::scale {

using analysis::Diagnostic;
using analysis::Severity;

namespace {

std::string fmt2(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << v;
  return os.str();
}

}  // namespace

double ScaleReport::predicted_max_speedup() const {
  const double ideal = workspan.predicted_max_speedup();
  if (predicted_speedup_window_model <= 0.0) return ideal;
  return std::min(ideal, predicted_speedup_window_model);
}

std::vector<Diagnostic> ScaleReport::diagnostics() const {
  std::vector<Diagnostic> out = soundness;  // PSL303 first: certificate truth

  if (matrix.has_pairs()) {
    const auto median = matrix.median_pair();
    if (static_cast<double>(matrix.global.count()) * options.collapse_ratio <=
        static_cast<double>(median.count())) {
      Diagnostic d;
      d.rule = "PSL301";
      d.severity = Severity::Warning;
      d.subject = scenario;
      d.message = "global lookahead " + matrix.global.str() +
                  " is collapsed far below the pairwise median " +
                  median.str() + " (" +
                  std::to_string(median / matrix.global) +
                  "x); every shard pays the fabric's single worst link";
      d.fix_hint =
          "adopt the per-pair certificate (a per-pair window planner keeps "
          "distant shards on their wider bounds), or raise the offending "
          "link's latency floor";
      out.push_back(std::move(d));
    }
  }

  if (windows.n_windows() > 0) {
    const double floor = static_cast<double>(
        std::max(32, windows.shards));
    const double med = windows.median_events_per_window();
    if (med < floor) {
      Diagnostic d;
      d.rule = "PSL302";
      d.severity = Severity::Warning;
      d.subject = scenario;
      d.message = "median window carries " + fmt2(med) + " events across " +
                  std::to_string(windows.shards) +
                  " shards (floor " + fmt2(floor) + "); " +
                  std::to_string(windows.n_windows()) +
                  " barrier crossings at " +
                  fmt2(options.model.barrier_cost_ns) + " ns each (" +
                  barrier_cost_source +
                  ") dominate the useful work";
      d.fix_hint =
          "widen the windows: raise inter_node_latency, cut jitter_frac, "
          "raise sim::kWindowBatch, or batch more work per "
          "lookahead interval";
      out.push_back(std::move(d));
    }

    const double imb = windows.imbalance();
    if (imb > options.imbalance_threshold) {
      Diagnostic d;
      d.rule = "PSL304";
      d.severity = Severity::Warning;
      d.subject = scenario;
      d.message = "per-shard load imbalance " + fmt2(imb) +
                  "x exceeds " + fmt2(options.imbalance_threshold) +
                  "x; the slowest shard paces every window";
      d.fix_hint =
          "rebalance tasks across nodes, or split the hot shard's event "
          "sources";
      out.push_back(std::move(d));
    }

    const double hub = windows.hub_critical_share();
    if (hub > options.hub_share_threshold) {
      Diagnostic d;
      d.rule = "PSL305";
      d.severity = Severity::Warning;
      d.subject = scenario;
      d.message = "switch hub carries " + fmt2(hub * 100.0) +
                  "% of the per-window critical work (threshold " +
                  fmt2(options.hub_share_threshold * 100.0) +
                  "%); collective traffic serializes on one shard";
      d.fix_hint =
          "shard the hub (per-collective queues), or move broadcast fan-out "
          "onto the destination node shards";
      out.push_back(std::move(d));
    }
  }

  const double ceiling = predicted_max_speedup();
  if (ceiling < options.target_speedup) {
    Diagnostic d;
    d.rule = "PSL306";
    d.severity = Severity::Warning;
    d.subject = scenario;
    d.message = "predicted speedup ceiling " + fmt2(ceiling) + "x at " +
                std::to_string(options.target_workers) +
                " workers is below the " + fmt2(options.target_speedup) +
                "x target (work/span " +
                fmt2(workspan.predicted_max_speedup()) +
                "x, window model " + fmt2(predicted_speedup_window_model) +
                "x)";
    d.fix_hint =
        "fix whichever bound is tighter: window model -> PSL301/302/304/305 "
        "findings above; work/span -> the workload itself lacks "
        "parallelism at this scale";
    out.push_back(std::move(d));
  }

  return out;
}

std::string ScaleReport::str() const {
  std::ostringstream os;
  os << "pasched-scale report: " << scenario << "\n";
  os << "  run: " << (completed ? "completed" : "DID NOT COMPLETE")
     << ", elapsed " << elapsed.str() << ", events " << events
     << " (at completion " << events_at_completion << ")\n";

  os << "  lookahead: global " << matrix.global.str();
  if (matrix.has_pairs()) {
    os << ", pairs min " << matrix.min_pair().str() << " / median "
       << matrix.median_pair().str() << " / max " << matrix.max_pair().str();
  } else {
    os << ", single shard (no pairs)";
  }
  os << "\n";
  os << "  soundness: " << posts_checked << " cross-shard posts checked, "
     << soundness_violations << " violations";
  if (posts_checked > 0 && min_observed_slack != sim::Duration::max())
    os << ", min slack " << min_observed_slack.str();
  os << "\n";

  os << "  work/span: work " << workspan.work.str() << ", span "
     << workspan.span.str() << " -> ideal speedup "
     << fmt2(workspan.predicted_max_speedup()) << "x over "
     << workspan.events << " events / " << workspan.threads << " threads\n";

  os << "  windows: " << windows.n_windows() << " executed, median "
     << fmt2(windows.median_events_per_window())
     << " events/window, imbalance " << fmt2(windows.imbalance())
     << "x, hub critical share "
     << fmt2(windows.hub_critical_share() * 100.0) << "%\n";

  os << "  planner: batch " << sim::kWindowBatch << ", "
     << rounds << " sync rounds / " << chained_windows
     << " chained windows (" << coalesced_windows << " coalesced), ring "
     << ring_posts << " posts / " << ring_overflows
     << " overflows, barrier cost " << fmt2(barrier_cost_ns_used) << " ns ("
     << barrier_cost_source << ")\n";

  os << "  prediction: window model " << fmt2(predicted_speedup_window_model)
     << "x at " << options.target_workers << " workers ("
     << fmt2(predicted_speedup_no_barrier)
     << "x with free barriers), ceiling " << fmt2(predicted_max_speedup())
     << "x vs target " << fmt2(options.target_speedup) << "x\n";

  const auto ds = diagnostics();
  if (ds.empty()) {
    os << "  findings: none\n";
  } else {
    os << "  findings (" << ds.size() << "):\n";
    for (const Diagnostic& d : ds) os << "    " << d.str() << "\n";
  }
  return os.str();
}

std::string ScaleReport::json() const {
  std::ostringstream os;
  os << "{\n  " << analysis::json_report_header("pasched-scale") << "\n"
     << "  \"scenario\": \"" << scenario << "\",\n"
     << "  \"completed\": " << (completed ? "true" : "false") << ",\n"
     << "  \"elapsed_ns\": " << elapsed.count() << ",\n"
     << "  \"events\": " << events << ",\n"
     << "  \"events_at_completion\": " << events_at_completion << ",\n"
     << "  \"posts_checked\": " << posts_checked << ",\n"
     << "  \"soundness_violations\": " << soundness_violations << ",\n";
  if (posts_checked > 0 && min_observed_slack != sim::Duration::max())
    os << "  \"min_observed_slack_ns\": " << min_observed_slack.count()
       << ",\n";
  os << "  \"work_ns\": " << workspan.work.count() << ",\n"
     << "  \"span_ns\": " << workspan.span.count() << ",\n"
     << "  \"ideal_speedup\": " << fmt2(workspan.predicted_max_speedup())
     << ",\n"
     << "  \"n_windows\": " << windows.n_windows() << ",\n"
     << "  \"median_events_per_window\": "
     << fmt2(windows.median_events_per_window()) << ",\n"
     << "  \"imbalance\": " << fmt2(windows.imbalance()) << ",\n"
     << "  \"hub_critical_share\": " << fmt2(windows.hub_critical_share())
     << ",\n"
     << "  \"window_batch\": " << sim::kWindowBatch << ",\n"
     << "  \"rounds\": " << rounds << ",\n"
     << "  \"chained_windows\": " << chained_windows << ",\n"
     << "  \"coalesced_windows\": " << coalesced_windows << ",\n"
     << "  \"ring_posts\": " << ring_posts << ",\n"
     << "  \"ring_overflows\": " << ring_overflows << ",\n"
     << "  \"barrier_cost_ns_used\": " << fmt2(barrier_cost_ns_used) << ",\n"
     << "  \"barrier_cost_source\": \"" << barrier_cost_source << "\",\n"
     << "  \"target_workers\": " << options.target_workers << ",\n"
     << "  \"target_speedup\": " << fmt2(options.target_speedup) << ",\n"
     << "  \"predicted_speedup_window_model\": "
     << fmt2(predicted_speedup_window_model) << ",\n"
     << "  \"predicted_speedup_no_barrier\": "
     << fmt2(predicted_speedup_no_barrier) << ",\n"
     << "  \"predicted_max_speedup\": " << fmt2(predicted_max_speedup())
     << ",\n";

  const auto ds = diagnostics();
  os << "  \"findings\": [\n";
  for (std::size_t i = 0; i < ds.size(); ++i) {
    os << "    {\"rule\": \"" << ds[i].rule << "\", \"severity\": \""
       << analysis::to_string(ds[i].severity) << "\", \"subject\": \""
       << ds[i].subject << "\"}" << (i + 1 < ds.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  // Embed the matrix certificate, indented two spaces to nest cleanly.
  os << "  \"certificate\": ";
  const std::string cert = matrix.certificate_json();
  for (std::size_t i = 0; i < cert.size(); ++i) {
    os << cert[i];
    if (cert[i] == '\n' && i + 1 < cert.size()) os << "  ";
  }
  os << "}\n";
  return os.str();
}

}  // namespace pasched::scale
