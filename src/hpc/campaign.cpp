#include "hpc/campaign.hpp"

#include <algorithm>

namespace adaparse::hpc {

std::vector<TaskSpec> campaign_tasks(const parsers::Parser& parser,
                                     const std::vector<doc::Document>& docs) {
  std::vector<TaskSpec> tasks;
  tasks.reserve(docs.size());
  const bool gpu = parser.resource() == parsers::Resource::kGpu;
  for (const auto& document : docs) {
    const auto cost = parser.estimate_cost(document);
    TaskSpec task;
    task.cpu_seconds = cost.cpu_seconds;
    task.gpu_seconds = cost.gpu_seconds;
    task.bytes_read = cost.bytes_read;
    // pypdf's object-by-object access pattern issues ~4x the FS metadata
    // operations of a MuPDF-style sequential read.
    task.fs_ops = parser.kind() == parsers::ParserKind::kPypdf ? 4.0 : 1.0;
    task.needs_gpu_model = gpu;
    tasks.push_back(task);
  }
  return tasks;
}

ClusterConfig cluster_for_parser(parsers::ParserKind kind, int nodes) {
  ClusterConfig config;
  config.nodes = nodes;
  switch (kind) {
    case parsers::ParserKind::kNougat:
      config.model_load_seconds = 15.0;
      break;
    case parsers::ParserKind::kMarker:
      config.model_load_seconds = 22.0;
      // Marker's centralized coordination: aggregate throughput capped near
      // 0.1 PDF/s however many nodes join (Figure 5).
      config.central_service_seconds = 9.0;
      break;
    case parsers::ParserKind::kTesseract:
      config.model_load_seconds = 1.5;
      break;
    case parsers::ParserKind::kGrobid:
      config.model_load_seconds = 6.0;
      break;
    default:
      break;
  }
  return config;
}

std::vector<ScalePoint> throughput_sweep(const std::vector<TaskSpec>& tasks,
                                         const ClusterConfig& base_config,
                                         const std::vector<int>& node_counts,
                                         double overhead_fraction) {
  std::vector<TaskSpec> inflated;
  if (overhead_fraction > 0.0) {
    inflated = tasks;
    for (auto& task : inflated) {
      task.cpu_seconds *= 1.0 + overhead_fraction;
      task.gpu_seconds *= 1.0 + overhead_fraction;
    }
  }
  const std::vector<TaskSpec>& run = overhead_fraction > 0.0 ? inflated : tasks;
  std::vector<ScalePoint> points;
  points.reserve(node_counts.size());
  for (int n : node_counts) {
    ClusterConfig config = base_config;
    config.nodes = n;
    points.push_back({n, simulate(config, run).throughput});
  }
  return points;
}

double recovery_overhead_fraction(
    const std::vector<double>& recovery_latency_seconds,
    double productive_wall_seconds) {
  if (productive_wall_seconds <= 0.0) return 0.0;
  double lost = 0.0;
  for (const double latency : recovery_latency_seconds) {
    lost += std::max(0.0, latency);
  }
  return lost / productive_wall_seconds;
}

}  // namespace adaparse::hpc
