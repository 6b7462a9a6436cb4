// Campaign drivers: turn (parser, documents) into simulator task lists and
// run throughput sweeps over node counts — the machinery behind Figure 5.
#pragma once

#include <vector>

#include "doc/document.hpp"
#include "hpc/cluster.hpp"
#include "parsers/parser.hpp"

namespace adaparse::hpc {

/// Builds one TaskSpec per document for a single-parser campaign, using the
/// parser's cost model (documents are costed, not parsed — the sweep needs
/// only resource demands).
std::vector<TaskSpec> campaign_tasks(const parsers::Parser& parser,
                                     const std::vector<doc::Document>& docs);

/// Cluster configuration appropriate for the given parser's architecture:
/// GPU parsers need warm-started models; Marker additionally suffers a
/// centralized coordination stage.
ClusterConfig cluster_for_parser(parsers::ParserKind kind, int nodes);

/// One point of the Figure 5 sweep.
struct ScalePoint {
  int nodes = 0;
  double throughput = 0.0;  ///< PDF/s
};

/// Runs `tasks` on `base_config` at each of `node_counts` (the config's
/// `nodes` is overwritten per point). For a single-parser sweep pass
/// campaign_tasks(parser, docs) and cluster_for_parser(kind, 1).
/// `overhead_fraction` folds a measured fault-recovery overhead in: every
/// task's CPU/GPU demand is inflated by (1 + overhead_fraction) —
/// projecting what the paper's long multi-node runs would lose to retries
/// and hedges at scale. Values < 0 are clamped to 0.
std::vector<ScalePoint> throughput_sweep(const std::vector<TaskSpec>& tasks,
                                         const ClusterConfig& base_config,
                                         const std::vector<int>& node_counts,
                                         double overhead_fraction = 0.0);

/// Turns measured per-fault recovery latencies
/// (CampaignStats::recovery_latency_seconds, one entry per worker death or
/// kill) into throughput_sweep's overhead fraction: sum(latencies) /
/// `productive_wall_seconds`, the campaign wall-clock net of recovery. A
/// non-positive productive wall yields 0.
double recovery_overhead_fraction(
    const std::vector<double>& recovery_latency_seconds,
    double productive_wall_seconds);

}  // namespace adaparse::hpc
