// Tests for the cluster simulator: conservation laws, scaling behaviour,
// contention mechanisms, warm-start accounting, and the utilization trace.
#include <gtest/gtest.h>

#include "doc/generator.hpp"
#include "hpc/campaign.hpp"
#include "hpc/cluster.hpp"
#include "hpc/trace.hpp"
#include "parsers/registry.hpp"

namespace adaparse::hpc {
namespace {

std::vector<TaskSpec> cpu_tasks(std::size_t n, double seconds,
                                double bytes = 1e6) {
  std::vector<TaskSpec> tasks(n);
  for (auto& t : tasks) {
    t.cpu_seconds = seconds;
    t.bytes_read = bytes;
  }
  return tasks;
}

std::vector<TaskSpec> gpu_tasks(std::size_t n, double gpu_seconds) {
  std::vector<TaskSpec> tasks(n);
  for (auto& t : tasks) {
    t.cpu_seconds = 0.1;
    t.gpu_seconds = gpu_seconds;
    t.bytes_read = 1e6;
    t.needs_gpu_model = true;
  }
  return tasks;
}

TEST(Cluster, EmptyWorkload) {
  const auto result = simulate({}, {});
  EXPECT_EQ(result.makespan, 0.0);
  EXPECT_EQ(result.tasks, 0U);
}

TEST(Cluster, SingleTaskAccounting) {
  ClusterConfig config;
  config.dispatch_overhead = 0.0;
  config.fs_op_latency = 0.0;
  const auto tasks = cpu_tasks(1, 5.0, 0.0);
  const auto result = simulate(config, tasks);
  EXPECT_NEAR(result.makespan, 5.0, 1e-9);
  EXPECT_NEAR(result.cpu_busy_seconds, 5.0, 1e-9);
  EXPECT_EQ(result.gpu_busy_seconds, 0.0);
}

TEST(Cluster, CpuParallelismWithinNode) {
  // 32 cores: 64 tasks of 1s should take ~2s, not 64s.
  ClusterConfig config;
  config.dispatch_overhead = 0.0;
  config.fs_op_latency = 0.0;
  config.fs_bandwidth = 1e15;
  const auto result = simulate(config, cpu_tasks(64, 1.0));
  EXPECT_NEAR(result.makespan, 2.0, 0.1);
}

TEST(Cluster, InvalidConfigThrows) {
  ClusterConfig config;
  config.nodes = 0;
  EXPECT_THROW(simulate(config, cpu_tasks(1, 1.0)), std::invalid_argument);
}

TEST(Cluster, GpuTaskOnGpulessClusterThrows) {
  ClusterConfig config;
  config.gpus_per_node = 0;
  EXPECT_THROW(simulate(config, gpu_tasks(1, 1.0)), std::invalid_argument);
}

TEST(Cluster, LinearScalingWhenComputeBound) {
  ClusterConfig config;
  config.fs_bandwidth = 1e15;  // FS never the bottleneck
  config.fs_op_latency = 0.0;
  const auto tasks = cpu_tasks(4096, 10.0, 1.0);
  ClusterConfig c1 = config; c1.nodes = 1;
  ClusterConfig c8 = config; c8.nodes = 8;
  const double t1 = simulate(c1, tasks).throughput;
  const double t8 = simulate(c8, tasks).throughput;
  EXPECT_NEAR(t8 / t1, 8.0, 0.8);
}

TEST(Cluster, FsContentionCapsThroughput) {
  // Tasks so cheap that the shared FS dominates: throughput must saturate
  // near bandwidth/bytes regardless of node count (the Figure 5 plateau).
  ClusterConfig config;
  config.fs_bandwidth = 100e6;  // 100 MB/s
  config.batch_staging = true;
  config.batch_size = 64;
  const auto tasks = cpu_tasks(8192, 0.01, 1e6);  // 1 MB per task
  ClusterConfig c64 = config; c64.nodes = 64;
  ClusterConfig c128 = config; c128.nodes = 128;
  const double t64 = simulate(c64, tasks).throughput;
  const double t128 = simulate(c128, tasks).throughput;
  EXPECT_LT(t64, 110.0);           // ~100 tasks/s cap
  EXPECT_LT(t128 / t64, 1.25);     // adding nodes no longer helps
}

TEST(Cluster, BatchingReducesFsTime) {
  ClusterConfig batched;
  batched.batch_staging = true;
  batched.batch_size = 128;
  batched.fs_op_latency = 0.05;
  ClusterConfig unbatched = batched;
  unbatched.batch_staging = false;
  const auto tasks = cpu_tasks(1024, 0.5, 1e5);
  const auto rb = simulate(batched, tasks);
  const auto ru = simulate(unbatched, tasks);
  EXPECT_LT(rb.fs_busy_seconds, ru.fs_busy_seconds);
  EXPECT_LE(rb.makespan, ru.makespan + 1e-9);
}

TEST(Cluster, WarmStartLoadsOncePerGpu) {
  ClusterConfig config;
  config.warm_start = true;
  config.model_load_seconds = 15.0;
  config.gpus_per_node = 4;
  const auto result = simulate(config, gpu_tasks(40, 2.0));
  // 4 GPUs on 1 node -> exactly 4 loads.
  EXPECT_NEAR(result.model_load_seconds, 4 * 15.0, 1e-9);
}

TEST(Cluster, ColdStartLoadsEveryTask) {
  ClusterConfig config;
  config.warm_start = false;
  config.model_load_seconds = 15.0;
  const auto result = simulate(config, gpu_tasks(40, 2.0));
  EXPECT_NEAR(result.model_load_seconds, 40 * 15.0, 1e-9);
}

TEST(Cluster, WarmStartImprovesMakespan) {
  ClusterConfig warm;
  warm.warm_start = true;
  ClusterConfig cold = warm;
  cold.warm_start = false;
  const auto tasks = gpu_tasks(64, 3.0);
  EXPECT_LT(simulate(warm, tasks).makespan,
            simulate(cold, tasks).makespan * 0.6);
}

TEST(Cluster, CentralCoordinatorCapsScaling) {
  ClusterConfig config;
  config.central_service_seconds = 5.0;
  config.fs_bandwidth = 1e15;
  const auto tasks = gpu_tasks(256, 1.0);
  ClusterConfig c1 = config; c1.nodes = 1;
  ClusterConfig c32 = config; c32.nodes = 32;
  const double t1 = simulate(c1, tasks).throughput;
  const double t32 = simulate(c32, tasks).throughput;
  EXPECT_LT(t32, 0.21);            // 1/5s cap
  EXPECT_LT(t32 / std::max(t1, 1e-12), 3.0);  // nowhere near 32x
}

TEST(Cluster, GpuUtilizationBounded) {
  ClusterConfig config;
  const auto result = simulate(config, gpu_tasks(32, 4.0));
  const double u = result.gpu_utilization();
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 1.0);
}

// ------------------------------------------------------------ campaign ----

TEST(Campaign, TasksMatchParserResources) {
  const auto docs =
      doc::CorpusGenerator(doc::born_digital_config(10, 3)).generate();
  const auto nougat = parsers::make_parser(parsers::ParserKind::kNougat);
  const auto mupdf = parsers::make_parser(parsers::ParserKind::kPyMuPdf);
  for (const auto& task : campaign_tasks(*nougat, docs)) {
    EXPECT_GT(task.gpu_seconds, 0.0);
    EXPECT_TRUE(task.needs_gpu_model);
  }
  for (const auto& task : campaign_tasks(*mupdf, docs)) {
    EXPECT_EQ(task.gpu_seconds, 0.0);
    EXPECT_FALSE(task.needs_gpu_model);
  }
}

TEST(Campaign, PypdfHasHigherFsOps) {
  const auto docs =
      doc::CorpusGenerator(doc::born_digital_config(3, 5)).generate();
  const auto pypdf = parsers::make_parser(parsers::ParserKind::kPypdf);
  const auto tasks = campaign_tasks(*pypdf, docs);
  for (const auto& task : tasks) EXPECT_EQ(task.fs_ops, 4.0);
}

TEST(Campaign, ClusterForMarkerHasCoordinator) {
  EXPECT_GT(cluster_for_parser(parsers::ParserKind::kMarker, 4)
                .central_service_seconds,
            0.0);
  EXPECT_EQ(cluster_for_parser(parsers::ParserKind::kPyMuPdf, 4)
                .central_service_seconds,
            0.0);
}

TEST(Campaign, SweepMonotoneForComputeBoundParser) {
  const auto docs =
      doc::CorpusGenerator(doc::born_digital_config(300, 7)).generate();
  const auto nougat = parsers::make_parser(parsers::ParserKind::kNougat);
  const auto points =
      throughput_sweep(campaign_tasks(*nougat, docs),
                       cluster_for_parser(parsers::ParserKind::kNougat, 1),
                       {1, 2, 4, 8});
  ASSERT_EQ(points.size(), 4U);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].throughput, points[i - 1].throughput * 0.95);
  }
}

TEST(Campaign, RecoveryOverheadLowersProjectedThroughput) {
  const auto docs =
      doc::CorpusGenerator(doc::born_digital_config(200, 9)).generate();
  const auto nougat = parsers::make_parser(parsers::ParserKind::kNougat);
  const auto tasks = campaign_tasks(*nougat, docs);
  const auto base = cluster_for_parser(parsers::ParserKind::kNougat, 1);
  const std::vector<int> nodes = {1, 2, 4};

  const auto clean = throughput_sweep(tasks, base, nodes);
  const auto zero = throughput_sweep(tasks, base, nodes, 0.0);
  const auto lossy = throughput_sweep(tasks, base, nodes, 1.0);
  ASSERT_EQ(clean.size(), lossy.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    // Zero measured overhead projects the clean sweep exactly.
    EXPECT_DOUBLE_EQ(zero[i].throughput, clean[i].throughput);
    // A campaign that loses as much wall-clock to recovery as it spends on
    // useful work projects strictly lower throughput at every node count.
    EXPECT_LT(lossy[i].throughput, clean[i].throughput);
  }
  // Negative fractions clamp to zero overhead rather than speeding up.
  const auto clamped = throughput_sweep(tasks, base, nodes, -0.5);
  EXPECT_DOUBLE_EQ(clamped[0].throughput, clean[0].throughput);
}

TEST(Campaign, MeasuredRecoveryLatenciesMatchEquivalentFraction) {
  const auto docs =
      doc::CorpusGenerator(doc::born_digital_config(200, 9)).generate();
  const auto nougat = parsers::make_parser(parsers::ParserKind::kNougat);
  const auto tasks = campaign_tasks(*nougat, docs);
  const auto base = cluster_for_parser(parsers::ParserKind::kNougat, 1);
  const std::vector<int> nodes = {1, 2, 4};

  // Two measured 1-second faults over a 10-second productive run is a 20%
  // overhead — it must project exactly like the precomputed fraction.
  EXPECT_DOUBLE_EQ(recovery_overhead_fraction({1.0, 1.0}, 10.0), 0.2);
  const auto measured = throughput_sweep(
      tasks, base, nodes, recovery_overhead_fraction({1.0, 1.0}, 10.0));
  const auto fraction = throughput_sweep(tasks, base, nodes, 0.2);
  ASSERT_EQ(measured.size(), fraction.size());
  for (std::size_t i = 0; i < measured.size(); ++i) {
    EXPECT_DOUBLE_EQ(measured[i].throughput, fraction[i].throughput);
  }

  // No faults — or a degenerate productive wall — is no overhead at all.
  EXPECT_EQ(recovery_overhead_fraction({}, 10.0), 0.0);
  EXPECT_EQ(recovery_overhead_fraction({5.0}, 0.0), 0.0);
}

// --------------------------------------------------------------- trace ----

TEST(Trace, BucketsCoverMakespan) {
  const auto result = simulate({}, gpu_tasks(16, 2.0));
  const auto trace = build_trace(result, 20);
  ASSERT_FALSE(trace.gpu_busy_fraction.empty());
  EXPECT_EQ(trace.gpu_busy_fraction[0].size(), 20U);
  EXPECT_NEAR(trace.bucket_seconds * 20, result.makespan, 1e-6);
  for (const auto& row : trace.gpu_busy_fraction) {
    for (double v : row) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(Trace, BusyFractionMatchesBusySeconds) {
  const auto result = simulate({}, gpu_tasks(16, 2.0));
  const auto trace = build_trace(result, 50);
  double integrated = 0.0;
  for (const auto& row : trace.gpu_busy_fraction) {
    for (double v : row) integrated += v * trace.bucket_seconds;
  }
  EXPECT_NEAR(integrated, result.gpu_busy_seconds + result.model_load_seconds,
              0.05 * (result.gpu_busy_seconds + result.model_load_seconds) +
                  0.5);
}

TEST(Trace, EmptyResult) {
  const auto trace = build_trace({}, 10);
  EXPECT_TRUE(trace.gpu_busy_fraction.empty());
}

TEST(Trace, RenderRowLengthMatches) {
  EXPECT_EQ(render_row({0.0, 0.5, 1.0}).size(), 3U);
}

}  // namespace
}  // namespace adaparse::hpc
