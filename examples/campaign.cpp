// Fault-tolerant parsing campaign: the paper's deployment scenario, made
// restartable.
//
// Stages a generated corpus into durable shard archives (the paper's
// ZIP-staging strategy), runs AdaParse over them with the sharded
// campaign runner, "kills" the run halfway (a scripted halt at a shard
// boundary), resumes it from the write-ahead manifest, and verifies the
// resumed output is byte-identical to an uninterrupted run. Finally
// projects the campaign — including its measured recovery overhead — onto
// 1-128 Polaris-like nodes with the cluster simulator.
//
// Build & run:  ./build/examples/campaign [num_docs] [flags]
//
//   --processes N   run shards in N forked worker processes supervised by
//                   the coordinator (waitpid + heartbeats + work stealing)
//   --in-process    run shards on N threads in this process (default)
//   --chaos         SIGKILL worker processes at random mid-shard (seeded,
//                   so replayable); with --processes these are real kill
//                   -9s delivered to live children — the campaign must
//                   still produce byte-identical output
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <random>

#include "campaign/runner.hpp"
#include "core/training.hpp"
#include "doc/generator.hpp"
#include "hpc/campaign.hpp"
#include "io/fsio.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace adaparse;
namespace fs = std::filesystem;

int main(int argc, char** argv) {
  std::cout << "text hot path: " << simd::active_tier_name()
            << " SIMD tier (override with ADAPARSE_SIMD)\n";

  std::size_t n = 500;
  std::size_t processes = 0;  // 0 = in-process threads
  bool chaos = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--processes") == 0 && i + 1 < argc) {
      processes = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--in-process") == 0) {
      processes = 0;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else {
      n = static_cast<std::size_t>(std::atol(argv[i]));
    }
  }
  const bool multi_process = processes > 0;
  util::Stopwatch wall;

  // --- Train AdaParse. -----------------------------------------------------
  const auto train_docs =
      doc::CorpusGenerator(doc::benchmark_config(300, 0x7A)).generate();
  core::TrainAdaParseOptions options;
  options.apply_dpo = false;
  options.regression.epochs = 6;
  const auto bundle = core::train_adaparse(train_docs, nullptr, nullptr,
                                           options);

  // --- Campaign setup: the corpus streams from a generator source, so only
  // one shard's worth of documents is ever resident during staging.
  const auto corpus_config = doc::benchmark_config(n, 0xCA3);
  const auto source = [&corpus_config] {
    return std::make_unique<core::GeneratorSource>(corpus_config);
  };
  const fs::path root = fs::temp_directory_path() / "adaparse_campaign_demo";
  fs::remove_all(root);

  campaign::CampaignConfig config;
  config.dir = (root / "run").string();
  config.docs_per_shard = 64;
  config.workers = multi_process ? processes : 2;
  if (multi_process) {
    config.execution = campaign::CampaignConfig::ExecutionMode::kMultiProcess;
  }
  std::cout << "mode: " << (multi_process ? "multi-process (" : "in-process (")
            << config.workers << " workers)"
            << (chaos ? " with chaos kills" : "") << "\n";

  // --- Uninterrupted reference run (never subjected to chaos). -------------
  campaign::CampaignRunner reference(*bundle.llm, config);
  const auto ref_stats = reference.run(source);
  const std::string ref_bytes =
      io::read_file(reference.output_path()).value_or("");
  std::cout << "reference: staged " << ref_stats.docs_processed
            << " documents into " << ref_stats.shards_total << " shards, "
            << "parsed in " << util::format_fixed(ref_stats.wall_seconds, 2)
            << " s\n";

  // --- Kill the campaign halfway, then resume it. With --chaos, workers
  // also die at random mid-shard (seeded, so the fault sequence replays).
  auto killed_config = config;
  killed_config.dir = (root / "killed").string();
  killed_config.failures.halt_after_commits =
      std::max<std::size_t>(1, ref_stats.shards_total / 2);
  if (chaos) {
    std::mt19937 rng(0xC4A05);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (std::size_t shard = 0; shard < ref_stats.shards_total; ++shard) {
      // Each shard's first attempt dies with probability 1/2; a few die
      // twice, proving repeated deaths of one shard still recover.
      if (coin(rng) < 0.5) {
        const std::size_t at = 1 + rng() % std::max<std::size_t>(
                                       1, config.docs_per_shard - 1);
        killed_config.failures.crashes.push_back({shard, 0, at});
        if (coin(rng) < 0.25) {
          killed_config.failures.crashes.push_back({shard, 1, at / 2});
        }
      }
    }
    killed_config.max_shard_attempts = 8;  // chaos must not quarantine
    std::cout << "chaos:     scripted " << killed_config.failures.crashes.size()
              << " worker kills across " << ref_stats.shards_total
              << " shards\n";
  }
  campaign::CampaignRunner killed(*bundle.llm, killed_config);
  const auto halted = killed.run(source);
  std::cout << "killed:    halted after " << halted.shards_committed << "/"
            << halted.shards_total << " shard commits (simulated crash)"
            << (halted.workers_died > 0
                    ? "; " + std::to_string(halted.workers_died) +
                          " workers SIGKILLed on the way"
                    : "")
            << "\n";

  auto resume_config = killed_config;
  resume_config.failures = campaign::FailurePlan{};
  resume_config.max_shard_attempts = config.max_shard_attempts;
  campaign::CampaignRunner resumed(*bundle.llm, resume_config);
  const auto resumed_stats = resumed.run(source);
  const std::string resumed_bytes =
      io::read_file(resumed.output_path()).value_or("<missing>");
  std::cout << "resumed:   skipped " << resumed_stats.shards_resumed_skip
            << " committed shards, executed "
            << resumed_stats.shards_committed -
                   resumed_stats.shards_resumed_skip
            << " more; output byte-identical to reference: "
            << (resumed_bytes == ref_bytes ? "yes" : "NO") << "\n";

  // --- Project the campaign onto the cluster, clean vs. with the measured
  // recovery cost folded into every task. In multi-process mode the
  // coordinator measured each worker death's recovery latency directly;
  // otherwise fall back to the wall-clock lost to uncommitted attempts.
  const auto docs = doc::CorpusGenerator(corpus_config).generate();
  const auto decisions = bundle.llm->route(docs);
  const auto tasks = bundle.llm->plan_tasks(docs, decisions);
  hpc::ClusterConfig cluster;
  cluster.model_load_seconds = 15.0;
  const std::vector<int> nodes = {1, 4, 16, 64, 128};
  const double productive = std::max(1e-9, ref_stats.wall_seconds);
  std::vector<double> latencies = halted.recovery_latency_seconds;
  latencies.insert(latencies.end(),
                   resumed_stats.recovery_latency_seconds.begin(),
                   resumed_stats.recovery_latency_seconds.end());
  if (latencies.empty()) {
    // No worker deaths observed: charge the uncommitted-attempt wall-clock
    // as one aggregate recovery event.
    const double lost =
        halted.recovery_wall_seconds + resumed_stats.recovery_wall_seconds;
    if (lost > 0.0) latencies.push_back(lost);
  }
  double lost_total = 0.0;
  for (const double latency : latencies) lost_total += latency;
  std::cout << "recovery:  " << latencies.size()
            << " measured events totalling "
            << util::format_fixed(lost_total, 2) << " s ("
            << util::format_fixed(100.0 * lost_total / productive, 1)
            << "% of useful work)\n";
  const auto clean_sweep = hpc::throughput_sweep(tasks, cluster, nodes);
  const auto lossy_sweep = hpc::throughput_sweep(
      tasks, cluster, nodes,
      hpc::recovery_overhead_fraction(latencies, productive));
  util::Table table({"Nodes", "PDF/s", "PDF/s (w/ recovery)"});
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    table.row()
        .add(nodes[i])
        .add(clean_sweep[i].throughput, 2)
        .add(lossy_sweep[i].throughput, 2);
  }
  std::cout << "\nprojected scaling of this campaign:\n";
  table.print(std::cout);
  std::cout << "local wall time: " << util::format_fixed(wall.seconds(), 1)
            << " s\n";
  fs::remove_all(root);

  // --- Trace export: with ADAPARSE_TRACE=<path> every run above recorded
  // spans (coordinator, forked workers, pipeline stages); write them out as
  // one Chrome/Perfetto JSON plus a terminal flame summary.
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    const auto records = tracer.collect();
    std::cout << "\ntrace: " << records.size() << " spans ("
              << tracer.dropped() << " dropped)\n"
              << obs::render_flame_summary(records);
    if (obs::write_env_trace(records)) {
      std::cout << "trace written to " << tracer.env_path()
                << " (open in ui.perfetto.dev)\n";
    }
  }
  return resumed_bytes == ref_bytes ? 0 : 1;
}
