// Reproduces Figure 5: throughput scalability of the seven parsers over
// 1-128 nodes of the simulated Polaris-like cluster.
//
// Expected shapes (paper §7.3): extraction methods fastest with PyMuPDF
// reaching ~315 PDF/s before plateauing around 128 nodes from filesystem
// contention; pypdf plateauing earlier (~100 nodes) due to its 4x FS-op
// pattern; Marker failing to scale beyond ~10 nodes (~0.1 PDF/s) due to
// centralized coordination; Nougat ~8 PDF/s at 128 nodes; AdaParse between
// extraction and recognition, ~78 PDF/s at 128 nodes for the FT variant.
#include <iostream>

#include "common.hpp"
#include "doc/generator.hpp"
#include "hpc/campaign.hpp"
#include "parsers/registry.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace adaparse;

int main() {
  util::Stopwatch wall;
  // Cost-model sweep only (documents are costed, not parsed), so a larger
  // sample is cheap and smooths per-document variance; it also needs to be
  // large enough that per-node GPU tails amortize at 128 nodes.
  const std::size_t n = std::max<std::size_t>(8192, 4 * bench::env().eval_docs);
  const auto docs =
      doc::CorpusGenerator(doc::benchmark_config(n, 0xF165)).generate();
  const std::vector<int> nodes = {1, 2, 4, 8, 16, 32, 64, 100, 128};
  std::cout << "== Figure 5: throughput scalability (PDF/s, n=" << docs.size()
            << " docs round-robin) ==\n";

  util::Table table({"Nodes", "PyMuPDF", "pypdf", "Tesseract", "GROBID",
                     "Marker", "Nougat", "AdaParse(FT)", "AdaParse(LLM)"});

  // Fixed parsers.
  std::vector<std::vector<hpc::ScalePoint>> sweeps;
  for (parsers::ParserKind kind : parsers::all_kinds()) {
    const auto parser = parsers::make_parser(kind);
    sweeps.push_back(hpc::throughput_sweep(hpc::campaign_tasks(*parser, docs),
                                           hpc::cluster_for_parser(kind, 1),
                                           nodes));
  }

  // AdaParse variants: route once, sweep the implied task mix.
  const auto& bundle = bench::trained_bundle(/*with_dpo=*/true);
  hpc::ClusterConfig ada_config;
  ada_config.model_load_seconds = 15.0;
  const auto ft_decisions = bundle.ft->route(docs);
  const auto ft_tasks = bundle.ft->plan_tasks(docs, ft_decisions);
  const auto ft_sweep = hpc::throughput_sweep(ft_tasks, ada_config, nodes);
  const auto llm_decisions = bundle.llm->route(docs);
  const auto llm_tasks = bundle.llm->plan_tasks(docs, llm_decisions);
  const auto llm_sweep = hpc::throughput_sweep(llm_tasks, ada_config, nodes);

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    auto& row = table.row();
    row.add(nodes[i]);
    for (const auto& sweep : sweeps) row.add(sweep[i].throughput, 3);
    row.add(ft_sweep[i].throughput, 3);
    row.add(llm_sweep[i].throughput, 3);
  }
  table.print(std::cout);

  const double nougat1 = sweeps[5][0].throughput;
  const double llm1 = llm_sweep[0].throughput;
  std::cout << "\nsingle-node speedup of AdaParse (LLM) over Nougat: "
            << util::format_fixed(llm1 / nougat1, 1)
            << "x (paper: 17x)\n";
  std::cout << "wall time: " << util::format_fixed(wall.seconds(), 1)
            << " s\n";
  return 0;
}
