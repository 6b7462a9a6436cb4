// Reproduces Figure 3: parser BLEU vs document parsing difficulty.
//
// Documents are ranked by estimated difficulty (mean BLEU across all
// parsers, descending = easiest first in the paper's plot; we report by
// difficulty decile). The legend of the paper's figure carries each
// parser's single-node throughput; we print the same, computed by the
// cluster simulator. Corpus size defaults to 4000 (paper: 23,398); set
// ADAPARSE_FIG3_N=23398 for the full-size run.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "common.hpp"
#include "doc/generator.hpp"
#include "hpc/campaign.hpp"
#include "parsers/registry.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace adaparse;

int main() {
  util::Stopwatch wall;
  const std::size_t n = bench::env().fig3_docs;
  const auto docs =
      doc::CorpusGenerator(doc::benchmark_config(n, 0xF163)).generate();
  std::cout << "== Figure 3: BLEU vs difficulty rank (n=" << docs.size()
            << "; paper n=23,398) ==\n";

  std::vector<bench::SystemRow> rows;
  for (parsers::ParserKind kind : parsers::all_kinds()) {
    rows.push_back(bench::evaluate_parser(kind, docs));
  }

  // Difficulty = mean BLEU across parsers; rank 1 = hardest (lowest mean).
  std::vector<double> mean_bleu(docs.size(), 0.0);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < docs.size(); ++i) {
      mean_bleu[i] += row.bleus[i] / static_cast<double>(rows.size());
    }
  }
  std::vector<std::size_t> order(docs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return mean_bleu[a] < mean_bleu[b];
  });

  // Single-node throughput legend via the cluster simulator.
  std::cout << "\nLegend (single-node throughput, PDF/s):\n";
  for (parsers::ParserKind kind : parsers::all_kinds()) {
    const auto parser = parsers::make_parser(kind);
    const auto points =
        hpc::throughput_sweep(hpc::campaign_tasks(*parser, docs),
                              hpc::cluster_for_parser(kind, 1), {1});
    std::cout << "  " << parsers::parser_name(kind) << ": "
              << util::format_fixed(points[0].throughput, 3) << "\n";
  }

  // Decile curve: mean BLEU per parser within each difficulty decile.
  const std::size_t deciles = 10;
  util::Table table({"Difficulty", "PyMuPDF", "pypdf", "Tesseract", "GROBID",
                     "Marker", "Nougat"});
  for (std::size_t d = 0; d < deciles; ++d) {
    const std::size_t begin = d * docs.size() / deciles;
    const std::size_t end = (d + 1) * docs.size() / deciles;
    auto& r = table.row();
    r.add("D" + std::to_string(d + 1) +
          (d == 0 ? " (hardest)" : (d == deciles - 1 ? " (easiest)" : "")));
    for (const auto& row : rows) {
      double sum = 0.0;
      for (std::size_t i = begin; i < end; ++i) sum += row.bleus[order[i]];
      r.add(100.0 * sum / static_cast<double>(end - begin), 1);
    }
  }
  table.print(std::cout);
  std::cout << "(BLEU %, documents binned by difficulty decile; the paper "
               "plots the same data per-rank)\n";

  // The crossover claim: on the hardest decile the ViT should lead the
  // extraction tools; on the easiest, extraction should lead.
  std::cout << "wall time: " << util::format_fixed(wall.seconds(), 1)
            << " s\n";
  return 0;
}
