// bench_layers: the performance ledger of the AdaParse engine, end to end
// and layer by layer, over four workloads.
//
//   bench_layers --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//                [--out <file.json>] [--trace-out <file.json>]
//                [--workdir <dir>]
//
//   batch_llm         streaming-pipeline passes (what AdaParseEngine::run
//                     does) over a pre-generated mixed corpus, LLM+DPO
//   http_mixed        three tenants posting inline-document jobs to an
//                     in-process HttpServer: open loop at 30 and 60 jobs/s,
//                     then a closed-loop capacity step
//   campaign_threads  CampaignRunner with in-process workers
//   campaign_procs    CampaignRunner with forked worker processes
//
// --seed sets the evaluated documents, the arrival schedules and the
// job-to-document assignment. The training and preference-study corpora
// have fixed seeds, so the models are the same for every seed. All inputs
// are generated before timing starts (reported as inputgen_s); no other
// metric includes document generation. Every timed unit of work is checked
// against a reference computation; mismatches count as failed.
//
// The host's speed is sampled between timed units (hostprobe.hpp), and the
// end-to-end times and rates are reported at the reference machine's
// speed: a time is multiplied by the run's median host speed, a rate
// divided by it. The values as measured are printed as a comment line.
//
// --trace 0 reports the end-to-end metrics. --trace 1 turns obs::Tracer on
// for every other unit of work, reports the per-layer metrics (span self
// times among them) and writes a Perfetto trace to --trace-out.
//
// Each metric is printed as "name value unit"; the last line of standard
// output is one JSON object {"correct","attempted","failed","metrics"},
// also written to --out. Exit status: 0 when every check passed, 1 when a
// check failed or the run broke, 2 on bad usage.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "core/cls1.hpp"
#include "core/doc_source.hpp"
#include "core/pipeline.hpp"
#include "core/training.hpp"
#include "doc/generator.hpp"
#include "hostprobe.hpp"
#include "io/fsio.hpp"
#include "io/jsonl.hpp"
#include "loadgen.hpp"
#include "metrics/bleu.hpp"
#include "ml/feature_hash.hpp"
#include "obs/trace.hpp"
#include "parsers/registry.hpp"
#include "pref/study.hpp"
#include "sched/thread_pool.hpp"
#include "sched/warm_cache.hpp"
#include "serve/http/server.hpp"
#include "serve/http/wire.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "text/features.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace adaparse;
using namespace std::chrono_literals;
namespace bl = adaparse::bench_layers;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

// Worker counts are pinned rather than read from the machine: engine
// threads, generator threads and load-generator connections.
constexpr std::size_t kThreads = 4;
constexpr std::size_t kSetupRuns = 3;  // setup_s is their median
constexpr std::size_t kMinUnits = 4;   // passes or campaigns per timed phase

// Fixed-seed model inputs: smaller than the paper-table benches use, so
// that set-up (timed three times per run) stays a few seconds.
constexpr std::size_t kTrainDocs = 200;
constexpr std::uint64_t kTrainSeed = 0x7EA1;
constexpr std::size_t kStudyDocs = 150;
constexpr std::size_t kStudyPages = 240;
constexpr std::uint64_t kStudySeed = 0x57D;

constexpr std::size_t kBatchDocs = 1000;
constexpr std::size_t kCampaignDocs = 1000;
constexpr std::size_t kDocsPerShard = 64;
constexpr std::size_t kPoolDocs = 1024;
constexpr std::size_t kDocsPerJob = 16;
constexpr std::size_t kCapacitySegments = 6;
constexpr std::size_t kKernelDocs = 256;
constexpr std::size_t kNougatKernelDocs = 32;
constexpr std::size_t kTraceExportCap = 50000;

// ------------------------------------------------------------- metrics --

struct MetricDef {
  const char* name;
  const char* unit;
  /// How the metric scales with host speed: times +1, rates -1, others 0.
  int speed_power = 0;
};

constexpr MetricDef kEndToEnd[] = {
    {"docs_per_s", "docs/s", -1},
    {"latency_p50_ms", "ms", 1},
    {"latency_p95_ms", "ms", 1},
    {"first_record_p50_ms", "ms", 1},
    {"bleu_mean", "bleu"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s", 1},
};

// As measured, at the host's own speed.
constexpr MetricDef kPerLayer[] = {
    {"host.speed", "x"},
    {"inputgen_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.dropped", "count"},
    // kernels, single-threaded over the workload's own documents
    {"parsers.extract_us_per_doc", "us"},
    {"parsers.nougat_us_per_doc", "us"},
    {"text.compute_features_us_per_doc", "us"},
    {"ml.hash_text_us_per_doc", "us"},
    {"core.cls1_validate_us_per_doc", "us"},
    {"core.predict_us_per_doc", "us"},
    // routing outcomes
    {"core.nougat_share", "share"},
    {"core.cls1_invalid_share", "share"},
    // core::Pipeline (EngineStats.pipeline, per pass)
    {"pipeline.prefetch.busy_s", "s"},
    {"pipeline.prefetch.idle_s", "s"},
    {"pipeline.extract.busy_s", "s"},
    {"pipeline.extract.idle_s", "s"},
    {"pipeline.route.busy_s", "s"},
    {"pipeline.route.idle_s", "s"},
    {"pipeline.upgrade.busy_s", "s"},
    {"pipeline.upgrade.idle_s", "s"},
    {"pipeline.write.busy_s", "s"},
    {"pipeline.write.idle_s", "s"},
    {"pipeline.route.busy_share", "share"},
    {"pipeline.peak_resident", "docs"},
    {"pipeline.fixed_us", "us"},
    // serve::ParseService
    {"serve.queue_wait_ms_mean.r30", "ms"},
    {"serve.queue_wait_ms_mean.r60", "ms"},
    {"serve.job_ms_p50.r60", "ms"},
    {"serve.jobs_rejected", "count"},
    // serve::http and the load generator
    {"http.latency_p50_ms.r30", "ms"},
    {"http.latency_p95_ms.r30", "ms"},
    {"http.first_record_p50_ms.r30", "ms"},
    {"http.overhead_ms_p50.r60", "ms"},
    {"http.first_byte_ms_p50.r60", "ms"},
    {"http.request_bytes_mean", "bytes"},
    {"http.response_bytes_mean", "bytes"},
    {"http.backpressure_pauses", "count"},
    {"loadgen.late_ms_p95.r60", "ms"},
    {"loadgen.connections_max", "count"},
    {"loadgen.repeat_doc_share", "share"},
    // campaign, proc and io, per campaign
    {"campaign.attempts", "count"},
    {"campaign.useful_attempt_ratio", "share"},
    {"campaign.hedges_launched", "count"},
    {"campaign.stage_s", "s"},
    {"campaign.attempt_ms_p50", "ms"},
    {"proc.workers_spawned", "count"},
    {"proc.child_peak_rss_mb", "MB"},
    {"io.fsyncs", "count"},
    {"io.output_bytes", "bytes"},
};

// Spans whose self time and count the traced run reports, per 1,000
// documents processed while tracing.
constexpr const char* kSpanNames[] = {
    "bench.pass",       "bench.campaign",         "bench.request",
    "pipeline.run",     "pipeline.prefetch",      "pipeline.extract",
    "pipeline.route.window", "pipeline.upgrade",  "pipeline.write.emit",
    "serve.job.slice",  "campaign.run",           "campaign.stage",
    "campaign.attempt", "worker.boot",
};

std::string format_number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric");
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, end);
}

/// Every metric the benchmark defines, in a fixed order. A workload sets
/// what it measures; a per-layer metric of a layer the workload never
/// reaches reads 0.
class Ledger {
 public:
  Ledger() {
    for (const MetricDef& m : kEndToEnd) {
      entries_.push_back({m.name, m.unit, false, m.speed_power});
    }
    for (const MetricDef& m : kPerLayer) entries_.push_back({m.name, m.unit, true});
    for (const char* span : kSpanNames) {
      entries_.push_back({std::string("span.") + span + ".self", "ms/kdoc", true});
      entries_.push_back({std::string("span.") + span + ".count", "1/kdoc", true});
    }
  }

  /// Rescales the end-to-end times and rates, measured on a host running
  /// at `speed` times the reference machine's speed, to that machine.
  void scale_to_reference(double speed) {
    set("host.speed", speed);
    std::cout << "# host speed " << speed << "; as measured:";
    for (Entry& e : entries_) {
      if (e.speed_power == 0) continue;
      std::cout << ' ' << e.name << ' ' << e.value;
      e.value *= std::pow(speed, e.speed_power);
    }
    std::cout << '\n';
  }

  void set(const std::string& name, double value) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.set = true;
        return;
      }
    }
    throw std::logic_error("unknown metric " + name);
  }

  /// Prints the end-to-end (or per-layer) metrics one per line, then the
  /// JSON result line; returns that line.
  std::string report(bool per_layer, std::size_t attempted, std::size_t failed,
                     bool correct) const {
    std::string metrics;
    for (const Entry& e : entries_) {
      if (e.per_layer != per_layer) continue;
      if (!e.set && !per_layer) {
        throw std::logic_error("end-to-end metric not measured: " + e.name);
      }
      const std::string value = format_number(e.value);
      std::cout << e.name << ' ' << value << ' ' << e.unit << '\n';
      if (!metrics.empty()) metrics += ',';
      metrics += "\"" + e.name + "\":{\"value\":" + value + ",\"unit\":\"" +
                 e.unit + "\"}";
    }
    return std::string("{\"correct\":") + (correct ? "true" : "false") +
           ",\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{" +
           metrics + "}}";
  }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    bool per_layer = false;
    int speed_power = 0;
    double value = 0.0;
    bool set = false;
  };
  std::vector<Entry> entries_;
};

/// Correctness gates: every checked operation counts as attempted; a
/// mismatch, refusal or error counts as failed.
class Gate {
 public:
  void add(std::size_t attempted, std::size_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
      std::cerr << "check failed: " << what << " (" << failed << " of "
                << attempted << ")\n";
    }
  }
  void check(bool ok, const std::string& what) { add(1, ok ? 0 : 1, what); }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile_of(std::vector<double> xs, double q) {
  return xs.empty() ? 0.0 : util::quantile(std::move(xs), q);
}

double median(std::vector<double> xs) { return quantile_of(std::move(xs), 0.5); }

double mean_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : util::mean(xs);
}

/// Largest resident set of any child process reaped so far.
double children_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Restarts this process's resident-set high-water mark at its current
/// size (Linux clear_refs "5"), so peak_rss_mb() measures one stretch of
/// work instead of the process lifetime.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// This process's resident-set high-water mark (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// -------------------------------------------------------------- tracing --

/// The traced run's span collection. Spans are recorded only while a unit
/// of work runs with record(true); untraced units run with the tracer off,
/// so the same run yields both the traced and the untraced rate.
class TraceSession {
 public:
  explicit TraceSession(bool enabled) : enabled_(enabled) {
    tracer().set_enabled(false);
    (void)tracer().collect();  // drop anything recorded before the run
  }
  ~TraceSession() { stop_collector(); }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool enabled() const { return enabled_; }
  void record(bool on) { tracer().set_enabled(enabled_ && on); }
  void add_traced_docs(std::size_t n) { traced_docs_ += n; }

  void drain() {
    if (!enabled_) return;
    add(tracer().collect());
  }
  void add(const std::vector<obs::SpanRecord>& spans) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.insert(records_.end(), spans.begin(), spans.end());
  }

  /// Drains the per-thread rings every 50 ms on a helper thread, for
  /// phases long enough to overflow them. Never used around fork(): a
  /// child must not inherit the tracer's registry lock held mid-drain.
  void start_collector() {
    if (!enabled_) return;
    stop_ = false;
    collector_ = std::thread([this] {
      while (!stop_.load()) {
        std::this_thread::sleep_for(50ms);
        drain();
      }
    });
  }
  void stop_collector() {
    stop_ = true;
    if (collector_.joinable()) collector_.join();
  }

  /// Durations, in seconds, of every span named `category.name`.
  std::vector<double> durations(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const obs::SpanRecord& r : records_) {
      if (!r.instant && std::string(r.category) + "." + r.name == key) {
        out.push_back(static_cast<double>(r.dur_ns) * 1e-9);
      }
    }
    return out;
  }

  void report(Ledger& ledger, const std::string& path, double untraced_rate,
              double traced_rate) {
    stop_collector();
    drain();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto totals = bl::self_times(records_);
    const double kdocs = std::max<double>(1.0, static_cast<double>(traced_docs_)) / 1000.0;
    for (const char* span : kSpanNames) {
      const auto it = totals.find(span);
      const bl::SpanTotal total = it == totals.end() ? bl::SpanTotal{} : it->second;
      ledger.set(std::string("span.") + span + ".self", total.self_s * 1e3 / kdocs);
      ledger.set(std::string("span.") + span + ".count",
                 static_cast<double>(total.count) / kdocs);
    }
    ledger.set("trace.dropped", static_cast<double>(tracer().dropped()));
    ledger.set("trace.overhead_pct",
               traced_rate > 0.0 ? (untraced_rate / traced_rate - 1.0) * 100.0 : 0.0);
    bl::write_perfetto(path, records_, kTraceExportCap);
    std::cout << "# trace: " << records_.size() << " spans over " << traced_docs_
              << " documents; first " << std::min(records_.size(), kTraceExportCap)
              << " written to " << path << "\n";
  }

 private:
  static obs::Tracer& tracer() { return obs::Tracer::instance(); }

  const bool enabled_;
  std::size_t traced_docs_ = 0;
  std::mutex mutex_;  ///< guards records_ against the collector thread
  std::vector<obs::SpanRecord> records_;
  std::atomic<bool> stop_{false};
  std::thread collector_;
};

// --------------------------------------------------------------- inputs --

/// Generates a corpus on kThreads threads (documents are independent
/// functions of (seed, index)).
std::vector<doc::Document> generate(const doc::GeneratorConfig& config) {
  const doc::CorpusGenerator generator(config);
  std::vector<doc::Document> docs(config.num_documents);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < docs.size(); i += kThreads) {
        docs[i] = generator.generate_one(i);
      }
    });
  }
  for (auto& w : workers) w.join();
  return docs;
}

struct TrainingInputs {
  std::vector<doc::Document> train;
  std::vector<doc::Document> study_docs;
  pref::StudyResult study;
};

TrainingInputs training_inputs() {
  TrainingInputs in;
  in.train = generate(doc::benchmark_config(kTrainDocs, kTrainSeed));
  in.study_docs = generate(doc::benchmark_config(kStudyDocs, kStudySeed));
  pref::StudyConfig config;
  config.num_pages = kStudyPages;
  in.study = pref::run_study(in.study_docs, parsers::all_parsers(), config);
  return in;
}

/// CLS II/III training plus DPO: the set-up every workload times.
core::TrainedAdaParse train(const TrainingInputs& in) {
  core::TrainAdaParseOptions options;
  options.engine.threads = kThreads;
  options.engine.batch_size = 256;
  options.engine.alpha = 0.05;
  options.regression.epochs = 10;
  options.apply_dpo = true;
  return core::train_adaparse(in.train, &in.study, &in.study_docs, options);
}

/// Median wall time of kSetupRuns calls of `setup`; `reset` runs untimed
/// before each. The host speed is sampled between them.
template <typename Reset, typename Setup>
double median_setup_seconds(bl::HostProbe& probe, Reset&& reset, Setup&& setup) {
  std::vector<double> runs;
  for (std::size_t i = 0; i < kSetupRuns; ++i) {
    reset();
    probe.sample();
    const auto start = Clock::now();
    setup();
    runs.push_back(seconds_since(start));
  }
  probe.sample();
  return median(std::move(runs));
}

// ------------------------------------------------------ shared measures --

bool same_record(const io::ParseRecord& a, const io::ParseRecord& b) {
  return a.document_id == b.document_id && a.parser == b.parser &&
         a.text == b.text && a.predicted_accuracy == b.predicted_accuracy &&
         a.route == b.route && a.pages == b.pages &&
         a.pages_retrieved == b.pages_retrieved;
}

/// Document BLEU of record i against docs[i]'s groundtruth, summed.
double bleu_sum(const std::vector<doc::Document>& docs,
                const std::vector<io::ParseRecord>& records) {
  std::vector<double> partial(kThreads, 0.0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < records.size(); i += kThreads) {
        partial[t] += metrics::bleu(records[i].text, docs[i].full_groundtruth());
      }
    });
  }
  for (auto& w : workers) w.join();
  double sum = 0.0;
  for (const double p : partial) sum += p;
  return sum;
}

struct RouteCounts {
  double docs = 0.0;
  double nougat = 0.0;
  double cls1_invalid = 0.0;

  void add(const core::RouteDecision& d) {
    docs += 1.0;
    if (d.chosen == parsers::ParserKind::kNougat) nougat += 1.0;
    if (!d.cls1_valid) cls1_invalid += 1.0;
  }
  void add(const RouteCounts& other) {
    docs += other.docs;
    nougat += other.nougat;
    cls1_invalid += other.cls1_invalid;
  }
  void report(Ledger& ledger) const {
    ledger.set("core.nougat_share", docs > 0 ? nougat / docs : 0.0);
    ledger.set("core.cls1_invalid_share", docs > 0 ? cls1_invalid / docs : 0.0);
  }
};

std::string_view first_page(const parsers::ParseResult& parse) {
  for (const auto& page : parse.pages) {
    if (!page.empty()) return page;
  }
  return {};
}

/// Mean microseconds per document of `body(i)` over i < n: the median of
/// three single-threaded sweeps.
template <typename F>
double us_per_doc(std::size_t n, F&& body) {
  std::vector<double> sweeps;
  for (int sweep = 0; sweep < 3; ++sweep) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) body(i);
    sweeps.push_back(seconds_since(start) * 1e6 / static_cast<double>(n));
  }
  return median(std::move(sweeps));
}

/// The per-document kernels the router and extract stage run, timed one
/// at a time on one thread over the workload's own documents.
void time_kernels(const std::vector<doc::Document>& docs,
                  const core::AccuracyPredictor& predictor, Ledger& ledger) {
  const std::size_t n = std::min(kKernelDocs, docs.size());
  const auto extractor = parsers::make_parser(parsers::ParserKind::kPyMuPdf);
  const auto nougat = parsers::make_parser(parsers::ParserKind::kNougat);
  std::vector<parsers::ParseResult> extractions(n);
  std::size_t checksum = 0;  // keeps the timed calls observable

  ledger.set("parsers.extract_us_per_doc", us_per_doc(n, [&](std::size_t i) {
               extractions[i] = extractor->parse(docs[i]);
             }));
  std::vector<std::string> texts(n);
  for (std::size_t i = 0; i < n; ++i) texts[i] = extractions[i].full_text();

  ledger.set("parsers.nougat_us_per_doc",
             us_per_doc(std::min(kNougatKernelDocs, n), [&](std::size_t i) {
               checksum += nougat->parse(docs[i]).pages.size();
             }));
  ledger.set("text.compute_features_us_per_doc", us_per_doc(n, [&](std::size_t i) {
               checksum += static_cast<std::size_t>(
                   text::compute_features(texts[i]).token_count);
             }));
  ml::HashOptions hash;  // the SciBERT-sim encoder's body hashing
  hash.dim = 1 << 14;
  hash.salt = 0x5C1B;
  ledger.set("ml.hash_text_us_per_doc", us_per_doc(n, [&](std::size_t i) {
               checksum += ml::hash_text(first_page(extractions[i]), hash).size();
             }));
  ledger.set("core.cls1_validate_us_per_doc", us_per_doc(n, [&](std::size_t i) {
               checksum += core::cls1_validate(texts[i], docs[i].num_pages()).valid;
             }));
  ledger.set("core.predict_us_per_doc", us_per_doc(n, [&](std::size_t i) {
               checksum += predictor
                               .predict(first_page(extractions[i]),
                                        docs[i].meta.title, docs[i].meta)
                               .size();
             }));
  std::cout << "# kernels: " << n << " documents, checksum " << checksum << "\n";
}

/// Median microseconds of Pipeline::run over a one-document source: the
/// fixed cost every pipeline run pays (threads, queues, pool tasks).
double pipeline_fixed_us(const core::AdaParseEngine& engine,
                         const core::PipelineConfig& config,
                         const doc::Document& document) {
  const std::vector<doc::Document> one{document};
  const core::Pipeline pipeline(engine, config);
  std::vector<double> runs;
  for (int i = 0; i < 110; ++i) {
    core::VectorSource source(one);
    const auto start = Clock::now();
    pipeline.run(source, [](std::size_t, const io::ParseRecord&,
                            const core::RouteDecision&) {});
    if (i >= 10) runs.push_back(seconds_since(start) * 1e6);
  }
  return median(std::move(runs));
}

/// One timed unit of work (a pass or a campaign).
struct Unit {
  bool traced = false;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  ///< read before the unit's output is checked
  std::vector<double> record_s;  ///< when each record reached the consumer
};

/// The end-to-end metrics shared by the pass- and campaign-shaped
/// workloads: the median over untraced units of each unit's rate, record
/// latency percentiles, first record and peak RSS. Returns the median
/// untraced and traced docs/s.
std::pair<double, double> report_units(const std::vector<Unit>& units,
                                       std::size_t docs, Ledger& ledger) {
  std::vector<double> rate[2], p50, p95, first, rss;
  for (const Unit& u : units) {
    rate[u.traced].push_back(static_cast<double>(docs) / u.wall_s);
    if (u.traced) continue;
    p50.push_back(quantile_of(u.record_s, 0.50) * 1e3);
    p95.push_back(quantile_of(u.record_s, 0.95) * 1e3);
    first.push_back(*std::min_element(u.record_s.begin(), u.record_s.end()) * 1e3);
    rss.push_back(u.peak_rss_mb);
  }
  ledger.set("docs_per_s", median(rate[0]));
  ledger.set("latency_p50_ms", median(p50));
  ledger.set("latency_p95_ms", median(p95));
  ledger.set("first_record_p50_ms", median(first));
  ledger.set("peak_rss_mb", median(rss));
  std::cout << "# " << rate[0].size() << " untraced and " << rate[1].size()
            << " traced units of " << docs << " documents\n";
  return {median(rate[0]), median(rate[1])};
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string trace_out;
  std::string workdir = ".bench_build/work";
};

/// Runs `run_one(traced)` after a warm-up until `seconds` have passed and
/// at least kMinUnits ran; with tracing, every other unit is traced. The
/// host speed is sampled after each unit.
template <typename F>
std::vector<Unit> run_units(const Options& opt, TraceSession& trace,
                            bl::HostProbe& probe, std::size_t docs, F&& run_one) {
  run_one(false);  // warm-up
  probe.sample();
  std::vector<Unit> units;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMinUnits || seconds_since(start) < opt.seconds; ++i) {
    const bool traced = trace.enabled() && i % 2 == 1;
    trace.record(traced);
    reset_peak_rss();
    Unit unit = run_one(traced);
    trace.record(false);
    trace.drain();
    if (traced) trace.add_traced_docs(docs);
    unit.traced = traced;
    units.push_back(std::move(unit));
    probe.sample();
  }
  return units;
}

// ------------------------------------------------------------ batch_llm --

void run_batch_llm(const Options& opt, Ledger& ledger, Gate& gate,
                   TraceSession& trace, bl::HostProbe& probe) {
  const auto gen_start = Clock::now();
  const TrainingInputs inputs = training_inputs();
  const auto docs = generate(doc::benchmark_config(kBatchDocs, opt.seed));
  ledger.set("inputgen_s", seconds_since(gen_start));

  core::TrainedAdaParse bundle;
  ledger.set("setup_s",
             median_setup_seconds(probe, [] {}, [&] { bundle = train(inputs); }));
  const core::AdaParseEngine& engine = *bundle.llm;
  const core::Pipeline pipeline(engine);
  const core::RunOutput reference = engine.run_barrier(docs);

  // What AdaParseEngine::run does (Pipeline::run_collect), plus the time
  // each record reached the sink.
  core::RunOutput output;
  output.records.resize(docs.size());
  output.decisions.resize(docs.size());
  std::vector<core::EngineStats> stats;  // of untraced passes
  const auto pass = [&](bool traced) {
    Unit unit;
    unit.record_s.resize(docs.size());
    core::VectorSource source(docs);
    const auto start = Clock::now();
    {
      obs::SpanGuard span("bench", "pass", "docs", docs.size());
      const core::EngineStats s = pipeline.run(
          source, [&](std::size_t i, const io::ParseRecord& record,
                      const core::RouteDecision& decision) {
            output.records[i] = record;
            output.decisions[i] = decision;
            unit.record_s[i] = seconds_since(start);
          });
      if (!traced) stats.push_back(s);
    }
    unit.wall_s = seconds_since(start);
    unit.peak_rss_mb = peak_rss_mb();
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < docs.size(); ++i) {
      if (!same_record(output.records[i], reference.records[i])) ++mismatched;
    }
    gate.add(docs.size(), mismatched, "batch_llm records vs run_barrier()");
    return unit;
  };
  const std::vector<Unit> units = run_units(opt, trace, probe, docs.size(), pass);
  stats.erase(stats.begin());  // the warm-up's

  const auto [untraced_rate, traced_rate] = report_units(units, docs.size(), ledger);
  ledger.set("bleu_mean", bleu_sum(docs, reference.records) /
                              static_cast<double>(docs.size()));
  RouteCounts routes;
  for (const auto& d : reference.decisions) routes.add(d);
  routes.report(ledger);

  const std::pair<const char*, core::StageStats core::PipelineStats::*> stages[] = {
      {"prefetch", &core::PipelineStats::prefetch},
      {"extract", &core::PipelineStats::extract},
      {"route", &core::PipelineStats::route},
      {"upgrade", &core::PipelineStats::upgrade},
      {"write", &core::PipelineStats::write}};
  for (const auto& [name, member] : stages) {
    std::vector<double> busy, idle;
    for (const auto& s : stats) {
      busy.push_back((s.pipeline.*member).busy_seconds);
      idle.push_back((s.pipeline.*member).idle_seconds);
    }
    ledger.set(std::string("pipeline.") + name + ".busy_s", median(busy));
    ledger.set(std::string("pipeline.") + name + ".idle_s", median(idle));
  }
  std::vector<double> route_share, resident;
  for (const auto& s : stats) {
    route_share.push_back(s.pipeline.route.busy_seconds / s.wall_seconds);
    resident.push_back(static_cast<double>(s.pipeline.peak_resident_extractions));
  }
  ledger.set("pipeline.route.busy_share", median(route_share));
  ledger.set("pipeline.peak_resident", median(resident));

  if (trace.enabled()) {
    ledger.set("pipeline.fixed_us", pipeline_fixed_us(engine, {}, docs[0]));
    time_kernels(docs, *bundle.predictor, ledger);
    trace.report(ledger, opt.trace_out, untraced_rate, traced_rate);
  }
}

// ------------------------------------------------------------- campaign --

void run_campaign(const Options& opt, bool processes, Ledger& ledger,
                  Gate& gate, TraceSession& trace, bl::HostProbe& probe) {
  const auto gen_start = Clock::now();
  const TrainingInputs inputs = training_inputs();
  const auto corpus = generate(doc::benchmark_config(kCampaignDocs, opt.seed));
  ledger.set("inputgen_s", seconds_since(gen_start));

  core::TrainedAdaParse bundle;
  ledger.set("setup_s",
             median_setup_seconds(probe, [] {}, [&] { bundle = train(inputs); }));
  const core::AdaParseEngine& engine = *bundle.ft;

  // The reference: a standalone run of every shard, concatenated.
  std::string expected;
  std::vector<io::ParseRecord> expected_records;
  RouteCounts routes;
  for (std::size_t begin = 0; begin < corpus.size(); begin += kDocsPerShard) {
    const std::vector<doc::Document> shard(
        corpus.begin() + static_cast<std::ptrdiff_t>(begin),
        corpus.begin() + static_cast<std::ptrdiff_t>(
                             std::min(corpus.size(), begin + kDocsPerShard)));
    const core::RunOutput out = engine.run(shard);
    std::ostringstream os;
    io::JsonlWriter writer(os);
    for (const auto& record : out.records) writer.write(record);
    expected += os.str();
    expected_records.insert(expected_records.end(), out.records.begin(),
                            out.records.end());
    for (const auto& d : out.decisions) routes.add(d);
  }

  // The source aliases the corpus this function owns for the whole run —
  // never a temporary.
  const campaign::CampaignRunner::SourceFactory source = [&corpus] {
    return std::make_unique<core::VectorSource>(corpus);
  };
  gate.check(source()->next().get() == corpus.data(),
             "campaign source aliases the bench-owned corpus");

  campaign::CampaignConfig config;
  config.execution = processes
                         ? campaign::CampaignConfig::ExecutionMode::kMultiProcess
                         : campaign::CampaignConfig::ExecutionMode::kInProcess;
  config.docs_per_shard = kDocsPerShard;
  config.workers = 3;
  config.extract_workers = 2;
  config.upgrade_workers = 1;
  const fs::path root =
      fs::path(opt.workdir) / ("campaign-" + std::to_string(::getpid()));

  struct Counters {
    campaign::CampaignStats stats;
    double fsyncs = 0.0;
    double output_bytes = 0.0;
  };
  std::vector<Counters> counters;  // of untraced campaigns
  std::size_t index = 0;
  const auto run_one = [&](bool traced) {
    Unit unit;
    config.dir = (root / ("c" + std::to_string(index++))).string();
    fs::remove_all(config.dir);
    campaign::CampaignRunner runner(engine, config);
    const std::uint64_t fsyncs_before = io::fsync_count_for_testing();
    // A record reaches the consumer when its shard commits; commits are
    // seen by polling the runner's live stats every millisecond.
    std::atomic<bool> done{false};
    const auto start = Clock::now();
    std::thread poller([&] {
      std::size_t seen = 0;
      while (!done.load()) {
        const std::size_t committed = runner.snapshot().docs_processed;
        if (committed > seen) {
          unit.record_s.insert(unit.record_s.end(), committed - seen,
                               seconds_since(start));
          seen = committed;
        }
        std::this_thread::sleep_for(1ms);
      }
    });
    campaign::CampaignStats result;
    try {
      obs::SpanGuard span("bench", "campaign", "docs", corpus.size());
      result = runner.run(source);
    } catch (...) {
      done = true;
      poller.join();
      throw;
    }
    unit.wall_s = seconds_since(start);
    unit.peak_rss_mb = peak_rss_mb();
    done = true;
    poller.join();
    unit.record_s.resize(corpus.size(), unit.wall_s);  // committed after the last poll

    const auto bytes = io::read_file(runner.output_path());
    const bool same = result.completed && bytes && *bytes == expected;
    gate.add(corpus.size(), same ? 0 : corpus.size(),
             "campaign output.jsonl vs standalone shard runs");
    if (!traced) {
      counters.push_back(
          {result, static_cast<double>(io::fsync_count_for_testing() - fsyncs_before),
           bytes ? static_cast<double>(bytes->size()) : 0.0});
    }
    fs::remove_all(config.dir);
    return unit;
  };
  const std::vector<Unit> units = run_units(opt, trace, probe, corpus.size(), run_one);
  fs::remove_all(root);
  counters.erase(counters.begin());  // the warm-up's

  const auto [untraced_rate, traced_rate] = report_units(units, corpus.size(), ledger);
  ledger.set("bleu_mean",
             bleu_sum(corpus, expected_records) / static_cast<double>(corpus.size()));
  routes.report(ledger);

  std::vector<double> attempts, hedges, spawned, fsyncs, output_bytes;
  double committed = 0.0, started = 0.0;
  for (const Counters& c : counters) {
    attempts.push_back(static_cast<double>(c.stats.attempts_started));
    hedges.push_back(static_cast<double>(c.stats.hedges_launched));
    spawned.push_back(static_cast<double>(c.stats.workers_spawned));
    fsyncs.push_back(c.fsyncs);
    output_bytes.push_back(c.output_bytes);
    committed += static_cast<double>(c.stats.shards_committed);
    started += static_cast<double>(c.stats.attempts_started);
  }
  ledger.set("campaign.attempts", median(attempts));
  ledger.set("campaign.useful_attempt_ratio", started > 0 ? committed / started : 0.0);
  ledger.set("campaign.hedges_launched", median(hedges));
  ledger.set("proc.workers_spawned", median(spawned));
  ledger.set("proc.child_peak_rss_mb", children_peak_rss_mb());
  // Worker processes commit their own shards, so their fsyncs are not
  // visible from here: the count is reported for in-process workers only.
  if (!processes) ledger.set("io.fsyncs", median(fsyncs));
  ledger.set("io.output_bytes", median(output_bytes));

  if (trace.enabled()) {
    ledger.set("campaign.stage_s", median(trace.durations("campaign.stage")));
    ledger.set("campaign.attempt_ms_p50",
               median(trace.durations("campaign.attempt")) * 1e3);
    sched::ThreadPool pool(config.workers * (config.extract_workers + config.upgrade_workers));
    sched::WarmModelCache cache;
    core::PipelineConfig shard_pipeline;
    shard_pipeline.queue_capacity = config.queue_capacity;
    shard_pipeline.extract_workers = config.extract_workers;
    shard_pipeline.upgrade_workers = config.upgrade_workers;
    shard_pipeline.pool = &pool;
    shard_pipeline.warm_cache = &cache;
    ledger.set("pipeline.fixed_us", pipeline_fixed_us(engine, shard_pipeline, corpus[0]));
    time_kernels(corpus, *bundle.predictor, ledger);
    trace.report(ledger, opt.trace_out, untraced_rate, traced_rate);
  }
}

// ----------------------------------------------------------- http_mixed --

struct Tenant {
  const char* name;
  core::Variant variant;
  int deadline_ms;
};
// alpha has fair-share weight 2.
constexpr Tenant kTenants[] = {{"alpha", core::Variant::kLlm, 0},
                               {"beta", core::Variant::kFastText, 0},
                               {"gamma", core::Variant::kFastText, 200}};

serve::JobSpec job_spec(const std::vector<serve::InlineDocument>& docs,
                        const Tenant& tenant) {
  serve::JobSpec spec;
  spec.tenant = tenant.name;
  spec.engine.variant = tenant.variant;
  spec.engine.alpha = 0.10;
  spec.engine.batch_size = kDocsPerJob;
  spec.engine.threads = kThreads;
  spec.deadline = std::chrono::milliseconds(tenant.deadline_ms);
  spec.documents = serve::JobSpec::Documents::kInline;
  spec.inline_docs = docs;
  return spec;
}

/// One job of the schedule: which tenant sends which block of the pool.
struct Job {
  std::size_t tenant = 0;
  std::size_t block = 0;
};

struct Phase {
  std::vector<Job> jobs;
  std::vector<double> due_s;  ///< open loop only
  bool closed = false;
};

Job draw_job(util::Rng& rng, std::size_t blocks) {
  return {static_cast<std::size_t>(rng.below(std::size(kTenants))),
          static_cast<std::size_t>(rng.below(blocks))};
}

/// An open-loop step: a Poisson process at `rate` conditioned on its count,
/// i.e. rate*seconds arrivals at sorted uniform times. Fixing the count
/// keeps the work, and the state the server retains, the same for every
/// seed.
Phase open_phase(util::Rng& rng, double rate, double seconds, std::size_t blocks) {
  Phase phase;
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  for (std::size_t i = 0; i < n; ++i) {
    phase.due_s.push_back(rng.uniform(0.0, seconds));
    phase.jobs.push_back(draw_job(rng, blocks));
  }
  std::sort(phase.due_s.begin(), phase.due_s.end());
  return phase;
}

Phase closed_phase(util::Rng& rng, std::size_t jobs, std::size_t blocks) {
  Phase phase;
  phase.closed = true;
  for (std::size_t i = 0; i < jobs; ++i) phase.jobs.push_back(draw_job(rng, blocks));
  return phase;
}

/// Client-side times of one step, in ms: record and first-record latency
/// from when each request was due; lateness, response time and time to
/// first byte from when it was sent.
struct StepLatency {
  std::vector<double> record_ms, first_record_ms, late_ms, client_ms,
      first_byte_ms;
};

/// Server-side times of one step's jobs, in ms.
struct ServerTimes {
  std::vector<double> queue_ms, job_ms;
};

void run_http_mixed(const Options& opt, Ledger& ledger, Gate& gate,
                    TraceSession& trace, bl::HostProbe& probe) {
  const std::size_t blocks = kPoolDocs / kDocsPerJob;
  const auto gen_start = Clock::now();
  const TrainingInputs inputs = training_inputs();
  const auto pool = generate(doc::benchmark_config(kPoolDocs, opt.seed));
  std::vector<std::vector<serve::InlineDocument>> block_docs(blocks);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    block_docs[i / kDocsPerJob].push_back(bl::to_inline(pool[i]));
  }
  std::vector<std::string> bodies;  // [block * 3 + tenant]
  for (std::size_t b = 0; b < blocks; ++b) {
    for (const Tenant& tenant : kTenants) {
      bodies.push_back(job_spec(block_docs[b], tenant).to_json().dump());
    }
  }
  util::Rng rng(util::mix64(opt.seed, 0x4877));
  std::vector<Phase> phases = {
      open_phase(rng, 30.0, 0.05 * opt.seconds, blocks),  // warm-up
      open_phase(rng, 30.0, 0.15 * opt.seconds, blocks),  // r30
      open_phase(rng, 60.0, 0.55 * opt.seconds, blocks),  // r60
  };
  // The capacity step, as segments whose median rate is reported; a traced
  // run traces every other segment.
  const auto segment_jobs = static_cast<std::size_t>(std::llround(8.0 * opt.seconds));
  for (std::size_t s = 0; s < kCapacitySegments; ++s) {
    phases.push_back(closed_phase(rng, segment_jobs, blocks));
  }
  ledger.set("inputgen_s", seconds_since(gen_start));

  core::TrainedAdaParse bundle;
  std::unique_ptr<serve::ParseService> service;
  std::unique_ptr<serve::http::HttpServer> server;
  const auto teardown = [&] {
    if (server) server->stop();
    server.reset();
    if (service) service->shutdown();
    service.reset();
  };
  ledger.set("setup_s", median_setup_seconds(probe, teardown, [&] {
               bundle = train(inputs);
               serve::ServiceConfig config;
               config.pool_threads = kThreads;
               config.dispatchers = 2;
               config.slice_batches = 1;
               service = std::make_unique<serve::ParseService>(
                   config, bundle.predictor, bundle.improver);
               service->set_tenant_weight("alpha", 2.0);
               server = std::make_unique<serve::http::HttpServer>(*service);
             }));

  // The reference: each (block, variant) job run standalone through
  // core::Pipeline, hashed exactly as the record lines of its stream.
  struct Expected {
    std::uint64_t hash = util::kFnvOffsetBasis;
    double bleu_sum = 0.0;
    RouteCounts routes;
  };
  std::vector<Expected> expected(blocks * 2);  // [block * 2 + (llm ? 0 : 1)]
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t v = 0; v < 2; ++v) {
      const serve::JobSpec spec = job_spec(block_docs[b], kTenants[v]);
      const auto source = spec.make_source();
      const core::AdaParseEngine engine(spec.engine, bundle.predictor, bundle.improver);
      Expected& e = expected[b * 2 + v];
      std::vector<io::ParseRecord> records(kDocsPerJob);
      core::Pipeline(engine).run(*source, [&](std::size_t i,
                                              const io::ParseRecord& record,
                                              const core::RouteDecision& decision) {
        e.hash = bl::fnv1a_extend(
            e.hash, serve::http::stream_record_line({i, record, decision}).dump() + "\n");
        records[i] = record;
        e.routes.add(decision);
      });
      e.bleu_sum = bleu_sum(std::vector<doc::Document>(
                                pool.begin() + static_cast<std::ptrdiff_t>(b * kDocsPerJob),
                                pool.begin() + static_cast<std::ptrdiff_t>((b + 1) * kDocsPerJob)),
                            records);
    }
  }
  const auto expected_for = [&](const Job& job) -> const Expected& {
    return expected[job.block * 2 + (kTenants[job.tenant].variant == core::Variant::kLlm ? 0 : 1)];
  };

  bl::LoadGen loadgen("127.0.0.1", server->port(), kThreads);
  std::vector<bool> sent_before(blocks, false);
  double repeated_docs = 0.0, sent_docs = 0.0;
  double request_bytes = 0.0, response_bytes = 0.0, measured_requests = 0.0;
  double delivered_docs = 0.0, delivered_bleu = 0.0;
  RouteCounts routes;  // over the documents delivered in measured steps
  std::uint64_t request_spans = 0;

  struct Step {
    std::vector<bl::HttpResult> results;
    double wall_s = 0.0;
    double docs = 0.0;  ///< documents of the step's correct streams
  };
  // Runs one step, checks every stream against its reference and samples
  // the host speed.
  const auto run_step = [&](const Phase& phase, bool traced, bool measured) {
    std::vector<bl::HttpRequest> requests;
    for (std::size_t i = 0; i < phase.jobs.size(); ++i) {
      const Job& job = phase.jobs[i];
      const std::string& body = bodies[job.block * 3 + job.tenant];
      requests.push_back({phase.closed ? 0.0 : phase.due_s[i],
                          bl::post_parse_head(body.size()), &body});
      sent_docs += kDocsPerJob;
      if (sent_before[job.block]) repeated_docs += kDocsPerJob;
      sent_before[job.block] = true;
    }
    trace.record(traced);
    const std::uint64_t trace_start_ns = obs::Tracer::instance().now_ns();
    const auto start = Clock::now();
    Step step;
    step.results = loadgen.run(requests, phase.closed);
    step.wall_s = seconds_since(start);
    trace.record(false);

    std::size_t failed = 0;
    std::vector<obs::SpanRecord> spans;
    for (std::size_t i = 0; i < step.results.size(); ++i) {
      const bl::HttpResult& r = step.results[i];
      const Expected& e = expected_for(phase.jobs[i]);
      bool ok = r.complete && r.status == 200 && r.record_s.size() == kDocsPerJob &&
                r.record_hash == e.hash && !r.done_line.empty();
      if (ok) {
        const util::Json done = util::Json::parse(r.done_line).at("done");
        ok = done.at("state").as_string() == "completed" &&
             done.at("docs_completed").as_number() == static_cast<double>(kDocsPerJob);
      }
      failed += ok ? 0 : 1;
      if (ok) step.docs += kDocsPerJob;
      if (measured && ok) {
        request_bytes += static_cast<double>(r.bytes_sent);
        response_bytes += static_cast<double>(r.bytes_received);
        measured_requests += 1.0;
        delivered_docs += kDocsPerJob;
        delivered_bleu += e.bleu_sum;
        routes.add(e.routes);
      }
      if (traced) {
        // The loop is single-threaded and requests overlap, so request
        // spans are built from the recorded times and handed to the
        // tracer, with ids (top bit set) no tracer-made id can take.
        obs::SpanRecord span;
        span.start_ns = trace_start_ns + static_cast<std::uint64_t>(r.sent_s * 1e9);
        span.dur_ns = static_cast<std::uint64_t>(std::max(0.0, r.done_s - r.sent_s) * 1e9);
        span.id = (1ULL << 63) | ++request_spans;
        span.category = "bench";
        span.name = "request";
        span.arg1_name = "job";
        span.arg1 = r.job_id;
        span.pid = static_cast<std::uint32_t>(::getpid());
        span.tid = 0xFFFF;  // a lane of its own for the load generator
        spans.push_back(span);
      }
    }
    gate.add(step.results.size(), failed,
             "http_mixed streams vs standalone pipeline runs");
    if (traced) {
      trace.add(spans);
      trace.add_traced_docs(step.results.size() * kDocsPerJob);
    }
    probe.sample();
    return step;
  };

  const auto step_latency = [](const std::vector<bl::HttpResult>& results) {
    StepLatency s;
    for (const bl::HttpResult& r : results) {
      if (!r.complete || r.record_s.empty()) continue;
      for (const double t : r.record_s) s.record_ms.push_back((t - r.due_s) * 1e3);
      s.first_record_ms.push_back((r.first_record_s - r.due_s) * 1e3);
      s.late_ms.push_back((r.sent_s - r.due_s) * 1e3);
      s.client_ms.push_back((r.done_s - r.sent_s) * 1e3);
      s.first_byte_ms.push_back((r.first_byte_s - r.sent_s) * 1e3);
    }
    return s;
  };
  // Server-side queue wait and job latency of a step's jobs, from
  // GET /v1/jobs/{id}.
  const auto server_times = [&](const std::vector<bl::HttpResult>& results) {
    std::vector<bl::HttpRequest> gets;
    for (const bl::HttpResult& r : results) {
      gets.push_back({0.0, "GET /v1/jobs/" + std::to_string(r.job_id) +
                               " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
                      nullptr});
    }
    ServerTimes times;
    for (const bl::HttpResult& reply : loadgen.run(gets, /*closed_loop=*/true)) {
      if (!reply.complete || reply.status != 200) continue;
      const util::Json status = util::Json::parse(reply.body);
      times.queue_ms.push_back(status.at("queue_wait_seconds").as_number() * 1e3);
      times.job_ms.push_back(status.at("latency_seconds").as_number() * 1e3);
    }
    return times;
  };

  trace.start_collector();
  reset_peak_rss();
  run_step(phases[0], false, false);  // warm-up
  const Step r30 = run_step(phases[1], trace.enabled(), true);
  const Step r60 = run_step(phases[2], trace.enabled(), true);
  std::vector<double> segment_rate[2];  // [untraced, traced]
  for (std::size_t s = 0; s < kCapacitySegments; ++s) {
    const bool traced = trace.enabled() && s % 2 == 1;
    const Step step = run_step(phases[3 + s], traced, true);
    segment_rate[traced].push_back(step.docs / step.wall_s);
  }
  const double rate[2] = {median(segment_rate[0]), median(segment_rate[1])};
  // The server keeps every finished job in its history, so the peak grows
  // with the jobs served, which the schedule fixes.
  ledger.set("peak_rss_mb", peak_rss_mb());

  const StepLatency at30 = step_latency(r30.results);
  const StepLatency at60 = step_latency(r60.results);
  ledger.set("docs_per_s", rate[0]);
  ledger.set("latency_p50_ms", quantile_of(at60.record_ms, 0.50));
  ledger.set("latency_p95_ms", quantile_of(at60.record_ms, 0.95));
  ledger.set("first_record_p50_ms", median(at60.first_record_ms));
  ledger.set("bleu_mean", delivered_docs > 0 ? delivered_bleu / delivered_docs : 0.0);
  std::cout << "# http_mixed: " << r30.results.size() << " jobs at 30/s, "
            << r60.results.size() << " at 60/s, " << kCapacitySegments
            << " closed-loop segments of " << segment_jobs << "\n";

  routes.report(ledger);
  ledger.set("http.latency_p50_ms.r30", quantile_of(at30.record_ms, 0.50));
  ledger.set("http.latency_p95_ms.r30", quantile_of(at30.record_ms, 0.95));
  ledger.set("http.first_record_p50_ms.r30", median(at30.first_record_ms));
  ledger.set("http.first_byte_ms_p50.r60", median(at60.first_byte_ms));
  ledger.set("loadgen.late_ms_p95.r60", quantile_of(at60.late_ms, 0.95));
  ledger.set("loadgen.connections_max", static_cast<double>(loadgen.connections_max()));
  ledger.set("loadgen.repeat_doc_share", sent_docs > 0 ? repeated_docs / sent_docs : 0.0);
  ledger.set("http.request_bytes_mean",
             measured_requests > 0 ? request_bytes / measured_requests : 0.0);
  ledger.set("http.response_bytes_mean",
             measured_requests > 0 ? response_bytes / measured_requests : 0.0);
  double rejected = 0.0;
  for (const auto& t : service->metrics().tenants) rejected += static_cast<double>(t.jobs_rejected);
  ledger.set("serve.jobs_rejected", rejected);

  if (trace.enabled()) {
    const ServerTimes at30_server = server_times(r30.results);
    const ServerTimes at60_server = server_times(r60.results);
    const double job_p50 = median(at60_server.job_ms);
    ledger.set("serve.queue_wait_ms_mean.r30", mean_of(at30_server.queue_ms));
    ledger.set("serve.queue_wait_ms_mean.r60", mean_of(at60_server.queue_ms));
    ledger.set("serve.job_ms_p50.r60", job_p50);
    ledger.set("http.overhead_ms_p50.r60", median(at60.client_ms) - job_p50);
    const auto scrape = loadgen.run(
        {{0.0, "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n", nullptr}}, true);
    const std::string family = "\nadaparse_http_backpressure_pauses_total ";
    if (const auto at = scrape[0].body.find(family); at != std::string::npos) {
      ledger.set("http.backpressure_pauses",
                 std::atof(scrape[0].body.c_str() + at + family.size()));
    }
    sched::ThreadPool slice_pool(2);
    sched::WarmModelCache cache;
    core::PipelineConfig slice;  // one service slice: pool_threads / dispatchers = 2 workers
    slice.queue_capacity = serve::ServiceConfig{}.queue_capacity;
    slice.extract_workers = 1;
    slice.upgrade_workers = 1;
    slice.pool = &slice_pool;
    slice.warm_cache = &cache;
    // The documents exactly as the server materializes them.
    std::vector<serve::InlineDocument> sample;
    for (std::size_t b = 0; b < blocks && sample.size() < kKernelDocs; ++b) {
      sample.insert(sample.end(), block_docs[b].begin(), block_docs[b].end());
    }
    const serve::JobSpec spec = job_spec(sample, kTenants[1]);
    std::vector<doc::Document> materialized;
    const auto sample_source = spec.make_source();
    while (const auto d = sample_source->next()) materialized.push_back(*d);
    const core::AdaParseEngine ft(spec.engine, bundle.predictor, bundle.improver);
    ledger.set("pipeline.fixed_us", pipeline_fixed_us(ft, slice, materialized[0]));
    time_kernels(materialized, *bundle.predictor, ledger);
    trace.report(ledger, opt.trace_out, rate[0], rate[1]);
  }
  teardown();
}

// ----------------------------------------------------------------- main --

int usage(const std::string& error) {
  std::cerr << "bench_layers: " << error
            << "\nusage: bench_layers --workload batch_llm|http_mixed|"
               "campaign_threads|campaign_procs --seed <u64> [--seconds <s>] "
               "[--trace 0|1] [--out <file>] [--trace-out <file>] "
               "[--workdir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--out") {
        opt.out = value;
      } else if (arg == "--trace-out") {
        opt.trace_out = value;
      } else if (arg == "--workdir") {
        opt.workdir = value;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(opt.seconds >= 1.0 && opt.seconds <= 600.0)) {
    return usage("--seconds must be in [1, 600]");
  }
  if (opt.trace_out.empty()) {
    opt.trace_out = (fs::path(opt.workdir) / ("trace-" + opt.workload + ".json")).string();
  }

  Ledger ledger;
  Gate gate;
  bool correct = false;
  std::string line;  // the result
  try {
    fs::create_directories(opt.workdir);
    TraceSession trace(opt.trace);
    bl::HostProbe probe(kThreads);
    if (opt.workload == "batch_llm") {
      run_batch_llm(opt, ledger, gate, trace, probe);
    } else if (opt.workload == "http_mixed") {
      run_http_mixed(opt, ledger, gate, trace, probe);
    } else if (opt.workload == "campaign_threads") {
      run_campaign(opt, /*processes=*/false, ledger, gate, trace, probe);
    } else if (opt.workload == "campaign_procs") {
      run_campaign(opt, /*processes=*/true, ledger, gate, trace, probe);
    } else {
      return usage("unknown workload " + opt.workload);
    }
    ledger.scale_to_reference(probe.speed());
    correct = gate.failed() == 0 && gate.attempted() > 0;
    line = ledger.report(opt.trace, gate.attempted(), gate.failed(), correct);
  } catch (const std::exception& e) {
    std::cerr << "bench_layers: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }

  if (!opt.out.empty()) {
    std::ofstream out(opt.out);
    out << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
        << ",\"seconds\":" << format_number(opt.seconds)
        << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"result\":" << line << "}\n";
    if (!out) {
      std::cerr << "bench_layers: cannot write " << opt.out << "\n";
      return 1;
    }
  }
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
