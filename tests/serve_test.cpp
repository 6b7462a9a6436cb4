// Tests for the serve:: subsystem: fair-share scheduling (DRR + deadline
// boost), admission control watermarks, the job lifecycle with cooperative
// cancellation and incremental results, byte-identical equivalence with a
// standalone engine run, the shared warm-model cache, and the metrics
// registry (quantiles + Prometheus rendering).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/doc_source.hpp"
#include "doc/generator.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "simd/dispatch.hpp"

namespace adaparse::serve {
namespace {

using namespace std::chrono_literals;

std::vector<doc::Document> mixed_corpus(std::size_t n, std::uint64_t seed) {
  auto config = doc::benchmark_config(n, seed);
  config.corrupted_fraction = 0.05;
  return doc::CorpusGenerator(config).generate();
}

/// FT-variant config: works with an untrained Cls2Improver (p = 0.5 for
/// every document), so tests need no training pass; alpha still routes
/// floor(alpha*k) documents per batch to Nougat.
core::EngineConfig ft_config(std::size_t batch_size, double alpha = 0.25) {
  core::EngineConfig config;
  config.variant = core::Variant::kFastText;
  config.batch_size = batch_size;
  config.alpha = alpha;
  return config;
}

std::shared_ptr<core::Cls2Improver> shared_improver() {
  static const auto improver = std::make_shared<core::Cls2Improver>();
  return improver;
}

/// The request owns its documents: a job outlives the statement that
/// submits it, so a caller may pass a temporary corpus.
JobRequest make_request(std::string tenant, std::vector<doc::Document> docs,
                        std::size_t batch_size, double alpha = 0.25) {
  JobRequest request;
  request.spec.tenant = std::move(tenant);
  request.spec.engine = ft_config(batch_size, alpha);
  request.source = std::make_unique<core::OwnedVectorSource>(std::move(docs));
  return request;
}

/// Source whose next() blocks until open() — holds a dispatcher mid-slice
/// so admission tests can fill the queue deterministically.
class GateSource final : public core::DocumentSource {
 public:
  explicit GateSource(std::vector<doc::Document> docs)
      : docs_(std::move(docs)) {}

  std::shared_ptr<const doc::Document> next() override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return open_; });
    }
    if (next_ >= docs_.size()) return nullptr;
    const doc::Document* doc = &docs_[next_++];
    return std::shared_ptr<const doc::Document>(
        std::shared_ptr<const doc::Document>(), doc);
  }

  std::size_t size_hint() const override { return docs_.size(); }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::vector<doc::Document> docs_;
  std::size_t next_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

// ----------------------------------------------------------- scheduler ----

ScheduleItem item(std::uint64_t id, std::string tenant,
                  std::size_t cost = 10, int priority = 0) {
  ScheduleItem it;
  it.id = id;
  it.tenant = std::move(tenant);
  it.priority = priority;
  it.slice_cost = cost;
  return it;
}

TEST(FairSchedulerTest, EqualWeightsAlternateFairly) {
  FairSchedulerConfig config;
  config.quantum_docs = 10;
  FairScheduler sched(config);
  for (std::uint64_t i = 0; i < 40; ++i) {
    sched.enqueue(item(100 + i, "a"));
    sched.enqueue(item(200 + i, "b"));
  }
  std::map<std::string, int> first40;
  const auto now = std::chrono::steady_clock::now();
  for (int i = 0; i < 40; ++i) {
    auto next = sched.next(now);
    ASSERT_TRUE(next.has_value());
    ++first40[next->tenant];
  }
  // Equal weights, equal costs: shares within one quantum burst of equal.
  EXPECT_NEAR(first40["a"], 20, 4);
  EXPECT_NEAR(first40["b"], 20, 4);
  EXPECT_EQ(sched.queued(), 40U);
}

TEST(FairSchedulerTest, WeightsScaleShares) {
  FairSchedulerConfig config;
  config.quantum_docs = 10;
  FairScheduler sched(config);
  sched.set_weight("heavy", 2.0);
  sched.set_weight("light", 1.0);
  for (std::uint64_t i = 0; i < 90; ++i) {
    sched.enqueue(item(100 + i, "heavy"));
    sched.enqueue(item(300 + i, "light"));
  }
  std::map<std::string, int> picks;
  const auto now = std::chrono::steady_clock::now();
  for (int i = 0; i < 60; ++i) ++picks[sched.next(now)->tenant];
  // 2:1 weights -> ~40:20, within burst granularity.
  EXPECT_GE(picks["heavy"], 32);
  EXPECT_LE(picks["heavy"], 48);
  EXPECT_EQ(picks["heavy"] + picks["light"], 60);
}

TEST(FairSchedulerTest, PriorityOrdersWithinTenantFifoWithinClass) {
  FairScheduler sched;
  sched.enqueue(item(1, "t", 10, /*priority=*/0));
  sched.enqueue(item(2, "t", 10, /*priority=*/5));
  sched.enqueue(item(3, "t", 10, /*priority=*/0));
  sched.enqueue(item(4, "t", 10, /*priority=*/5));
  const auto now = std::chrono::steady_clock::now();
  EXPECT_EQ(sched.next(now)->id, 2U);  // high priority first, FIFO inside
  EXPECT_EQ(sched.next(now)->id, 4U);
  EXPECT_EQ(sched.next(now)->id, 1U);
  EXPECT_EQ(sched.next(now)->id, 3U);
}

TEST(FairSchedulerTest, RequeueGoesToFrontOfItsPriorityClass) {
  FairScheduler sched;
  sched.enqueue(item(1, "t"));
  sched.enqueue(item(2, "t"));
  const auto now = std::chrono::steady_clock::now();
  auto first = sched.next(now);
  EXPECT_EQ(first->id, 1U);
  sched.requeue(*first);  // mid-run job continues before job 2 starts
  EXPECT_EQ(sched.next(now)->id, 1U);
  EXPECT_EQ(sched.next(now)->id, 2U);
}

TEST(FairSchedulerTest, DeadlineNearJobsJumpTheRotationEarliestFirst) {
  FairSchedulerConfig config;
  config.deadline_slack = 250ms;
  FairScheduler sched(config);
  const auto now = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < 10; ++i) sched.enqueue(item(100 + i, "bulk"));
  auto urgent_late = item(2, "urgent");
  urgent_late.deadline = now + 200ms;
  auto urgent_soon = item(1, "urgent");
  urgent_soon.deadline = now + 50ms;
  sched.enqueue(urgent_late);
  sched.enqueue(urgent_soon);
  // Both deadlines are inside the slack window: EDF order, ahead of bulk.
  EXPECT_EQ(sched.next(now)->id, 1U);
  EXPECT_EQ(sched.next(now)->id, 2U);
  // Urgency spent the tenant's credit; bulk gets the rotation back.
  EXPECT_EQ(sched.next(now)->tenant, "bulk");
}

TEST(FairSchedulerTest, DeadlineStampingCannotStarveOtherTenants) {
  // A tenant that puts a tight deadline on every job borrows at most two
  // quanta of capacity; past that its jobs go through the normal rotation,
  // so an honest backlogged tenant keeps roughly half the service.
  FairSchedulerConfig config;
  config.quantum_docs = 10;
  config.deadline_slack = 250ms;
  FairScheduler sched(config);
  const auto now = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < 60; ++i) {
    sched.enqueue(item(500 + i, "honest", 10));
  }
  std::map<std::string, int> picks;
  std::uint64_t abuser_id = 1;
  auto abusive_item = [&] {
    auto it = item(abuser_id++, "abuser", 10);
    it.deadline = now;  // always "urgent"
    return it;
  };
  sched.enqueue(abusive_item());
  for (int round = 0; round < 40; ++round) {
    auto next = sched.next(now);
    ASSERT_TRUE(next.has_value());
    ++picks[next->tenant];
    // The abuser immediately resubmits deadline-stamped work (the
    // requeue-between-slices pattern of one long job).
    if (next->tenant == "abuser") sched.enqueue(abusive_item());
  }
  EXPECT_GE(picks["honest"], 16)
      << "deadline stamping starved the honest tenant";
  EXPECT_GE(picks["abuser"], 2);  // the borrow allowance did boost it
}

TEST(FairSchedulerTest, FarDeadlinesDoNotBoost) {
  FairSchedulerConfig config;
  config.deadline_slack = 50ms;
  FairScheduler sched(config);
  const auto now = std::chrono::steady_clock::now();
  auto relaxed = item(7, "t");
  relaxed.deadline = now + 10s;  // far outside the slack window
  sched.enqueue(item(5, "t"));
  sched.enqueue(relaxed);
  EXPECT_EQ(sched.next(now)->id, 5U);  // plain FIFO, no jump
}

TEST(FairSchedulerTest, RequeueCycleDoesNotStarveOtherTenants) {
  // Regression: a tenant with ONE long job leaves and re-enters the
  // rotation on every slice (pop empties its queue; requeue re-adds it).
  // That cycle must not let it capture the cursor and starve a tenant
  // whose jobs sit queued the whole time.
  FairSchedulerConfig config;
  config.quantum_docs = 16;
  FairScheduler sched(config);
  const auto now = std::chrono::steady_clock::now();
  sched.enqueue(item(1, "solo", 16));  // one job, requeued after each slice
  for (std::uint64_t i = 0; i < 50; ++i) {
    sched.enqueue(item(100 + i, "backlog", 16));
  }
  std::map<std::string, int> picks;
  for (int round = 0; round < 40; ++round) {
    auto next = sched.next(now);
    ASSERT_TRUE(next.has_value());
    ++picks[next->tenant];
    if (next->tenant == "solo") sched.requeue(*next);  // job continues
  }
  EXPECT_NEAR(picks["solo"], 20, 6);
  EXPECT_NEAR(picks["backlog"], 20, 6);
}

TEST(FairSchedulerTest, RemoveAndTakeAll) {
  FairScheduler sched;
  sched.enqueue(item(1, "a"));
  sched.enqueue(item(2, "a"));
  sched.enqueue(item(3, "b"));
  EXPECT_TRUE(sched.remove(2));
  EXPECT_FALSE(sched.remove(2));
  EXPECT_EQ(sched.queued(), 2U);
  const auto all = sched.take_all();
  EXPECT_EQ(all.size(), 2U);
  EXPECT_TRUE(sched.empty());
  EXPECT_FALSE(sched.next(std::chrono::steady_clock::now()).has_value());
}

// ------------------------------------------------------------- metrics ----

TEST(MetricsRegistryTest, CountersQuantilesAndPrometheusRendering) {
  MetricsRegistry metrics;
  metrics.on_submitted("acme");
  metrics.on_submitted("acme");
  metrics.on_started("acme", 0.25);
  metrics.on_docs_completed("acme", 64);
  metrics.on_completed("acme", 1.5);
  metrics.on_cancelled("acme", 0.5);
  metrics.on_rejected("other");
  metrics.set_gauges(3, 1, 640);

  const auto snap = metrics.snapshot();
  ASSERT_EQ(snap.tenants.size(), 2U);
  const auto& acme = snap.tenants[0];
  EXPECT_EQ(acme.tenant, "acme");
  EXPECT_EQ(acme.jobs_submitted, 2U);
  EXPECT_EQ(acme.jobs_completed, 1U);
  EXPECT_EQ(acme.jobs_cancelled, 1U);
  EXPECT_EQ(acme.docs_completed, 64U);
  EXPECT_NEAR(acme.queue_wait_mean_seconds, 0.25, 1e-12);
  // Two latency samples (1.5, 0.5): the p50 estimate interpolates between
  // them and every quantile stays within the observed range.
  EXPECT_GE(acme.latency_p50_seconds, 0.5);
  EXPECT_LE(acme.latency_p99_seconds, 1.5);
  EXPECT_GT(acme.throughput_docs_per_second, 0.0);
  EXPECT_EQ(snap.tenants[1].jobs_rejected, 1U);
  EXPECT_EQ(snap.queued_jobs, 3U);
  EXPECT_EQ(snap.resident_documents, 640U);

  const std::string text = metrics.render_prometheus();
  EXPECT_NE(text.find("# TYPE adaparse_serve_jobs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("adaparse_serve_jobs_total{tenant=\"acme\","
                      "outcome=\"completed\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("adaparse_serve_docs_completed_total{tenant=\"acme\"}"
                      " 64"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "adaparse_serve_job_latency_seconds{tenant=\"acme\",quantile="),
      std::string::npos);
  EXPECT_NE(text.find("adaparse_serve_queued_jobs 3"), std::string::npos);
  EXPECT_NE(text.find("adaparse_serve_resident_documents 640"),
            std::string::npos);
}

/// Replaces the value on time-derived exposition lines (uptime, and the
/// per-tenant throughput that divides by it) so the rest of the payload can
/// be compared byte-for-byte.
std::string normalize_volatile_lines(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("adaparse_serve_tenant_throughput_docs_per_second{", 0) ==
            0 ||
        line.rfind("adaparse_serve_uptime_seconds ", 0) == 0) {
      line.erase(line.rfind(' ') + 1);
      line += "<time-derived>";
    }
    out << line << '\n';
  }
  return out.str();
}

TEST(MetricsRegistryTest, PrometheusExpositionMatchesGoldenText) {
  // Byte-exact regression gate for the migration onto obs::Registry: this
  // golden was captured from the pre-migration hand-rolled renderer. HELP
  // lines, family and series order, integer-vs-default-double formatting,
  // and label layout must all survive. Only the two time-derived values
  // are normalized away.
  const simd::TierScope scope(simd::Tier::kScalar);
  MetricsRegistry metrics;
  metrics.on_submitted("acme");
  metrics.on_submitted("acme");
  metrics.on_submitted("beta");
  metrics.on_rejected("beta");
  metrics.on_started("acme", 0.25);
  metrics.on_docs_completed("acme", 64);
  metrics.on_completed("acme", 1.5);
  metrics.on_cancelled("acme", 0.5);
  metrics.set_gauges(3, 1, 640);

  const std::string golden = R"(# HELP adaparse_serve_jobs_total Jobs by tenant and terminal-or-submitted outcome
# TYPE adaparse_serve_jobs_total counter
adaparse_serve_jobs_total{tenant="acme",outcome="submitted"} 2
adaparse_serve_jobs_total{tenant="acme",outcome="completed"} 1
adaparse_serve_jobs_total{tenant="acme",outcome="cancelled"} 1
adaparse_serve_jobs_total{tenant="acme",outcome="rejected"} 0
adaparse_serve_jobs_total{tenant="acme",outcome="failed"} 0
adaparse_serve_jobs_total{tenant="beta",outcome="submitted"} 1
adaparse_serve_jobs_total{tenant="beta",outcome="completed"} 0
adaparse_serve_jobs_total{tenant="beta",outcome="cancelled"} 0
adaparse_serve_jobs_total{tenant="beta",outcome="rejected"} 1
adaparse_serve_jobs_total{tenant="beta",outcome="failed"} 0
# HELP adaparse_serve_docs_completed_total Documents parsed to completion by tenant
# TYPE adaparse_serve_docs_completed_total counter
adaparse_serve_docs_completed_total{tenant="acme"} 64
adaparse_serve_docs_completed_total{tenant="beta"} 0
# HELP adaparse_serve_queue_wait_seconds_mean Mean seconds jobs waited from submission to first slice
# TYPE adaparse_serve_queue_wait_seconds_mean gauge
adaparse_serve_queue_wait_seconds_mean{tenant="acme"} 0.25
adaparse_serve_queue_wait_seconds_mean{tenant="beta"} 0
# HELP adaparse_serve_job_latency_seconds Job latency (submission to terminal state) quantile estimates
# TYPE adaparse_serve_job_latency_seconds gauge
adaparse_serve_job_latency_seconds{tenant="acme",quantile="0.5"} 1
adaparse_serve_job_latency_seconds{tenant="acme",quantile="0.95"} 1.45
adaparse_serve_job_latency_seconds{tenant="acme",quantile="0.99"} 1.49
adaparse_serve_job_latency_seconds{tenant="beta",quantile="0.5"} 0
adaparse_serve_job_latency_seconds{tenant="beta",quantile="0.95"} 0
adaparse_serve_job_latency_seconds{tenant="beta",quantile="0.99"} 0
# HELP adaparse_serve_tenant_throughput_docs_per_second Completed documents per second of service uptime
# TYPE adaparse_serve_tenant_throughput_docs_per_second gauge
adaparse_serve_tenant_throughput_docs_per_second{tenant="acme"} <time-derived>
adaparse_serve_tenant_throughput_docs_per_second{tenant="beta"} <time-derived>
# HELP adaparse_serve_queued_jobs Jobs admitted and waiting
# TYPE adaparse_serve_queued_jobs gauge
adaparse_serve_queued_jobs 3
# HELP adaparse_serve_running_jobs Jobs with a slice executing now
# TYPE adaparse_serve_running_jobs gauge
adaparse_serve_running_jobs 1
# HELP adaparse_serve_resident_documents Estimated documents of admitted-but-unfinished work
# TYPE adaparse_serve_resident_documents gauge
adaparse_serve_resident_documents 640
# HELP adaparse_serve_uptime_seconds Seconds since service start
# TYPE adaparse_serve_uptime_seconds gauge
adaparse_serve_uptime_seconds <time-derived>
# HELP adaparse_simd_tier Active SIMD dispatch tier of the text hot path (1 = active)
# TYPE adaparse_simd_tier gauge
adaparse_simd_tier{tier="scalar"} 1
)";
  EXPECT_EQ(normalize_volatile_lines(metrics.render_prometheus()), golden);
}

TEST(MetricsRegistryTest, ZeroTenantsStillEmitsEveryFamilyHeader) {
  // A fresh registry must expose all families (HELP + TYPE) even before any
  // tenant exists — scrapers rely on stable family metadata.
  MetricsRegistry metrics;
  const std::string text = metrics.render_prometheus();
  for (const char* family :
       {"adaparse_serve_jobs_total", "adaparse_serve_docs_completed_total",
        "adaparse_serve_queue_wait_seconds_mean",
        "adaparse_serve_job_latency_seconds",
        "adaparse_serve_tenant_throughput_docs_per_second"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " "),
              std::string::npos)
        << family;
    EXPECT_EQ(text.find(std::string(family) + "{"), std::string::npos)
        << family << " should have no series yet";
  }
}

TEST(MetricsRegistryTest, EscapesTenantNamesInPrometheusLabels) {
  MetricsRegistry metrics;
  metrics.on_submitted("we\"ird\\ten\nant");
  const std::string text = metrics.render_prometheus();
  // Label values must escape quote, backslash, and newline, or the whole
  // exposition payload is unparsable (and newline would inject lines).
  EXPECT_NE(text.find("tenant=\"we\\\"ird\\\\ten\\nant\""),
            std::string::npos);
  EXPECT_EQ(text.find('\n' + std::string("ant\"")), std::string::npos);
}

// ----------------------------------------------- service: equivalence ----

TEST(ParseServiceTest, JobResultsByteIdenticalToStandaloneRun) {
  const auto docs = mixed_corpus(150, 606);
  const auto engine_config = ft_config(/*batch_size=*/32);

  ServiceConfig config;
  config.dispatchers = 1;
  config.slice_batches = 2;  // slices of 64 docs; final slice is partial
  config.pool_threads = 4;
  ParseService service(config, nullptr, shared_improver());

  JobRequest request;
  request.spec.tenant = "solo";
  request.spec.engine = engine_config;
  request.source = std::make_unique<core::VectorSource>(docs);
  auto job = service.submit(std::move(request));
  job->wait();
  ASSERT_EQ(job->state(), JobState::kCompleted);

  const auto results = job->take_results();
  ASSERT_EQ(results.size(), docs.size());

  const core::AdaParseEngine engine(engine_config, nullptr,
                                    shared_improver());
  const auto reference = engine.run(docs);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].record.to_json().dump(),
              reference.records[i].to_json().dump())
        << "record " << i << " diverged from the standalone run";
    EXPECT_EQ(results[i].decision.doc_index, reference.decisions[i].doc_index);
    EXPECT_EQ(results[i].decision.chosen, reference.decisions[i].chosen);
    EXPECT_EQ(results[i].decision.trail, reference.decisions[i].trail);
  }
  const auto stats = job->stats();
  EXPECT_EQ(stats.total_docs, docs.size());
  EXPECT_EQ(stats.routed_to_nougat, reference.stats.routed_to_nougat);
  EXPECT_GT(stats.routed_to_nougat, 0U);  // the upgrade lane was live
}

TEST(ParseServiceTest, IncrementalResultsArriveInOrder) {
  const auto docs = mixed_corpus(120, 707);
  ServiceConfig config;
  config.dispatchers = 1;
  config.slice_batches = 1;
  config.pool_threads = 4;
  ParseService service(config, nullptr, shared_improver());

  auto job = service.submit(make_request("inc", docs, /*batch_size=*/16));
  std::vector<JobRecord> seen;
  while (!job->wait_for(2ms)) {
    auto batch = job->take_results();
    seen.insert(seen.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  }
  auto rest = job->take_results();
  seen.insert(seen.end(), std::make_move_iterator(rest.begin()),
              std::make_move_iterator(rest.end()));

  ASSERT_EQ(job->state(), JobState::kCompleted);
  ASSERT_EQ(seen.size(), docs.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].index, i);  // strict input order across slices
  }
  EXPECT_TRUE(job->take_results().empty());  // drained
}

// ------------------------------------------------ service: fair share ----

TEST(ParseServiceTest, EqualWeightsGetEqualDocumentShareUnderContention) {
  // Tenant A offers twice the work of tenant B in one big job; B splits its
  // load across three jobs. While both are backlogged they must complete
  // documents at (near-)equal rates, so when B finishes, A should be within
  // 20% of B's total.
  const auto docs_a = mixed_corpus(960, 808);
  const auto docs_b = mixed_corpus(320, 909);

  ServiceConfig config;
  config.dispatchers = 1;  // strict slice interleaving
  config.slice_batches = 1;
  config.quantum_docs = 16;
  config.pool_threads = 4;
  ParseService service(config, nullptr, shared_improver());

  auto job_a = service.submit(make_request("a", docs_a, /*batch_size=*/16));
  std::vector<JobHandle> jobs_b;
  for (int i = 0; i < 3; ++i) {
    JobRequest request;
    request.spec.tenant = "b";
    request.spec.engine = ft_config(16);
    auto begin = docs_b.begin() + i * 100;
    auto slice = std::make_shared<std::vector<doc::Document>>(
        begin, i == 2 ? docs_b.end() : begin + 100);
    // Keep each sub-corpus alive for the job's lifetime via the source.
    class OwningSource final : public core::DocumentSource {
     public:
      explicit OwningSource(std::shared_ptr<std::vector<doc::Document>> docs)
          : docs_(std::move(docs)) {}
      std::shared_ptr<const doc::Document> next() override {
        if (next_ >= docs_->size()) return nullptr;
        return std::shared_ptr<const doc::Document>(docs_,
                                                    &(*docs_)[next_++]);
      }
      std::size_t size_hint() const override { return docs_->size(); }

     private:
      std::shared_ptr<std::vector<doc::Document>> docs_;
      std::size_t next_ = 0;
    };
    request.source = std::make_unique<OwningSource>(std::move(slice));
    jobs_b.push_back(service.submit(std::move(request)));
  }

  for (auto& job : jobs_b) {
    job->wait();
    ASSERT_EQ(job->state(), JobState::kCompleted);
  }
  // Snapshot A's progress the moment B's backlog is gone.
  const std::size_t a_done = job_a->progress().docs_completed;
  job_a->cancel();
  job_a->wait();

  const double equal_share = static_cast<double>(docs_b.size());
  EXPECT_GT(static_cast<double>(a_done), 0.8 * equal_share)
      << "tenant a starved under equal weights";
  EXPECT_LT(static_cast<double>(a_done), 1.2 * equal_share + 32.0)
      << "tenant a overshot its fair share";
}

// ------------------------------------------------- service: admission ----

TEST(ParseServiceTest, AdmissionRejectsPastQueueDepthWatermark) {
  const auto docs = mixed_corpus(16, 111);
  ServiceConfig config;
  config.dispatchers = 1;
  config.max_queued_jobs = 2;
  config.pool_threads = 4;
  ParseService service(config, nullptr, shared_improver());

  // Occupy the single dispatcher with a gated job.
  auto gate_source = std::make_unique<GateSource>(docs);
  GateSource* gate = gate_source.get();
  JobRequest blocked;
  blocked.spec.tenant = "x";
  blocked.spec.engine = ft_config(16);
  blocked.source = std::move(gate_source);
  auto running = service.submit(std::move(blocked));

  // Wait until the dispatcher has actually picked it up.
  for (int i = 0; i < 500 && service.running_jobs() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(service.running_jobs(), 1U);

  auto q1 = service.submit(make_request("x", docs, 16));
  auto q2 = service.submit(make_request("x", docs, 16));
  EXPECT_EQ(q1->state(), JobState::kQueued);
  EXPECT_EQ(q2->state(), JobState::kQueued);
  EXPECT_EQ(service.queued_jobs(), 2U);

  // Watermark reached: the next submit must be rejected, not queued.
  auto rejected = service.submit(make_request("x", docs, 16));
  EXPECT_EQ(rejected->state(), JobState::kRejected);
  EXPECT_NE(rejected->error().find("queued-jobs"), std::string::npos);
  EXPECT_EQ(service.queued_jobs(), 2U);  // queue did not grow
  EXPECT_EQ(service.metrics().tenants.at(0).jobs_rejected, 1U);

  gate->open();
  service.drain();
  EXPECT_EQ(running->state(), JobState::kCompleted);
  EXPECT_EQ(q1->state(), JobState::kCompleted);
  EXPECT_EQ(q2->state(), JobState::kCompleted);
}

TEST(ParseServiceTest, AdmissionRejectsPastResidentWorkWatermark) {
  const auto docs = mixed_corpus(40, 222);
  ServiceConfig config;
  config.dispatchers = 1;
  config.max_resident_documents = 100;
  config.pool_threads = 4;
  ParseService service(config, nullptr, shared_improver());

  auto gate_source = std::make_unique<GateSource>(docs);
  GateSource* gate = gate_source.get();
  JobRequest blocked;
  blocked.spec.tenant = "x";
  blocked.spec.engine = ft_config(16);
  blocked.source = std::move(gate_source);
  auto running = service.submit(std::move(blocked));  // resident: 40

  auto fits = service.submit(make_request("x", docs, 16));  // resident: 80
  EXPECT_NE(fits->state(), JobState::kRejected);
  EXPECT_EQ(service.resident_documents(), 80U);

  auto rejected = service.submit(make_request("x", docs, 16));  // would be 120
  EXPECT_EQ(rejected->state(), JobState::kRejected);
  EXPECT_NE(rejected->error().find("resident-work"), std::string::npos);
  EXPECT_EQ(service.resident_documents(), 80U);

  gate->open();
  service.drain();
  EXPECT_EQ(service.resident_documents(), 0U);  // released on completion
  EXPECT_EQ(running->state(), JobState::kCompleted);
}

TEST(ParseServiceTest, LlmJobWithoutPredictorIsRejectedNotCrashed) {
  ServiceConfig config;
  config.pool_threads = 2;
  ParseService service(config, nullptr, shared_improver());
  const auto docs = mixed_corpus(8, 333);
  JobRequest request;
  request.spec.tenant = "x";
  request.spec.engine.variant = core::Variant::kLlm;  // predictor required
  request.source = std::make_unique<core::VectorSource>(docs);
  auto job = service.submit(std::move(request));
  EXPECT_EQ(job->state(), JobState::kRejected);
  EXPECT_NE(job->error().find("engine:"), std::string::npos);
}

/// Owns its documents and raises `destroyed` when the job lets go of it.
class FlagOnDestroySource final : public core::DocumentSource {
 public:
  FlagOnDestroySource(std::vector<doc::Document> docs,
                      std::atomic<bool>* destroyed)
      : inner_(std::move(docs)), destroyed_(destroyed) {}
  ~FlagOnDestroySource() override { destroyed_->store(true); }

  std::shared_ptr<const doc::Document> next() override {
    return inner_.next();
  }
  std::size_t size_hint() const override { return inner_.size_hint(); }

 private:
  core::OwnedVectorSource inner_;
  std::atomic<bool>* destroyed_;
};

TEST(ParseServiceTest, TerminalJobsReleaseTheirDocuments) {
  ServiceConfig config;
  config.dispatchers = 1;
  config.slice_batches = 1;
  config.pool_threads = 2;
  ParseService service(config, nullptr, shared_improver());
  const auto docs = mixed_corpus(40, 919);

  // Completed: the handle stays valid for status and results, but the
  // documents are gone once the job is terminal.
  std::atomic<bool> completed_released{false};
  JobRequest request;
  request.spec.tenant = "keep";
  request.spec.engine = ft_config(/*batch_size=*/16);
  request.source =
      std::make_unique<FlagOnDestroySource>(docs, &completed_released);
  const JobHandle job = service.submit(std::move(request));
  job->wait();
  service.drain();  // the dispatcher has returned from the final slice
  ASSERT_EQ(job->state(), JobState::kCompleted);
  EXPECT_TRUE(completed_released.load());
  EXPECT_EQ(job->progress().docs_total_hint, docs.size());
  EXPECT_EQ(job->take_results().size(), docs.size());

  // Rejected at submission: released before submit() returns.
  std::atomic<bool> rejected_released{false};
  JobRequest llm;
  llm.spec.tenant = "keep";
  llm.spec.engine.variant = core::Variant::kLlm;  // no predictor: rejected
  llm.source = std::make_unique<FlagOnDestroySource>(docs, &rejected_released);
  const JobHandle rejected = service.submit(std::move(llm));
  EXPECT_EQ(rejected->state(), JobState::kRejected);
  EXPECT_TRUE(rejected_released.load());
}

// ---------------------------------------------- service: cancellation ----

TEST(ParseServiceTest, CancellingARunningJobKeepsOtherJobsIntact) {
  // A long generated stream for tenant "big"; a normal job for "small".
  doc::GeneratorConfig generated = doc::benchmark_config(4000, 444);
  const auto docs_small = mixed_corpus(96, 555);

  ServiceConfig config;
  config.dispatchers = 1;
  config.slice_batches = 1;
  config.quantum_docs = 16;
  config.pool_threads = 4;
  ParseService service(config, nullptr, shared_improver());

  JobRequest big;
  big.spec.tenant = "big";
  big.spec.engine = ft_config(16);
  big.source = std::make_unique<core::GeneratorSource>(generated);
  auto job_big = service.submit(std::move(big));
  auto job_small = service.submit(make_request("small", docs_small, 16));

  // Let the big job make some progress, then cancel it mid-run.
  for (int i = 0; i < 2000 && job_big->progress().docs_completed == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GT(job_big->progress().docs_completed, 0U);
  job_big->cancel();
  job_big->wait();
  EXPECT_EQ(job_big->state(), JobState::kCancelled);
  const auto big_progress = job_big->progress();
  EXPECT_LT(big_progress.docs_completed, 4000U);  // stopped early
  EXPECT_GT(big_progress.latency_seconds, 0.0);

  // The other tenant's job is untouched: complete and correct.
  job_small->wait();
  ASSERT_EQ(job_small->state(), JobState::kCompleted);
  const auto results = job_small->take_results();
  ASSERT_EQ(results.size(), docs_small.size());
  const core::AdaParseEngine engine(ft_config(16), nullptr,
                                    shared_improver());
  const auto reference = engine.run(docs_small);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].record.to_json().dump(),
              reference.records[i].to_json().dump());
  }
  // Cancelled partial results are retained, in order.
  const auto partial = job_big->take_results();
  EXPECT_EQ(partial.size(), big_progress.docs_completed);
  for (std::size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(partial[i].index, i);
  }
}

TEST(ParseServiceTest, CancellingQueuedJobsReleasesAdmissionCapacity) {
  // Jobs cancelled while still queued must be reaped without waiting for
  // their fair-share turn: their resident-work charge is released, so the
  // watermark stops rejecting other tenants' submits.
  const auto docs = mixed_corpus(40, 999);
  doc::GeneratorConfig long_job = doc::benchmark_config(4000, 123);

  ServiceConfig config;
  config.dispatchers = 1;
  config.max_resident_documents = 4050;
  config.pool_threads = 4;
  ParseService service(config, nullptr, shared_improver());

  // Keep the dispatcher cycling on a long-running tenant.
  JobRequest busy;
  busy.spec.tenant = "busy";
  busy.spec.engine = ft_config(16);
  busy.source = std::make_unique<core::GeneratorSource>(long_job);
  auto job_busy = service.submit(std::move(busy));  // resident: 4000

  auto queued = service.submit(make_request("other", docs, 16));  // 4040
  ASSERT_NE(queued->state(), JobState::kRejected);
  auto rejected = service.submit(make_request("other", docs, 16));  // 4080+40
  ASSERT_EQ(rejected->state(), JobState::kRejected);

  queued->cancel();
  queued->wait();  // reaped between the busy tenant's slices
  EXPECT_EQ(queued->state(), JobState::kCancelled);

  // Capacity came back: the same submit that was just shed now admits.
  auto retry = service.submit(make_request("other", docs, 16));
  EXPECT_NE(retry->state(), JobState::kRejected);

  job_busy->cancel();
  service.drain();
}

TEST(ParseServiceTest, ShutdownCancelsQueuedJobsAndDrainsCleanly) {
  const auto docs = mixed_corpus(16, 666);
  ServiceConfig config;
  config.dispatchers = 1;
  config.pool_threads = 4;
  ParseService service(config, nullptr, shared_improver());

  auto gate_source = std::make_unique<GateSource>(docs);
  GateSource* gate = gate_source.get();
  JobRequest blocked;
  blocked.spec.tenant = "x";
  blocked.spec.engine = ft_config(16);
  blocked.source = std::move(gate_source);
  auto running = service.submit(std::move(blocked));
  auto queued = service.submit(make_request("x", docs, 16));

  for (int i = 0; i < 500 && service.running_jobs() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  gate->open();  // let the in-flight slice finish; shutdown joins it
  service.shutdown();

  EXPECT_TRUE(job_state_terminal(running->state()));
  EXPECT_EQ(queued->state(), JobState::kCancelled);
  EXPECT_NE(queued->error().find("shutdown"), std::string::npos);

  // Submits after shutdown are shed, not queued.
  auto late = service.submit(make_request("x", docs, 16));
  EXPECT_EQ(late->state(), JobState::kRejected);
}

TEST(ParseServiceTest, DeadlineDrainReturnsEmptyWhenServiceGoesIdle) {
  const auto docs = mixed_corpus(32, 1234);
  ServiceConfig config;
  config.dispatchers = 1;
  config.pool_threads = 4;
  ParseService service(config, nullptr, shared_improver());

  auto job = service.submit(make_request("x", docs, 16));
  const auto unfinished = service.drain(std::chrono::seconds(30));
  EXPECT_TRUE(unfinished.empty());
  EXPECT_EQ(job->state(), JobState::kCompleted);
  EXPECT_EQ(service.queued_jobs(), 0U);
  EXPECT_EQ(service.running_jobs(), 0U);
}

TEST(ParseServiceTest, DeadlineDrainCancelsStragglersAndReturnsTheirIds) {
  // A scripted latency spike makes every document cost ~20 ms of wall
  // time, so these jobs cannot finish inside the drain deadline; the drain
  // must cancel them, settle, and report exactly the unfinished ids.
  const auto docs = mixed_corpus(128, 4321);
  ServiceConfig config;
  config.dispatchers = 1;
  config.slice_batches = 1;
  config.pool_threads = 4;
  FaultPlan::LatencySpike spike;
  spike.per_doc_delay = std::chrono::milliseconds(20);
  config.fault_plan.latency_spikes.push_back(spike);
  ParseService service(config, nullptr, shared_improver());

  auto slow = service.submit(make_request("x", docs, 16));
  auto queued = service.submit(make_request("x", docs, 16));
  ASSERT_FALSE(job_state_terminal(slow->state()));

  const auto unfinished = service.drain(std::chrono::milliseconds(100));
  ASSERT_EQ(unfinished.size(), 2U);

  // Both jobs are terminal (cancelled mid-flight, partial results kept)
  // and the service really is idle afterwards — drain settled, not bailed.
  EXPECT_EQ(slow->state(), JobState::kCancelled);
  EXPECT_EQ(queued->state(), JobState::kCancelled);
  EXPECT_EQ(service.queued_jobs(), 0U);
  EXPECT_EQ(service.running_jobs(), 0U);
  EXPECT_EQ(service.resident_documents(), 0U);

  // The service stays usable after a deadline drain: a tiny job clears
  // even with the spike still active (4 docs x 20 ms).
  auto after = service.submit(make_request("x", mixed_corpus(4, 9), 4));
  after->wait();
  EXPECT_EQ(after->state(), JobState::kCompleted);
}

TEST(ParseServiceTest, DeadlineShutdownCancelsAndRefusesNewWork) {
  const auto docs = mixed_corpus(128, 5678);
  ServiceConfig config;
  config.dispatchers = 1;
  config.pool_threads = 4;
  FaultPlan::LatencySpike spike;
  spike.per_doc_delay = std::chrono::milliseconds(20);
  config.fault_plan.latency_spikes.push_back(spike);
  ParseService service(config, nullptr, shared_improver());

  auto slow = service.submit(make_request("x", docs, 16));
  const auto unfinished = service.shutdown(std::chrono::milliseconds(50));
  ASSERT_EQ(unfinished.size(), 1U);
  EXPECT_EQ(slow->state(), JobState::kCancelled);

  auto late = service.submit(make_request("x", docs, 16));
  EXPECT_EQ(late->state(), JobState::kRejected);
}

// ------------------------------------------------- shared warm cache ----

TEST(ParseServiceTest, ManyConcurrentJobsShareOneWarmModelLoad) {
  // Satellite: WarmModelCache::get_or_load under service concurrency —
  // every job routes documents to Nougat, yet the model loads exactly once
  // service-wide (the paper's persist-beyond-task-boundary mechanism).
  const auto docs = mixed_corpus(64, 777);
  ServiceConfig config;
  config.dispatchers = 2;  // concurrent slices contend for the cache
  config.slice_batches = 1;
  config.pool_threads = 8;
  ParseService service(config, nullptr, shared_improver());

  std::vector<JobHandle> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(service.submit(
        make_request("tenant" + std::to_string(i % 3), docs, 16,
                     /*alpha=*/0.3)));
  }
  std::size_t upgraded = 0;
  for (auto& job : jobs) {
    job->wait();
    ASSERT_EQ(job->state(), JobState::kCompleted);
    upgraded += job->stats().routed_to_nougat;
  }
  ASSERT_GT(upgraded, 1U);  // the expensive lane ran many times...
  const auto cache_stats = service.warm_cache().stats("nougat");
  EXPECT_EQ(cache_stats.loads, 1U);  // ...but the model loaded once
  EXPECT_GE(cache_stats.hits, upgraded - 1);
}

// ------------------------------------------------------ service metrics ----

TEST(ParseServiceTest, MetricsTrackJobsAndRenderPrometheus) {
  const auto docs = mixed_corpus(64, 888);
  ServiceConfig config;
  config.dispatchers = 1;
  config.pool_threads = 4;
  ParseService service(config, nullptr, shared_improver());

  service.submit(make_request("acme", docs, 16))->wait();
  service.submit(make_request("acme", docs, 16))->wait();
  service.drain();

  const auto snap = service.metrics();
  ASSERT_EQ(snap.tenants.size(), 1U);
  const auto& acme = snap.tenants[0];
  EXPECT_EQ(acme.jobs_submitted, 2U);
  EXPECT_EQ(acme.jobs_completed, 2U);
  EXPECT_EQ(acme.docs_completed, 2 * docs.size());
  EXPECT_GT(acme.latency_p50_seconds, 0.0);
  EXPECT_LE(acme.latency_p50_seconds, acme.latency_p99_seconds);
  EXPECT_GT(acme.throughput_docs_per_second, 0.0);
  EXPECT_GE(acme.queue_wait_mean_seconds, 0.0);

  const auto text = service.metrics_text();
  EXPECT_NE(text.find("adaparse_serve_jobs_total{tenant=\"acme\","
                      "outcome=\"completed\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("adaparse_serve_uptime_seconds"), std::string::npos);
}

}  // namespace
}  // namespace adaparse::serve
