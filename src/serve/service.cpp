#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "core/pipeline.hpp"
#include "obs/trace.hpp"

namespace adaparse::serve {
namespace {

/// Serves at most `limit` documents from the job's source — the slice the
/// scheduler granted. Remembers whether the underlying stream ended so the
/// dispatcher can tell "slice full" from "job done".
class LimitSource final : public core::DocumentSource {
 public:
  LimitSource(core::DocumentSource& inner, std::size_t limit)
      : inner_(inner), limit_(limit) {}

  std::shared_ptr<const doc::Document> next() override {
    if (pulled_ >= limit_) return nullptr;
    auto doc = inner_.next();
    if (!doc) {
      exhausted_ = true;
      return nullptr;
    }
    ++pulled_;
    return doc;
  }

  std::size_t pulled() const { return pulled_; }
  bool exhausted() const { return exhausted_; }

 private:
  core::DocumentSource& inner_;
  std::size_t limit_;
  std::size_t pulled_ = 0;
  bool exhausted_ = false;
};

std::size_t resolve_pool_threads(const ServiceConfig& config) {
  std::size_t threads = config.pool_threads > 0
                            ? config.pool_threads
                            : std::max<std::size_t>(
                                  2, std::thread::hardware_concurrency());
  // Every concurrent slice needs its full worker complement (>= 1 extract
  // + 1 upgrade) runnable at once, or a pipeline stage could starve and
  // deadlock the slice — the shared-pool invariant of core::Pipeline.
  const std::size_t dispatchers =
      std::max<std::size_t>(1, config.dispatchers);
  return std::max(threads, 2 * dispatchers);
}

FairSchedulerConfig scheduler_config(const ServiceConfig& config) {
  FairSchedulerConfig sc;
  sc.quantum_docs = config.quantum_docs;
  sc.deadline_slack = config.deadline_slack;
  return sc;
}

void accumulate_stage(core::StageStats& into, const core::StageStats& slice) {
  into.busy_seconds += slice.busy_seconds;
  into.idle_seconds += slice.idle_seconds;
  into.items += slice.items;
  into.peak_queue_depth =
      std::max(into.peak_queue_depth, slice.peak_queue_depth);
}

void accumulate(core::EngineStats& into, const core::EngineStats& slice) {
  into.total_docs += slice.total_docs;
  into.cls1_invalid += slice.cls1_invalid;
  into.routed_to_nougat += slice.routed_to_nougat;
  into.accepted_extraction += slice.accepted_extraction;
  into.failed_docs += slice.failed_docs;
  into.classifier_cpu_seconds += slice.classifier_cpu_seconds;
  into.extraction_cpu_seconds += slice.extraction_cpu_seconds;
  into.nougat_gpu_seconds += slice.nougat_gpu_seconds;
  into.wall_seconds += slice.wall_seconds;
  into.pipeline.streaming = true;
  into.pipeline.cancelled |= slice.pipeline.cancelled;
  into.pipeline.queue_capacity = slice.pipeline.queue_capacity;
  into.pipeline.resident_window =
      std::max(into.pipeline.resident_window, slice.pipeline.resident_window);
  into.pipeline.peak_resident_extractions =
      std::max(into.pipeline.peak_resident_extractions,
               slice.pipeline.peak_resident_extractions);
  accumulate_stage(into.pipeline.prefetch, slice.pipeline.prefetch);
  accumulate_stage(into.pipeline.extract, slice.pipeline.extract);
  accumulate_stage(into.pipeline.route, slice.pipeline.route);
  accumulate_stage(into.pipeline.upgrade, slice.pipeline.upgrade);
  accumulate_stage(into.pipeline.write, slice.pipeline.write);
}

double seconds_between(ParseJob::Clock::time_point from,
                       ParseJob::Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

ParseService::ParseService(
    ServiceConfig config,
    std::shared_ptr<const core::AccuracyPredictor> predictor,
    std::shared_ptr<const core::Cls2Improver> improver)
    : config_(config),
      predictor_(std::move(predictor)),
      improver_(std::move(improver)),
      cache_(/*enabled=*/true),
      pool_(resolve_pool_threads(config)),
      scheduler_(scheduler_config(config)),
      started_at_(ParseJob::Clock::now()),
      wake_(256) {
  config_.dispatchers = std::max<std::size_t>(1, config_.dispatchers);
  config_.slice_batches = std::max<std::size_t>(1, config_.slice_batches);
  // Split the pool evenly across concurrent slices; favor extraction (the
  // paper's cheap-lane bulk) and keep one upgrade slot per slice unless
  // there is room for the pipeline's default of two.
  const std::size_t per_slice =
      std::max<std::size_t>(2, pool_.size() / config_.dispatchers);
  slice_upgrade_workers_ = per_slice >= 6 ? 2 : 1;
  slice_extract_workers_ = per_slice - slice_upgrade_workers_;

  cache_.set_retry_policy(config_.warm_cache_retry);
  if (!config_.fault_plan.model_load_faults.empty()) {
    // Scripted transient model-load failures: the first N cumulative load
    // attempts of a key fail, exercising the warm-cache retry path.
    cache_.set_load_failure_hook(
        [this](const std::string& key, std::size_t attempt) {
          return attempt <= config_.fault_plan.load_fail_attempts(key);
        });
  }

  // Controller and journal come up before any worker thread so a throwing
  // journal path cannot leak running dispatchers.
  if (config_.enable_slo_controller) {
    controller_ = std::make_unique<control::SloController>(config_.control);
    if (!config_.decision_journal_path.empty()) {
      journal_ = std::make_unique<control::DecisionJournal>(
          config_.decision_journal_path);
      journal_->append(controller_->config());  // the clamped config
    }
    ControlState state;
    state.enabled = true;
    metrics_.set_control_state(state);
  }

  dispatchers_.reserve(config_.dispatchers);
  for (std::size_t d = 0; d < config_.dispatchers; ++d) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
  if (controller_) {
    control_thread_ = std::thread([this] { control_loop(); });
  }
}

ParseService::~ParseService() { shutdown(); }

double ParseService::uptime_seconds() const {
  return std::chrono::duration<double>(ParseJob::Clock::now() - started_at_)
      .count();
}

std::size_t ParseService::slice_docs_for(const ParseJob& job) const {
  const std::size_t k =
      std::max<std::size_t>(1, job.engine_config().batch_size);
  return config_.slice_batches * k;
}

ScheduleItem ParseService::make_item(const JobHandle& job) const {
  ScheduleItem item;
  item.id = job->id();
  item.tenant = job->tenant();
  item.priority = job->priority();
  item.deadline = job->deadline();
  item.slice_cost = slice_docs_for(*job);
  item.job = job;
  return item;
}

JobHandle ParseService::submit(JobRequest request) {
  const auto now = ParseJob::Clock::now();
  const std::string tenant = request.spec.tenant;
  metrics_.on_submitted(tenant);

  // Wire path: no live source, so materialize one from the spec's
  // documents section. A bad spec becomes a rejection, not an exception —
  // the caller always gets a handle.
  std::string source_error;
  if (!request.source &&
      request.spec.documents != JobSpec::Documents::kNone) {
    try {
      request.source = request.spec.make_source();
    } catch (const std::exception& e) {
      source_error = std::string("spec: ") + e.what();
    }
  }

  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_job_id_++;
  }
  JobHandle job(new ParseJob(id, std::move(request), now));
  job->resident_estimate_ = std::max<std::size_t>(1, job->total_hint_);
  {
    auto& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
      tracer.instant("serve", "job.submit", "id", id, "docs_hint",
                     job->total_hint_, tracer.intern(tenant));
    }
  }

  const auto reject = [&](std::string reason) {
    // Never queued, so nothing else touches the source or the engine.
    job->source_.reset();
    job->engine_.reset();
    {
      std::lock_guard<std::mutex> lock(job->mutex_);
      job->state_ = JobState::kRejected;
      job->error_ = std::move(reason);
      job->finished_ = ParseJob::Clock::now();
      job->finished_set_ = true;
    }
    job->cv_.notify_all();
    metrics_.on_rejected(tenant);
    update_gauges();
    return job;
  };

  if (!source_error.empty()) return reject(std::move(source_error));
  if (!job->source_) return reject("no document source");
  try {
    job->engine_ = std::make_unique<core::AdaParseEngine>(
        job->engine_config_, predictor_, improver_);
  } catch (const std::exception& e) {
    return reject(std::string("engine: ") + e.what());
  }

  // Admission control: shed load once either watermark is exceeded, so
  // queue depth (and with it the queue-wait tail) stays bounded. At ladder
  // level admission-tight the SLO guardian scales the watermarks down for
  // submissions below the protected priority — load shedding starts at the
  // door, and protected tenants keep their full headroom.
  std::size_t max_queued = config_.max_queued_jobs;
  std::size_t max_resident = config_.max_resident_documents;
  if (controller_ && job->priority() < config_.control.protected_priority) {
    const double scale = admission_scale_.load(std::memory_order_relaxed);
    max_queued = static_cast<std::size_t>(
        static_cast<double>(max_queued) * scale);
    max_resident = static_cast<std::size_t>(
        static_cast<double>(max_resident) * scale);
  }
  std::string reject_reason;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_ || stopping_.load(std::memory_order_relaxed)) {
      reject_reason = "service shutdown";
    } else if (scheduler_.queued() >= max_queued) {
      reject_reason = "admission: queued-jobs watermark";
    } else if (resident_docs_ + job->resident_estimate_ > max_resident) {
      reject_reason = "admission: resident-work watermark";
    } else {
      resident_docs_ += job->resident_estimate_;
      active_jobs_.emplace(job->id(), job);
      scheduler_.enqueue(make_item(job));
    }
  }
  if (!reject_reason.empty()) return reject(std::move(reject_reason));
  wake_.try_push(0);
  update_gauges();
  return job;
}

void ParseService::set_tenant_weight(const std::string& tenant,
                                     double weight) {
  std::lock_guard<std::mutex> lock(mutex_);
  scheduler_.set_weight(tenant, weight);
}

void ParseService::set_job_paused(const JobHandle& job, bool paused) {
  if (!job) return;
  job->paused_.store(paused, std::memory_order_relaxed);
  if (paused) {
    // The dispatchers' park pass (or the requeue path) moves the job out
    // of the scheduler at its next touch; nudge them so a queued job is
    // parked promptly rather than at the next natural wake.
    wake_.try_push(0);
    return;
  }
  bool resumed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = parked_.find(job->id());
    if (it != parked_.end()) {
      scheduler_.requeue(std::move(it->second));
      parked_.erase(it);
      resumed = true;
    }
  }
  if (resumed) wake_.try_push(0);
}

std::size_t ParseService::queued_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return scheduler_.queued();
}

std::size_t ParseService::running_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

std::size_t ParseService::resident_documents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_docs_;
}

std::size_t ParseService::parked_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return parked_.size();
}

void ParseService::update_gauges() const {
  std::size_t queued, running, resident;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queued = scheduler_.queued();
    running = running_;
    resident = resident_docs_;
  }
  metrics_.set_gauges(queued, running, resident);
}

MetricsSnapshot ParseService::metrics() const {
  update_gauges();
  return metrics_.snapshot();
}

std::string ParseService::metrics_text() const {
  update_gauges();
  return metrics_.render_prometheus();
}

void ParseService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return scheduler_.empty() && running_ == 0; });
}

std::vector<std::uint64_t> ParseService::drain(
    std::chrono::milliseconds deadline) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (idle_cv_.wait_for(lock, deadline, [this] {
          return scheduler_.empty() && running_ == 0;
        })) {
      return {};
    }
  }
  // Deadline missed: cancel everything still outstanding. Cancellation is
  // cooperative — in-flight slices stop admitting documents and drain what
  // they already hold, queued jobs are reaped by the dispatchers — so the
  // follow-up wait is bounded by one slice's drain, not by the backlog.
  std::vector<JobHandle> outstanding;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    outstanding.reserve(active_jobs_.size());
    for (const auto& [id, handle] : active_jobs_) {
      outstanding.push_back(handle);
    }
  }
  std::vector<std::uint64_t> unfinished;
  unfinished.reserve(outstanding.size());
  for (const JobHandle& job : outstanding) {
    if (job_state_terminal(job->state())) continue;  // beat us to the line
    unfinished.push_back(job->id());
    job->cancel();
  }
  wake_.try_push(0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock,
                  [this] { return scheduler_.empty() && running_ == 0; });
  }
  return unfinished;
}

void ParseService::stop_controller() {
  if (!control_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    control_stop_ = true;
  }
  control_cv_.notify_all();
  control_thread_.join();
}

void ParseService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  stop_controller();
  stopping_.store(true, std::memory_order_relaxed);
  wake_.close();
  for (auto& dispatcher : dispatchers_) dispatcher.join();
  std::vector<ScheduleItem> leftovers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftovers = scheduler_.take_all();
    for (auto& [id, item] : parked_) leftovers.push_back(std::move(item));
    parked_.clear();
  }
  for (auto& item : leftovers) {
    finalize(item.job, JobState::kCancelled, "service shutdown");
  }
  pool_.shutdown();
  update_gauges();
}

std::vector<std::uint64_t> ParseService::shutdown(
    std::chrono::milliseconds deadline) {
  auto unfinished = drain(deadline);
  shutdown();
  return unfinished;
}

void ParseService::dispatcher_loop() {
  for (;;) {
    // The wake channel makes fresh submits immediate; its timeout bounds
    // how stale a shutdown or cancel check can get (satellite: pop_for).
    (void)wake_.pop_for(config_.dispatch_poll);
    if (stopping_.load(std::memory_order_relaxed)) return;

    // Reap jobs cancelled while still queued or parked: finalizing them
    // here (instead of when their fair-share turn would have come)
    // releases their admission capacity immediately, so cancelled work
    // cannot keep the watermarks tripped against other tenants. The same
    // pass parks queued jobs whose connection backpressured them
    // (set_job_paused) — cancel wins over pause.
    std::vector<ScheduleItem> reaped;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      reaped = scheduler_.take_if([](const ScheduleItem& item) {
        return item.job &&
               item.job->cancel_.load(std::memory_order_relaxed);
      });
      for (auto it = parked_.begin(); it != parked_.end();) {
        if (it->second.job &&
            it->second.job->cancel_.load(std::memory_order_relaxed)) {
          reaped.push_back(std::move(it->second));
          it = parked_.erase(it);
        } else {
          ++it;
        }
      }
      auto to_park = scheduler_.take_if([](const ScheduleItem& item) {
        return item.job &&
               item.job->paused_.load(std::memory_order_relaxed);
      });
      for (auto& item : to_park) {
        const std::uint64_t id = item.id;
        parked_.emplace(id, std::move(item));
      }
    }
    for (const auto& item : reaped) {
      finalize(item.job, JobState::kCancelled, "");
    }

    JobHandle job;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto item = scheduler_.next(ParseJob::Clock::now());
      if (item) {
        job = std::move(item->job);
        ++running_;
      }
    }
    if (!job) continue;
    update_gauges();

    run_slice(job);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
    }
    idle_cv_.notify_all();
    update_gauges();
    // More work may be queued (including this job's next slice); keep the
    // dispatchers hot instead of waiting out the poll timeout.
    wake_.try_push(0);
  }
}

void ParseService::run_slice(const JobHandle& job) {
  ParseJob& j = *job;

  if (j.cancel_.load(std::memory_order_relaxed)) {
    finalize(job, JobState::kCancelled, "");
    return;
  }

  // First slice: queued -> running, and the queue-wait sample.
  {
    std::lock_guard<std::mutex> lock(j.mutex_);
    if (j.state_ == JobState::kQueued) {
      j.state_ = JobState::kRunning;
      j.started_ = ParseJob::Clock::now();
      j.started_set_ = true;
      metrics_.on_started(j.tenant_,
                          seconds_between(j.submitted_, j.started_));
    }
  }

  const std::size_t planned = slice_docs_for(j);
  const std::size_t base = j.docs_pulled_;
  LimitSource slice_source(*j.source_, planned);

  obs::SpanGuard slice_span("serve", "job.slice", "id", j.id());
  if (slice_span.active()) {
    slice_span.tag(obs::Tracer::instance().intern(j.tenant_));
  }

  core::PipelineConfig pipeline_config;
  pipeline_config.queue_capacity = config_.queue_capacity;
  pipeline_config.extract_workers = slice_extract_workers_;
  pipeline_config.upgrade_workers = slice_upgrade_workers_;
  pipeline_config.pool = &pool_;
  pipeline_config.warm_cache = &cache_;
  pipeline_config.cancel = &j.cancel_;
  // The SLO guardian's budget actuator: only controller-enabled services
  // set the hook, so everything else routes byte-identically.
  if (controller_) pipeline_config.alpha_scale = &alpha_scale_;
  const core::Pipeline pipeline(*j.engine_, pipeline_config);

  core::EngineStats slice_stats;
  bool failed = false;
  std::string error;
  // The sink runs on the slice's writer thread only, so this counter needs
  // no lock; the registry is charged once per slice, not per record (the
  // sink is the ordered-emit hot path, shared-mutex-free by design).
  std::size_t slice_docs_done = 0;
  try {
    slice_stats = pipeline.run(
        slice_source,
        [&](std::size_t index, const io::ParseRecord& record,
            const core::RouteDecision& decision) {
          const bool upgraded =
              decision.chosen == parsers::ParserKind::kNougat;
          JobRecord out;
          out.index = base + index;
          out.record = record;
          out.decision = decision;
          // Slice-local indices become corpus-global ones, matching what
          // a standalone run would have produced.
          out.decision.doc_index = base + decision.doc_index;
          std::shared_ptr<const std::function<void()>> notify;
          {
            std::lock_guard<std::mutex> lock(j.mutex_);
            j.pending_.push_back(std::move(out));
            ++j.docs_completed_;
            notify = j.notify_;
          }
          // Progress hook fires outside the job lock (it may wake an
          // event loop, which must never re-enter the job).
          if (notify) (*notify)();
          ++slice_docs_done;
          // Scripted latency spikes land on the writer thread, after the
          // record is safely delivered: the slice slows down end-to-end
          // (backpressuring its stages exactly like a genuinely slow
          // consumer) without ever losing a document.
          if (!config_.fault_plan.latency_spikes.empty()) {
            const auto delay = config_.fault_plan.delay_for(
                j.tenant_, upgraded, uptime_seconds());
            if (delay.count() > 0) std::this_thread::sleep_for(delay);
          }
        });
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  } catch (...) {
    failed = true;
    error = "unknown slice error";
  }
  slice_span.arg("docs", slice_docs_done);
  j.docs_pulled_ += slice_source.pulled();
  if (slice_docs_done > 0) {
    metrics_.on_docs_completed(j.tenant_, slice_docs_done);
  }
  if (!failed) {
    std::lock_guard<std::mutex> lock(j.mutex_);
    accumulate(j.stats_, slice_stats);
  }

  // Return unused credit for a short (usually final) slice.
  if (slice_source.pulled() < planned) {
    std::lock_guard<std::mutex> lock(mutex_);
    scheduler_.refund(j.tenant_, planned - slice_source.pulled());
  }

  if (failed) {
    finalize(job, JobState::kFailed, std::move(error));
  } else if (j.cancel_.load(std::memory_order_relaxed)) {
    finalize(job, JobState::kCancelled, "");
  } else if (slice_source.exhausted()) {
    finalize(job, JobState::kCompleted, "");
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    if (j.paused_.load(std::memory_order_relaxed)) {
      // Backpressured mid-job: the next slice waits for the connection to
      // drain instead of producing records nobody can take yet.
      parked_.emplace(j.id(), make_item(job));
    } else {
      scheduler_.requeue(make_item(job));
    }
  }
}

void ParseService::finalize(const JobHandle& job, JobState state,
                            std::string error) {
  ParseJob& j = *job;
  double latency;
  std::shared_ptr<const std::function<void()>> notify;
  {
    std::lock_guard<std::mutex> lock(j.mutex_);
    if (job_state_terminal(j.state_)) return;  // already settled
    j.state_ = state;
    j.error_ = std::move(error);
    j.finished_ = ParseJob::Clock::now();
    j.finished_set_ = true;
    latency = seconds_between(j.submitted_, j.finished_);
    notify = j.notify_;
  }
  j.cv_.notify_all();
  if (notify) (*notify)();
  {
    auto& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
      tracer.instant("serve", "job.complete", "id", j.id(), "state",
                     static_cast<std::uint64_t>(state),
                     tracer.intern(job_state_name(state)));
    }
  }
  switch (state) {
    case JobState::kCompleted:
      metrics_.on_completed(j.tenant_, latency);
      break;
    case JobState::kCancelled:
      metrics_.on_cancelled(j.tenant_, latency);
      break;
    case JobState::kFailed:
      metrics_.on_failed(j.tenant_, latency);
      break;
    default:
      break;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    resident_docs_ -= std::min(resident_docs_, j.resident_estimate_);
    active_jobs_.erase(j.id());
  }
  // A terminal job never runs again, but its handle can live on in the
  // status history: drop the documents and the engine now. Safe without a
  // lock because the caller holds the job's only schedule item, so no
  // slice is running (run_slice finalizes after pipeline.run returns).
  j.source_.reset();
  j.engine_.reset();
  idle_cv_.notify_all();
}

void ParseService::control_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(control_mutex_);
      control_cv_.wait_for(lock, config_.control_tick,
                           [this] { return control_stop_; });
      if (control_stop_) return;
    }
    control_tick();
  }
}

void ParseService::control_tick() {
  // Sensor read: the live counters and the latency window leave the
  // registry under ONE lock (set_gauges_and_sample), so the p95 and the
  // queue depth in a reading are from the same instant.
  std::size_t queued, running, resident;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queued = scheduler_.queued();
    running = running_;
    resident = resident_docs_;
  }
  const ControlSample sample =
      metrics_.set_gauges_and_sample(queued, running, resident);

  control::SensorReading reading;
  reading.tick = ++control_ticks_;
  reading.p95_micros = sample.p95_micros;
  reading.window_count = sample.window_count;
  reading.queued_jobs = sample.queued_jobs;
  reading.running_jobs = sample.running_jobs;
  reading.resident_documents = sample.resident_documents;

  const control::Decision decision = controller_->step(reading);

  // Actuate. The atomics are the lock-free hot-path reads (route-window
  // flush, admission check); the hedge switch rides the service mutex the
  // scheduler already lives under.
  alpha_scale_.store(controller_->alpha_scale(), std::memory_order_relaxed);
  admission_scale_.store(controller_->admission_scale(),
                         std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    scheduler_.set_deadline_boost_enabled(!controller_->hedge_suspended());
  }

  ControlState state;
  state.enabled = true;
  state.level = static_cast<std::size_t>(controller_->level());
  state.level_name = control::level_name(controller_->level());
  state.alpha_scale = controller_->alpha_scale();
  state.transitions_up = controller_->transitions_up();
  state.transitions_down = controller_->transitions_down();
  state.ticks = controller_->ticks_seen();
  metrics_.set_control_state(state);

  if (journal_) {
    control::TickRecord record;
    record.reading = reading;
    record.action = decision.action;
    record.level = decision.level;
    record.reason = decision.reason;
    journal_->append(record);
  }

  if (decision.action != control::Action::kHold) {
    auto& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
      tracer.instant("serve", "control.transition", "level", state.level,
                     "up",
                     decision.action == control::Action::kEscalate ? 1 : 0,
                     tracer.intern(decision.reason));
    }
  }
}

}  // namespace adaparse::serve
