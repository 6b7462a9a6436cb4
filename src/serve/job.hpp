// Jobs — the unit of work a serve::ParseService multiplexes.
//
// A job is one tenant's parse request: a DocumentSource plus the
// EngineConfig to run it under, with a priority (within the tenant) and an
// optional deadline (across tenants: deadline-near jobs are boosted by the
// scheduler). The service executes a job as a sequence of document slices
// through the shared streaming pipeline, so many jobs interleave on one
// worker pool; the handle exposes the full lifecycle
//
//   queued -> running -> completed | cancelled | failed
//                \-> rejected (admission controller, never queued)
//
// plus incremental result retrieval: records stream into the handle in
// strict input order as their slice completes, and take_results() drains
// whatever has accumulated since the last call.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/doc_source.hpp"
#include "core/engine.hpp"
#include "io/jsonl.hpp"
#include "serve/job_spec.hpp"

namespace adaparse::serve {

class ParseService;

enum class JobState : std::uint8_t {
  kQueued,     ///< admitted, waiting for its next slice to be scheduled
  kRunning,    ///< at least one slice executed, more remain
  kCompleted,  ///< source exhausted, every record emitted
  kCancelled,  ///< cooperatively stopped; partial results retained
  kRejected,   ///< refused by the admission controller, never queued
  kFailed,     ///< a slice threw; error() carries the message
};

/// The state's wire name ("queued", "running", ...) — part of the /v1
/// API vocabulary; these strings are frozen (see tests/http_test.cpp).
const char* job_state_name(JobState state);
/// Inverse of job_state_name; nullopt for any unknown spelling.
std::optional<JobState> job_state_parse(std::string_view name);
bool job_state_terminal(JobState state);

/// One parse request as submitted by a tenant: the serializable spec plus
/// an optional in-process document source. When `source` is null the
/// service materializes one from spec.make_source() (the wire path always
/// does this); a non-null source overrides the spec's documents section.
struct JobRequest {
  JobSpec spec;
  std::unique_ptr<core::DocumentSource> source;
};

/// One finished document, exactly as the engine would have produced it in
/// a standalone run of the same corpus/config. `index` is the document's
/// position in the job's source.
struct JobRecord {
  std::size_t index = 0;
  io::ParseRecord record;
  core::RouteDecision decision;
};

/// Point-in-time view of a job's lifecycle.
struct JobProgress {
  JobState state = JobState::kQueued;
  std::size_t docs_completed = 0;
  /// The source's size hint at submission (0 = unknown/unbounded).
  std::size_t docs_total_hint = 0;
  /// Seconds from submission to the first scheduled slice (0 until then).
  double queue_wait_seconds = 0.0;
  /// Seconds from submission to the terminal state (0 while active).
  double latency_seconds = 0.0;
};

/// Shared handle to a submitted job. Thread-safe; the service writes
/// results and state transitions, any number of client threads may poll,
/// wait, drain results, or cancel.
class ParseJob {
 public:
  using Clock = std::chrono::steady_clock;

  std::uint64_t id() const { return id_; }
  const std::string& tenant() const { return tenant_; }
  const core::EngineConfig& engine_config() const { return engine_config_; }
  int priority() const { return priority_; }
  std::optional<Clock::time_point> deadline() const { return deadline_; }

  JobState state() const;
  JobProgress progress() const;
  /// Rejection reason (kRejected) or slice error message (kFailed).
  std::string error() const;

  /// Requests cooperative cancellation: the current slice stops admitting
  /// documents (in-flight ones drain into the results), and the job is
  /// terminal at its next scheduling point. Already-retrieved and pending
  /// results are retained. No-op on terminal jobs.
  void cancel();

  /// Drains every record accumulated since the last call, in input order.
  std::vector<JobRecord> take_results();

  /// Blocks until the job reaches a terminal state.
  void wait() const;
  /// Waits up to `timeout`; true iff the job is terminal on return.
  bool wait_for(std::chrono::steady_clock::duration timeout) const;

  /// Engine statistics aggregated over every executed slice.
  core::EngineStats stats() const;

  /// Installs a progress hook invoked (outside the job lock) whenever new
  /// records land in the handle or the job reaches a terminal state. Used
  /// by the HTTP layer to wake its event loop instead of polling; pass
  /// nullptr to clear. The hook must be cheap and must not call back into
  /// the job or service.
  void set_notify(std::function<void()> fn);

 private:
  friend class ParseService;

  ParseJob(std::uint64_t id, JobRequest request, Clock::time_point now);

  // ---- immutable after construction ----
  std::uint64_t id_;
  std::string tenant_;
  core::EngineConfig engine_config_;
  int priority_;
  std::optional<Clock::time_point> deadline_;
  Clock::time_point submitted_;
  std::size_t total_hint_ = 0;

  // ---- service-side execution state (dispatcher-only, unsynchronized) ----
  /// Both are released when the job turns terminal (or is rejected), so a
  /// handle kept for status queries does not keep its documents alive.
  std::unique_ptr<core::DocumentSource> source_;
  std::unique_ptr<core::AdaParseEngine> engine_;
  std::size_t docs_pulled_ = 0;  ///< documents drawn from the source so far
  /// Documents this job charges against the resident-work watermark
  /// (max(1, size hint)); released when the job reaches a terminal state.
  std::size_t resident_estimate_ = 0;

  // ---- shared state ----
  std::atomic<bool> cancel_{false};
  /// Set by ParseService::set_job_paused (connection backpressure): a
  /// paused job's slices stop being scheduled; already-running slices
  /// finish normally.
  std::atomic<bool> paused_{false};
  /// Progress hook (see set_notify); shared_ptr so a concurrent
  /// set_notify(nullptr) cannot free it mid-call.
  std::shared_ptr<const std::function<void()>> notify_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  JobState state_ = JobState::kQueued;
  std::string error_;
  std::deque<JobRecord> pending_;  ///< emitted but not yet taken
  std::size_t docs_completed_ = 0;
  core::EngineStats stats_;  ///< summed over slices
  Clock::time_point started_;
  Clock::time_point finished_;
  bool started_set_ = false;
  bool finished_set_ = false;
};

using JobHandle = std::shared_ptr<ParseJob>;

}  // namespace adaparse::serve
