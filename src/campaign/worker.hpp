// The worker half of a campaign: one shard attempt, and the task loop that
// runs attempts for the coordinator — on a worker thread or inside a
// forked worker process (see campaign/transport.hpp).
//
// ShardExecutor is the attempt logic: read (or re-stage) the shard file,
// filter the quarantine list, apply scripted faults, drive the documents
// through a core::Pipeline, and serialize the shard's output with
// deterministic quarantine stand-ins. Because both transports run exactly
// this code against the same shard plan, a campaign's output is
// byte-identical across modes — and a run killed in one mode resumes in
// the other.
//
// run_worker_tasks() is the task loop both transports share: it reads
// framed task messages from the coordinator, streams per-record heartbeats
// back, writes shard outputs via the atomic-rename protocol, and reports
// results. worker_main() is the forked child's entry: a fork-only prologue,
// then the same loop. In a worker process, scripted WorkerCrash faults
// raise a *real* SIGKILL on the worker — the kill/resume guarantees are
// proven against genuine process death, not a simulated halt.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/runner.hpp"

namespace adaparse::sched {
class ThreadPool;
class WarmModelCache;
}  // namespace adaparse::sched

namespace adaparse::campaign {

/// Shard/output file paths inside a campaign directory (shared by the
/// runner, the coordinator, and the workers).
std::string shard_file_path(const std::string& dir, std::size_t index);
std::string shard_output_file_path(const std::string& dir, std::size_t index);

/// What one shard attempt produced.
struct AttemptOutcome {
  enum class Kind { kSuccess, kFailed, kCancelled };
  Kind kind = Kind::kFailed;
  std::string output;            ///< serialized JSONL (success only)
  std::size_t records = 0;       ///< lines in `output`
  std::size_t quarantined_in_shard = 0;
  std::string failed_doc_id;     ///< document a failed attempt died on
  double wall_seconds = 0.0;
  bool restaged = false;         ///< shard file was corrupt; rebuilt
};

/// Everything needed to execute shard attempts, bundled so a forked child
/// inherits it by memory image. Worker threads point `pool` and
/// `warm_cache` at one pair shared by all of them; a worker process owns a
/// private pair sized for one attempt.
struct ShardExecutor {
  const core::AdaParseEngine* engine = nullptr;
  const CampaignConfig* config = nullptr;
  std::vector<std::size_t> shard_docs;  ///< documents per shard (the plan)
  CampaignRunner::SourceFactory source;
  sched::ThreadPool* pool = nullptr;
  sched::WarmModelCache* warm_cache = nullptr;
  /// Worker processes set this: a scripted WorkerCrash SIGKILLs the
  /// process at its fault point instead of simulating the death.
  bool real_crashes = false;

  /// Runs one attempt. `quarantined` is the quarantine list snapshot the
  /// attempt builds against (doc ids, order irrelevant). `on_record`, when
  /// set, fires after each record reaches the sink with the in-order
  /// emitted count — the worker process's heartbeat hook.
  AttemptOutcome run_attempt(
      std::size_t shard, std::size_t attempt,
      const std::vector<std::string>& quarantined,
      const std::atomic<bool>* cancel,
      const std::function<void(std::size_t)>& on_record) const;

  /// Replays the source to rebuild one shard's documents (corrupt-shard
  /// re-staging, quarantine attribution). Throws if the source shrank.
  std::vector<doc::Document> load_shard_docs(std::size_t shard) const;
};

/// How a worker thread is stopped from outside. A forked worker needs
/// neither field: SIGKILL stops it, and the coordinator writes it off only
/// once waitpid has reaped it.
struct WorkerStop {
  /// Cancels the running attempt and ends the task loop.
  std::atomic<bool> cancel{false};
  /// Held around the cancel check and the rename of a shard output, so a
  /// worker written off while still running can never overwrite a shard
  /// another worker has committed since.
  std::mutex publish;
};

/// The worker task loop: reads kTask/kRevoke/kShutdown frames from
/// `task_fd`, writes kHeartbeat/kResult frames to `result_fd`. Returns 0
/// on shutdown, coordinator EOF or `stop->cancel`, nonzero when an attempt
/// throws (the coordinator requeues the work). Never throws. `stop` is null
/// in a forked worker; `after_result`, if set, runs after every result.
int run_worker_tasks(const ShardExecutor& executor, int task_fd,
                     int result_fd, WorkerStop* stop,
                     const std::function<void()>& after_result);

/// Entry point of a forked worker process: re-stamps the tracer, records
/// the boot span, builds a private pool and warm cache, turns scripted
/// crashes into real SIGKILLs, then runs run_worker_tasks, flushing its
/// spans over kSpans frames after every result.
int worker_main(const ShardExecutor& executor, int task_fd, int result_fd);

}  // namespace adaparse::campaign
