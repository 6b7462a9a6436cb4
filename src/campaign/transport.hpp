// How a campaign::Coordinator runs its workers.
//
// The coordinator speaks to every worker the same way: kTask/kRevoke/
// kShutdown frames down one proc::Pipe, kHeartbeat/kResult(/kSpans) frames
// up another, read by one poll() loop. A transport decides only where the
// worker's task loop (run_worker_tasks) runs:
//
//   fork     a forked child process with a private pool and warm cache;
//            scripted crashes are real SIGKILLs, deaths are seen by waitpid
//   threads  a std::thread in this process; all threads share one pool and
//            warm cache; scripted crashes report a failed attempt
//
// A WorkerLink is the coordinator's handle on one running worker: try_reap
// is its death detector, kill its forced stop, wait its final join.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/worker.hpp"
#include "proc/pipe.hpp"

namespace adaparse::campaign {

class WorkerLink {
 public:
  WorkerLink() = default;
  virtual ~WorkerLink() = default;
  WorkerLink(const WorkerLink&) = delete;
  WorkerLink& operator=(const WorkerLink&) = delete;

  /// Names the worker in trace args: the pid of a process, the spawn
  /// ordinal of a thread.
  virtual std::uint64_t id() const = 0;

  /// Nonblocking. True exactly once, when the worker is gone: exited, or
  /// killed. A killed thread is written off at once, even while it still
  /// runs; it can no longer publish a shard output and is joined by wait().
  virtual bool try_reap() = 0;

  /// Forced stop: SIGKILL for a process, the cancel flag for a thread.
  virtual void kill() = 0;

  /// Blocks until the worker has stopped. The caller closes its pipe ends
  /// first, so a thread blocked on a full result pipe gets EPIPE.
  virtual void wait() = 0;
};

class WorkerTransport {
 public:
  WorkerTransport() = default;
  virtual ~WorkerTransport() = default;
  WorkerTransport(const WorkerTransport&) = delete;
  WorkerTransport& operator=(const WorkerTransport&) = delete;

  /// Starts one worker that reads tasks from `tasks` and writes results to
  /// `results`. On return the caller holds only tasks.write_fd() and
  /// results.read_fd(); the worker owns the other two ends.
  /// `foreign_fds` are the caller's ends of other workers' pipes, which a
  /// forked child must close.
  virtual std::unique_ptr<WorkerLink> spawn(
      const ShardExecutor& executor, proc::Pipe& tasks, proc::Pipe& results,
      const std::vector<int>& foreign_fds) = 0;
};

/// The transport `config.execution` selects: threads for kInProcess (with
/// one pool of workers * (extract_workers + upgrade_workers) threads and
/// one warm cache), forked processes for kMultiProcess.
std::unique_ptr<WorkerTransport> make_worker_transport(
    const CampaignConfig& config);

}  // namespace adaparse::campaign
