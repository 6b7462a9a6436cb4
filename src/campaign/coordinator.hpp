// The campaign scheduler: one coordinator supervising N workers over pipes,
// for both execution modes.
//
// The coordinator owns the shard queue and the manifest; workers own
// nothing durable. Each worker gets a task channel (down) and a
// heartbeat/result channel (up), with shards pre-assigned up to
// CampaignConfig::worker_queue_depth so workers never idle on a dispatch
// round-trip. Where a worker runs — a forked process or a thread in this
// process — is the WorkerTransport's business (campaign/transport.hpp); the
// frames, the poll() loop and every decision below are the same for both.
// Supervision is a single-threaded loop:
//
//   reap        WorkerLink::try_reap every worker; a dead (or killed)
//               worker's uncommitted shards are requeued, its running
//               attempt counted as a measured recovery latency, and a
//               replacement spawned
//   heartbeats  a worker with assigned work but no message inside
//               heartbeat_timeout is presumed hung and killed (reap then
//               recovers it like any other death)
//   dispatch    fill worker queues from the pending deque; once it drains,
//               steal queued-but-unstarted shards back from the most
//               backlogged worker for idle ones (kRevoke, same attempt),
//               and hedge long-running shards — first commit wins
//   read        drain result pipes, decode frames, update progress, and
//               commit finished shards
//
// Commit protocol: the worker atomically renames the shard output into
// place, the coordinator verifies the file against the result's checksum
// and appends the shard record. Only the coordinator writes the manifest,
// so the journal needs no locking across workers.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/transport.hpp"
#include "campaign/worker.hpp"
#include "proc/pipe.hpp"
#include "proc/wire.hpp"

namespace adaparse::campaign {

class Coordinator {
 public:
  /// Applies a mutation to the runner's stats under the runner's mutex, so
  /// CampaignRunner::snapshot() stays coherent mid-run.
  using StatsUpdate =
      std::function<void(const std::function<void(CampaignStats&)>&)>;

  /// `executor` carries the engine/config/plan; the transport supplies the
  /// pool and warm cache. `pending` holds the uncommitted shard indices;
  /// every other shard is treated as already committed. The transport must
  /// outlive the coordinator.
  Coordinator(ShardExecutor executor, WorkerTransport& transport,
              ManifestWriter& manifest, std::deque<std::size_t> pending,
              std::vector<QuarantineRecord> quarantined, StatsUpdate update);

  /// Runs the supervision loop until every shard is committed or a
  /// scripted halt fires. Returns true when halted (resume to finish).
  /// Throws std::runtime_error when no worker can be kept alive.
  bool run();

 private:
  /// One dispatched attempt, mirrored coordinator-side.
  struct PendingTask {
    std::size_t shard = 0;
    std::size_t attempt = 0;
    bool hedge = false;
    std::chrono::steady_clock::time_point dispatched{};
    /// Quarantine list length the task was dispatched with; commits are
    /// stale if this shard gained a quarantine entry afterwards.
    std::size_t quarantine_snapshot = 0;
    std::size_t docs_done = 0;  ///< last heartbeat progress
  };

  struct Worker {
    // Declared first so it is destroyed last: our pipe ends close before a
    // thread worker is joined.
    std::unique_ptr<WorkerLink> link;
    proc::Pipe to_child;    ///< coordinator writes tasks
    proc::Pipe from_child;  ///< worker writes heartbeats/results
    proc::FrameDecoder decoder;
    std::deque<PendingTask> assigned;  ///< front = running, rest queued
    std::chrono::steady_clock::time_point last_message{};
    bool alive = false;
    bool kill_sent = false;  ///< heartbeat-timeout kill already fired
  };

  struct ShardInfo {
    enum class Phase { kPending, kRunning, kCommitted };
    Phase phase = Phase::kCommitted;
    std::size_t attempts_started = 0;
    std::size_t failures = 0;   ///< consecutive, since last quarantine
    std::size_t in_flight = 0;  ///< dispatched attempts not yet resolved
    bool hedged = false;
    std::chrono::steady_clock::time_point started{};
  };

  const CampaignConfig& config() const { return *executor_.config; }
  void update(const std::function<void(CampaignStats&)>& fn) { update_(fn); }
  std::size_t remaining() const;
  std::size_t alive_workers() const;

  void spawn_worker();
  void ensure_workers();
  void reap();
  void check_heartbeats();
  void kill_worker(Worker& worker);
  void dispatch();
  void start_attempt(Worker& worker, std::size_t shard, bool hedge);
  void send_task(Worker& worker, PendingTask task);
  std::optional<std::size_t> pick_hedge() const;
  void poll_and_read();
  void drain_worker(std::size_t index);
  void handle_message(std::size_t index, proc::Message message);
  void handle_result(const proc::Message& message, const PendingTask& task);
  void commit(const proc::Message& message, const PendingTask& task);
  void on_worker_lost(std::size_t index);
  void maybe_quarantine_crash_suspect(const PendingTask& task);
  void requeue(std::size_t shard);
  void shutdown_workers();

  ShardExecutor executor_;
  WorkerTransport& transport_;
  ManifestWriter& manifest_;
  std::deque<std::size_t> pending_;
  std::vector<QuarantineRecord> quarantined_;
  StatsUpdate update_;

  std::vector<ShardInfo> shards_;
  std::vector<Worker> workers_;
  std::vector<double> committed_seconds_;  ///< commit durations this run
  std::size_t commits_this_run_ = 0;
  std::size_t spawned_ = 0;
  bool halted_ = false;
};

}  // namespace adaparse::campaign
