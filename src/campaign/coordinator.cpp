#include "campaign/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <csignal>
#include <stdexcept>
#include <thread>
#include <utility>

#include "io/doc_codec.hpp"
#include "io/fsio.hpp"
#include "obs/trace.hpp"

namespace adaparse::campaign {

Coordinator::Coordinator(ShardExecutor executor, WorkerTransport& transport,
                         ManifestWriter& manifest,
                         std::deque<std::size_t> pending,
                         std::vector<QuarantineRecord> quarantined,
                         StatsUpdate update)
    : executor_(std::move(executor)),
      transport_(transport),
      manifest_(manifest),
      pending_(std::move(pending)),
      quarantined_(std::move(quarantined)),
      update_(std::move(update)) {
  shards_.assign(executor_.shard_docs.size(), ShardInfo{});
  for (const std::size_t shard : pending_) {
    shards_[shard].phase = ShardInfo::Phase::kPending;
  }
}

std::size_t Coordinator::remaining() const {
  std::size_t count = 0;
  for (const ShardInfo& si : shards_) {
    if (si.phase != ShardInfo::Phase::kCommitted) ++count;
  }
  return count;
}

std::size_t Coordinator::alive_workers() const {
  std::size_t count = 0;
  for (const Worker& w : workers_) {
    if (w.alive) ++count;
  }
  return count;
}

bool Coordinator::run() {
  // A worker can die mid-write at any moment; its pipe must surface EPIPE,
  // not kill the coordinator.
  std::signal(SIGPIPE, SIG_IGN);
  ensure_workers();
  while (!halted_ && remaining() > 0) {
    reap();
    if (halted_) break;
    check_heartbeats();
    ensure_workers();
    dispatch();
    poll_and_read();
  }
  shutdown_workers();
  return halted_;
}

void Coordinator::spawn_worker() {
  Worker w;  // both Pipe constructors open their pairs
  std::vector<int> foreign_fds;
  for (const Worker& other : workers_) {
    for (const int fd :
         {other.to_child.write_fd(), other.from_child.read_fd()}) {
      if (fd >= 0) foreign_fds.push_back(fd);
    }
  }
  w.link = transport_.spawn(executor_, w.to_child, w.from_child, foreign_fds);
  proc::Pipe::set_nonblocking(w.from_child.read_fd());
  w.alive = true;
  w.last_message = std::chrono::steady_clock::now();
  obs::Tracer::instance().instant("campaign", "worker.spawn", "worker",
                                  w.link->id());
  workers_.push_back(std::move(w));
  ++spawned_;
  update([](CampaignStats& s) { ++s.workers_spawned; });
}

void Coordinator::ensure_workers() {
  const std::size_t target = std::min(config().workers, remaining());
  while (alive_workers() < target) {
    if (spawned_ >= config().workers + config().max_worker_respawns) {
      if (alive_workers() == 0) {
        throw std::runtime_error(
            "campaign: worker respawn budget exhausted with shards "
            "uncommitted — crash loop?");
      }
      return;
    }
    spawn_worker();
  }
}

void Coordinator::reap() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = workers_[i];
    if (!w.alive || !w.link->try_reap()) continue;
    // Drain what the worker wrote before dying: a result already in the
    // pipe may still commit (its output file landed before the message).
    drain_worker(i);
    on_worker_lost(i);
  }
}

void Coordinator::on_worker_lost(std::size_t index) {
  Worker& w = workers_[index];
  w.alive = false;
  const auto now = std::chrono::steady_clock::now();
  obs::Tracer::instance().instant(
      "campaign", "worker.death", "worker", w.link->id(), "queued",
      static_cast<std::uint64_t>(w.assigned.size()));
  update([](CampaignStats& s) { ++s.workers_died; });
  if (!w.assigned.empty()) {
    // The front task was the running one (workers are FIFO): the wall
    // since its dispatch is this fault's measured recovery latency.
    const PendingTask running = w.assigned.front();
    const double latency =
        std::chrono::duration<double>(now - running.dispatched).count();
    update([latency](CampaignStats& s) {
      s.recovery_wall_seconds += latency;
      s.recovery_latency_seconds.push_back(latency);
      ++s.attempts_failed;
    });
    if (!halted_) maybe_quarantine_crash_suspect(running);
  }
  for (const PendingTask& task : w.assigned) {
    ShardInfo& si = shards_[task.shard];
    if (si.in_flight > 0) --si.in_flight;
  }
  // Requeue only after every in_flight decrement, so a shard with a live
  // twin on another worker stays out of the pending queue.
  const std::vector<PendingTask> lost(w.assigned.begin(), w.assigned.end());
  w.assigned.clear();
  bool retried = false;
  for (const PendingTask& task : lost) {
    if (!halted_ && shards_[task.shard].phase != ShardInfo::Phase::kCommitted) {
      retried = true;
    }
    requeue(task.shard);
  }
  if (retried) {
    update([](CampaignStats& s) { ++s.shards_retried; });
  }
  w.to_child.close_write();
  w.to_child.close_read();
  w.from_child.close_read();
  w.from_child.close_write();
}

void Coordinator::maybe_quarantine_crash_suspect(const PendingTask& task) {
  ShardInfo& si = shards_[task.shard];
  if (si.phase == ShardInfo::Phase::kCommitted) return;
  ++si.failures;
  if (si.failures < config().max_shard_attempts) return;
  // The shard keeps killing workers: quarantine the document the last
  // attempt died on — the first one it had not yet emitted, within the
  // quarantine-filtered list it was running (heartbeats carry the in-order
  // emitted count, so this is exact, not a guess).
  std::vector<doc::Document> docs;
  bool decoded = false;
  if (auto bytes = io::read_file(shard_file_path(config().dir, task.shard))) {
    try {
      docs = io::unpack_corpus_shard(*bytes);
      decoded = true;
    } catch (const std::runtime_error&) {
    }
  }
  if (!decoded) docs = executor_.load_shard_docs(task.shard);
  std::vector<std::string> run_ids;
  run_ids.reserve(docs.size());
  for (const auto& document : docs) {
    bool skip = false;
    for (std::size_t qi = 0;
         qi < task.quarantine_snapshot && qi < quarantined_.size(); ++qi) {
      if (quarantined_[qi].doc_id == document.id) {
        skip = true;
        break;
      }
    }
    if (!skip) run_ids.push_back(document.id);
  }
  si.failures = 0;
  if (task.docs_done >= run_ids.size()) return;  // died after its last emit
  QuarantineRecord q;
  q.shard = task.shard;
  q.doc_id = run_ids[task.docs_done];
  quarantined_.push_back(q);
  manifest_.append(q);
  obs::Tracer::instance().instant("campaign", "quarantine", "shard",
                                  static_cast<std::uint64_t>(task.shard));
  update([](CampaignStats& s) { ++s.docs_quarantined; });
}

void Coordinator::check_heartbeats() {
  const auto now = std::chrono::steady_clock::now();
  for (Worker& w : workers_) {
    if (!w.alive || w.kill_sent || w.assigned.empty()) continue;
    if (now - w.last_message <= config().heartbeat_timeout) continue;
    // Hung, not dead — try_reap would have caught dead. The kill turns it
    // into an ordinary death that reap() recovers from.
    kill_worker(w);
  }
}

void Coordinator::kill_worker(Worker& worker) {
  worker.link->kill();
  worker.kill_sent = true;
  obs::Tracer::instance().instant("campaign", "worker.kill", "worker",
                                  worker.link->id());
  update([](CampaignStats& s) { ++s.workers_killed; });
}

void Coordinator::start_attempt(Worker& worker, std::size_t shard,
                                bool hedge) {
  ShardInfo& si = shards_[shard];
  PendingTask task;
  task.shard = shard;
  task.attempt = si.attempts_started++;
  task.hedge = hedge;
  if (si.phase == ShardInfo::Phase::kPending) {
    si.phase = ShardInfo::Phase::kRunning;
    si.started = std::chrono::steady_clock::now();
  }
  if (hedge) si.hedged = true;
  update([](CampaignStats& s) { ++s.attempts_started; });
  send_task(worker, task);
}

void Coordinator::send_task(Worker& worker, PendingTask task) {
  task.dispatched = std::chrono::steady_clock::now();
  task.quarantine_snapshot = quarantined_.size();
  task.docs_done = 0;
  ++shards_[task.shard].in_flight;
  proc::Message message;
  message.type = proc::MsgType::kTask;
  message.shard = task.shard;
  message.attempt = task.attempt;
  message.quarantine.reserve(quarantined_.size());
  for (const auto& q : quarantined_) message.quarantine.push_back(q.doc_id);
  // A failed write means the worker is already gone; reap() requeues this
  // task along with the rest of its queue.
  proc::write_all(worker.to_child.write_fd(), proc::encode_frame(message));
  obs::Tracer::instance().instant("campaign",
                                  task.hedge ? "hedge" : "dispatch", "shard",
                                  task.shard, "attempt", task.attempt);
  worker.assigned.push_back(task);
}

std::optional<std::size_t> Coordinator::pick_hedge() const {
  if (config().hedge_factor <= 0.0) return std::nullopt;
  const auto now = std::chrono::steady_clock::now();
  double threshold_seconds =
      std::chrono::duration<double>(config().hedge_min_runtime).count();
  if (!committed_seconds_.empty()) {
    std::vector<double> sorted = committed_seconds_;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    threshold_seconds =
        std::max(threshold_seconds, config().hedge_factor * median);
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardInfo& si = shards_[i];
    if (si.phase != ShardInfo::Phase::kRunning || si.hedged ||
        si.in_flight != 1) {
      continue;
    }
    const double elapsed =
        std::chrono::duration<double>(now - si.started).count();
    if (elapsed > threshold_seconds) return i;
  }
  return std::nullopt;
}

void Coordinator::dispatch() {
  if (halted_) return;
  for (Worker& w : workers_) {
    if (!w.alive || w.kill_sent) continue;
    while (w.assigned.size() < config().worker_queue_depth &&
           !pending_.empty()) {
      const std::size_t shard = pending_.front();
      pending_.pop_front();
      start_attempt(w, shard, /*hedge=*/false);
    }
  }
  if (!pending_.empty()) return;
  for (Worker& thief : workers_) {
    if (!thief.alive || thief.kill_sent || !thief.assigned.empty()) continue;
    // Steal the most backlogged worker's last queued (unstarted) shard:
    // revoke it on the victim and hand the same (shard, attempt) to the
    // thief — the revoked task never started, and scripted faults are
    // keyed by attempt, so a steal must not renumber it. If the victim
    // raced us and ran it anyway, its result is a ghost (no longer in its
    // queue) and is ignored.
    Worker* victim = nullptr;
    for (Worker& other : workers_) {
      if (!other.alive || other.kill_sent || &other == &thief) continue;
      if (other.assigned.size() < 2) continue;
      if (!victim || other.assigned.size() > victim->assigned.size()) {
        victim = &other;
      }
    }
    if (victim) {
      const PendingTask stolen = victim->assigned.back();
      victim->assigned.pop_back();
      ShardInfo& si = shards_[stolen.shard];
      if (si.in_flight > 0) --si.in_flight;
      proc::Message revoke;
      revoke.type = proc::MsgType::kRevoke;
      revoke.shard = stolen.shard;
      revoke.attempt = stolen.attempt;
      proc::write_all(victim->to_child.write_fd(),
                      proc::encode_frame(revoke));
      obs::Tracer::instance().instant(
          "campaign", "steal", "shard",
          static_cast<std::uint64_t>(stolen.shard), "victim",
          victim->link->id());
      update([](CampaignStats& s) { ++s.shards_stolen; });
      send_task(thief, stolen);
      continue;
    }
    if (const auto hedge = pick_hedge()) {
      update([](CampaignStats& s) { ++s.hedges_launched; });
      start_attempt(thief, *hedge, /*hedge=*/true);
    }
  }
}

void Coordinator::poll_and_read() {
  std::vector<struct pollfd> fds;
  std::vector<std::size_t> owner;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!workers_[i].alive) continue;
    fds.push_back({workers_[i].from_child.read_fd(), POLLIN, 0});
    owner.push_back(i);
  }
  if (fds.empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return;
  }
  const int ready =
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), /*timeout=*/20);
  if (ready <= 0) return;
  for (std::size_t k = 0; k < fds.size(); ++k) {
    if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    drain_worker(owner[k]);
    if (halted_) return;
  }
}

void Coordinator::drain_worker(std::size_t index) {
  Worker& w = workers_[index];
  std::string bytes;
  // EOF here just means the worker exited; reap() owns death handling.
  proc::read_available(w.from_child.read_fd(), bytes);
  if (bytes.empty()) return;
  w.decoder.feed(bytes);
  try {
    while (auto message = w.decoder.next()) {
      handle_message(index, std::move(*message));
      if (halted_) return;
    }
  } catch (const std::runtime_error&) {
    // Corrupt frame: the protocol stream is broken, so nothing further
    // from this worker can be trusted. Treat it like a hung worker.
    if (w.alive && !w.kill_sent) kill_worker(w);
  }
}

void Coordinator::handle_message(std::size_t index, proc::Message message) {
  Worker& w = workers_[index];
  w.last_message = std::chrono::steady_clock::now();
  if (message.type == proc::MsgType::kSpans) {
    // Trace spans recorded inside the worker, re-homed into our tracer so
    // the whole campaign exports as one coherent trace. Telemetry must
    // never take a worker down: a malformed batch is dropped, not fatal.
    try {
      obs::Tracer::instance().adopt(obs::decode_spans(message.spans));
    } catch (const std::runtime_error&) {
    }
    return;
  }
  if (message.type == proc::MsgType::kHeartbeat) {
    for (PendingTask& task : w.assigned) {
      if (task.shard == message.shard && task.attempt == message.attempt) {
        task.docs_done = static_cast<std::size_t>(message.docs_done);
        break;
      }
    }
    return;
  }
  if (message.type != proc::MsgType::kResult) return;
  const auto it = std::find_if(
      w.assigned.begin(), w.assigned.end(), [&](const PendingTask& t) {
        return t.shard == message.shard && t.attempt == message.attempt;
      });
  if (it == w.assigned.end()) {
    // A ghost: the attempt was revoked or its worker already written off.
    // Its work is lost wall-clock, nothing else.
    const double wall = static_cast<double>(message.wall_ms) / 1e3;
    update([wall](CampaignStats& s) { s.recovery_wall_seconds += wall; });
    return;
  }
  const PendingTask task = *it;
  w.assigned.erase(it);
  ShardInfo& si = shards_[task.shard];
  if (si.in_flight > 0) --si.in_flight;
  handle_result(message, task);
}

void Coordinator::handle_result(const proc::Message& message,
                                const PendingTask& task) {
  const double wall = static_cast<double>(message.wall_ms) / 1e3;
  ShardInfo& si = shards_[task.shard];
  if (message.restaged) {
    update([](CampaignStats& s) { ++s.corrupt_shard_recoveries; });
  }
  if (halted_ || si.phase == ShardInfo::Phase::kCommitted) {
    // Halted, or a twin committed first: this attempt's work is lost.
    update([wall](CampaignStats& s) { s.recovery_wall_seconds += wall; });
    return;
  }
  if (message.status != 0) {
    update([wall](CampaignStats& s) {
      ++s.attempts_failed;
      s.recovery_wall_seconds += wall;
    });
    ++si.failures;
    if (si.failures >= config().max_shard_attempts &&
        !message.failed_doc_id.empty()) {
      // Journaled before the requeue so a resume replays the decision.
      QuarantineRecord q;
      q.shard = task.shard;
      q.doc_id = message.failed_doc_id;
      quarantined_.push_back(q);
      manifest_.append(q);
      si.failures = 0;
      update([](CampaignStats& s) { ++s.docs_quarantined; });
    }
    update([](CampaignStats& s) { ++s.shards_retried; });
    requeue(task.shard);
    return;
  }
  // Success. A commit built against a stale quarantine list must retry:
  // the journal already promises a quarantine inside this shard.
  for (std::size_t qi = task.quarantine_snapshot; qi < quarantined_.size();
       ++qi) {
    if (quarantined_[qi].shard == task.shard) {
      update([wall](CampaignStats& s) {
        s.recovery_wall_seconds += wall;
        ++s.shards_retried;
      });
      requeue(task.shard);
      return;
    }
  }
  // Trust, but verify: the durable artifact is the file the worker
  // renamed into place, not the message. Re-read and check the checksum
  // before journaling — a journal line must never promise bytes that are
  // not on disk.
  const auto bytes =
      io::read_file(shard_output_file_path(config().dir, task.shard));
  if (!bytes || io::fnv1a(*bytes) != message.checksum) {
    update([wall](CampaignStats& s) {
      s.recovery_wall_seconds += wall;
      ++s.shards_retried;
    });
    requeue(task.shard);
    return;
  }
  commit(message, task);
}

void Coordinator::commit(const proc::Message& message,
                         const PendingTask& task) {
  ShardInfo& si = shards_[task.shard];
  ShardRecord record;
  record.index = task.shard;
  record.attempt = static_cast<std::size_t>(task.attempt);
  record.docs = static_cast<std::size_t>(message.records);
  record.bytes = static_cast<std::size_t>(message.bytes);
  record.checksum = message.checksum;
  record.quarantined = static_cast<std::size_t>(message.quarantined);
  if (config().failures.tears_commit(task.shard)) {
    // The scripted torn write: half a journal line lands and the
    // coordinator "dies". Nothing after this counts as committed.
    manifest_.append_torn(record);
    halted_ = true;
    update([](CampaignStats& s) { s.halted = true; });
    return;
  }
  manifest_.append(record);
  si.phase = ShardInfo::Phase::kCommitted;
  obs::Tracer::instance().instant("campaign", "commit", "shard",
                                  static_cast<std::uint64_t>(task.shard),
                                  "docs",
                                  static_cast<std::uint64_t>(record.docs));
  committed_seconds_.push_back(static_cast<double>(message.wall_ms) / 1e3);
  ++commits_this_run_;
  const std::size_t docs = record.docs;
  const bool hedge_won = task.hedge;
  update([docs, hedge_won](CampaignStats& s) {
    ++s.shards_committed;
    s.docs_processed += docs;
    if (hedge_won) ++s.hedges_won;
  });
  if (config().failures.halt_after_commits &&
      commits_this_run_ >= *config().failures.halt_after_commits) {
    halted_ = true;
    update([](CampaignStats& s) { s.halted = true; });
  }
}

void Coordinator::requeue(std::size_t shard) {
  if (halted_) return;
  ShardInfo& si = shards_[shard];
  if (si.phase == ShardInfo::Phase::kCommitted) return;
  if (si.phase == ShardInfo::Phase::kPending) return;  // already queued
  if (si.in_flight > 0) return;  // a live twin will resolve or requeue it
  si.phase = ShardInfo::Phase::kPending;
  si.hedged = false;
  pending_.push_back(shard);
}

void Coordinator::shutdown_workers() {
  // On the scripted kill this process is "dead", and its workers die with
  // it — no goodbye, mid-whatever-they-were-doing. Otherwise each worker
  // gets a kShutdown and two seconds to exit before it is killed.
  if (!halted_) {
    proc::Message bye;
    bye.type = proc::MsgType::kShutdown;
    for (Worker& w : workers_) {
      if (!w.alive) continue;
      proc::write_all(w.to_child.write_fd(), proc::encode_frame(bye));
      w.to_child.close_write();
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (;;) {
      bool waiting = false;
      for (Worker& w : workers_) {
        if (!w.alive) continue;
        if (w.link->try_reap()) {
          w.alive = false;
        } else {
          waiting = true;
        }
      }
      if (!waiting || std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  // Closing our pipe ends before the wait unblocks a thread worker stuck
  // writing a full result pipe (EPIPE; SIGPIPE is ignored). Workers written
  // off earlier are waited for too: a killed thread may still be running.
  for (Worker& w : workers_) {
    if (w.alive) w.link->kill();
    w.to_child.close_write();
    w.from_child.close_read();
  }
  for (Worker& w : workers_) {
    w.link->wait();
    w.alive = false;
  }
}

}  // namespace adaparse::campaign
