#include "campaign/transport.hpp"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "proc/child.hpp"
#include "sched/thread_pool.hpp"
#include "sched/warm_cache.hpp"

namespace adaparse::campaign {
namespace {

class ProcessLink final : public WorkerLink {
 public:
  explicit ProcessLink(proc::Child child) : child_(std::move(child)) {}

  std::uint64_t id() const override {
    return static_cast<std::uint64_t>(child_.pid());
  }
  bool try_reap() override { return child_.try_wait().has_value(); }
  void kill() override { child_.kill(SIGKILL); }
  void wait() override { child_.wait(); }

 private:
  proc::Child child_;  // its destructor SIGKILLs and reaps a live child
};

class ForkTransport final : public WorkerTransport {
 public:
  std::unique_ptr<WorkerLink> spawn(
      const ShardExecutor& executor, proc::Pipe& tasks, proc::Pipe& results,
      const std::vector<int>& foreign_fds) override {
    proc::Child child = proc::Child::spawn([&] {
      // Forked child: drop every pipe end belonging to the coordinator's
      // other workers — a held peer write end would mask that peer's EOF —
      // and the parent-side ends of our own pair.
      for (const int fd : foreign_fds) ::close(fd);
      tasks.close_write();
      results.close_read();
      return worker_main(executor, tasks.read_fd(), results.write_fd());
    });
    tasks.close_read();
    results.close_write();
    return std::make_unique<ProcessLink>(std::move(child));
  }
};

class ThreadLink final : public WorkerLink {
 public:
  ThreadLink(ShardExecutor executor, int task_fd, int result_fd,
             std::uint64_t id)
      : executor_(std::move(executor)), id_(id) {
    thread_ = std::thread([this, task_fd, result_fd] {
      try {
        run_worker_tasks(executor_, task_fd, result_fd, &stop_, nullptr);
      } catch (...) {
        // Ends the worker like an exit: the coordinator reaps it, counts
        // it as died, and requeues its work.
      }
      ::close(task_fd);
      ::close(result_fd);
      exited_.store(true);
    });
  }
  ~ThreadLink() override {
    kill();
    wait();
  }
  ThreadLink(const ThreadLink&) = delete;
  ThreadLink& operator=(const ThreadLink&) = delete;

  std::uint64_t id() const override { return id_; }
  bool try_reap() override {
    if (reaped_ || !(exited_.load() || stop_.cancel.load())) return false;
    reaped_ = true;
    return true;
  }
  void kill() override {
    const std::lock_guard<std::mutex> lock(stop_.publish);
    stop_.cancel.store(true);
  }
  void wait() override {
    if (thread_.joinable()) thread_.join();
  }

 private:
  const ShardExecutor executor_;
  const std::uint64_t id_;
  WorkerStop stop_;
  std::atomic<bool> exited_{false};
  bool reaped_ = false;
  std::thread thread_;
};

class ThreadTransport final : public WorkerTransport {
 public:
  explicit ThreadTransport(const CampaignConfig& config)
      : pool_(config.workers *
              (config.extract_workers + config.upgrade_workers)),
        warm_cache_(/*enabled=*/true) {}

  std::unique_ptr<WorkerLink> spawn(
      const ShardExecutor& executor, proc::Pipe& tasks, proc::Pipe& results,
      const std::vector<int>& /*foreign_fds*/) override {
    ShardExecutor shared = executor;
    shared.pool = &pool_;
    shared.warm_cache = &warm_cache_;
    // The thread owns its ends from here on and closes them when it exits,
    // so a thread written off while still running never touches a
    // descriptor number the coordinator has since reused.
    return std::make_unique<ThreadLink>(std::move(shared),
                                        tasks.release_read(),
                                        results.release_write(), ++spawned_);
  }

 private:
  sched::ThreadPool pool_;
  sched::WarmModelCache warm_cache_;
  std::uint64_t spawned_ = 0;
};

}  // namespace

std::unique_ptr<WorkerTransport> make_worker_transport(
    const CampaignConfig& config) {
  if (config.execution == CampaignConfig::ExecutionMode::kMultiProcess) {
    return std::make_unique<ForkTransport>();
  }
  return std::make_unique<ThreadTransport>(config);
}

}  // namespace adaparse::campaign
