#ifndef NOMAD_NOMAD_PAUSE_GATE_H_
#define NOMAD_NOMAD_PAUSE_GATE_H_

#include <atomic>
#include <condition_variable>
#include <mutex>

namespace nomad {

/// Cooperative pause barrier between a driver thread and a fixed set of
/// worker threads: the driver quiesces all workers (trace points, the
/// distributed barrier protocol), does its work, and resumes them.
/// Training time excludes the pause. Owned by TokenWorkers
/// (nomad/token_worker.h), so NomadSolver and DistNomadSolver share one
/// pause protocol.
class PauseGate {
 public:
  /// A gate for `workers` worker threads (the driver is not counted).
  explicit PauseGate(int workers) : workers_(workers) {}

  /// Worker side: called between tokens; blocks while a pause is active.
  void CheckIn() {
    if (!pause_requested_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(mu_);
    ++paused_;
    all_paused_.notify_all();
    resumed_.wait(lock, [this] {
      return !pause_requested_.load(std::memory_order_acquire);
    });
    --paused_;
  }

  /// Driver side: returns once every worker is parked.
  void Pause() {
    pause_requested_.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(mu_);
    all_paused_.wait(lock, [this] { return paused_ == workers_; });
  }

  /// Driver side: releases the parked workers.
  void Resume() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pause_requested_.store(false, std::memory_order_release);
    }
    resumed_.notify_all();
  }

 private:
  const int workers_;
  std::atomic<bool> pause_requested_{false};
  std::mutex mu_;
  std::condition_variable all_paused_;
  std::condition_variable resumed_;
  int paused_ = 0;
};

}  // namespace nomad

#endif  // NOMAD_NOMAD_PAUSE_GATE_H_
