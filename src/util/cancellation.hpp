// Cooperative cancellation for the synthesis runtime. A CancellationToken is
// a flag shared between a controller (deadline watchdog, fault injector, an
// embedding application) and the long-running loops in refine()/the
// enumerator/the scoring pool, which poll it at safe points and unwind with
// their best-so-far state instead of running unbounded.
//
// cancelled() is one atomic load per token in the chain — cheap enough to
// poll per candidate evaluation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/status.hpp"

namespace abg::util {

class CancellationToken {
 public:
  CancellationToken() = default;
  // A linked token also reports cancelled when `parent` is cancelled, so a
  // callee-local deadline token can observe a caller-supplied one. `parent`
  // must outlive this token.
  explicit CancellationToken(const CancellationToken* parent) : parent_(parent) {}

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  // First cancel wins; later calls keep the original reason. The reason is
  // the flag (kOk = not cancelled), set by one compare-exchange, so a thread
  // that sees cancelled() also sees the reason. kOk itself cancels as
  // kCancelled.
  void cancel(StatusCode reason = StatusCode::kCancelled) {
    if (reason == StatusCode::kOk) reason = StatusCode::kCancelled;
    int expected = static_cast<int>(StatusCode::kOk);
    reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                    std::memory_order_acq_rel);
  }

  bool cancelled() const { return reason() != StatusCode::kOk; }

  // kOk while not cancelled; the winning reason (own, else parent's) after.
  StatusCode reason() const {
    const auto own = static_cast<StatusCode>(reason_.load(std::memory_order_acquire));
    if (own != StatusCode::kOk || parent_ == nullptr) return own;
    return parent_->reason();
  }

 private:
  std::atomic<int> reason_{static_cast<int>(StatusCode::kOk)};
  const CancellationToken* parent_ = nullptr;
};

// Cancels `token` with kTimeout once `deadline_s` of wall-clock time passes.
// The watchdog thread sleeps on a condition variable, so destruction (scope
// exit before the deadline) is immediate. A non-finite or negative-infinite
// deadline spawns no thread at all.
class DeadlineWatchdog {
 public:
  DeadlineWatchdog(CancellationToken* token, double deadline_s);
  ~DeadlineWatchdog();

  DeadlineWatchdog(const DeadlineWatchdog&) = delete;
  DeadlineWatchdog& operator=(const DeadlineWatchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace abg::util
