#include "util/thread_pool.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "obs/trace_events.hpp"

namespace abg::util {

namespace detail {
void note_task_queued() {
  static auto& c_queued = obs::counter("pool.tasks_queued");
  c_queued.add();
}
}  // namespace detail

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(sleep_mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::enqueue(std::function<void()> fn) {
  detail::note_task_queued();
  Task task{std::move(fn), std::chrono::steady_clock::now(), obs::current_context()};
  const std::size_t victim =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard lk(queues_[victim]->mu);
    queues_[victim]->deque.push_back(std::move(task));
  }
  {
    std::lock_guard lk(sleep_mu_);
    ++pending_;
  }
  cv_.notify_one();
}

bool ThreadPool::try_claim(std::size_t self, Task* out) {
  bool claimed = false;
  {
    // Own deque first, newest task (back): it is the most cache-hot and, for
    // parallel_for helpers, the most likely to still have unclaimed indices.
    auto& q = *queues_[self];
    std::lock_guard lk(q.mu);
    if (!q.deque.empty()) {
      *out = std::move(q.deque.back());
      q.deque.pop_back();
      claimed = true;
    }
  }
  // Steal oldest-first (front) from peers: FIFO stealing drains the
  // longest-waiting job's tasks first, which is what keeps a batch of
  // concurrent synthesis jobs roughly fair.
  for (std::size_t off = 1; !claimed && off < queues_.size(); ++off) {
    auto& q = *queues_[(self + off) % queues_.size()];
    std::lock_guard lk(q.mu);
    if (!q.deque.empty()) {
      *out = std::move(q.deque.front());
      q.deque.pop_front();
      claimed = true;
    }
  }
  if (claimed) {
    std::lock_guard lk(sleep_mu_);
    --pending_;
    // Shutdown edge: the worker that claims the last task releases any
    // peers parked on the cv so they can observe stop_ && pending_ == 0.
    if (stop_ && pending_ == 0) cv_.notify_all();
  }
  return claimed;
}

void ThreadPool::worker_loop(std::size_t self) {
  static auto& c_executed = obs::counter("pool.tasks_executed");
  static auto& h_wait = obs::histogram("pool.queue_wait_us");
  for (;;) {
    Task task;
    if (try_claim(self, &task)) {
      h_wait.observe(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - task.enqueued)
                         .count());
      c_executed.add();
      // Install the submitter's context (stolen tasks included), then open
      // the pool.task span inside it so it nests under the submitting span
      // on the submitting job's lane.
      obs::ContextScope scope(task.ctx);
      obs::Span span("pool.task", "pool");
      task.fn();
      continue;
    }
    std::unique_lock lk(sleep_mu_);
    if (stop_ && pending_ == 0) return;
    // pending_ > 0 with an empty scan means a task landed (or a claim is
    // mid-flight) since we looked: rescan instead of sleeping.
    if (pending_ > 0) continue;
    cv_.wait(lk, [this] { return stop_ || pending_ > 0; });
    if (stop_ && pending_ == 0) return;
  }
}

}  // namespace abg::util
