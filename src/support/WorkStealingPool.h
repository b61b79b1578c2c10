//===- support/WorkStealingPool.h - Shared task pool ------------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool: each worker owns a deque, pushes
/// tasks it spawns to its own bottom (LIFO — keeps a program's group
/// chain hot on one worker), and steals from the top of a victim's
/// deque when its own runs dry (FIFO — steals the oldest, most
/// coarse-grained work). External submissions round-robin across
/// workers. BatchAnalyzer schedules every program's front end, then
/// programs × per-program SCC groups, on one such pool, so the thread
/// budget is shared across the whole corpus instead of being
/// partitioned per program.
///
/// Tasks may submit further tasks (that is how group completions
/// release their dependents). wait() returns when every submitted task
/// — including transitively spawned ones — has finished; the pool
/// counts in-flight tasks, so the quiescence test is exact, not a
/// queue-emptiness heuristic. wait() must not be called from a task:
/// the calling task is itself in flight.
///
/// findFirst() is the one fork-join call: a task of a pool with more
/// than one worker asks for the lowest index in [0, N) whose predicate
/// holds, and idle workers of its pool help evaluate the candidates.
/// It promises the answer an in-order loop gives, and:
///  * indices start in increasing order, and none starts once a lower
///    one has returned true (calls already running finish), so a
///    search over equal-sized candidates wastes at most one per helper;
///  * the caller claims indices itself and waits only for helpers that
///    have started one, never for a queued helper task, so calls made
///    from every worker at once cannot deadlock;
///  * a helper task that runs after the call returned checks a done
///    flag under the search's mutex and returns without touching the
///    predicate or anything else of the caller's frame.
/// Ranking synthesis uses it to solve a round's candidate LPs on idle
/// workers (synth/Ranking.cpp).
///
/// Determinism note: the pool makes NO ordering promises. Callers get
/// determinism the same way the single-program scheduler does — task
/// results must be a function of the task alone (per-task contexts,
/// disjoint fresh-variable blocks) and joins must merge in a fixed
/// order.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SUPPORT_WORKSTEALINGPOOL_H
#define TNT_SUPPORT_WORKSTEALINGPOOL_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tnt {

class WorkStealingPool {
public:
  using Task = std::function<void()>;

  /// Spins up \p Threads workers (at least one).
  explicit WorkStealingPool(unsigned Threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool &) = delete;
  WorkStealingPool &operator=(const WorkStealingPool &) = delete;

  /// Enqueues a task. Callable from outside the pool (round-robins
  /// across workers) and from inside a task (pushes to the running
  /// worker's own deque).
  void submit(Task T);

  /// Blocks until every submitted task (and everything those tasks
  /// submitted) has finished. The pool is reusable afterwards. Never
  /// call it from a task.
  void wait();

  /// Returns the lowest I in [0, N) for which \p Try(I) is true, or N
  /// when there is none: the index the loop
  /// `for (I = 0; I < N && !Try(I); ++I)` stops at. From a task of a
  /// pool with more than one worker, up to threadCount() - 1 helper
  /// tasks on that pool evaluate indices beside the caller (see the
  /// file comment for what that promises), so \p Try must be safe to
  /// call concurrently for distinct indices. From any other thread, and
  /// on a one-worker pool, it is that loop on the caller. When the
  /// index that loop stops at throws instead, the call rethrows it on
  /// the caller; a helper never lets an exception out of its task.
  static size_t findFirst(size_t N, const std::function<bool(size_t)> &Try);

  unsigned threadCount() const { return static_cast<unsigned>(Workers.size()); }

private:
  struct WorkerState {
    std::mutex Mu;
    std::deque<Task> Deque;
  };

  void workerLoop(unsigned Me);
  bool tryGet(unsigned Me, Task &Out);

  std::vector<std::unique_ptr<WorkerState>> Queues;
  std::vector<std::thread> Workers;

  std::mutex IdleMu;
  std::condition_variable IdleCV;   ///< Wakes sleeping workers.
  std::condition_variable QuiesceCV; ///< Wakes wait()ers.
  /// Tasks submitted but not yet finished (queued + running).
  std::atomic<size_t> InFlight{0};
  std::atomic<bool> Stop{false};

  /// Which worker the current thread is, if it is one of ours.
  static thread_local WorkStealingPool *SelfPool;
  static thread_local unsigned SelfIdx;
  std::atomic<unsigned> NextExternal{0};
};

} // namespace tnt

#endif // TNT_SUPPORT_WORKSTEALINGPOOL_H
