//===- support/WorkStealingPool.cpp ---------------------------*- C++ -*-===//

#include "support/WorkStealingPool.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <memory>

using namespace tnt;

namespace {

/// What one findFirst call shares with its helper tasks. Helpers hold it
/// by shared_ptr, so it outlives the call; Try points into the caller's
/// frame and is read only for an index claimed before Done was set.
struct FirstSearch {
  FirstSearch(const std::function<bool(size_t)> &Try, size_t N)
      : Try(&Try), N(N), Found(N) {}

  std::mutex Mu;
  std::condition_variable HelpersIdle;
  const std::function<bool(size_t)> *Try;
  size_t N;
  /// Next index to claim.
  size_t Next = 0;
  /// Lowest index whose Try returned true or threw so far; N while there
  /// is none. The in-order loop stops there too.
  size_t Found;
  /// What Try(Found) threw, if it threw.
  std::exception_ptr Thrown;
  /// Helpers inside Try.
  unsigned Running = 0;
  /// The caller has ended the search.
  bool Done = false;
};

/// Claims indices in increasing order and runs them until none may
/// start: all are claimed, one returned true or threw, or the call
/// returned. An exception is kept for the caller, never let out of a
/// helper task.
void runClaims(FirstSearch &S, bool Helper) {
  std::unique_lock<std::mutex> L(S.Mu);
  while (!S.Done && S.Next < S.N && S.Found == S.N) {
    size_t I = S.Next++;
    if (Helper)
      ++S.Running;
    L.unlock();
    bool Hit = false;
    std::exception_ptr Thrown;
    try {
      Hit = (*S.Try)(I);
    } catch (...) {
      Thrown = std::current_exception();
    }
    L.lock();
    if ((Hit || Thrown) && I < S.Found) {
      S.Found = I;
      S.Thrown = Thrown;
    }
    if (Helper && --S.Running == 0)
      S.HelpersIdle.notify_all();
  }
}

/// Ends the search: no index starts from now on, and the caller waits
/// for the helpers still inside Try — never for a helper task still
/// queued. Returns the lowest true index, or rethrows when the lowest
/// index the search stopped at threw.
size_t finishSearch(FirstSearch &S) {
  std::unique_lock<std::mutex> L(S.Mu);
  S.Done = true;
  S.HelpersIdle.wait(L, [&] { return S.Running == 0; });
  if (S.Thrown)
    std::rethrow_exception(S.Thrown);
  return S.Found;
}

} // namespace

thread_local WorkStealingPool *WorkStealingPool::SelfPool = nullptr;
thread_local unsigned WorkStealingPool::SelfIdx = 0;

WorkStealingPool::WorkStealingPool(unsigned Threads) {
  if (Threads == 0)
    Threads = 1;
  Queues.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Queues.push_back(std::make_unique<WorkerState>());
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

WorkStealingPool::~WorkStealingPool() {
  wait();
  Stop.store(true);
  {
    // The flag must become visible under the idle lock, or a worker
    // that just re-checked its predicate could sleep through the
    // notification.
    std::lock_guard<std::mutex> L(IdleMu);
  }
  IdleCV.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void WorkStealingPool::submit(Task T) {
  unsigned Target;
  if (SelfPool == this) {
    Target = SelfIdx; // Spawned by one of our tasks: keep it local.
  } else {
    Target = NextExternal.fetch_add(1) % Queues.size();
  }
  InFlight.fetch_add(1);
  {
    std::lock_guard<std::mutex> L(Queues[Target]->Mu);
    Queues[Target]->Deque.push_back(std::move(T));
  }
  {
    std::lock_guard<std::mutex> L(IdleMu);
  }
  IdleCV.notify_one();
}

bool WorkStealingPool::tryGet(unsigned Me, Task &Out) {
  // Own deque first, newest task (LIFO): a group task spawned by a
  // just-finished dependency reuses warm state.
  {
    WorkerState &W = *Queues[Me];
    std::lock_guard<std::mutex> L(W.Mu);
    if (!W.Deque.empty()) {
      Out = std::move(W.Deque.back());
      W.Deque.pop_back();
      return true;
    }
  }
  // Steal the oldest task of the first non-empty victim (FIFO).
  for (size_t K = 1; K < Queues.size(); ++K) {
    WorkerState &V = *Queues[(Me + K) % Queues.size()];
    std::lock_guard<std::mutex> L(V.Mu);
    if (!V.Deque.empty()) {
      Out = std::move(V.Deque.front());
      V.Deque.pop_front();
      return true;
    }
  }
  return false;
}

void WorkStealingPool::workerLoop(unsigned Me) {
  SelfPool = this;
  SelfIdx = Me;
  for (;;) {
    Task T;
    if (tryGet(Me, T)) {
      T();
      if (InFlight.fetch_sub(1) == 1) {
        // Last task out: wake wait()ers.
        std::lock_guard<std::mutex> L(IdleMu);
        QuiesceCV.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> L(IdleMu);
    if (Stop.load())
      return;
    // Re-check under the lock: a submit between tryGet and here would
    // otherwise be slept through.
    bool HaveWork = false;
    for (const auto &Q : Queues) {
      std::lock_guard<std::mutex> QL(Q->Mu);
      if (!Q->Deque.empty()) {
        HaveWork = true;
        break;
      }
    }
    if (HaveWork)
      continue;
    IdleCV.wait(L);
  }
}

void WorkStealingPool::wait() {
  // Workers drain the queues; wait() only has to observe quiescence.
  // A task submitted by a still-running task bumps InFlight before its
  // parent's decrement, so InFlight can only hit zero when the whole
  // spawn tree is done.
  std::unique_lock<std::mutex> L(IdleMu);
  QuiesceCV.wait(L, [&] { return InFlight.load() == 0; });
}

size_t WorkStealingPool::findFirst(size_t N,
                                   const std::function<bool(size_t)> &Try) {
  WorkStealingPool *Pool = SelfPool;
  size_t Helpers = 0;
  if (Pool != nullptr && N > 1)
    Helpers = std::min<size_t>(Pool->Workers.size() - 1, N - 1);
  if (Helpers == 0) {
    size_t I = 0;
    while (I < N && !Try(I))
      ++I;
    return I;
  }
  auto S = std::make_shared<FirstSearch>(Try, N);
  for (size_t H = 0; H < Helpers; ++H)
    Pool->submit([S] { runClaims(*S, /*Helper=*/true); });
  runClaims(*S, /*Helper=*/false);
  return finishSearch(*S);
}
