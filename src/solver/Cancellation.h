//===- solver/Cancellation.h - Cooperative query-budget token --*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cooperative cancellation token for per-program analysis budgets.
/// One token is shared by every SolverContext of one program run; each
/// context charges it at the solver query boundary (isSatConj — see
/// SolverStats::fuelUsed) and the inference loops poll cancelled()
/// between steps. Because the
/// token counts queries rather than wall-clock time, a serial run cuts
/// off at exactly the same query on every execution — the deterministic
/// replacement for the old start-of-group best-effort budget check,
/// which could only skip whole groups and only saw fuel spent by groups
/// that had already finished.
///
/// Under a parallel schedule the interleaving of charges from
/// concurrent groups decides which group's query crosses the budget
/// first, so WHICH work gets cut can vary with scheduling — the same
/// carve-out the start-of-group check had, now with an exact total:
/// cancellation fires on the first charge past the budget, never a
/// group later.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SOLVER_CANCELLATION_H
#define TNT_SOLVER_CANCELLATION_H

#include <atomic>
#include <cstdint>

namespace tnt {

/// Shared query-budget counter. charge() is lock-free; cancelled() is a
/// relaxed load, cheap enough to poll at every query boundary.
class CancellationToken {
public:
  /// A token with a budget of \p Budget charged queries; the charge
  /// that makes the total exceed the budget flips the token to
  /// cancelled (a budget of N allows N charges, like FuelBudget).
  explicit CancellationToken(uint64_t Budget) : Budget(Budget) {}

  CancellationToken(const CancellationToken &) = delete;
  CancellationToken &operator=(const CancellationToken &) = delete;

  /// Charges \p N queries against the budget.
  void charge(uint64_t N = 1) {
    if (Charged.fetch_add(N, std::memory_order_relaxed) + N > Budget)
      Cancelled.store(true, std::memory_order_relaxed);
  }

  /// True once the charged total has exceeded the budget.
  bool cancelled() const {
    return Cancelled.load(std::memory_order_relaxed);
  }

  uint64_t charged() const {
    return Charged.load(std::memory_order_relaxed);
  }
  uint64_t budget() const { return Budget; }

private:
  const uint64_t Budget;
  std::atomic<uint64_t> Charged{0};
  std::atomic<bool> Cancelled{false};
};

} // namespace tnt

#endif // TNT_SOLVER_CANCELLATION_H
