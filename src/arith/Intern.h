//===- arith/Intern.h - Hash-consed arithmetic terms -----------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consing of LinExpr, Constraint and FormulaNode values:
/// structurally equal terms intern to the same stable pointer, so
/// equality of interned terms is pointer identity and solver cache keys
/// are pointers (or vectors of pointers) instead of rendered strings.
/// Formula nodes are interned bottom-up — children are interned before
/// their parent, and node identity compares children by pointer — which
/// dedups the whole formula DAG and lets SolverContext memoize
/// DNF expansion by node pointer. The table is process-wide and
/// mutex-protected, so analysis workers on different threads can intern
/// concurrently.
///
/// Lifetime: by default the table is append-only and interned pointers
/// are stable for the process lifetime — the regime of every one-shot
/// analysis and of the test suite. A long-lived analysis server opts
/// into *epoch-scoped reclamation* instead (see beginEpochs/reclaim):
/// entries interned before the first epoch live in a permanent arena;
/// entries interned afterwards live in a mortal arena, which a reclaim
/// pass empties.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_ARITH_INTERN_H
#define TNT_ARITH_INTERN_H

#include "arith/Formula.h"

#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace tnt {

/// What one reclaim pass did (diagnostics; the soak tests and the
/// server's stats verb report these).
struct ReclaimStats {
  /// The generation this pass closed (1-based; 0 = epochs not enabled).
  uint32_t Generation = 0;
  size_t ExprsDropped = 0, ConstraintsDropped = 0, FormulasDropped = 0;
  size_t BytesBefore = 0, BytesAfter = 0;

  size_t dropped() const {
    return ExprsDropped + ConstraintsDropped + FormulasDropped;
  }
};

/// The process-wide hash-cons table for arithmetic terms.
class ArithIntern {
public:
  static ArithIntern &global();

  /// Interns a linear expression; structurally equal inputs return the
  /// same pointer (pointer identity <=> operator== equality).
  const LinExpr *expr(const LinExpr &E);

  /// Interns a constraint; same pointer-identity contract.
  const Constraint *constraint(const Constraint &C);

  /// Interns a formula node (all seven kinds). Children must already be
  /// interned (Formula's factories guarantee this); equality compares
  /// children by pointer, so structurally equal formulas — up to the
  /// commutative And/Or canonicalization performed by Formula::make —
  /// intern to the same node and Formula::structEq is a pointer compare.
  const FormulaNode *formula(const FormulaNode &N);

  /// Batch-interns a whole conjunction under one lock acquisition (the
  /// solver cache-key hot path).
  void constraints(const ConstraintConj &Conj,
                   std::vector<const Constraint *> &Out);

  /// Number of distinct interned terms (diagnostics).
  size_t exprCount() const;
  size_t constraintCount() const;
  size_t formulaCount() const;

  //===--------------------------------------------------------------------===//
  // Epoch-scoped reclamation (the long-lived-server regime)
  //===--------------------------------------------------------------------===//

  /// Switches the table into epoch mode: everything interned so far
  /// becomes permanent, and every later intern goes to the mortal
  /// arena, subject to reclaim(). Idempotent; pins the
  /// constant-formula singletons (Formula::top/bottom) before flipping
  /// so function-local statics can never dangle.
  void beginEpochs();
  bool epochsEnabled() const;

  /// The generation new interns are tagged with (1-based once epochs
  /// are enabled).
  uint32_t generation() const;

  /// Ends the current generation: drops every mortal entry and starts
  /// the next generation. The caller guarantees that no interned
  /// pointer outside the permanent generation is dereferenced
  /// afterwards (per-request results must be rendered before their
  /// epoch ends). No-op unless epochs are enabled.
  ReclaimStats reclaim();

  /// Deterministic RSS proxy: approximate bytes held by interned
  /// entries (payload sizes, not allocator rounding). O(1); maintained
  /// incrementally by intern and reclaim.
  size_t arenaBytes() const;

  /// Entries subject to reclamation (diagnostics).
  size_t mortalCount() const;

private:
  ArithIntern() = default;

  template <typename T> struct Table {
    /// Entries interned before epoch mode: never reclaimed, so they
    /// live in a deque — stable addresses with chunked allocation, no
    /// per-entry malloc. This is the ONLY arena populated in one-shot
    /// and batch runs (epoch mode is the server's opt-in), so the
    /// dominant workloads keep the cheap path.
    std::deque<T> Permanent;
    /// Epoch-mode entries; reclaim() drops them all.
    std::vector<std::unique_ptr<T>> Mortal;
    /// Hash -> interned entries with that hash (collision chain).
    std::unordered_map<size_t, std::vector<const T *>> Buckets;
    /// Running approximate payload bytes of Permanent + Mortal.
    size_t Bytes = 0;

    const T *intern(const T &V, bool Epochal);
    size_t size() const { return Permanent.size() + Mortal.size(); }
  };

  mutable std::mutex Mu;
  Table<LinExpr> Exprs;
  Table<Constraint> Constraints;
  Table<FormulaNode> Formulas;
  bool EpochsOn = false;
  uint32_t Gen = 0;
};

/// A canonical interned conjunction: interned constraint pointers,
/// sorted (by pointer) and deduplicated, so conjunctions that differ
/// only in order or repetition share one cache key.
using InternedConj = std::vector<const Constraint *>;

/// Interns every constraint of \p Conj in the global table and
/// canonicalizes the result.
InternedConj internConj(const ConstraintConj &Conj);

/// Hash functor for InternedConj keys (pointer-identity based).
struct InternedConjHash {
  size_t operator()(const InternedConj &K) const {
    uint64_t H = 1469598103934665603ull;
    for (const Constraint *P : K) {
      H ^= reinterpret_cast<uintptr_t>(P);
      H *= 1099511628211ull;
    }
    return static_cast<size_t>(H);
  }
};

} // namespace tnt

#endif // TNT_ARITH_INTERN_H
