//===- arith/Intern.h - Hash-consed arithmetic terms -----------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consing of formula nodes: structurally equal nodes intern to
/// the same stable pointer, so equality of interned formulas is pointer
/// identity. Nodes are interned bottom-up — children are interned
/// before their parent, and node identity compares children by
/// pointer — which dedups the whole formula DAG. The table is
/// process-wide and mutex-protected, so analysis workers on different
/// threads can intern concurrently.
///
/// Lifetime: by default the table is append-only and interned pointers
/// are stable for the process lifetime — the regime of every one-shot
/// analysis and of the test suite. A long-lived analysis server opts
/// into *epoch-scoped reclamation* instead (see beginEpochs/reclaim):
/// nodes interned before the first epoch live in a permanent arena;
/// nodes interned afterwards live in a mortal arena, which a reclaim
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
  size_t FormulasDropped = 0;
  size_t BytesBefore = 0, BytesAfter = 0;

  size_t dropped() const { return FormulasDropped; }
};

/// The process-wide hash-cons table for formula nodes.
class ArithIntern {
public:
  static ArithIntern &global();

  /// Interns a formula node (all seven kinds). Children must already be
  /// interned (Formula's factories guarantee this); equality compares
  /// children by pointer, so structurally equal formulas — up to the
  /// commutative And/Or canonicalization performed by Formula::make —
  /// intern to the same node and Formula::structEq is a pointer compare.
  const FormulaNode *formula(const FormulaNode &N);

  /// Number of distinct interned nodes (diagnostics).
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
  /// nodes (payload sizes, not allocator rounding). O(1); maintained
  /// incrementally by intern and reclaim.
  size_t arenaBytes() const;

  /// Entries subject to reclamation (diagnostics).
  size_t mortalCount() const;

private:
  ArithIntern() = default;

  mutable std::mutex Mu;
  /// Nodes interned before epoch mode: never reclaimed, so they live in
  /// a deque — stable addresses with chunked allocation, no per-node
  /// malloc. This is the ONLY arena populated in one-shot and batch
  /// runs (epoch mode is the server's opt-in), so the dominant
  /// workloads keep the cheap path.
  std::deque<FormulaNode> Permanent;
  /// Epoch-mode nodes; reclaim() drops them all.
  std::vector<std::unique_ptr<FormulaNode>> Mortal;
  /// Hash -> interned nodes with that hash (collision chain).
  std::unordered_map<size_t, std::vector<const FormulaNode *>> Buckets;
  /// Running approximate payload bytes of Permanent + Mortal.
  size_t Bytes = 0;
  bool EpochsOn = false;
  uint32_t Gen = 0;
};

} // namespace tnt

#endif // TNT_ARITH_INTERN_H
