//===- store/ContentHash.h - Canonical group content hashing ---*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content hashing for the persistent spec store: a structural hash
/// over the resolved, loop-lowered AST of one call-graph SCC group,
/// canonicalized modulo the identifier spellings an alpha-renaming can
/// change — method parameters and locals hash by declaration position,
/// group-internal method names by group position — and modulo
/// fresh-variable numbering (fresh names never appear in the AST the
/// hash walks). Mutually recursive methods are hashed together as one
/// group, so the store keys whole SCCs, mirroring how inference solves
/// them.
///
/// Invalidation falls out of the key structure: a group's key mixes in
/// the keys of every callee group (computed bottom-up over the group
/// DAG), so editing a method changes the key of its own group and of
/// every transitive caller — exactly the set a re-analysis must re-run
/// — while unrelated groups keep their keys and hit the store. The key
/// also mixes a program-environment hash (data and predicate
/// declarations), so editing a declaration conservatively invalidates
/// everything.
///
/// Deliberately conservative corners (a changed key can only cost a
/// cache miss, never a wrong hit):
///  * spec ghost variables and heap predicate/data/field names hash by
///    spelling — renaming a ghost misses instead of risking a stale
///    positional mapping;
///  * the alphabetical member order of a multi-method SCC is pinned by
///    mixing each member's program-declaration rank, so a rename that
///    REORDERS an SCC misses rather than permuting scenario slots;
///  * multi-binder Exists nodes fix de-Bruijn indices by the binders'
///    current sort order, so binder-permuting renames miss.
///
/// Keys are 128-bit (two independently seeded 64-bit lanes) rendered
/// as hex: collisions would silently reuse a wrong summary, so the key
/// space is sized far beyond any corpus.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_STORE_CONTENTHASH_H
#define TNT_STORE_CONTENTHASH_H

#include "lang/Ast.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tnt {

/// Two-lane structural hash accumulator (splitmix64-style mixing with
/// distinct odd constants per lane). Deterministic across processes,
/// platforms and runs: only shape and spellings are mixed, never
/// pointers or VarIds.
class StructHash {
public:
  void mix(uint64_t V);
  void mixStr(const std::string &S);
  /// Order-insensitive combine of a sub-hash (for commutative
  /// children): lanes are added, which commutes, then stirred on the
  /// next mix.
  void mixUnordered(const StructHash &Sub);

  uint64_t loA() const { return A; }
  uint64_t loB() const { return B; }
  /// 32 hex chars.
  std::string hex() const;

private:
  uint64_t A = 0x9e3779b97f4a7c15ull;
  uint64_t B = 0x2545f4914f6cdd1dull;
};

/// Computes the spec-store key of every SCC group of a prepared
/// program, in group order. \p Groups is the bottom-up schedule
/// prepareProgram built (callee groups precede callers, so dependency
/// keys are available when a group is hashed).
///
/// The block schedule group G runs under — VarPool::RootBlock and
/// VarPool::groupBlock(G) — is mixed into its key, so the same content
/// at another group position keys apart. This is a correctness
/// requirement, not bookkeeping: the hash-consed formula layer
/// canonicalizes And/Or children by a VarId-bearing structural hash,
/// so two content-identical groups whose fresh witnesses live in
/// DIFFERENT blocks can legitimately explore inference candidates in
/// different orders and settle on different (equally sound) case
/// trees. Keying on (content, position) makes a store hit mean "the
/// fresh run would reproduce this entry bit for bit".
std::vector<std::string>
computeGroupKeys(const Program &P,
                 const std::vector<std::vector<std::string>> &Groups);

} // namespace tnt

#endif // TNT_STORE_CONTENTHASH_H
