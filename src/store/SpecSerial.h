//===- store/SpecSerial.h - Canonical spec (de)serialization ---*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical, VarId-free serialization of one SCC group's inferred
/// summaries for the persistent spec store, and the rehydration path
/// that rebuilds them in the current process's VarPool and intern
/// tables so a store-served group renders byte-identically to the run
/// that produced it.
///
/// Variable references never serialize a numeric VarId (ids are a
/// per-process artifact of interning order). The reference forms:
///
///   ["p", i]          the i-th canonical parameter of the scenario —
///                     positional, so the entry rehydrates against the
///                     CURRENT method's parameter list;
///   ["q", i]          the post-state prime of parameter i ("x'");
///   ["b", k]          de-Bruijn index into the enclosing Exists
///                     binder frames (innermost first);
///   ["f", t, n, base] a block-scoped fresh variable ("base!b<B>!<n>"):
///                     n is the per-scope allocation counter the
///                     spelling encodes, base is the fresh base (a
///                     string, or a nested ["f",...] for
///                     fresh-of-fresh), and t indexes the entry's
///                     block-token table;
///   ["n", name]       any other variable, by spelling — "res", spec
///                     ghosts, source-named binders. Spelling-to-id
///                     interning is the pool's stability contract, so
///                     a spelling reproduces the exact rendered name.
///
/// Exists binders serialize in the same forms (string or ["f",...]);
/// rehydration re-interns them through the ordinary constructors, so
/// And/Or re-canonicalize under current ids.
///
/// Fresh variables are POSITION-INDEPENDENT: the entry's block-token
/// table ("bl") names each mentioned fresh-variable block by the
/// CONTENT KEY of the group that allocated it (plus a duplicate
/// ordinal for content-identical sibling groups), never by block
/// number. The producer maps its blocks to tokens; the consumer maps
/// tokens back to ITS blocks — a group key hit guarantees every
/// callee key matches, so the tokens always resolve — and re-spells
/// the variable as "base!b<current block>!<n>". The rehydrated
/// spelling is therefore exactly the spelling a fresh run of the
/// CONSUMER would mint: entries stay byte-exact across process
/// restarts, across batch block renumbering after corpus edits, and
/// across content-identical programs sharing one entry. It also makes
/// an entry a pure function of its key, so concurrent first-writer
/// races between twin producers write identical bytes.
///
/// Blocks with no token — the root (front-end) block, foreign blocks —
/// make the group unserializable (serializeGroupEntry returns
/// nullopt): a root-block variable's counter means nothing in another
/// program's root phase, so such groups are simply not stored.
///
/// Byte-identity of VarId-sorted structure: internFreshSpellings()
/// interns every fresh spelling a program's hit entries resolve to,
/// grouped by block and sorted by counter, inside the matching
/// VarPool scope, BEFORE any group task runs (drivers call it from
/// the sequential front-end phase). Ids land in their block regions
/// in allocation-counter order — the same relative order a full
/// fresh run produces — so the id-sorted And/Or child
/// canonicalization, and with it every rendered summary, is
/// byte-identical to a storeless run's. An entry that reaches the
/// store after the prescan is interned by its consuming group task
/// instead (internOwnBlockSpellings), and only when all its fresh
/// spellings lie in that group's own block, which no other task
/// allocates in.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_STORE_SPECSERIAL_H
#define TNT_STORE_SPECSERIAL_H

#include "infer/CondTerm.h"
#include "spec/Spec.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tnt {

/// Two-way map between fresh-variable blocks and canonical block
/// tokens (group content key + "#<dup ordinal>"). Built per prepared
/// program by the pipeline; the producer direction serializes, the
/// consumer direction rehydrates.
struct BlockTokenMap {
  std::map<uint32_t, std::string> TokenOf; ///< block -> token
  std::map<std::string, uint32_t> BlockOf; ///< token -> block
};

/// One scenario slot of a group entry, in the group's deterministic
/// enumeration order (methods in group order, spec indices ascending —
/// exactly Verifier::runGroup's order). MethodIdx/SpecIdx are stored
/// and validated on rehydration as a defense-in-depth check against
/// key collisions and scheme drift.
struct ScenarioSlot {
  unsigned MethodIdx = 0;
  unsigned SpecIdx = 0;
  /// Canonical parameters (method params + spec ghosts) of the CURRENT
  /// program's scenario; positional references resolve against these.
  std::vector<VarId> Params;
  /// How many leading Params are real method parameters (the prefix
  /// the primed form ["q", i] is valid for).
  size_t NumMethodParams = 0;
};

/// Serialization input for one scenario: its slot plus the results to
/// persist.
struct ScenarioRecord {
  ScenarioSlot Slot;
  bool SafetyFailed = false;
  bool ReVerified = false;
  const CaseTree *Cases = nullptr;
  /// Optional audited termination condition (conditional-termination
  /// mode); null when the scenario publishes none. Serialized in the
  /// same VarId-free reference forms as the guards, so it rides warm
  /// starts byte-identically.
  const Formula *TermCond = nullptr;
};

/// Serializes one group's scenarios (plus its merged diagnostics and
/// bail flag) into a canonical JSON object. Term order inside linear
/// expressions is sorted by the serialized reference form, so the
/// bytes are a function of the summaries alone, not of VarId history.
/// Returns nullopt when a mentioned fresh variable's block has no
/// token in \p Blocks (root/foreign block): the group is not
/// canonically serializable and must not be stored.
///
/// \p Ct carries the group's audited conditional-termination counters;
/// nonzero counts serialize as the optional "ct" record so a warm
/// replay reports the same cond_term stats as the producing cold run
/// (the conditions themselves ride in the per-scenario "tc" forms —
/// without "ct" the counts silently read zero warm, the
/// ROADMAP-documented stats hole).
std::optional<std::string>
serializeGroupEntry(const std::vector<ScenarioRecord> &Scenarios,
                    const std::string &Diags, bool Bailed,
                    const BlockTokenMap &Blocks,
                    const CondTermStats &Ct = {});

/// One rehydrated scenario.
struct RehydratedScenario {
  unsigned MethodIdx = 0;
  unsigned SpecIdx = 0;
  bool SafetyFailed = false;
  bool ReVerified = false;
  CaseTree Cases;
  /// Rehydrated termination condition, when the entry stored one.
  Formula TermCond;
  bool HasTermCond = false;
};

/// A rehydrated group entry.
struct RehydratedGroup {
  std::vector<RehydratedScenario> Scenarios;
  std::string Diags;
  bool Bailed = false;
  /// The producer run's audited cond-term counters (zero when the
  /// entry predates --cond-term or the pass found nothing); the
  /// store-hit path folds these into the program result so warm stats
  /// match cold ones.
  CondTermStats Cond;
};

/// Rebuilds a stored entry against the current program's scenario
/// slots and block-token map. Returns false — leaving \p Out
/// unspecified — when the entry is malformed or does not match the
/// slots (wrong count, method/spec indices, out-of-range references,
/// unresolvable block tokens): the caller treats that as a store miss
/// and re-runs inference.
bool rehydrateGroupEntry(const std::string &EntryJson,
                         const std::vector<ScenarioSlot> &Slots,
                         const BlockTokenMap &Blocks,
                         RehydratedGroup &Out,
                         std::string *Err = nullptr);

/// Appends every fresh spelling \p EntryJson resolves to under
/// \p Blocks — ["f",...] references and binders, in consumer block
/// numbering — to \p Out. Malformed entries and unresolvable tokens
/// contribute nothing (rehydration will reject them later).
void collectFreshSpellings(const std::string &EntryJson,
                           const BlockTokenMap &Blocks,
                           std::vector<std::string> &Out);

/// Interns the collected spellings in canonical (block, counter)
/// order, each inside VarPool::Scope(block), reproducing the producing
/// run's relative id order (see file comment). Call it from a
/// sequential phase, per VarPool's scope contract — or from a group
/// task whose spellings all lie in that task's own block (see
/// internOwnBlockSpellings), since no other task of the session
/// allocates in that block.
void internFreshSpellings(std::vector<std::string> Spellings);

/// The mid-run form of the prescan, for an entry that reached the
/// store after the consuming program's prescan: when every fresh
/// spelling \p EntryJson resolves to under \p Blocks (nested bases
/// included) lies in \p Block — the consuming group's own block —
/// interns them as internFreshSpellings does and returns true.
/// Otherwise interns nothing and returns false; the caller treats the
/// entry as a miss. The answer depends only on the entry and the
/// block map, never on what the session interned before.
bool internOwnBlockSpellings(const std::string &EntryJson,
                             const BlockTokenMap &Blocks, uint32_t Block);

} // namespace tnt

#endif // TNT_STORE_SPECSERIAL_H
