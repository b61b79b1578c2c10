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
///   ["p", i]      the i-th canonical parameter of the scenario —
///                 positional, so the entry rehydrates against the
///                 CURRENT method's parameter list;
///   ["q", i]      the post-state prime of parameter i ("x'");
///   ["b", k]      de-Bruijn index into the enclosing Exists binder
///                 frames (innermost first);
///   ["n", name]   any other variable, by spelling — "res", spec
///                 ghosts, source-named binders. Spelling-to-id
///                 interning is the pool's stability contract, so a
///                 spelling reproduces the exact rendered name.
///
/// Exists binders serialize as their spellings; rehydration re-interns
/// them through the ordinary constructors, so And/Or re-canonicalize
/// under current ids.
///
/// A summary that names a FRESH variable — a spelling with a '!',
/// which no parsed identifier can contain — is not serializable, free
/// or bound, whatever block minted it: serializeGroupEntry returns
/// nullopt, the group is not stored, and its next use re-infers it.
/// A stored entry is therefore stated over the method's parameters and
/// source-level names alone, the paper's reusable artifact: every
/// spelling a rehydration interns is a parameter, its prime, "res", a
/// ghost or a source-named binder, never a block-scoped fresh spelling
/// whose allocation order a replay would have to reproduce. The reader
/// rejects fresh spellings too, including the ["f",...] form older
/// builds wrote: such an entry fails rehydration and counts as a miss.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_STORE_SPECSERIAL_H
#define TNT_STORE_SPECSERIAL_H

#include "infer/CondTerm.h"
#include "spec/Spec.h"

#include <optional>
#include <string>
#include <vector>

namespace tnt {

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
/// Returns nullopt when a summary names a fresh variable (see file
/// comment): the group must not be stored.
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
/// slots. Returns false — leaving \p Out unspecified — when the entry
/// is malformed or does not match the slots (wrong count, method/spec
/// indices, out-of-range references, fresh spellings): the caller
/// treats that as a store miss and re-runs inference.
bool rehydrateGroupEntry(const std::string &EntryJson,
                         const std::vector<ScenarioSlot> &Slots,
                         RehydratedGroup &Out,
                         std::string *Err = nullptr);

} // namespace tnt

#endif // TNT_STORE_SPECSERIAL_H
