//===- store/SpecSerial.cpp -----------------------------------*- C++ -*-===//

#include "store/SpecSerial.h"

#include "support/Json.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace tnt;

namespace {

/// Parses a block-scoped fresh spelling "base!b<block>!<n>"; the base
/// may itself contain such a suffix (fresh-of-fresh), in which case
/// the LAST suffix wins — that is the scope that allocated it. When
/// \p Base is non-null it receives the prefix before the suffix.
bool parseFreshSpelling(const std::string &S, uint32_t &Block, uint64_t &N,
                        std::string *Base = nullptr) {
  size_t Last = S.rfind('!');
  if (Last == std::string::npos || Last == 0 || Last + 1 >= S.size())
    return false;
  size_t Prev = S.rfind('!', Last - 1);
  if (Prev == std::string::npos || Prev == 0 || Prev + 2 >= Last ||
      S[Prev + 1] != 'b')
    return false;
  uint64_t B = 0, Cnt = 0;
  for (size_t I = Prev + 2; I < Last; ++I) {
    if (S[I] < '0' || S[I] > '9')
      return false;
    B = B * 10 + static_cast<uint64_t>(S[I] - '0');
    if (B > VarPool::MaxBlocks)
      return false;
  }
  for (size_t I = Last + 1; I < S.size(); ++I) {
    if (S[I] < '0' || S[I] > '9')
      return false;
    Cnt = Cnt * 10 + static_cast<uint64_t>(S[I] - '0');
  }
  Block = static_cast<uint32_t>(B);
  N = Cnt;
  if (Base != nullptr)
    *Base = S.substr(0, Prev);
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

/// Entry-level serialization state: the block-token table accumulated
/// in first-use order, and the "still canonically serializable" flag.
struct EntryWriter {
  const BlockTokenMap &Blocks;
  std::vector<std::string> Table;
  std::map<std::string, size_t> TableIdx;
  bool Ok = true;

  size_t tableIndex(const std::string &Token) {
    auto [It, Inserted] = TableIdx.emplace(Token, Table.size());
    if (Inserted)
      Table.push_back(Token);
    return It->second;
  }

  /// The ["f", t, n, base] form of a fresh spelling; sets \p IsFresh
  /// false (and returns nothing) for non-fresh spellings. A fresh
  /// spelling whose block has no token clears Ok — the caller's group
  /// cannot be stored.
  std::string freshForm(const std::string &Spelling, bool &IsFresh) {
    uint32_t Block;
    uint64_t N;
    std::string Base;
    if (!parseFreshSpelling(Spelling, Block, N, &Base)) {
      IsFresh = false;
      return "";
    }
    IsFresh = true;
    auto It = Blocks.TokenOf.find(Block);
    if (It == Blocks.TokenOf.end()) {
      // Root or foreign block: no canonical identity across programs.
      Ok = false;
      return "false";
    }
    size_t Idx = tableIndex(It->second);
    bool BaseFresh = false;
    std::string BaseForm = freshForm(Base, BaseFresh);
    if (!BaseFresh)
      BaseForm = json::quoted(Base);
    return "[\"f\"," + std::to_string(Idx) + "," + std::to_string(N) +
           "," + BaseForm + "]";
  }
};

/// Variable-reference resolution context for one scenario.
struct RefWriter {
  EntryWriter &Entry;
  const std::vector<VarId> &Params;
  size_t NumMethodParams;
  /// Exists binder frames, innermost last.
  std::vector<const std::vector<VarId> *> Frames;

  std::string ref(VarId V) {
    // Bound variable: flat de-Bruijn index counting from the innermost
    // frame.
    uint64_t Depth = 0;
    for (auto It = Frames.rbegin(); It != Frames.rend(); ++It) {
      const std::vector<VarId> &F = **It;
      for (size_t I = 0; I < F.size(); ++I)
        if (F[I] == V)
          return "[\"b\"," + std::to_string(Depth + I) + "]";
      Depth += F.size();
    }
    for (size_t I = 0; I < Params.size(); ++I)
      if (Params[I] == V)
        return "[\"p\"," + std::to_string(I) + "]";
    const std::string &Name = varName(V);
    bool IsFresh = false;
    std::string FF = Entry.freshForm(Name, IsFresh);
    if (IsFresh)
      return FF;
    if (!Name.empty() && Name.back() == '\'') {
      for (size_t I = 0; I < NumMethodParams && I < Params.size(); ++I) {
        const std::string &P = varName(Params[I]);
        if (Name.size() == P.size() + 1 &&
            Name.compare(0, P.size(), P) == 0)
          return "[\"q\"," + std::to_string(I) + "]";
      }
    }
    return "[\"n\"," + json::quoted(Name) + "]";
  }

  /// A binder DEFINES a variable; fresh binders use the canonical
  /// ["f",...] form, source-named ones their spelling.
  std::string binder(VarId V) {
    const std::string &Name = varName(V);
    bool IsFresh = false;
    std::string FF = Entry.freshForm(Name, IsFresh);
    return IsFresh ? FF : json::quoted(Name);
  }
};

std::string writeLin(const LinExpr &E, RefWriter &Refs) {
  std::string Out = "{\"k\":" + std::to_string(E.constant());
  if (!E.coeffs().empty()) {
    // Sort terms by serialized reference: the map's VarId order is a
    // process artifact, the reference form is canonical.
    std::vector<std::pair<std::string, int64_t>> Terms;
    for (const auto &[V, C] : E.coeffs())
      Terms.emplace_back(Refs.ref(V), C);
    std::sort(Terms.begin(), Terms.end());
    Out += ",\"t\":[";
    for (size_t I = 0; I < Terms.size(); ++I) {
      if (I != 0)
        Out += ',';
      Out += "[" + std::to_string(Terms[I].second) + "," + Terms[I].first +
             "]";
    }
    Out += "]";
  }
  return Out + "}";
}

const char *relName(RelKind R) {
  switch (R) {
  case RelKind::Eq:
    return "eq";
  case RelKind::Le:
    return "le";
  case RelKind::Ne:
    return "ne";
  }
  return "?";
}

std::string writeFormula(const Formula &F, RefWriter &Refs) {
  assert(F.isValid() && "serializing an invalid formula");
  const FormulaNode *N = F.node();
  switch (N->kind()) {
  case FormulaNode::Kind::True:
    return "true";
  case FormulaNode::Kind::False:
    return "false";
  case FormulaNode::Kind::Atom:
    return std::string("{\"a\":[\"") + relName(N->Atom.rel()) + "\"," +
           writeLin(N->Atom.expr(), Refs) + "]}";
  case FormulaNode::Kind::And:
  case FormulaNode::Kind::Or: {
    std::string Out = N->kind() == FormulaNode::Kind::And ? "{\"and\":["
                                                          : "{\"or\":[";
    for (size_t I = 0; I < N->Children.size(); ++I) {
      if (I != 0)
        Out += ',';
      Out += writeFormula(N->Children[I], Refs);
    }
    return Out + "]}";
  }
  case FormulaNode::Kind::Not:
    return "{\"not\":" + writeFormula(N->Children[0], Refs) + "}";
  case FormulaNode::Kind::Exists: {
    std::string Out = "{\"ex\":[[";
    for (size_t I = 0; I < N->Bound.size(); ++I) {
      if (I != 0)
        Out += ',';
      Out += Refs.binder(N->Bound[I]);
    }
    Out += "],";
    Refs.Frames.push_back(&N->Bound);
    Out += writeFormula(N->Children[0], Refs);
    Refs.Frames.pop_back();
    return Out + "]}";
  }
  }
  return "false";
}

std::string writeTemporal(const TemporalSpec &T, RefWriter &Refs) {
  const char *K = "U";
  switch (T.K) {
  case TemporalSpec::Kind::Term:
    K = "T";
    break;
  case TemporalSpec::Kind::Loop:
    K = "L";
    break;
  case TemporalSpec::Kind::MayLoop:
    K = "M";
    break;
  case TemporalSpec::Kind::Unknown:
    K = "U";
    break;
  }
  std::string Out = std::string("{\"k\":\"") + K + "\"";
  if (!T.Measure.empty()) {
    Out += ",\"m\":[";
    for (size_t I = 0; I < T.Measure.size(); ++I) {
      if (I != 0)
        Out += ',';
      Out += writeLin(T.Measure[I], Refs);
    }
    Out += "]";
  }
  return Out + "}";
}

std::string writeTree(const CaseTree &T, RefWriter &Refs) {
  if (T.isLeaf())
    return "{\"t\":" + writeTemporal(T.Temporal, Refs) +
           ",\"p\":" + (T.PostReachable ? "true" : "false") + "}";
  std::string Out = "{\"ch\":[";
  for (size_t I = 0; I < T.Children.size(); ++I) {
    if (I != 0)
      Out += ',';
    Out += "[" + writeFormula(T.Children[I].first, Refs) + "," +
           writeTree(T.Children[I].second, Refs) + "]";
  }
  return Out + "]}";
}

} // namespace

std::optional<std::string>
tnt::serializeGroupEntry(const std::vector<ScenarioRecord> &Scenarios,
                         const std::string &Diags, bool Bailed,
                         const BlockTokenMap &Blocks,
                         const CondTermStats &Ct) {
  EntryWriter Entry{Blocks, {}, {}, true};
  std::string Body = "\"sc\":[";
  for (size_t I = 0; I < Scenarios.size(); ++I) {
    const ScenarioRecord &R = Scenarios[I];
    assert(R.Cases != nullptr && "scenario without a case tree");
    RefWriter Refs{Entry, R.Slot.Params, R.Slot.NumMethodParams, {}};
    if (I != 0)
      Body += ',';
    Body += "{\"m\":" + std::to_string(R.Slot.MethodIdx) +
            ",\"s\":" + std::to_string(R.Slot.SpecIdx) +
            ",\"sf\":" + (R.SafetyFailed ? "true" : "false") +
            ",\"rv\":" + (R.ReVerified ? "true" : "false") +
            ",\"c\":" + writeTree(*R.Cases, Refs);
    if (R.TermCond != nullptr)
      Body += ",\"tc\":" + writeFormula(*R.TermCond, Refs);
    Body += "}";
  }
  Body += "]";
  if (!Entry.Ok)
    return std::nullopt;

  std::string Out = "{\"v\":1,";
  if (!Entry.Table.empty()) {
    Out += "\"bl\":[";
    for (size_t I = 0; I < Entry.Table.size(); ++I) {
      if (I != 0)
        Out += ',';
      Out += json::quoted(Entry.Table[I]);
    }
    Out += "],";
  }
  Out += Body;
  if (!Diags.empty())
    Out += ",\"d\":" + json::quoted(Diags);
  if (Bailed)
    Out += ",\"b\":true";
  if (Ct.Emitted != 0 || Ct.Sound != 0 || Ct.Demoted != 0 ||
      Ct.NonTrivial != 0 || Ct.LeavesCertified != 0)
    Out += ",\"ct\":[" + std::to_string(Ct.Emitted) + "," +
           std::to_string(Ct.Sound) + "," + std::to_string(Ct.Demoted) +
           "," + std::to_string(Ct.NonTrivial) + "," +
           std::to_string(Ct.LeavesCertified) + "]";
  return Out + "}";
}

//===----------------------------------------------------------------------===//
// Rehydration
//===----------------------------------------------------------------------===//

namespace {

/// Entry-level rehydration state: the block table resolved into the
/// CONSUMER's block numbers.
struct EntryReader {
  std::vector<uint32_t> Blocks;
  std::string Err;

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  bool resolveTable(const json::Value *Bl, const BlockTokenMap &Map) {
    if (Bl == nullptr)
      return true; // No fresh variables in this entry.
    if (!Bl->isArray())
      return fail("malformed block table");
    for (const json::Value &Tok : Bl->elements()) {
      if (!Tok.isString())
        return fail("malformed block token");
      auto It = Map.BlockOf.find(Tok.asString());
      if (It == Map.BlockOf.end())
        return fail("unresolvable block token " + Tok.asString());
      Blocks.push_back(It->second);
    }
    return true;
  }

  /// Resolves ["f", t, n, base] to the consumer-block spelling.
  bool freshSpelling(const json::Value &V, std::string &Out) {
    if (!V.isArray() || V.elements().size() != 4 ||
        !V.elements()[0].isString() || V.elements()[0].asString() != "f")
      return fail("malformed fresh reference");
    std::optional<int64_t> T = json::toInt64(V.elements()[1]);
    std::optional<int64_t> N = json::toInt64(V.elements()[2]);
    if (!T || !N || *T < 0 || *N < 0 ||
        static_cast<size_t>(*T) >= Blocks.size())
      return fail("fresh reference out of range");
    const json::Value &Base = V.elements()[3];
    std::string BaseStr;
    if (Base.isString()) {
      BaseStr = Base.asString();
    } else if (!freshSpelling(Base, BaseStr)) {
      return false;
    }
    Out = BaseStr + "!b" + std::to_string(Blocks[*T]) + "!" +
          std::to_string(*N);
    return true;
  }
};

/// Parser state for one scenario's formulas.
struct RefReader {
  EntryReader &Entry;
  const ScenarioSlot &Slot;
  /// Binder frames, innermost last.
  std::vector<std::vector<VarId>> Frames;

  bool fail(const std::string &Msg) { return Entry.fail(Msg); }

  bool readRef(const json::Value &V, VarId &Out) {
    if (!V.isArray() || V.elements().size() < 2 ||
        !V.elements()[0].isString())
      return fail("malformed variable reference");
    const std::string &Tag = V.elements()[0].asString();
    if (Tag == "f") {
      std::string Spelling;
      if (!Entry.freshSpelling(V, Spelling))
        return false;
      Out = mkVar(Spelling);
      return true;
    }
    if (V.elements().size() != 2)
      return fail("malformed variable reference");
    const json::Value &Arg = V.elements()[1];
    if (Tag == "n") {
      if (!Arg.isString())
        return fail("named reference without a spelling");
      Out = mkVar(Arg.asString());
      return true;
    }
    std::optional<int64_t> N = json::toInt64(Arg);
    if (!N || *N < 0)
      return fail("non-integer reference index");
    uint64_t Idx = static_cast<uint64_t>(*N);
    if (Tag == "p") {
      if (Idx >= Slot.Params.size())
        return fail("parameter index out of range");
      Out = Slot.Params[Idx];
      return true;
    }
    if (Tag == "q") {
      if (Idx >= Slot.NumMethodParams || Idx >= Slot.Params.size())
        return fail("primed-parameter index out of range");
      Out = mkVar(varName(Slot.Params[Idx]) + "'");
      return true;
    }
    if (Tag == "b") {
      uint64_t Depth = 0;
      for (auto It = Frames.rbegin(); It != Frames.rend(); ++It) {
        if (Idx < Depth + It->size()) {
          Out = (*It)[Idx - Depth];
          return true;
        }
        Depth += It->size();
      }
      return fail("de-Bruijn index out of range");
    }
    return fail("unknown reference tag '" + Tag + "'");
  }

  bool readLin(const json::Value &V, LinExpr &Out) {
    if (!V.isObject())
      return fail("malformed linear expression");
    const json::Value *K = V.field("k");
    if (K == nullptr)
      return fail("linear expression without a constant");
    std::optional<int64_t> C = json::toInt64(*K);
    if (!C)
      return fail("non-integer constant");
    Out = LinExpr(*C);
    if (const json::Value *Terms = V.field("t")) {
      if (!Terms->isArray())
        return fail("malformed term list");
      for (const json::Value &T : Terms->elements()) {
        if (!T.isArray() || T.elements().size() != 2)
          return fail("malformed term");
        std::optional<int64_t> Coeff = json::toInt64(T.elements()[0]);
        if (!Coeff || *Coeff == 0)
          return fail("bad term coefficient");
        VarId Var = 0;
        if (!readRef(T.elements()[1], Var))
          return false;
        Out = Out + LinExpr::var(Var, *Coeff);
      }
    }
    return true;
  }

  bool readFormula(const json::Value &V, Formula &Out) {
    if (V.isBool()) {
      Out = V.asBool() ? Formula::top() : Formula::bottom();
      return true;
    }
    if (!V.isObject() || V.members().size() != 1)
      return fail("malformed formula node");
    const auto &[Key, Body] = V.members()[0];
    if (Key == "a") {
      if (!Body.isArray() || Body.elements().size() != 2 ||
          !Body.elements()[0].isString())
        return fail("malformed atom");
      const std::string &Rel = Body.elements()[0].asString();
      RelKind R;
      if (Rel == "eq")
        R = RelKind::Eq;
      else if (Rel == "le")
        R = RelKind::Le;
      else if (Rel == "ne")
        R = RelKind::Ne;
      else
        return fail("unknown relation '" + Rel + "'");
      LinExpr E;
      if (!readLin(Body.elements()[1], E))
        return false;
      Out = Formula::atom(Constraint(std::move(E), R));
      return true;
    }
    if (Key == "and" || Key == "or") {
      if (!Body.isArray())
        return fail("malformed junction");
      std::vector<Formula> Children;
      Children.reserve(Body.elements().size());
      for (const json::Value &C : Body.elements()) {
        Formula F;
        if (!readFormula(C, F))
          return false;
        Children.push_back(F);
      }
      Out = Key == "and" ? Formula::conj(Children) : Formula::disj(Children);
      return true;
    }
    if (Key == "not") {
      Formula F;
      if (!readFormula(Body, F))
        return false;
      Out = Formula::neg(F);
      return true;
    }
    if (Key == "ex") {
      if (!Body.isArray() || Body.elements().size() != 2 ||
          !Body.elements()[0].isArray())
        return fail("malformed existential");
      std::vector<VarId> Binders;
      for (const json::Value &B : Body.elements()[0].elements()) {
        if (B.isString()) {
          Binders.push_back(mkVar(B.asString()));
        } else {
          std::string Spelling;
          if (!Entry.freshSpelling(B, Spelling))
            return false;
          Binders.push_back(mkVar(Spelling));
        }
      }
      Frames.push_back(Binders);
      Formula F;
      bool Ok = readFormula(Body.elements()[1], F);
      Frames.pop_back();
      if (!Ok)
        return false;
      Out = Formula::exists(Binders, F);
      return true;
    }
    return fail("unknown formula key '" + Key + "'");
  }

  bool readTemporal(const json::Value &V, TemporalSpec &Out) {
    if (!V.isObject())
      return fail("malformed temporal spec");
    const json::Value *K = V.field("k");
    if (K == nullptr || !K->isString())
      return fail("temporal spec without a kind");
    const std::string &Kind = K->asString();
    if (Kind == "T")
      Out.K = TemporalSpec::Kind::Term;
    else if (Kind == "L")
      Out.K = TemporalSpec::Kind::Loop;
    else if (Kind == "M")
      Out.K = TemporalSpec::Kind::MayLoop;
    else if (Kind == "U")
      Out.K = TemporalSpec::Kind::Unknown;
    else
      return fail("unknown temporal kind '" + Kind + "'");
    Out.Measure.clear();
    if (const json::Value *M = V.field("m")) {
      if (!M->isArray())
        return fail("malformed measure list");
      for (const json::Value &Lin : M->elements()) {
        LinExpr E;
        if (!readLin(Lin, E))
          return false;
        Out.Measure.push_back(std::move(E));
      }
    }
    return true;
  }

  bool readTree(const json::Value &V, CaseTree &Out) {
    if (!V.isObject())
      return fail("malformed case tree");
    if (const json::Value *Ch = V.field("ch")) {
      if (!Ch->isArray())
        return fail("malformed children list");
      for (const json::Value &Pair : Ch->elements()) {
        if (!Pair.isArray() || Pair.elements().size() != 2)
          return fail("malformed child pair");
        Formula Guard;
        CaseTree Sub;
        if (!readFormula(Pair.elements()[0], Guard) ||
            !readTree(Pair.elements()[1], Sub))
          return false;
        Out.Children.emplace_back(Guard, std::move(Sub));
      }
      if (Out.Children.empty())
        return fail("inner case node without children");
      return true;
    }
    const json::Value *T = V.field("t");
    const json::Value *P = V.field("p");
    if (T == nullptr || P == nullptr || !P->isBool())
      return fail("leaf without temporal/post fields");
    Out.PostReachable = P->asBool();
    return readTemporal(*T, Out.Temporal);
  }
};

} // namespace

bool tnt::rehydrateGroupEntry(const std::string &EntryJson,
                              const std::vector<ScenarioSlot> &Slots,
                              const BlockTokenMap &Blocks,
                              RehydratedGroup &Out, std::string *Err) {
  auto fail = [&](const std::string &Msg) {
    if (Err != nullptr)
      *Err = Msg;
    return false;
  };
  std::string ParseErr;
  std::optional<json::Value> Doc = json::parse(EntryJson, &ParseErr);
  if (!Doc || !Doc->isObject())
    return fail("unparseable entry: " + ParseErr);
  const json::Value *Version = Doc->field("v");
  if (Version == nullptr || json::toInt64(*Version).value_or(0) != 1)
    return fail("unsupported entry version");
  const json::Value *Sc = Doc->field("sc");
  if (Sc == nullptr || !Sc->isArray())
    return fail("entry without scenarios");
  if (Sc->elements().size() != Slots.size())
    return fail("scenario count mismatch");

  EntryReader Entry;
  if (!Entry.resolveTable(Doc->field("bl"), Blocks))
    return fail(Entry.Err);

  Out.Scenarios.clear();
  for (size_t I = 0; I < Slots.size(); ++I) {
    const json::Value &SV = Sc->elements()[I];
    if (!SV.isObject())
      return fail("malformed scenario");
    const json::Value *M = SV.field("m");
    const json::Value *S = SV.field("s");
    const json::Value *SF = SV.field("sf");
    const json::Value *RV = SV.field("rv");
    const json::Value *C = SV.field("c");
    if (M == nullptr || S == nullptr || SF == nullptr || RV == nullptr ||
        C == nullptr || !SF->isBool() || !RV->isBool())
      return fail("scenario missing fields");
    if (json::toInt64(*M).value_or(-1) !=
            static_cast<int64_t>(Slots[I].MethodIdx) ||
        json::toInt64(*S).value_or(-1) !=
            static_cast<int64_t>(Slots[I].SpecIdx))
      return fail("scenario slot mismatch");

    RehydratedScenario R;
    R.MethodIdx = Slots[I].MethodIdx;
    R.SpecIdx = Slots[I].SpecIdx;
    R.SafetyFailed = SF->asBool();
    R.ReVerified = RV->asBool();
    RefReader Reader{Entry, Slots[I], {}};
    if (!Reader.readTree(*C, R.Cases))
      return fail("scenario " + std::to_string(I) + ": " + Entry.Err);
    if (const json::Value *TC = SV.field("tc")) {
      if (!Reader.readFormula(*TC, R.TermCond))
        return fail("scenario " + std::to_string(I) + ": " + Entry.Err);
      R.HasTermCond = true;
    }
    Out.Scenarios.push_back(std::move(R));
  }

  Out.Diags.clear();
  if (const json::Value *D = Doc->field("d")) {
    if (!D->isString())
      return fail("malformed diagnostics");
    Out.Diags = D->asString();
  }
  Out.Bailed = false;
  if (const json::Value *B = Doc->field("b"))
    Out.Bailed = B->asBool();
  Out.Cond = CondTermStats{};
  if (const json::Value *Ct = Doc->field("ct")) {
    if (!Ct->isArray() || Ct->elements().size() != 5)
      return fail("malformed cond-term record");
    uint64_t Vals[5];
    for (size_t I = 0; I < 5; ++I) {
      std::optional<int64_t> N = json::toInt64(Ct->elements()[I]);
      if (!N || *N < 0)
        return fail("malformed cond-term record");
      Vals[I] = static_cast<uint64_t>(*N);
    }
    Out.Cond.Emitted = Vals[0];
    Out.Cond.Sound = Vals[1];
    Out.Cond.Demoted = Vals[2];
    Out.Cond.NonTrivial = Vals[3];
    Out.Cond.LeavesCertified = Vals[4];
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Fresh-spelling prescan
//===----------------------------------------------------------------------===//

namespace {

void collectFRefs(const json::Value &V, EntryReader &Entry,
                  std::vector<std::string> &Out) {
  if (V.isArray()) {
    const auto &Elems = V.elements();
    if (Elems.size() == 4 && Elems[0].isString() &&
        Elems[0].asString() == "f") {
      std::string Spelling;
      if (Entry.freshSpelling(V, Spelling)) {
        Out.push_back(std::move(Spelling));
        return; // Nested base already folded into the spelling.
      }
      Entry.Err.clear();
    }
    for (const json::Value &E : Elems)
      collectFRefs(E, Entry, Out);
    return;
  }
  if (V.isObject())
    for (const auto &[Key, Member] : V.members())
      collectFRefs(Member, Entry, Out);
}

} // namespace

void tnt::collectFreshSpellings(const std::string &EntryJson,
                                const BlockTokenMap &Blocks,
                                std::vector<std::string> &Out) {
  std::optional<json::Value> Doc = json::parse(EntryJson);
  if (!Doc || !Doc->isObject())
    return;
  EntryReader Entry;
  if (!Entry.resolveTable(Doc->field("bl"), Blocks))
    return;
  std::vector<std::string> All;
  collectFRefs(*Doc, Entry, All);
  // A resolved spelling's nested BASE spelling is itself a variable of
  // a lower block; the prescan must intern it too, in its own block's
  // order, exactly as the producing run allocated it first.
  for (std::string &S : All) {
    std::string Cur = S;
    uint32_t Block;
    uint64_t N;
    std::string Base;
    Out.push_back(Cur);
    while (parseFreshSpelling(Cur, Block, N, &Base) &&
           parseFreshSpelling(Base, Block, N)) {
      Out.push_back(Base);
      Cur = Base;
    }
  }
}

void tnt::internFreshSpellings(std::vector<std::string> Spellings) {
  struct Rec {
    uint32_t Block;
    uint64_t N;
    std::string Spelling;
    bool operator<(const Rec &O) const {
      if (Block != O.Block)
        return Block < O.Block;
      if (N != O.N)
        return N < O.N;
      return Spelling < O.Spelling;
    }
    bool operator==(const Rec &O) const {
      return Block == O.Block && N == O.N && Spelling == O.Spelling;
    }
  };
  std::vector<Rec> Recs;
  Recs.reserve(Spellings.size());
  for (std::string &S : Spellings) {
    Rec R;
    if (parseFreshSpelling(S, R.Block, R.N)) {
      R.Spelling = std::move(S);
      Recs.push_back(std::move(R));
    }
  }
  std::sort(Recs.begin(), Recs.end());
  Recs.erase(std::unique(Recs.begin(), Recs.end()), Recs.end());

  // Intern per block inside the matching scope, ascending by the
  // allocation counter the spelling encodes: ids land in the block's
  // region in the producing run's relative order (dense is fine — only
  // the ORDER feeds the id-sorted child canonicalization).
  size_t I = 0;
  while (I < Recs.size()) {
    uint32_t Block = Recs[I].Block;
    VarPool::Scope Sc(Block);
    for (; I < Recs.size() && Recs[I].Block == Block; ++I)
      mkVar(Recs[I].Spelling);
  }
}

bool tnt::internOwnBlockSpellings(const std::string &EntryJson,
                                  const BlockTokenMap &Blocks,
                                  uint32_t Block) {
  std::vector<std::string> Fresh;
  collectFreshSpellings(EntryJson, Blocks, Fresh);
  for (const std::string &S : Fresh) {
    uint32_t B;
    uint64_t N;
    if (parseFreshSpelling(S, B, N) && B != Block)
      return false;
  }
  internFreshSpellings(std::move(Fresh));
  return true;
}
