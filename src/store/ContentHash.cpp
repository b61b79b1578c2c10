//===- store/ContentHash.cpp ----------------------------------*- C++ -*-===//

#include "store/ContentHash.h"

#include "arith/Var.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace tnt;

void StructHash::mix(uint64_t V) {
  // splitmix64 finalizer, one distinct odd multiplier per lane.
  auto stir = [](uint64_t H, uint64_t V2, uint64_t M) {
    H += V2 + 0x9e3779b97f4a7c15ull;
    H = (H ^ (H >> 30)) * M;
    H = (H ^ (H >> 27)) * 0x94d049bb133111ebull;
    return H ^ (H >> 31);
  };
  A = stir(A, V, 0xbf58476d1ce4e5b9ull);
  B = stir(B, V ^ 0xa0761d6478bd642full, 0xe7037ed1a0b428dbull);
}

void StructHash::mixStr(const std::string &S) {
  mix(S.size());
  uint64_t Acc = 0;
  unsigned Fill = 0;
  for (unsigned char C : S) {
    Acc = (Acc << 8) | C;
    if (++Fill == 8) {
      mix(Acc);
      Acc = 0;
      Fill = 0;
    }
  }
  if (Fill != 0)
    mix(Acc);
}

void StructHash::mixUnordered(const StructHash &Sub) {
  A += Sub.A;
  B += Sub.B;
}

std::string StructHash::hex() const {
  static const char *Digits = "0123456789abcdef";
  std::string Out;
  Out.reserve(32);
  for (uint64_t Lane : {A, B})
    for (int Shift = 60; Shift >= 0; Shift -= 4)
      Out += Digits[(Lane >> Shift) & 0xF];
  return Out;
}

namespace {

/// Tags mixed ahead of each node so different shapes never collide by
/// field coincidence.
enum Tag : uint64_t {
  TagType = 1,
  TagExpr,
  TagStmt,
  TagFormulaNode,
  TagLinTerm,
  TagConstraint,
  TagHeapAtom,
  TagTemporal,
  TagSpec,
  TagMethod,
  TagGroup,
  TagEnvData,
  TagEnvPred,
  TagVarParam,
  TagVarPrime,
  TagVarLocal,
  TagVarBound,
  TagVarNamed,
  TagCallSelf,
  TagCallDep,
  TagCallNamed,
  TagNull,
};

/// Variable canonicalization for one method scenario / pred decl:
/// positional for parameters (and their primed post-state versions)
/// and — inside method bodies — for locals, de-Bruijn for Exists
/// binders, spelling for everything else.
struct VarCanon {
  /// Parameter spellings in canonical order (positional identity).
  std::vector<std::string> Params;
  /// Declaration-position map of the enclosing body's locals; null
  /// outside a body (spec formulas — ghosts stay spelling-hashed by
  /// design). Locals MUST hash positionally wherever they can occur:
  /// an assume() formula mentions locals, and hashing those by
  /// spelling while body references hash by position would let two
  /// semantically different programs share a key — an unsound hit.
  const std::map<std::string, size_t> *Locals = nullptr;
  /// Active Exists binder frames, innermost last.
  std::vector<std::vector<VarId>> Frames;

  void mixVar(StructHash &H, VarId V) const {
    const std::string &Name = varName(V);
    // Bound variable: innermost frame first.
    uint64_t Depth = 0;
    for (auto It = Frames.rbegin(); It != Frames.rend(); ++It) {
      for (size_t I = 0; I < It->size(); ++I)
        if ((*It)[I] == V) {
          H.mix(TagVarBound);
          H.mix(Depth + I);
          return;
        }
      Depth += It->size();
    }
    // Locals before params, matching the body reference resolution.
    if (Locals != nullptr) {
      auto It = Locals->find(Name);
      if (It != Locals->end()) {
        H.mix(TagVarLocal);
        H.mix(It->second);
        return;
      }
    }
    for (size_t I = 0; I < Params.size(); ++I) {
      if (Name == Params[I]) {
        H.mix(TagVarParam);
        H.mix(I);
        return;
      }
      // Post-state prime of a parameter ("x'").
      if (Name.size() == Params[I].size() + 1 && Name.back() == '\'' &&
          Name.compare(0, Params[I].size(), Params[I]) == 0) {
        H.mix(TagVarPrime);
        H.mix(I);
        return;
      }
    }
    H.mix(TagVarNamed);
    H.mixStr(Name);
  }
};

void hashLin(StructHash &H, const LinExpr &E, const VarCanon &Canon) {
  H.mix(TagLinTerm);
  H.mix(static_cast<uint64_t>(E.constant()));
  H.mix(E.coeffs().size());
  // Terms combine order-insensitively: the map's VarId order is not
  // alpha-invariant, but the multiset of (canonical var, coeff) pairs
  // is.
  for (const auto &[V, C] : E.coeffs()) {
    StructHash T;
    T.mix(static_cast<uint64_t>(C));
    Canon.mixVar(T, V);
    H.mixUnordered(T);
  }
  H.mix(TagLinTerm); // Stir the accumulated lanes.
}

void hashConstraint(StructHash &H, const Constraint &C,
                    const VarCanon &Canon) {
  H.mix(TagConstraint);
  H.mix(static_cast<uint64_t>(C.rel()));
  hashLin(H, C.expr(), Canon);
}

void hashFormula(StructHash &H, const Formula &F, VarCanon &Canon) {
  assert(F.isValid() && "hashing an invalid formula");
  const FormulaNode *N = F.node();
  H.mix(TagFormulaNode);
  H.mix(static_cast<uint64_t>(N->kind()));
  switch (N->kind()) {
  case FormulaNode::Kind::True:
  case FormulaNode::Kind::False:
    return;
  case FormulaNode::Kind::Atom:
    hashConstraint(H, N->Atom, Canon);
    return;
  case FormulaNode::Kind::And:
  case FormulaNode::Kind::Or: {
    // The interned child order is sorted by current VarIds, which an
    // alpha-renaming can permute; combine children commutatively so
    // the hash sees the multiset.
    H.mix(N->Children.size());
    for (const Formula &Child : N->Children) {
      StructHash Sub;
      hashFormula(Sub, Child, Canon);
      H.mixUnordered(Sub);
    }
    H.mix(TagFormulaNode);
    return;
  }
  case FormulaNode::Kind::Not:
    hashFormula(H, N->Children[0], Canon);
    return;
  case FormulaNode::Kind::Exists:
    // Binder identity is the (depth, position) in the node's sorted
    // binder list — see the header on the binder-permutation corner.
    H.mix(N->Bound.size());
    Canon.Frames.push_back(N->Bound);
    hashFormula(H, N->Children[0], Canon);
    Canon.Frames.pop_back();
    return;
  }
}

void hashType(StructHash &H, const Type &T) {
  H.mix(TagType);
  H.mix(static_cast<uint64_t>(T.K));
  if (T.isData())
    H.mixStr(T.DataName);
}

void hashHeap(StructHash &H, const HeapFormula &HF, const VarCanon &Canon) {
  H.mix(HF.Atoms.size());
  for (const HeapAtom &Atm : HF.Atoms) {
    H.mix(TagHeapAtom);
    H.mix(static_cast<uint64_t>(Atm.K));
    H.mixStr(Atm.Name);
    if (Atm.K == HeapAtom::Kind::PointsTo)
      Canon.mixVar(H, Atm.Root);
    H.mix(Atm.Args.size());
    for (const LinExpr &Arg : Atm.Args)
      hashLin(H, Arg, Canon);
  }
}

void hashTemporal(StructHash &H, const TemporalSpec &T,
                  const VarCanon &Canon) {
  H.mix(TagTemporal);
  H.mix(static_cast<uint64_t>(T.K));
  H.mix(T.Measure.size());
  for (const LinExpr &M : T.Measure)
    hashLin(H, M, Canon);
}

void hashSpec(StructHash &H, const MethodSpec &S, VarCanon &Canon) {
  H.mix(TagSpec);
  hashFormula(H, S.PrePure, Canon);
  hashHeap(H, S.PreHeap, Canon);
  hashTemporal(H, S.Temporal, Canon);
  hashFormula(H, S.PostPure, Canon);
  hashHeap(H, S.PostHeap, Canon);
}

/// Canonical identity of a callee at a call site (see header).
struct CalleeResolver {
  const std::map<std::string, std::pair<size_t, size_t>> &MethodGroup;
  const std::vector<std::string> *Keys;
  size_t SelfGroup;
  const std::vector<std::string> *SelfMembers;

  void mixCallee(StructHash &H, const std::string &Name) const {
    auto It = MethodGroup.find(Name);
    if (It != MethodGroup.end()) {
      auto [G, IdxInGroup] = It->second;
      if (G == SelfGroup) {
        H.mix(TagCallSelf);
        H.mix(IdxInGroup);
        return;
      }
      if (Keys != nullptr && G < Keys->size()) {
        H.mix(TagCallDep);
        H.mixStr((*Keys)[G]);
        H.mix(IdxInGroup);
        return;
      }
    }
    // Unknown callee (the resolver already diagnosed it): spelling.
    H.mix(TagCallNamed);
    H.mixStr(Name);
  }
};

/// Statement/expression hashing with local-variable canonicalization:
/// params then locals, numbered by first declaration. Attaches the
/// local map to the VarCanon so embedded formulas (assume) resolve
/// locals positionally too.
struct BodyHasher {
  VarCanon &Canon;
  const CalleeResolver &Callees;
  std::map<std::string, size_t> LocalIdx;

  BodyHasher(VarCanon &Canon, const CalleeResolver &Callees)
      : Canon(Canon), Callees(Callees) {
    Canon.Locals = &LocalIdx;
  }
  ~BodyHasher() { Canon.Locals = nullptr; }

  void mixName(StructHash &H, const std::string &Name) {
    auto It = LocalIdx.find(Name);
    if (It != LocalIdx.end()) {
      H.mix(TagVarLocal);
      H.mix(It->second);
      return;
    }
    for (size_t I = 0; I < Canon.Params.size(); ++I)
      if (Name == Canon.Params[I]) {
        H.mix(TagVarParam);
        H.mix(I);
        return;
      }
    H.mix(TagVarNamed);
    H.mixStr(Name);
  }

  void declare(const std::string &Name) {
    LocalIdx.emplace(Name, LocalIdx.size());
  }

  void hashExpr(StructHash &H, const Expr &E) {
    H.mix(TagExpr);
    H.mix(static_cast<uint64_t>(E.K));
    switch (E.K) {
    case Expr::Kind::IntLit:
      H.mix(static_cast<uint64_t>(E.IntVal));
      break;
    case Expr::Kind::BoolLit:
      H.mix(E.BoolVal ? 1 : 0);
      break;
    case Expr::Kind::Null:
    case Expr::Kind::NondetInt:
    case Expr::Kind::NondetBool:
      break;
    case Expr::Kind::Var:
      mixName(H, E.Name);
      break;
    case Expr::Kind::FieldRead:
      mixName(H, E.Name);
      H.mixStr(E.Field);
      break;
    case Expr::Kind::Unary:
      H.mix(static_cast<uint64_t>(E.Un));
      break;
    case Expr::Kind::Binary:
      H.mix(static_cast<uint64_t>(E.Bin));
      break;
    case Expr::Kind::Call:
      Callees.mixCallee(H, E.Name);
      break;
    case Expr::Kind::New:
      H.mixStr(E.Name);
      break;
    }
    if (E.Lhs)
      hashExpr(H, *E.Lhs);
    if (E.Rhs)
      hashExpr(H, *E.Rhs);
    H.mix(E.Args.size());
    for (const ExprPtr &Arg : E.Args)
      hashExpr(H, *Arg);
  }

  void hashStmt(StructHash &H, const Stmt &S) {
    H.mix(TagStmt);
    H.mix(static_cast<uint64_t>(S.K));
    switch (S.K) {
    case Stmt::Kind::VarDecl:
      hashType(H, S.DeclTy);
      declare(S.Name);
      mixName(H, S.Name);
      break;
    case Stmt::Kind::Assign:
      mixName(H, S.Name);
      break;
    case Stmt::Kind::FieldAssign:
      mixName(H, S.Name);
      H.mixStr(S.Field);
      break;
    case Stmt::Kind::Assume:
      hashFormula(H, S.PureF, Canon);
      break;
    default:
      break;
    }
    if (S.E)
      hashExpr(H, *S.E);
    H.mix(S.Stmts.size());
    for (const StmtPtr &Sub : S.Stmts)
      hashStmt(H, *Sub);
    auto sub = [&](const StmtPtr &P) {
      if (P) {
        H.mix(1);
        hashStmt(H, *P);
      } else {
        H.mix(TagNull);
      }
    };
    sub(S.Then);
    sub(S.Else);
    sub(S.Body);
  }
};

/// Hash of the program environment the analysis of ANY group can
/// consult: data declarations (field layouts drive the heap encoding)
/// and inductive predicates (unfolding drives entailment). Editing one
/// conservatively invalidates every stored group of the program.
StructHash hashEnvironment(const Program &P) {
  StructHash H;
  H.mix(P.Datas.size());
  for (const DataDecl &D : P.Datas) {
    H.mix(TagEnvData);
    H.mixStr(D.Name);
    H.mix(D.Fields.size());
    for (const auto &[Ty, Name] : D.Fields) {
      hashType(H, Ty);
      H.mixStr(Name);
    }
  }
  H.mix(P.Preds.size());
  for (const PredDecl &Pd : P.Preds) {
    H.mix(TagEnvPred);
    H.mixStr(Pd.Name);
    VarCanon Canon;
    for (VarId V : Pd.Params)
      Canon.Params.push_back(varName(V));
    H.mix(Pd.Params.size());
    H.mix(Pd.Branches.size());
    for (const PredDecl::Branch &Br : Pd.Branches) {
      hashFormula(H, Br.Pure, Canon);
      hashHeap(H, Br.Heap, Canon);
    }
  }
  return H;
}

} // namespace

std::vector<std::string>
tnt::computeGroupKeys(const Program &P,
                      const std::vector<std::vector<std::string>> &Groups) {
  StructHash Env = hashEnvironment(P);

  // Method -> (group index, index within group).
  std::map<std::string, std::pair<size_t, size_t>> MethodGroup;
  for (size_t G = 0; G < Groups.size(); ++G)
    for (size_t I = 0; I < Groups[G].size(); ++I)
      MethodGroup[Groups[G][I]] = {G, I};
  // Method -> program declaration rank (pins SCC member order).
  std::map<std::string, size_t> DeclRank;
  for (size_t I = 0; I < P.Methods.size(); ++I)
    DeclRank.emplace(P.Methods[I].Name, I);

  std::vector<std::string> Keys;
  Keys.reserve(Groups.size());
  for (size_t G = 0; G < Groups.size(); ++G) {
    StructHash H;
    H.mix(TagGroup);
    H.mixUnordered(Env);
    H.mix(TagGroup);
    // The block schedule (see header: entries are exact only for the
    // numbering they were inferred under).
    H.mix(VarPool::RootBlock);
    H.mix(VarPool::groupBlock(G));
    H.mix(Groups[G].size());

    // Member order within the group is alphabetical (CallGraph sorts
    // SCC members); mix each member's relative declaration rank so a
    // rename that REORDERS the SCC changes the key (the scenario slots
    // of the stored entry are positional).
    std::vector<size_t> Ranks;
    for (const std::string &Name : Groups[G])
      Ranks.push_back(DeclRank.count(Name) ? DeclRank[Name] : ~size_t(0));
    std::vector<size_t> Sorted = Ranks;
    std::sort(Sorted.begin(), Sorted.end());
    for (size_t R : Ranks)
      H.mix(std::lower_bound(Sorted.begin(), Sorted.end(), R) -
            Sorted.begin());

    CalleeResolver Callees{MethodGroup, &Keys, G, &Groups[G]};
    for (const std::string &Name : Groups[G]) {
      const MethodDecl *M = P.findMethod(Name);
      assert(M && "group member not found");
      StructHash MH;
      MH.mix(TagMethod);
      hashType(MH, M->RetTy);
      MH.mix(M->Params.size());

      VarCanon Canon;
      for (const Param &Prm : M->Params) {
        hashType(MH, Prm.Ty);
        MH.mix(Prm.ByRef ? 1 : 0);
        Canon.Params.push_back(Prm.Name);
      }

      MH.mix(M->Specs.size());
      for (const MethodSpec &S : M->Specs)
        hashSpec(MH, S, Canon);

      if (M->Body) {
        MH.mix(1);
        BodyHasher BH(Canon, Callees);
        BH.hashStmt(MH, *M->Body);
      } else {
        MH.mix(TagNull);
      }
      H.mix(MH.loA());
      H.mix(MH.loB());
    }
    Keys.push_back(H.hex());
  }
  return Keys;
}
