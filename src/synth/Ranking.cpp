//===- synth/Ranking.cpp --------------------------------------*- C++ -*-===//

#include "synth/Ranking.h"

#include "support/WorkStealingPool.h"
#include "synth/Farkas.h"

#include <cassert>
#include <optional>

using namespace tnt;

namespace {

/// Fresh template parameter lists, one per predicate: c0 + sum ci * vi.
std::vector<std::vector<VarId>>
makeTemplates(const std::vector<std::vector<VarId>> &PredParams) {
  std::vector<std::vector<VarId>> Tpls;
  for (size_t I = 0; I < PredParams.size(); ++I) {
    std::vector<VarId> T;
    T.push_back(freshVar("rk_c"));
    for (size_t J = 0; J < PredParams[I].size(); ++J)
      T.push_back(freshVar("rk_c"));
    Tpls.push_back(std::move(T));
  }
  return Tpls;
}

std::vector<LinExpr> varsAsArgs(const std::vector<VarId> &Vs) {
  std::vector<LinExpr> Args;
  Args.reserve(Vs.size());
  for (VarId V : Vs)
    Args.push_back(LinExpr::var(V));
  return Args;
}

/// The source-side template over the source pred's own parameters.
ParamLinExpr srcRank(const std::vector<std::vector<VarId>> &Tpls,
                     const std::vector<std::vector<VarId>> &PredParams,
                     const RankEdge &E) {
  return ParamLinExpr::applyTemplate(Tpls[E.Src],
                                     varsAsArgs(PredParams[E.Src]));
}

/// The destination-side template applied to the edge's actual arguments.
ParamLinExpr dstRank(const std::vector<std::vector<VarId>> &Tpls,
                     const RankEdge &E) {
  return ParamLinExpr::applyTemplate(Tpls[E.Dst], E.DstArgs);
}

/// Instantiates pred \p I's measure component from solved parameters.
LinExpr measureOf(const std::vector<VarId> &Tpl,
                  const std::vector<VarId> &Params,
                  const std::map<VarId, int64_t> &Sol) {
  ParamLinExpr P = ParamLinExpr::applyTemplate(Tpl, varsAsArgs(Params));
  return P.instantiate(Sol);
}

/// Simultaneous substitution Params[j] := Args[j] (capture-safe even when
/// the argument expressions mention the parameters themselves).
LinExpr substParallel(const LinExpr &E, const std::vector<VarId> &Params,
                      const std::vector<LinExpr> &Args) {
  assert(Params.size() == Args.size() && "parallel substitution arity");
  LinExpr Out(E.constant());
  for (const auto &[V, C] : E.coeffs()) {
    size_t J = 0;
    for (; J < Params.size(); ++J)
      if (Params[J] == V)
        break;
    if (J < Params.size())
      Out = Out + Args[J] * C;
    else
      Out = Out + LinExpr::var(V, C);
  }
  return Out;
}

/// One candidate of a round: edge Strict strictly decreasing and every
/// remaining edge non-increasing and bounded, over its own templates.
struct Candidate {
  std::vector<std::vector<VarId>> Tpls;
  FarkasSystem FS;
};

/// Mints candidate \p Strict's templates and encodes its LP (owner
/// thread only: both touch the variable pool). Its solves are charged
/// to \p SC when that is set.
Candidate buildCandidate(const std::vector<std::vector<VarId>> &PredParams,
                         const std::vector<RankEdge> &Remaining,
                         size_t Strict, SolverContext *SC) {
  Candidate C{makeTemplates(PredParams), FarkasSystem(SC)};
  for (size_t K = 0; K < Remaining.size(); ++K) {
    const RankEdge &E = Remaining[K];
    ParamLinExpr RS = srcRank(C.Tpls, PredParams, E);
    ParamLinExpr RD = dstRank(C.Tpls, E);
    // Bounded: rho => r_src >= 0.
    C.FS.addImplication(E.Ctx, RS);
    // Non-increase (or strict decrease for the chosen edge).
    ParamLinExpr Diff = RS - RD;
    if (K == Strict)
      Diff = Diff - 1;
    C.FS.addImplication(E.Ctx, Diff);
  }
  return C;
}

/// The round's first candidate whose LP is feasible, in edge order, or
/// none. Candidate 0 is solved alone first. The rest are built here in
/// candidate order and solved through findFirst, which runs them on
/// idle workers when the caller is a task of a pool with more than one.
/// The variables minted for candidates past the winner are then
/// rewound and \p SC is charged for the solves the in-order loop makes,
/// so the group's later fresh ids and its counters do not depend on
/// where the round ran.
std::optional<Candidate>
pickCandidate(const std::vector<std::vector<VarId>> &PredParams,
              const std::vector<RankEdge> &Remaining, SolverContext &SC) {
  Candidate First = buildCandidate(PredParams, Remaining, 0, &SC);
  if (First.FS.solve())
    return First;
  std::vector<Candidate> Rest;
  std::vector<VarPool::FreshMark> Marks;
  Rest.reserve(Remaining.size() - 1);
  for (size_t Strict = 1; Strict < Remaining.size(); ++Strict) {
    Marks.push_back(VarPool::get().freshMark());
    Rest.push_back(buildCandidate(PredParams, Remaining, Strict, nullptr));
  }
  size_t Won = WorkStealingPool::findFirst(
      Rest.size(), [&Rest](size_t I) { return Rest[I].FS.solve(); });
  if (Won + 1 < Rest.size())
    VarPool::get().rewindFresh(Marks[Won + 1]);
  for (size_t I = 0; I < Rest.size() && I <= Won; ++I)
    Rest[I].FS.charge(SC);
  if (Won == Rest.size())
    return std::nullopt;
  return std::move(Rest[Won]);
}

} // namespace

RankResult
tnt::synthesizeRanking(const std::vector<std::vector<VarId>> &PredParams,
                       const std::vector<RankEdge> &Edges, unsigned MaxLex,
                       SolverContext &SC) {
  RankResult Out;
  Out.Measures.resize(PredParams.size());

  // Keep only feasible edges; infeasible contexts make their implication
  // trivially valid (and the Farkas encoding incomplete).
  std::vector<RankEdge> Live;
  for (const RankEdge &E : Edges) {
    assert(E.Src < PredParams.size() && E.Dst < PredParams.size());
    assert(E.DstArgs.size() == PredParams[E.Dst].size() &&
           "edge arity mismatch");
    if (Omega::isSatConj(E.Ctx) != Tri::False)
      Live.push_back(E);
  }
  if (Live.empty()) {
    // No recursive transition can fire: the zero measure witnesses
    // termination.
    Out.Success = true;
    for (size_t I = 0; I < PredParams.size(); ++I)
      Out.Measures[I] = {LinExpr(0)};
    return Out;
  }

  std::vector<RankEdge> Remaining = Live;
  for (unsigned Round = 0; Round < MaxLex && !Remaining.empty(); ++Round) {
    // Try to make some remaining edge strictly decreasing while every
    // remaining edge stays non-increasing and bounded.
    std::optional<Candidate> Won = pickCandidate(PredParams, Remaining, SC);
    if (!Won)
      break;

    // Instantiate this component and drop every edge it strictly
    // decreases (the chosen one by construction; possibly more).
    const std::map<VarId, int64_t> &Sol = Won->FS.params();
    std::vector<LinExpr> Component;
    for (size_t I = 0; I < PredParams.size(); ++I)
      Component.push_back(measureOf(Won->Tpls[I], PredParams[I], Sol));

    std::vector<RankEdge> Next;
    for (const RankEdge &E : Remaining) {
      LinExpr RS = Component[E.Src];
      // Destination measure over the actual arguments (simultaneous
      // substitution: args may mention the canonical params).
      LinExpr RD =
          substParallel(Component[E.Dst], PredParams[E.Dst], E.DstArgs);
      Formula Ctx = conjToFormula(E.Ctx);
      Formula StrictDec = Formula::cmp(RS - RD, CmpKind::Ge, LinExpr(1));
      if (!SC.entails(Ctx, StrictDec))
        Next.push_back(E);
    }
    assert(Next.size() < Remaining.size() &&
           "chosen strict edge must be eliminated");
    Remaining = std::move(Next);
    for (size_t I = 0; I < PredParams.size(); ++I)
      Out.Measures[I].push_back(Component[I]);
  }

  Out.Success = Remaining.empty();
  if (!Out.Success)
    for (auto &M : Out.Measures)
      M.clear();
  return Out;
}
