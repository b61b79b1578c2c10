//===- lang/Parser.cpp ----------------------------------------*- C++ -*-===//

#include "lang/Parser.h"

#include <cassert>

using namespace tnt;

namespace {

/// The result of parsing one specification conjunction.
struct SpecConj {
  Formula Pure = Formula::top();
  HeapFormula Heap;
  TemporalSpec Temporal;
  bool SawTemporal = false;
};

class ParserImpl {
public:
  ParserImpl(const std::string &Source, DiagnosticEngine &Diags)
      : Diags(Diags), Toks(tokenize(Source, Diags)) {}

  std::optional<Program> run();

private:
  // Token helpers -------------------------------------------------------
  const Token &cur() const { return Toks[Pos]; }
  const Token &ahead(size_t N) const {
    return Toks[std::min(Pos + N, Toks.size() - 1)];
  }
  Tok kind() const { return cur().K; }
  void bump() {
    if (Pos + 1 < Toks.size())
      ++Pos;
  }
  bool accept(Tok K) {
    if (kind() != K)
      return false;
    bump();
    return true;
  }
  bool expect(Tok K) {
    if (accept(K))
      return true;
    error(std::string("expected ") + tokName(K) + ", found " +
          tokName(kind()));
    return false;
  }
  void error(const std::string &Msg) {
    if (TooDeep)
      return; // Unwinding from a nesting error; report nothing more.
    Diags.error(cur().Loc, Msg);
    Failed = true;
  }

  /// Restores the nesting depth when the production that took levels
  /// returns.
  struct DepthScope {
    unsigned &Depth;
    const unsigned Saved;
    explicit DepthScope(unsigned &Depth) : Depth(Depth), Saved(Depth) {}
    ~DepthScope() { Depth = Saved; }
  };

  /// Takes one nesting level for the innermost open DepthScope. A
  /// binary-operator loop takes one per operator, since the tree it
  /// builds is left-deep. Past MaxParseDepth it reports once and skips
  /// to end of input, so every enclosing production unwinds without
  /// descending further.
  bool nest() {
    if (++Depth <= MaxParseDepth)
      return true;
    error("nesting exceeds " + std::to_string(MaxParseDepth) + " levels");
    TooDeep = true;
    Pos = Toks.size() - 1;
    return false;
  }

  bool isTypeStart() const {
    return kind() == Tok::KwInt || kind() == Tok::KwBool ||
           kind() == Tok::KwVoid ||
           (kind() == Tok::Ident && ahead(1).K == Tok::Ident);
  }

  // Declarations --------------------------------------------------------
  void parseData(Program &P);
  void parsePred(Program &P);
  void parseMethod(Program &P);
  Type parseType();

  // Specifications ------------------------------------------------------
  std::optional<MethodSpec> parseSpec();
  std::optional<SpecConj> parseSpecConj(bool AllowHeap, bool AllowTemporal);
  std::optional<Formula> parseSpecDisjPure();
  std::optional<LinExpr> parseSpecArith();
  std::optional<LinExpr> parseSpecTerm();
  std::optional<LinExpr> parseSpecFactor();

  // Statements and expressions ------------------------------------------
  StmtPtr parseBlock();
  StmtPtr parseStmt();
  ExprPtr parseExpr() {
    DepthScope Scope(Depth);
    return nest() ? parseOr() : nullptr;
  }
  ExprPtr parseOr();
  ExprPtr parseAnd();
  ExprPtr parseEquality();
  ExprPtr parseRelational();
  ExprPtr parseAdditive();
  ExprPtr parseMultiplicative();
  ExprPtr parseUnary();
  ExprPtr parsePrimary();

  DiagnosticEngine &Diags;
  std::vector<Token> Toks;
  size_t Pos = 0;
  bool Failed = false;
  unsigned Depth = 0;
  bool TooDeep = false;
};

Type ParserImpl::parseType() {
  switch (kind()) {
  case Tok::KwInt:
    bump();
    return Type::intTy();
  case Tok::KwBool:
    bump();
    return Type::boolTy();
  case Tok::KwVoid:
    bump();
    return Type::voidTy();
  case Tok::Ident: {
    std::string Name = cur().Text;
    bump();
    return Type::dataTy(Name);
  }
  default:
    error("expected a type");
    return Type::intTy();
  }
}

void ParserImpl::parseData(Program &P) {
  DataDecl D;
  D.Loc = cur().Loc;
  expect(Tok::KwData);
  if (kind() != Tok::Ident) {
    error("expected data type name");
    return;
  }
  D.Name = cur().Text;
  bump();
  expect(Tok::LBrace);
  while (kind() != Tok::RBrace && kind() != Tok::Eof) {
    Type Ty = parseType();
    if (kind() != Tok::Ident) {
      error("expected field name");
      return;
    }
    std::string FName = cur().Text;
    bump();
    expect(Tok::Semi);
    D.Fields.emplace_back(Ty, FName);
  }
  expect(Tok::RBrace);
  P.Datas.push_back(std::move(D));
}

void ParserImpl::parsePred(Program &P) {
  PredDecl D;
  D.Loc = cur().Loc;
  expect(Tok::KwPred);
  if (kind() != Tok::Ident) {
    error("expected predicate name");
    return;
  }
  D.Name = cur().Text;
  bump();
  expect(Tok::LParen);
  while (kind() != Tok::RParen && kind() != Tok::Eof) {
    if (kind() != Tok::Ident) {
      error("expected predicate parameter name");
      return;
    }
    D.Params.push_back(mkVar(cur().Text));
    bump();
    if (!accept(Tok::Comma))
      break;
  }
  expect(Tok::RParen);
  // '==' introduces the body.
  expect(Tok::EqEq);
  // Disjunction of (heap & pure) branches.
  for (;;) {
    std::optional<SpecConj> C =
        parseSpecConj(/*AllowHeap=*/true, /*AllowTemporal=*/false);
    if (!C)
      return;
    PredDecl::Branch B;
    B.Pure = C->Pure;
    B.Heap = C->Heap;
    D.Branches.push_back(std::move(B));
    if (!accept(Tok::KwOr))
      break;
  }
  expect(Tok::Semi);
  P.Preds.push_back(std::move(D));
}

void ParserImpl::parseMethod(Program &P) {
  MethodDecl M;
  M.Loc = cur().Loc;
  M.RetTy = parseType();
  if (kind() != Tok::Ident) {
    error("expected method name");
    return;
  }
  M.Name = cur().Text;
  bump();
  expect(Tok::LParen);
  while (kind() != Tok::RParen && kind() != Tok::Eof) {
    Param Prm;
    Prm.ByRef = accept(Tok::KwRef);
    Prm.Ty = parseType();
    if (kind() != Tok::Ident) {
      error("expected parameter name");
      return;
    }
    Prm.Name = cur().Text;
    bump();
    M.Params.push_back(std::move(Prm));
    if (!accept(Tok::Comma))
      break;
  }
  expect(Tok::RParen);
  while (kind() == Tok::KwRequires) {
    std::optional<MethodSpec> S = parseSpec();
    if (!S)
      return;
    M.Specs.push_back(std::move(*S));
  }
  // A primitive (bodiless) method ends after its specs (each spec
  // carries its own ';'), or with a bare ';' when there are none.
  if (kind() == Tok::LBrace) {
    M.Body = parseBlock();
  } else if (!accept(Tok::Semi) && M.Specs.empty()) {
    error("expected method body or ';'");
    return;
  }
  P.Methods.push_back(std::move(M));
}

std::optional<MethodSpec> ParserImpl::parseSpec() {
  MethodSpec S;
  expect(Tok::KwRequires);
  std::optional<SpecConj> Pre =
      parseSpecConj(/*AllowHeap=*/true, /*AllowTemporal=*/true);
  if (!Pre)
    return std::nullopt;
  S.PrePure = Pre->Pure;
  S.PreHeap = Pre->Heap;
  S.Temporal = Pre->SawTemporal ? Pre->Temporal : TemporalSpec::unknown();
  expect(Tok::KwEnsures);
  std::optional<SpecConj> Post =
      parseSpecConj(/*AllowHeap=*/true, /*AllowTemporal=*/false);
  if (!Post)
    return std::nullopt;
  S.PostPure = Post->Pure;
  S.PostHeap = Post->Heap;
  // Top-level disjunctive postconditions are supported for the pure
  // fragment (e.g. McCarthy-91's case-shaped bound).
  while (accept(Tok::KwOr)) {
    std::optional<SpecConj> Alt =
        parseSpecConj(/*AllowHeap=*/true, /*AllowTemporal=*/false);
    if (!Alt)
      return std::nullopt;
    if (!S.PostHeap.isEmp() || !Alt->Heap.isEmp()) {
      error("disjunctive postconditions must be pure");
      return std::nullopt;
    }
    S.PostPure = Formula::disj2(S.PostPure, Alt->Pure);
  }
  expect(Tok::Semi);
  return S;
}

std::optional<SpecConj> ParserImpl::parseSpecConj(bool AllowHeap,
                                                  bool AllowTemporal) {
  DepthScope Scope(Depth);
  if (!nest())
    return std::nullopt;
  SpecConj Out;
  std::vector<Formula> Pure;
  for (;;) {
    switch (kind()) {
    case Tok::KwEmp:
      bump();
      break;
    case Tok::KwTrue:
      bump();
      Pure.push_back(Formula::top());
      break;
    case Tok::KwFalse:
      bump();
      Pure.push_back(Formula::bottom());
      break;
    case Tok::KwTerm: {
      bump();
      if (!AllowTemporal) {
        error("temporal predicate not allowed here");
        return std::nullopt;
      }
      std::vector<LinExpr> Measure;
      if (accept(Tok::LBracket)) {
        while (kind() != Tok::RBracket && kind() != Tok::Eof) {
          std::optional<LinExpr> E = parseSpecArith();
          if (!E)
            return std::nullopt;
          Measure.push_back(*E);
          if (!accept(Tok::Comma))
            break;
        }
        expect(Tok::RBracket);
      }
      Out.Temporal = TemporalSpec::term(std::move(Measure));
      Out.SawTemporal = true;
      break;
    }
    case Tok::KwLoop:
      bump();
      if (!AllowTemporal) {
        error("temporal predicate not allowed here");
        return std::nullopt;
      }
      Out.Temporal = TemporalSpec::loop();
      Out.SawTemporal = true;
      break;
    case Tok::KwMayLoop:
      bump();
      if (!AllowTemporal) {
        error("temporal predicate not allowed here");
        return std::nullopt;
      }
      Out.Temporal = TemporalSpec::mayLoop();
      Out.SawTemporal = true;
      break;
    case Tok::Bang: {
      bump();
      expect(Tok::LParen);
      std::optional<Formula> F = parseSpecDisjPure();
      if (!F)
        return std::nullopt;
      expect(Tok::RParen);
      Pure.push_back(Formula::neg(*F));
      break;
    }
    case Tok::LParen: {
      bump();
      std::optional<Formula> F = parseSpecDisjPure();
      if (!F)
        return std::nullopt;
      expect(Tok::RParen);
      Pure.push_back(*F);
      break;
    }
    case Tok::Ident: {
      // Points-to, predicate instance, or pure comparison.
      if (ahead(1).K == Tok::PointsTo) {
        if (!AllowHeap) {
          error("heap formula not allowed here");
          return std::nullopt;
        }
        HeapAtom A;
        A.K = HeapAtom::Kind::PointsTo;
        A.Root = mkVar(cur().Text);
        bump(); // root
        bump(); // |->
        if (kind() != Tok::Ident) {
          error("expected data type after '|->'");
          return std::nullopt;
        }
        A.Name = cur().Text;
        bump();
        expect(Tok::LParen);
        while (kind() != Tok::RParen && kind() != Tok::Eof) {
          std::optional<LinExpr> E = parseSpecArith();
          if (!E)
            return std::nullopt;
          A.Args.push_back(*E);
          if (!accept(Tok::Comma))
            break;
        }
        expect(Tok::RParen);
        Out.Heap.Atoms.push_back(std::move(A));
        break;
      }
      if (ahead(1).K == Tok::LParen) {
        if (!AllowHeap) {
          error("heap predicate not allowed here");
          return std::nullopt;
        }
        HeapAtom A;
        A.K = HeapAtom::Kind::Pred;
        A.Name = cur().Text;
        bump();
        expect(Tok::LParen);
        while (kind() != Tok::RParen && kind() != Tok::Eof) {
          std::optional<LinExpr> E = parseSpecArith();
          if (!E)
            return std::nullopt;
          A.Args.push_back(*E);
          if (!accept(Tok::Comma))
            break;
        }
        expect(Tok::RParen);
        Out.Heap.Atoms.push_back(std::move(A));
        break;
      }
      [[fallthrough]];
    }
    default: {
      // Pure comparison: arith cmp arith.
      std::optional<LinExpr> L = parseSpecArith();
      if (!L)
        return std::nullopt;
      CmpKind C;
      switch (kind()) {
      case Tok::Assign:
      case Tok::EqEq:
        C = CmpKind::Eq;
        break;
      case Tok::NotEq:
        C = CmpKind::Ne;
        break;
      case Tok::Lt:
        C = CmpKind::Lt;
        break;
      case Tok::Le:
        C = CmpKind::Le;
        break;
      case Tok::Gt:
        C = CmpKind::Gt;
        break;
      case Tok::Ge:
        C = CmpKind::Ge;
        break;
      default:
        error("expected comparison operator in pure formula");
        return std::nullopt;
      }
      bump();
      std::optional<LinExpr> R = parseSpecArith();
      if (!R)
        return std::nullopt;
      Pure.push_back(Formula::cmp(*L, C, *R));
      break;
    }
    }
    if (accept(Tok::Amp) || accept(Tok::Star))
      continue;
    break;
  }
  Out.Pure = Formula::conj(Pure);
  return Out;
}

std::optional<Formula> ParserImpl::parseSpecDisjPure() {
  std::vector<Formula> Disjuncts;
  for (;;) {
    std::optional<SpecConj> C =
        parseSpecConj(/*AllowHeap=*/false, /*AllowTemporal=*/false);
    if (!C)
      return std::nullopt;
    Disjuncts.push_back(C->Pure);
    if (!accept(Tok::KwOr))
      break;
  }
  return Formula::disj(Disjuncts);
}

std::optional<LinExpr> ParserImpl::parseSpecArith() {
  std::optional<LinExpr> L = parseSpecTerm();
  if (!L)
    return std::nullopt;
  for (;;) {
    if (accept(Tok::Plus)) {
      std::optional<LinExpr> R = parseSpecTerm();
      if (!R)
        return std::nullopt;
      L = *L + *R;
    } else if (kind() == Tok::Minus) {
      bump();
      std::optional<LinExpr> R = parseSpecTerm();
      if (!R)
        return std::nullopt;
      L = *L - *R;
    } else {
      break;
    }
  }
  return L;
}

std::optional<LinExpr> ParserImpl::parseSpecTerm() {
  std::optional<LinExpr> L = parseSpecFactor();
  if (!L)
    return std::nullopt;
  while (kind() == Tok::Star) {
    // Multiplication: at least one side must be constant (linearity).
    // A '*' followed by something that cannot start a factor is a
    // separating conjunction and belongs to the caller.
    Tok Next = ahead(1).K;
    if (Next != Tok::IntLit && Next != Tok::Ident && Next != Tok::Minus &&
        Next != Tok::KwNull)
      break;
    // Heap atoms also start with Ident; disambiguate: 'ident (' or
    // 'ident |->' after the star is a heap atom, not a factor.
    if (Next == Tok::Ident &&
        (ahead(2).K == Tok::LParen || ahead(2).K == Tok::PointsTo))
      break;
    bump();
    std::optional<LinExpr> R = parseSpecFactor();
    if (!R)
      return std::nullopt;
    if (L->isConstant())
      L = *R * L->constant();
    else if (R->isConstant())
      L = *L * R->constant();
    else {
      error("nonlinear multiplication in specification");
      return std::nullopt;
    }
  }
  return L;
}

std::optional<LinExpr> ParserImpl::parseSpecFactor() {
  switch (kind()) {
  case Tok::IntLit: {
    int64_t V = cur().IntVal;
    bump();
    return LinExpr(V);
  }
  case Tok::Ident: {
    VarId V = mkVar(cur().Text);
    bump();
    return LinExpr::var(V);
  }
  case Tok::KwNull:
    bump();
    return LinExpr(0); // Pointers are integers; null == 0.
  case Tok::Minus: {
    bump();
    DepthScope Scope(Depth);
    if (!nest())
      return std::nullopt;
    std::optional<LinExpr> E = parseSpecFactor();
    if (!E)
      return std::nullopt;
    return -*E;
  }
  default:
    error("expected arithmetic factor in specification");
    return std::nullopt;
  }
}

StmtPtr ParserImpl::parseBlock() {
  auto B = std::make_unique<Stmt>(Stmt::Kind::Block, cur().Loc);
  expect(Tok::LBrace);
  while (kind() != Tok::RBrace && kind() != Tok::Eof) {
    StmtPtr S = parseStmt();
    if (!S)
      return B;
    B->Stmts.push_back(std::move(S));
  }
  expect(Tok::RBrace);
  return B;
}

StmtPtr ParserImpl::parseStmt() {
  DepthScope Scope(Depth);
  if (!nest())
    return nullptr;
  SourceLoc L = cur().Loc;
  switch (kind()) {
  case Tok::LBrace:
    return parseBlock();
  case Tok::KwIf: {
    bump();
    expect(Tok::LParen);
    ExprPtr Cond = parseExpr();
    expect(Tok::RParen);
    auto S = std::make_unique<Stmt>(Stmt::Kind::If, L);
    S->E = std::move(Cond);
    S->Then = parseStmt();
    if (accept(Tok::KwElse))
      S->Else = parseStmt();
    return S;
  }
  case Tok::KwWhile: {
    bump();
    expect(Tok::LParen);
    ExprPtr Cond = parseExpr();
    expect(Tok::RParen);
    auto S = std::make_unique<Stmt>(Stmt::Kind::While, L);
    S->E = std::move(Cond);
    S->Body = parseStmt();
    return S;
  }
  case Tok::KwReturn: {
    bump();
    auto S = std::make_unique<Stmt>(Stmt::Kind::Return, L);
    if (kind() != Tok::Semi)
      S->E = parseExpr();
    expect(Tok::Semi);
    return S;
  }
  case Tok::KwAssume: {
    bump();
    expect(Tok::LParen);
    std::optional<Formula> F = parseSpecDisjPure();
    expect(Tok::RParen);
    expect(Tok::Semi);
    auto S = std::make_unique<Stmt>(Stmt::Kind::Assume, L);
    S->PureF = F ? *F : Formula::top();
    return S;
  }
  case Tok::KwInt:
  case Tok::KwBool: {
    Type Ty = parseType();
    if (kind() != Tok::Ident) {
      error("expected variable name");
      return nullptr;
    }
    auto S = std::make_unique<Stmt>(Stmt::Kind::VarDecl, L);
    S->DeclTy = Ty;
    S->Name = cur().Text;
    bump();
    if (accept(Tok::Assign))
      S->E = parseExpr();
    expect(Tok::Semi);
    return S;
  }
  case Tok::Ident: {
    // Disambiguate: decl (Ident Ident), assign, field assign, call.
    if (ahead(1).K == Tok::Ident) {
      Type Ty = parseType();
      auto S = std::make_unique<Stmt>(Stmt::Kind::VarDecl, L);
      S->DeclTy = Ty;
      S->Name = cur().Text;
      bump();
      if (accept(Tok::Assign))
        S->E = parseExpr();
      expect(Tok::Semi);
      return S;
    }
    if (ahead(1).K == Tok::Assign) {
      auto S = std::make_unique<Stmt>(Stmt::Kind::Assign, L);
      S->Name = cur().Text;
      bump();
      bump();
      S->E = parseExpr();
      expect(Tok::Semi);
      return S;
    }
    if (ahead(1).K == Tok::Dot && ahead(3).K == Tok::Assign) {
      auto S = std::make_unique<Stmt>(Stmt::Kind::FieldAssign, L);
      S->Name = cur().Text;
      bump();
      bump();
      if (kind() != Tok::Ident) {
        error("expected field name");
        return nullptr;
      }
      S->Field = cur().Text;
      bump();
      expect(Tok::Assign);
      S->E = parseExpr();
      expect(Tok::Semi);
      return S;
    }
    if (ahead(1).K == Tok::LParen) {
      auto S = std::make_unique<Stmt>(Stmt::Kind::CallStmt, L);
      S->E = parseExpr();
      expect(Tok::Semi);
      return S;
    }
    error("unexpected statement");
    return nullptr;
  }
  default:
    error("unexpected token at start of statement");
    return nullptr;
  }
}

ExprPtr ParserImpl::parseOr() {
  DepthScope Scope(Depth);
  ExprPtr L = parseAnd();
  while (L && kind() == Tok::PipePipe) {
    if (!nest())
      return nullptr;
    SourceLoc Loc = cur().Loc;
    bump();
    auto E = std::make_unique<Expr>(Expr::Kind::Binary, Loc);
    E->Bin = BinOp::Or;
    E->Lhs = std::move(L);
    E->Rhs = parseAnd();
    L = std::move(E);
  }
  return L;
}

ExprPtr ParserImpl::parseAnd() {
  DepthScope Scope(Depth);
  ExprPtr L = parseEquality();
  while (L && kind() == Tok::AmpAmp) {
    if (!nest())
      return nullptr;
    SourceLoc Loc = cur().Loc;
    bump();
    auto E = std::make_unique<Expr>(Expr::Kind::Binary, Loc);
    E->Bin = BinOp::And;
    E->Lhs = std::move(L);
    E->Rhs = parseEquality();
    L = std::move(E);
  }
  return L;
}

ExprPtr ParserImpl::parseEquality() {
  DepthScope Scope(Depth);
  ExprPtr L = parseRelational();
  while (L && (kind() == Tok::EqEq || kind() == Tok::NotEq)) {
    if (!nest())
      return nullptr;
    BinOp Op = kind() == Tok::EqEq ? BinOp::Eq : BinOp::Ne;
    SourceLoc Loc = cur().Loc;
    bump();
    auto E = std::make_unique<Expr>(Expr::Kind::Binary, Loc);
    E->Bin = Op;
    E->Lhs = std::move(L);
    E->Rhs = parseRelational();
    L = std::move(E);
  }
  return L;
}

ExprPtr ParserImpl::parseRelational() {
  DepthScope Scope(Depth);
  ExprPtr L = parseAdditive();
  while (L && (kind() == Tok::Lt || kind() == Tok::Le || kind() == Tok::Gt ||
               kind() == Tok::Ge)) {
    if (!nest())
      return nullptr;
    BinOp Op = kind() == Tok::Lt   ? BinOp::Lt
               : kind() == Tok::Le ? BinOp::Le
               : kind() == Tok::Gt ? BinOp::Gt
                                   : BinOp::Ge;
    SourceLoc Loc = cur().Loc;
    bump();
    auto E = std::make_unique<Expr>(Expr::Kind::Binary, Loc);
    E->Bin = Op;
    E->Lhs = std::move(L);
    E->Rhs = parseAdditive();
    L = std::move(E);
  }
  return L;
}

ExprPtr ParserImpl::parseAdditive() {
  DepthScope Scope(Depth);
  ExprPtr L = parseMultiplicative();
  while (L && (kind() == Tok::Plus || kind() == Tok::Minus)) {
    if (!nest())
      return nullptr;
    BinOp Op = kind() == Tok::Plus ? BinOp::Add : BinOp::Sub;
    SourceLoc Loc = cur().Loc;
    bump();
    auto E = std::make_unique<Expr>(Expr::Kind::Binary, Loc);
    E->Bin = Op;
    E->Lhs = std::move(L);
    E->Rhs = parseMultiplicative();
    L = std::move(E);
  }
  return L;
}

ExprPtr ParserImpl::parseMultiplicative() {
  DepthScope Scope(Depth);
  ExprPtr L = parseUnary();
  while (L && kind() == Tok::Star) {
    if (!nest())
      return nullptr;
    SourceLoc Loc = cur().Loc;
    bump();
    auto E = std::make_unique<Expr>(Expr::Kind::Binary, Loc);
    E->Bin = BinOp::Mul;
    E->Lhs = std::move(L);
    E->Rhs = parseUnary();
    L = std::move(E);
  }
  return L;
}

ExprPtr ParserImpl::parseUnary() {
  SourceLoc L = cur().Loc;
  DepthScope Scope(Depth);
  if ((kind() == Tok::Minus || kind() == Tok::Bang) && !nest())
    return nullptr;
  if (accept(Tok::Minus)) {
    auto E = std::make_unique<Expr>(Expr::Kind::Unary, L);
    E->Un = UnOp::Neg;
    E->Lhs = parseUnary();
    return E;
  }
  if (accept(Tok::Bang)) {
    auto E = std::make_unique<Expr>(Expr::Kind::Unary, L);
    E->Un = UnOp::Not;
    E->Lhs = parseUnary();
    return E;
  }
  return parsePrimary();
}

ExprPtr ParserImpl::parsePrimary() {
  SourceLoc L = cur().Loc;
  switch (kind()) {
  case Tok::IntLit: {
    auto E = std::make_unique<Expr>(Expr::Kind::IntLit, L);
    E->IntVal = cur().IntVal;
    bump();
    return E;
  }
  case Tok::KwTrue:
  case Tok::KwFalse: {
    auto E = std::make_unique<Expr>(Expr::Kind::BoolLit, L);
    E->BoolVal = kind() == Tok::KwTrue;
    bump();
    return E;
  }
  case Tok::KwNull:
    bump();
    return std::make_unique<Expr>(Expr::Kind::Null, L);
  case Tok::KwNondetInt:
    bump();
    expect(Tok::LParen);
    expect(Tok::RParen);
    return std::make_unique<Expr>(Expr::Kind::NondetInt, L);
  case Tok::KwNondetBool:
    bump();
    expect(Tok::LParen);
    expect(Tok::RParen);
    return std::make_unique<Expr>(Expr::Kind::NondetBool, L);
  case Tok::KwNew: {
    bump();
    auto E = std::make_unique<Expr>(Expr::Kind::New, L);
    if (kind() != Tok::Ident) {
      error("expected data type after 'new'");
      return nullptr;
    }
    E->Name = cur().Text;
    bump();
    expect(Tok::LParen);
    while (kind() != Tok::RParen && kind() != Tok::Eof) {
      E->Args.push_back(parseExpr());
      if (!accept(Tok::Comma))
        break;
    }
    expect(Tok::RParen);
    return E;
  }
  case Tok::LParen: {
    bump();
    ExprPtr E = parseExpr();
    expect(Tok::RParen);
    return E;
  }
  case Tok::Ident: {
    std::string Name = cur().Text;
    if (ahead(1).K == Tok::LParen) {
      auto E = std::make_unique<Expr>(Expr::Kind::Call, L);
      E->Name = Name;
      bump();
      bump();
      while (kind() != Tok::RParen && kind() != Tok::Eof) {
        E->Args.push_back(parseExpr());
        if (!accept(Tok::Comma))
          break;
      }
      expect(Tok::RParen);
      return E;
    }
    if (ahead(1).K == Tok::Dot) {
      auto E = std::make_unique<Expr>(Expr::Kind::FieldRead, L);
      E->Name = Name;
      bump();
      bump();
      if (kind() != Tok::Ident) {
        error("expected field name");
        return nullptr;
      }
      E->Field = cur().Text;
      bump();
      return E;
    }
    auto E = std::make_unique<Expr>(Expr::Kind::Var, L);
    E->Name = Name;
    bump();
    return E;
  }
  default:
    error("unexpected token in expression");
    return nullptr;
  }
}

std::optional<Program> ParserImpl::run() {
  Program P;
  while (kind() != Tok::Eof) {
    if (kind() == Tok::KwData)
      parseData(P);
    else if (kind() == Tok::KwPred)
      parsePred(P);
    else
      parseMethod(P);
    if (Failed)
      return std::nullopt;
  }
  return P;
}

} // namespace

std::optional<Program> tnt::parseProgram(const std::string &Source,
                                         DiagnosticEngine &Diags) {
  ParserImpl Impl(Source, Diags);
  std::optional<Program> P = Impl.run();
  if (Diags.hasErrors())
    return std::nullopt;
  return P;
}
