//===- lang/Lexer.cpp -----------------------------------------*- C++ -*-===//

#include "lang/Lexer.h"

#include "arith/Var.h"

#include <cctype>
#include <map>

using namespace tnt;

const char *tnt::tokName(Tok K) {
  switch (K) {
  case Tok::Eof:
    return "end of input";
  case Tok::Ident:
    return "identifier";
  case Tok::IntLit:
    return "integer literal";
  case Tok::KwData:
    return "'data'";
  case Tok::KwPred:
    return "'pred'";
  case Tok::KwInt:
    return "'int'";
  case Tok::KwBool:
    return "'bool'";
  case Tok::KwVoid:
    return "'void'";
  case Tok::KwIf:
    return "'if'";
  case Tok::KwElse:
    return "'else'";
  case Tok::KwWhile:
    return "'while'";
  case Tok::KwReturn:
    return "'return'";
  case Tok::KwRequires:
    return "'requires'";
  case Tok::KwEnsures:
    return "'ensures'";
  case Tok::KwCase:
    return "'case'";
  case Tok::KwNull:
    return "'null'";
  case Tok::KwNew:
    return "'new'";
  case Tok::KwRef:
    return "'ref'";
  case Tok::KwTrue:
    return "'true'";
  case Tok::KwFalse:
    return "'false'";
  case Tok::KwAssume:
    return "'assume'";
  case Tok::KwNondetInt:
    return "'nondet_int'";
  case Tok::KwNondetBool:
    return "'nondet_bool'";
  case Tok::KwTerm:
    return "'Term'";
  case Tok::KwLoop:
    return "'Loop'";
  case Tok::KwMayLoop:
    return "'MayLoop'";
  case Tok::KwEmp:
    return "'emp'";
  case Tok::KwOr:
    return "'or'";
  case Tok::LParen:
    return "'('";
  case Tok::RParen:
    return "')'";
  case Tok::LBrace:
    return "'{'";
  case Tok::RBrace:
    return "'}'";
  case Tok::LBracket:
    return "'['";
  case Tok::RBracket:
    return "']'";
  case Tok::Semi:
    return "';'";
  case Tok::Comma:
    return "','";
  case Tok::Dot:
    return "'.'";
  case Tok::Assign:
    return "'='";
  case Tok::EqEq:
    return "'=='";
  case Tok::NotEq:
    return "'!='";
  case Tok::Lt:
    return "'<'";
  case Tok::Le:
    return "'<='";
  case Tok::Gt:
    return "'>'";
  case Tok::Ge:
    return "'>='";
  case Tok::Plus:
    return "'+'";
  case Tok::Minus:
    return "'-'";
  case Tok::Star:
    return "'*'";
  case Tok::Amp:
    return "'&'";
  case Tok::AmpAmp:
    return "'&&'";
  case Tok::PipePipe:
    return "'||'";
  case Tok::Bang:
    return "'!'";
  case Tok::PointsTo:
    return "'|->'";
  case Tok::Arrow:
    return "'->'";
  }
  return "?";
}

std::vector<Token> tnt::tokenize(const std::string &Source,
                                 DiagnosticEngine &Diags) {
  static const std::map<std::string, Tok> Keywords = {
      {"data", Tok::KwData},          {"pred", Tok::KwPred},
      {"int", Tok::KwInt},            {"bool", Tok::KwBool},
      {"void", Tok::KwVoid},          {"if", Tok::KwIf},
      {"else", Tok::KwElse},          {"while", Tok::KwWhile},
      {"return", Tok::KwReturn},      {"requires", Tok::KwRequires},
      {"ensures", Tok::KwEnsures},    {"case", Tok::KwCase},
      {"null", Tok::KwNull},          {"new", Tok::KwNew},
      {"ref", Tok::KwRef},            {"true", Tok::KwTrue},
      {"false", Tok::KwFalse},        {"assume", Tok::KwAssume},
      {"nondet_int", Tok::KwNondetInt},
      {"nondet_bool", Tok::KwNondetBool},
      {"Term", Tok::KwTerm},          {"Loop", Tok::KwLoop},
      {"MayLoop", Tok::KwMayLoop},    {"emp", Tok::KwEmp},
      {"or", Tok::KwOr},
  };

  std::vector<Token> Out;
  size_t I = 0, N = Source.size();
  unsigned Line = 1, Col = 1;

  auto loc = [&]() { return SourceLoc{Line, Col}; };
  auto advance = [&](size_t K = 1) {
    for (size_t J = 0; J < K && I < N; ++J) {
      if (Source[I] == '\n') {
        ++Line;
        Col = 1;
      } else {
        ++Col;
      }
      ++I;
    }
  };
  auto peek = [&](size_t Off = 0) -> char {
    return I + Off < N ? Source[I + Off] : '\0';
  };
  auto push = [&](Tok K, SourceLoc L) {
    Token T;
    T.K = K;
    T.Loc = L;
    Out.push_back(T);
  };

  while (I < N) {
    char C = peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    // Comments.
    if (C == '/' && peek(1) == '/') {
      while (I < N && peek() != '\n')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLoc L = loc();
      advance(2);
      while (I < N && !(peek() == '*' && peek(1) == '/'))
        advance();
      if (I >= N)
        Diags.error(L, "unterminated block comment");
      else
        advance(2);
      continue;
    }
    SourceLoc L = loc();
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      std::string Id;
      while (I < N && (std::isalnum(static_cast<unsigned char>(peek())) ||
                       peek() == '_'))
        Id += Source[I], advance();
      // A single trailing prime marks a post-state variable.
      if (peek() == '\'')
        Id += '\'', advance();
      auto It = Keywords.find(Id);
      Token T;
      T.K = It == Keywords.end() ? Tok::Ident : It->second;
      T.Loc = L;
      T.Text = Id;
      // Intern every identifier spelling here, at the single choke
      // point all source names flow through. The AST stores names as
      // strings and downstream layers intern them lazily (verifier
      // parameter/local states, call-site renamings); lexing runs
      // under the front end's deterministic VarPool scope, so pinning
      // ids NOW makes them a function of the program text — while a
      // lazy intern from a group task would race with the program's
      // other group tasks, which share its session, and make VarId
      // order (and with it every VarId-sorted rendering) depend on
      // scheduling.
      if (T.K == Tok::Ident)
        mkVar(Id);
      Out.push_back(T);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      int64_t V = 0;
      while (I < N && std::isdigit(static_cast<unsigned char>(peek()))) {
        V = V * 10 + (peek() - '0');
        advance();
      }
      Token T;
      T.K = Tok::IntLit;
      T.Loc = L;
      T.IntVal = V;
      Out.push_back(T);
      continue;
    }
    switch (C) {
    case '(':
      push(Tok::LParen, L);
      advance();
      break;
    case ')':
      push(Tok::RParen, L);
      advance();
      break;
    case '{':
      push(Tok::LBrace, L);
      advance();
      break;
    case '}':
      push(Tok::RBrace, L);
      advance();
      break;
    case '[':
      push(Tok::LBracket, L);
      advance();
      break;
    case ']':
      push(Tok::RBracket, L);
      advance();
      break;
    case ';':
      push(Tok::Semi, L);
      advance();
      break;
    case ',':
      push(Tok::Comma, L);
      advance();
      break;
    case '.':
      push(Tok::Dot, L);
      advance();
      break;
    case '+':
      push(Tok::Plus, L);
      advance();
      break;
    case '*':
      push(Tok::Star, L);
      advance();
      break;
    case '-':
      if (peek(1) == '>') {
        push(Tok::Arrow, L);
        advance(2);
      } else {
        push(Tok::Minus, L);
        advance();
      }
      break;
    case '=':
      if (peek(1) == '=') {
        push(Tok::EqEq, L);
        advance(2);
      } else {
        push(Tok::Assign, L);
        advance();
      }
      break;
    case '!':
      if (peek(1) == '=') {
        push(Tok::NotEq, L);
        advance(2);
      } else {
        push(Tok::Bang, L);
        advance();
      }
      break;
    case '<':
      if (peek(1) == '=') {
        push(Tok::Le, L);
        advance(2);
      } else {
        push(Tok::Lt, L);
        advance();
      }
      break;
    case '>':
      if (peek(1) == '=') {
        push(Tok::Ge, L);
        advance(2);
      } else {
        push(Tok::Gt, L);
        advance();
      }
      break;
    case '&':
      if (peek(1) == '&') {
        push(Tok::AmpAmp, L);
        advance(2);
      } else {
        push(Tok::Amp, L);
        advance();
      }
      break;
    case '|':
      if (peek(1) == '-' && peek(2) == '>') {
        push(Tok::PointsTo, L);
        advance(3);
      } else if (peek(1) == '|') {
        push(Tok::PipePipe, L);
        advance(2);
      } else {
        Diags.error(L, "stray '|' in input");
        advance();
      }
      break;
    default:
      Diags.error(L, std::string("unexpected character '") + C + "'");
      advance();
      break;
    }
  }
  Token T;
  T.K = Tok::Eof;
  T.Loc = loc();
  Out.push_back(T);
  return Out;
}
