//===- lang/Parser.h - Recursive-descent parser ----------------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parser for the core language (Fig. 5) and its specification syntax
/// (Fig. 2): data/pred/method declarations, requires/ensures scenarios
/// over heap * pure & temporal formulas.
///
/// Grammar sketch (specs):
///   spec      := 'requires' conj 'ensures' conj ';'
///   conj      := atom (('&' | '*') atom)*
///   atom      := 'emp' | 'true' | 'false'
///             | 'Term' ('[' arith (',' arith)* ']')? | 'Loop' | 'MayLoop'
///             | ident '|->' ident '(' args ')'      (points-to)
///             | ident '(' args ')'                  (heap predicate)
///             | arith cmp arith                     (pure atom)
///             | '!' '(' disj ')' | '(' disj ')'     (pure only)
///   disj      := conj ('or' conj)*
///
//===----------------------------------------------------------------------===//

#ifndef TNT_LANG_PARSER_H
#define TNT_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Lexer.h"

#include <optional>

namespace tnt {

/// Nesting bound of the parser. Every recursive production (a
/// statement, an expression, a unary operator, a specification
/// conjunction or factor) and every operator of a left-deep binary
/// chain counts one level, so the bound caps both the parser's own
/// recursion and the depth of the AST that later recursive passes walk.
/// A deeper program is a syntax error, not a stack overflow.
constexpr unsigned MaxParseDepth = 1000;

/// Parses \p Source into a Program. Returns std::nullopt (with
/// diagnostics) on any syntax error, including nesting past
/// MaxParseDepth.
std::optional<Program> parseProgram(const std::string &Source,
                                    DiagnosticEngine &Diags);

} // namespace tnt

#endif // TNT_LANG_PARSER_H
