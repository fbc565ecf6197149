//===-- tests/lang_test.cpp - Lexer/parser unit tests ----------------------===//

#include "lang/lexer.h"
#include "lang/parser.h"

#include <gtest/gtest.h>

using namespace rjit;

namespace {

std::vector<Token> lex(const std::string &S) {
  std::vector<Token> T;
  std::string E;
  EXPECT_TRUE(tokenize(S, T, E)) << E;
  return T;
}

std::string dp(const std::string &S) {
  ParseResult R = parseExpression(S);
  EXPECT_TRUE(R.ok()) << R.Error;
  return R.ok() ? deparse(*R.Ast) : "<error>";
}

} // namespace

//===----------------------------------------------------------------------===//
// Lexer

TEST(Lexer, NumbersAndSuffixes) {
  auto T = lex("1L 2.5 3e2 4i .5");
  ASSERT_EQ(T.size(), 6u);
  EXPECT_EQ(T[0].Kind, Tok::IntLit);
  EXPECT_EQ(T[0].Num, 1);
  EXPECT_EQ(T[1].Kind, Tok::RealLit);
  EXPECT_EQ(T[1].Num, 2.5);
  EXPECT_EQ(T[2].Kind, Tok::RealLit);
  EXPECT_EQ(T[2].Num, 300);
  EXPECT_EQ(T[3].Kind, Tok::CplxLit);
  EXPECT_EQ(T[3].Num, 4);
  EXPECT_EQ(T[4].Kind, Tok::RealLit);
  EXPECT_EQ(T[4].Num, 0.5);
}

TEST(Lexer, OperatorsGreedy) {
  auto T = lex("<- <<- <= < == = != %% %/% [[ ]] -> &&");
  std::vector<Tok> Want = {Tok::Assign,     Tok::SuperAssign, Tok::Le,
                           Tok::Lt,         Tok::EqEq,        Tok::EqAssign,
                           Tok::NotEq,      Tok::Percent,     Tok::PercentDiv,
                           Tok::LDblBracket, Tok::RDblBracket, Tok::RightAssign,
                           Tok::AndAnd,     Tok::End};
  ASSERT_EQ(T.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    EXPECT_EQ(T[I].Kind, Want[I]) << "token " << I;
}

TEST(Lexer, StringsWithEscapes) {
  auto T = lex("\"a\\nb\" 'c'");
  EXPECT_EQ(T[0].Text, "a\nb");
  EXPECT_EQ(T[1].Text, "c");
}

TEST(Lexer, CommentsSkipped) {
  auto T = lex("x # comment\n y");
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[0].Text, "x");
  EXPECT_EQ(T[1].Text, "y");
  EXPECT_TRUE(T[1].AfterNewline);
}

TEST(Lexer, NewlineSuppressedInParens) {
  auto T = lex("f(a,\n b)");
  // 'b' follows a newline inside parens: flag must be cleared.
  for (auto &Tk : T)
    if (Tk.Text == "b") {
      EXPECT_FALSE(Tk.AfterNewline);
    }
}

TEST(Lexer, KeywordsRecognized) {
  auto T = lex("if else for while repeat function break next in TRUE FALSE "
               "NULL");
  std::vector<Tok> Want = {Tok::KwIf,    Tok::KwElse,  Tok::KwFor,
                           Tok::KwWhile, Tok::KwRepeat, Tok::KwFunction,
                           Tok::KwBreak, Tok::KwNext,  Tok::KwIn,
                           Tok::KwTrue,  Tok::KwFalse, Tok::KwNull,
                           Tok::End};
  ASSERT_EQ(T.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    EXPECT_EQ(T[I].Kind, Want[I]);
}

TEST(Lexer, DotInIdentifiers) {
  auto T = lex("set.seed is.null");
  EXPECT_EQ(T[0].Text, "set.seed");
  EXPECT_EQ(T[1].Text, "is.null");
}

TEST(Lexer, ErrorOnBadChar) {
  std::vector<Token> T;
  std::string E;
  EXPECT_FALSE(tokenize("a @ b", T, E));
  EXPECT_NE(E.find("line 1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Parser: precedence & associativity

TEST(Parser, AddMulPrecedence) {
  EXPECT_EQ(dp("1 + 2 * 3"), "(1 + (2 * 3))");
}

TEST(Parser, PowerRightAssociative) {
  EXPECT_EQ(dp("2 ^ 3 ^ 2"), "(2 ^ (3 ^ 2))");
}

TEST(Parser, UnaryMinusVsPower) {
  // R: -2^2 == -(2^2)
  EXPECT_EQ(dp("-x ^ 2"), "-(x ^ 2)");
}

TEST(Parser, UnaryMinusVsColon) {
  // R: -1:2 == (-1):2
  EXPECT_EQ(dp("-x : y"), "(-x : y)");
}

TEST(Parser, ColonBindsTighterThanMul) {
  EXPECT_EQ(dp("1 : n * 2"), "((1 : n) * 2)");
}

TEST(Parser, ComparisonBelowArith) {
  EXPECT_EQ(dp("a + 1 < b * 2"), "((a + 1) < (b * 2))");
}

TEST(Parser, LogicalsLowest) {
  EXPECT_EQ(dp("a < b && c > d || e == f"),
            "(((a < b) && (c > d)) || (e == f))");
}

TEST(Parser, ModuloPrecedence) {
  EXPECT_EQ(dp("a + b %% c"), "(a + (b %% c))");
}

TEST(Parser, NegativeLiteralFolded) {
  ParseResult R = parseExpression("-3L");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Ast->kind(), NodeKind::Literal);
  EXPECT_EQ(static_cast<LiteralNode &>(*R.Ast).Val.asIntUnchecked(), -3);
}

//===----------------------------------------------------------------------===//
// Parser: statements & constructs

TEST(Parser, AssignForms) {
  EXPECT_EQ(dp("x <- 1"), "x <- 1");
  EXPECT_EQ(dp("x <<- 1"), "x <<- 1");
  EXPECT_EQ(dp("x = 1"), "x <- 1");
  EXPECT_EQ(dp("1 -> x"), "x <- 1");
}

TEST(Parser, AssignRightAssociative) {
  EXPECT_EQ(dp("x <- y <- 1"), "x <- y <- 1");
}

TEST(Parser, IndexAssignTargets) {
  EXPECT_EQ(dp("x[[i]] <- v"), "x[[i]] <- v");
  EXPECT_EQ(dp("x[i] <- v"), "x[i] <- v");
}

TEST(Parser, InvalidAssignTargetRejected) {
  ParseResult R = parseExpression("f(x) <- 1");
  EXPECT_FALSE(R.ok());
}

TEST(Parser, CallsAndIndexChains) {
  EXPECT_EQ(dp("f(x, 1)[[2]]"), "f(x, 1)[[2]]");
  EXPECT_EQ(dp("m[[i]][[j]]"), "m[[i]][[j]]");
}

TEST(Parser, FunctionDef) {
  EXPECT_EQ(dp("function(a, b) a + b"), "function(a, b) (a + b)");
}

TEST(Parser, IfElse) {
  EXPECT_EQ(dp("if (a) 1 else 2"), "if (a) 1 else 2");
  EXPECT_EQ(dp("if (a) 1"), "if (a) 1");
}

TEST(Parser, ForLoop) {
  EXPECT_EQ(dp("for (i in 1:10) x <- x + i"),
            "for (i in (1 : 10)) x <- (x + i)");
}

TEST(Parser, WhileRepeatBreakNext) {
  EXPECT_EQ(dp("while (a) break"), "while (a) break");
  EXPECT_EQ(dp("repeat next"), "repeat next");
}

TEST(Parser, BlockStatements) {
  ParseResult R = parseProgram("x <- 1\ny <- 2; z <- 3");
  ASSERT_TRUE(R.ok()) << R.Error;
  auto &B = static_cast<BlockNode &>(*R.Ast);
  EXPECT_EQ(B.Stmts.size(), 3u);
}

TEST(Parser, NewlineEndsStatement) {
  // `a \n + b` is two statements in R.
  ParseResult R = parseProgram("a\n+ b");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(static_cast<BlockNode &>(*R.Ast).Stmts.size(), 2u);
}

TEST(Parser, ContinuationInsideParens) {
  ParseResult R = parseProgram("f(a,\n  b)\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(static_cast<BlockNode &>(*R.Ast).Stmts.size(), 1u);
}

TEST(Parser, TrailingOperatorContinues) {
  // An operator at end of line continues onto the next line only inside
  // parens in our subset; `(a + \n b)` must parse as one expression.
  ParseResult R = parseProgram("(a +\n b)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(static_cast<BlockNode &>(*R.Ast).Stmts.size(), 1u);
}

TEST(Parser, MissingParenReported) {
  ParseResult R = parseProgram("f(1, 2");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("expected"), std::string::npos);
}

TEST(Parser, RealisticFunction) {
  const char *Src = R"(
sum <- function() {
  total <- 0
  for (i in 1:length) total <- total + data[[i]]
  total
}
)";
  ParseResult R = parseProgram(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(Parser, NestedFunctions) {
  ParseResult R = parseProgram(R"(
make <- function(n) {
  function(x) x + n
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
}
