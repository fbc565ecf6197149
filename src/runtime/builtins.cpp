//===-- runtime/builtins.cpp - Builtin functions ---------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/builtins.h"
#include "runtime/env.h"
#include "support/rng.h"

#include <cmath>
#include <cstdio>

using namespace rjit;

namespace {

struct BuiltinInfo {
  BuiltinId Id;
  const char *Name;
};

const BuiltinInfo Table[] = {
    {BuiltinId::Length, "length"},
    {BuiltinId::Concat, "c"},
    {BuiltinId::IntegerCtor, "integer"},
    {BuiltinId::NumericCtor, "numeric"},
    {BuiltinId::ComplexCtor, "complex"},
    {BuiltinId::LogicalCtor, "logical"},
    {BuiltinId::CharacterCtor, "character"},
    {BuiltinId::ListCtor, "list"},
    {BuiltinId::VectorCtor, "vector"},
    {BuiltinId::SeqLen, "seq_len"},
    {BuiltinId::Sqrt, "sqrt"},
    {BuiltinId::Exp, "exp"},
    {BuiltinId::Log, "log"},
    {BuiltinId::Sin, "sin"},
    {BuiltinId::Cos, "cos"},
    {BuiltinId::Tan, "tan"},
    {BuiltinId::Atan2, "atan2"},
    {BuiltinId::Abs, "abs"},
    {BuiltinId::Floor, "floor"},
    {BuiltinId::Ceiling, "ceiling"},
    {BuiltinId::Round, "round"},
    {BuiltinId::Min, "min"},
    {BuiltinId::Max, "max"},
    {BuiltinId::Sum, "sum"},
    {BuiltinId::Mean, "mean"},
    {BuiltinId::Re, "Re"},
    {BuiltinId::Im, "Im"},
    {BuiltinId::ModC, "Mod"},
    {BuiltinId::Conj, "Conj"},
    {BuiltinId::Rev, "rev"},
    {BuiltinId::Print, "print"},
    {BuiltinId::Cat, "cat"},
    {BuiltinId::Stop, "stop"},
    {BuiltinId::Identical, "identical"},
    {BuiltinId::AsInteger, "as.integer"},
    {BuiltinId::AsNumeric, "as.numeric"},
    {BuiltinId::AsComplex, "as.complex"},
    {BuiltinId::AsLogical, "as.logical"},
    {BuiltinId::IsNull, "is.null"},
    {BuiltinId::Nchar, "nchar"},
    {BuiltinId::Substr, "substr"},
    {BuiltinId::Paste0, "paste0"},
    {BuiltinId::Runif, "runif"},
    {BuiltinId::SetSeed, "set.seed"},
    {BuiltinId::BitwAnd, "bitwAnd"},
    {BuiltinId::BitwOr, "bitwOr"},
    {BuiltinId::BitwXor, "bitwXor"},
    {BuiltinId::BitwShiftL, "bitwShiftL"},
    {BuiltinId::BitwShiftR, "bitwShiftR"},
};

static_assert(sizeof(Table) / sizeof(Table[0]) == NumBuiltins,
              "builtin table out of sync");

void needArgs(size_t N, size_t Want, const char *Name) {
  if (N != Want)
    rerror(std::string(Name) + ": expected " + std::to_string(Want) +
           " argument(s), got " + std::to_string(N));
}

/// The length argument of a vector constructor, seq_len or runif.
int64_t lengthArg(const Value &V) {
  int32_t L = V.toInt();
  if (L < 0)
    rerror("invalid 'length' argument");
  return L;
}

/// The deterministic stream behind runif(); reseedable via set.seed.
Rng &builtinRng() {
  static Rng R(42);
  return R;
}

/// Applies a double->double math function elementwise, preserving vector
/// shape; integers become doubles (R semantics).
template <typename Fn> Value mathUnary(const Value &A, Fn F, const char *Nm) {
  switch (A.tag()) {
  case Tag::Lgl:
  case Tag::Int:
  case Tag::Real:
    return Value::real(F(A.toReal()));
  case Tag::LglVec:
  case Tag::IntVec:
  case Tag::RealVec: {
    int64_t N = A.length();
    std::vector<double> R(N);
    for (int64_t K = 0; K < N; ++K)
      R[K] = F(extract2(A, K + 1).toReal());
    return Value::realVec(std::move(R));
  }
  default:
    rerror(std::string("non-numeric argument to ") + Nm);
  }
}

Value concat(const Value *Args, size_t N) {
  // Determine the common kind along the ladder; any non-numeric element
  // forces a list. NULL arguments vanish.
  int Rank = -1; // 0 lgl 1 int 2 real 3 cplx 4 str 5 list
  auto RankOf = [](Tag T) -> int {
    switch (T) {
    case Tag::Lgl:
    case Tag::LglVec:
      return 0;
    case Tag::Int:
    case Tag::IntVec:
      return 1;
    case Tag::Real:
    case Tag::RealVec:
      return 2;
    case Tag::Cplx:
    case Tag::CplxVec:
      return 3;
    case Tag::Str:
    case Tag::StrVec:
      return 4;
    default:
      return 5;
    }
  };
  int64_t Total = 0;
  for (size_t K = 0; K < N; ++K) {
    if (Args[K].isNull())
      continue;
    Total += Args[K].length();
    int R = RankOf(Args[K].tag());
    Rank = R > Rank ? R : Rank;
  }
  if (Rank < 0)
    return Value::nil();

  auto ForEach = [&](auto &&Push) {
    for (size_t K = 0; K < N; ++K) {
      if (Args[K].isNull())
        continue;
      int64_t L = Args[K].length();
      for (int64_t J = 1; J <= L; ++J)
        Push(extract2(Args[K], J));
    }
  };

  switch (Rank) {
  case 0: {
    std::vector<int8_t> R;
    R.reserve(Total);
    ForEach([&](const Value &V) { R.push_back(V.asCondition() ? 1 : 0); });
    return Value::lglVec(std::move(R));
  }
  case 1: {
    std::vector<int32_t> R;
    R.reserve(Total);
    ForEach([&](const Value &V) { R.push_back(V.toInt()); });
    return Value::intVec(std::move(R));
  }
  case 2: {
    std::vector<double> R;
    R.reserve(Total);
    ForEach([&](const Value &V) { R.push_back(V.toReal()); });
    return Value::realVec(std::move(R));
  }
  case 3: {
    std::vector<Complex> R;
    R.reserve(Total);
    ForEach([&](const Value &V) { R.push_back(V.toCplx()); });
    return Value::cplxVec(std::move(R));
  }
  case 4: {
    std::vector<std::string> R;
    R.reserve(Total);
    ForEach([&](const Value &V) {
      if (V.tag() != Tag::Str)
        rerror("c(): mixing strings and non-strings unsupported");
      R.push_back(V.strObj()->D);
    });
    return Value::strVec(std::move(R));
  }
  default: {
    std::vector<Value> R;
    R.reserve(Total);
    ForEach([&](const Value &V) { R.push_back(V); });
    return Value::list(std::move(R));
  }
  }
}

Value reduceMinMax(const Value *Args, size_t N, bool WantMin,
                   const char *Name) {
  if (N == 0)
    rerror(std::string(Name) + ": no arguments");
  bool Any = false, AllInt = true;
  double Best = 0;
  for (size_t K = 0; K < N; ++K) {
    int64_t L = Args[K].length();
    Tag T = Args[K].tag();
    if (T == Tag::Real || T == Tag::RealVec)
      AllInt = false;
    for (int64_t J = 1; J <= L; ++J) {
      double X = extract2(Args[K], J).toReal();
      if (!Any || (WantMin ? X < Best : X > Best)) {
        Best = X;
        Any = true;
      }
    }
  }
  if (!Any)
    rerror(std::string(Name) + ": empty arguments");
  if (AllInt)
    return Value::integer(static_cast<int32_t>(Best));
  return Value::real(Best);
}

Value doSum(const Value *Args, size_t N) {
  // Result kind follows the ladder over all arguments.
  bool HasCplx = false, HasReal = false;
  for (size_t K = 0; K < N; ++K) {
    Tag T = Args[K].tag();
    HasCplx |= T == Tag::Cplx || T == Tag::CplxVec;
    HasReal |= T == Tag::Real || T == Tag::RealVec;
  }
  if (HasCplx) {
    Complex S{0, 0};
    for (size_t K = 0; K < N; ++K)
      for (int64_t J = 1, L = Args[K].length(); J <= L; ++J)
        S = S + extract2(Args[K], J).toCplx();
    return Value::cplx(S);
  }
  if (HasReal) {
    double S = 0;
    for (size_t K = 0; K < N; ++K)
      for (int64_t J = 1, L = Args[K].length(); J <= L; ++J)
        S += extract2(Args[K], J).toReal();
    return Value::real(S);
  }
  int64_t S = 0;
  for (size_t K = 0; K < N; ++K)
    for (int64_t J = 1, L = Args[K].length(); J <= L; ++J)
      S += extract2(Args[K], J).toInt();
  return Value::integer(static_cast<int32_t>(S));
}

void catOne(const Value &V) {
  if (V.tag() == Tag::Str) {
    fputs(V.strObj()->D.c_str(), stdout);
    return;
  }
  int64_t L = V.length();
  for (int64_t J = 1; J <= L; ++J) {
    if (J > 1)
      fputc(' ', stdout);
    Value E = extract2(V, J);
    if (E.tag() == Tag::Str)
      fputs(E.strObj()->D.c_str(), stdout);
    else
      fputs(E.show().c_str(), stdout);
  }
}

} // namespace

const char *rjit::builtinName(BuiltinId Id) {
  for (const auto &E : Table)
    if (E.Id == Id)
      return E.Name;
  return "?";
}

bool rjit::builtinNamed(Symbol S, BuiltinId &Id) {
  static const std::vector<Symbol> Names = [] {
    std::vector<Symbol> N;
    for (const auto &E : Table)
      N.push_back(symbol(E.Name));
    return N;
  }();
  for (size_t K = 0; K < Names.size(); ++K)
    if (Names[K] == S) {
      Id = Table[K].Id;
      return true;
    }
  return false;
}

void rjit::installBuiltins(Env &GlobalEnv) {
  for (const auto &E : Table)
    GlobalEnv.set(symbol(E.Name), Value::builtin(E.Id));
}

Value rjit::callBuiltin(BuiltinId Id, const Value *Args, size_t N) {
  switch (Id) {
  case BuiltinId::Length:
    needArgs(N, 1, "length");
    return Value::integer(static_cast<int32_t>(Args[0].length()));

  case BuiltinId::Concat:
    return concat(Args, N);

  case BuiltinId::IntegerCtor: {
    int64_t L = N == 0 ? 0 : lengthArg(Args[0]);
    return Value::intVec(std::vector<int32_t>(L, 0));
  }
  case BuiltinId::NumericCtor: {
    int64_t L = N == 0 ? 0 : lengthArg(Args[0]);
    return Value::realVec(std::vector<double>(L, 0));
  }
  case BuiltinId::ComplexCtor: {
    int64_t L = N == 0 ? 0 : lengthArg(Args[0]);
    return Value::cplxVec(std::vector<Complex>(L, Complex{0, 0}));
  }
  case BuiltinId::LogicalCtor: {
    int64_t L = N == 0 ? 0 : lengthArg(Args[0]);
    return Value::lglVec(std::vector<int8_t>(L, 0));
  }
  case BuiltinId::CharacterCtor: {
    int64_t L = N == 0 ? 0 : lengthArg(Args[0]);
    return Value::strVec(std::vector<std::string>(L));
  }
  case BuiltinId::ListCtor: {
    std::vector<Value> R(Args, Args + N);
    return Value::list(std::move(R));
  }
  case BuiltinId::VectorCtor: {
    needArgs(N, 2, "vector");
    if (Args[0].tag() != Tag::Str)
      rerror("vector: mode must be a string");
    const std::string &Mode = Args[0].strObj()->D;
    int64_t L = lengthArg(Args[1]);
    if (Mode == "integer")
      return Value::intVec(std::vector<int32_t>(L, 0));
    if (Mode == "numeric" || Mode == "double")
      return Value::realVec(std::vector<double>(L, 0));
    if (Mode == "complex")
      return Value::cplxVec(std::vector<Complex>(L, Complex{0, 0}));
    if (Mode == "logical")
      return Value::lglVec(std::vector<int8_t>(L, 0));
    if (Mode == "list")
      return Value::list(std::vector<Value>(L));
    rerror("vector: unsupported mode '" + Mode + "'");
  }
  case BuiltinId::SeqLen: {
    needArgs(N, 1, "seq_len");
    int64_t L = lengthArg(Args[0]);
    std::vector<int32_t> R(L);
    for (int64_t K = 0; K < L; ++K)
      R[K] = static_cast<int32_t>(K + 1);
    return Value::intVec(std::move(R));
  }

  case BuiltinId::Sqrt:
    needArgs(N, 1, "sqrt");
    return mathUnary(Args[0], [](double X) { return std::sqrt(X); }, "sqrt");
  case BuiltinId::Exp:
    needArgs(N, 1, "exp");
    return mathUnary(Args[0], [](double X) { return std::exp(X); }, "exp");
  case BuiltinId::Log:
    needArgs(N, 1, "log");
    return mathUnary(Args[0], [](double X) { return std::log(X); }, "log");
  case BuiltinId::Sin:
    needArgs(N, 1, "sin");
    return mathUnary(Args[0], [](double X) { return std::sin(X); }, "sin");
  case BuiltinId::Cos:
    needArgs(N, 1, "cos");
    return mathUnary(Args[0], [](double X) { return std::cos(X); }, "cos");
  case BuiltinId::Tan:
    needArgs(N, 1, "tan");
    return mathUnary(Args[0], [](double X) { return std::tan(X); }, "tan");
  case BuiltinId::Atan2:
    needArgs(N, 2, "atan2");
    return Value::real(std::atan2(Args[0].toReal(), Args[1].toReal()));

  case BuiltinId::Abs:
    needArgs(N, 1, "abs");
    if (Args[0].tag() == Tag::Cplx || Args[0].tag() == Tag::CplxVec) {
      if (Args[0].tag() == Tag::Cplx)
        return Value::real(std::sqrt(Args[0].asCplxUnchecked().mod2()));
      const auto &D = Args[0].cplxVecObj()->D;
      std::vector<double> R(D.size());
      for (size_t K = 0; K < D.size(); ++K)
        R[K] = std::sqrt(D[K].mod2());
      return Value::realVec(std::move(R));
    }
    if (Args[0].tag() == Tag::Int)
      return Value::integer(std::abs(Args[0].asIntUnchecked()));
    if (Args[0].tag() == Tag::IntVec) {
      auto R = Args[0].intVecObj()->D;
      for (auto &X : R)
        X = std::abs(X);
      return Value::intVec(std::move(R));
    }
    return mathUnary(Args[0], [](double X) { return std::fabs(X); }, "abs");

  case BuiltinId::Floor:
    needArgs(N, 1, "floor");
    return mathUnary(Args[0], [](double X) { return std::floor(X); },
                     "floor");
  case BuiltinId::Ceiling:
    needArgs(N, 1, "ceiling");
    return mathUnary(Args[0], [](double X) { return std::ceil(X); },
                     "ceiling");
  case BuiltinId::Round:
    needArgs(N, 1, "round");
    return mathUnary(Args[0], [](double X) { return std::nearbyint(X); },
                     "round");

  case BuiltinId::Min:
    return reduceMinMax(Args, N, /*WantMin=*/true, "min");
  case BuiltinId::Max:
    return reduceMinMax(Args, N, /*WantMin=*/false, "max");
  case BuiltinId::Sum:
    return doSum(Args, N);
  case BuiltinId::Mean: {
    needArgs(N, 1, "mean");
    int64_t L = Args[0].length();
    if (L == 0)
      rerror("mean of empty vector");
    double S = 0;
    for (int64_t J = 1; J <= L; ++J)
      S += extract2(Args[0], J).toReal();
    return Value::real(S / static_cast<double>(L));
  }

  case BuiltinId::Re:
    needArgs(N, 1, "Re");
    return Value::real(Args[0].toCplx().Re);
  case BuiltinId::Im:
    needArgs(N, 1, "Im");
    return Value::real(Args[0].toCplx().Im);
  case BuiltinId::ModC: {
    needArgs(N, 1, "Mod");
    Complex C = Args[0].toCplx();
    return Value::real(std::sqrt(C.mod2()));
  }
  case BuiltinId::Conj: {
    needArgs(N, 1, "Conj");
    Complex C = Args[0].toCplx();
    return Value::cplx(C.Re, -C.Im);
  }

  case BuiltinId::Rev: {
    needArgs(N, 1, "rev");
    const Value &A = Args[0];
    switch (A.tag()) {
    case Tag::IntVec: {
      std::vector<int32_t> R(A.intVecObj()->D.rbegin(),
                             A.intVecObj()->D.rend());
      return Value::intVec(std::move(R));
    }
    case Tag::RealVec: {
      std::vector<double> R(A.realVecObj()->D.rbegin(),
                            A.realVecObj()->D.rend());
      return Value::realVec(std::move(R));
    }
    case Tag::CplxVec: {
      std::vector<Complex> R(A.cplxVecObj()->D.rbegin(),
                             A.cplxVecObj()->D.rend());
      return Value::cplxVec(std::move(R));
    }
    case Tag::LglVec: {
      std::vector<int8_t> R(A.lglVecObj()->D.rbegin(),
                            A.lglVecObj()->D.rend());
      return Value::lglVec(std::move(R));
    }
    case Tag::StrVec: {
      std::vector<std::string> R(A.strVecObj()->D.rbegin(),
                                 A.strVecObj()->D.rend());
      return Value::strVec(std::move(R));
    }
    case Tag::List: {
      std::vector<Value> R(A.listObj()->D.rbegin(), A.listObj()->D.rend());
      return Value::list(std::move(R));
    }
    default:
      return A; // scalars and NULL are their own reverse
    }
  }

  case BuiltinId::Print:
    needArgs(N, 1, "print");
    fputs(Args[0].show().c_str(), stdout);
    fputc('\n', stdout);
    return Args[0];

  case BuiltinId::Cat:
    for (size_t K = 0; K < N; ++K)
      catOne(Args[K]);
    return Value::nil();

  case BuiltinId::Stop:
    rerror(N > 0 && Args[0].tag() == Tag::Str ? Args[0].strObj()->D
                                              : "stop() called");

  case BuiltinId::Identical:
    needArgs(N, 2, "identical");
    return Value::lgl(Args[0].equals(Args[1]));

  case BuiltinId::AsInteger:
    needArgs(N, 1, "as.integer");
    return Value::integer(Args[0].toInt());
  case BuiltinId::AsNumeric:
    needArgs(N, 1, "as.numeric");
    if (isNumVecTag(Args[0].tag())) {
      int64_t L = Args[0].length();
      std::vector<double> R(L);
      for (int64_t J = 1; J <= L; ++J)
        R[J - 1] = extract2(Args[0], J).toReal();
      return Value::realVec(std::move(R));
    }
    return Value::real(Args[0].toReal());
  case BuiltinId::AsComplex:
    needArgs(N, 1, "as.complex");
    if (isNumVecTag(Args[0].tag())) {
      int64_t L = Args[0].length();
      std::vector<Complex> R(L);
      for (int64_t J = 1; J <= L; ++J)
        R[J - 1] = extract2(Args[0], J).toCplx();
      return Value::cplxVec(std::move(R));
    }
    return Value::cplx(Args[0].toCplx());
  case BuiltinId::AsLogical:
    needArgs(N, 1, "as.logical");
    return Value::lgl(Args[0].asCondition());
  case BuiltinId::IsNull:
    needArgs(N, 1, "is.null");
    return Value::lgl(Args[0].isNull());

  case BuiltinId::Nchar:
    needArgs(N, 1, "nchar");
    if (Args[0].tag() != Tag::Str)
      rerror("nchar: not a string");
    return Value::integer(static_cast<int32_t>(Args[0].strObj()->D.size()));
  case BuiltinId::Substr: {
    needArgs(N, 3, "substr");
    if (Args[0].tag() != Tag::Str)
      rerror("substr: not a string");
    const std::string &S = Args[0].strObj()->D;
    int64_t From = Args[1].toInt(), To = Args[2].toInt();
    if (From < 1)
      From = 1;
    if (To > static_cast<int64_t>(S.size()))
      To = static_cast<int64_t>(S.size());
    if (From > To)
      return Value::str("");
    return Value::str(S.substr(From - 1, To - From + 1));
  }
  case BuiltinId::Paste0: {
    std::string R;
    for (size_t K = 0; K < N; ++K) {
      if (Args[K].tag() == Tag::Str)
        R += Args[K].strObj()->D;
      else
        R += Args[K].show();
    }
    return Value::str(R);
  }

  case BuiltinId::Runif: {
    int64_t L = N == 0 ? 1 : lengthArg(Args[0]);
    if (L == 1)
      return Value::real(builtinRng().uniform());
    std::vector<double> R(L);
    for (auto &X : R)
      X = builtinRng().uniform();
    return Value::realVec(std::move(R));
  }
  case BuiltinId::SetSeed:
    needArgs(N, 1, "set.seed");
    builtinRng().reseed(static_cast<uint64_t>(Args[0].toInt()) * 2654435761u +
                        1);
    return Value::nil();

  case BuiltinId::BitwAnd:
    needArgs(N, 2, "bitwAnd");
    return Value::integer(Args[0].toInt() & Args[1].toInt());
  case BuiltinId::BitwOr:
    needArgs(N, 2, "bitwOr");
    return Value::integer(Args[0].toInt() | Args[1].toInt());
  case BuiltinId::BitwXor:
    needArgs(N, 2, "bitwXor");
    return Value::integer(Args[0].toInt() ^ Args[1].toInt());
  case BuiltinId::BitwShiftL:
    needArgs(N, 2, "bitwShiftL");
    return Value::integer(static_cast<int32_t>(
        static_cast<uint32_t>(Args[0].toInt()) << (Args[1].toInt() & 31)));
  case BuiltinId::BitwShiftR:
    needArgs(N, 2, "bitwShiftR");
    return Value::integer(static_cast<int32_t>(
        static_cast<uint32_t>(Args[0].toInt()) >> (Args[1].toInt() & 31)));
  }
  rerror("unknown builtin");
}
