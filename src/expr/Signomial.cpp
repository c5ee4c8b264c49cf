//===- expr/Signomial.cpp - Sums of monomials -----------------------------===//

#include "expr/Signomial.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

using namespace thistle;

Signomial::Signomial(Monomial M) {
  if (M.coefficient() != 0.0)
    Monomials.push_back(std::move(M));
}

Signomial Signomial::constant(double Value) {
  return Signomial(Monomial(Value));
}

Signomial Signomial::variable(VarId Var) {
  return Signomial(Monomial::variable(Var));
}

void Signomial::canonicalize() {
  std::stable_sort(Monomials.begin(), Monomials.end(),
                   [](const Monomial &A, const Monomial &B) {
                     return A.variablesLessThan(B);
                   });
  std::vector<Monomial> Merged;
  for (const Monomial &M : Monomials) {
    if (!Merged.empty() && Merged.back().sameVariablesAs(M)) {
      double Sum = Merged.back().coefficient() + M.coefficient();
      if (Sum == 0.0)
        Merged.pop_back();
      else
        Merged.back() = M.scaled(Sum / M.coefficient());
      continue;
    }
    if (M.coefficient() != 0.0)
      Merged.push_back(M);
  }
  Monomials = std::move(Merged);
}

bool Signomial::isPosynomial() const {
  for (const Monomial &M : Monomials)
    if (M.coefficient() <= 0.0)
      return false;
  return !Monomials.empty();
}

Signomial Signomial::operator+(const Signomial &Other) const {
  Signomial Out = *this;
  Out += Other;
  return Out;
}

Signomial &Signomial::operator+=(const Signomial &Other) {
  Monomials.insert(Monomials.end(), Other.Monomials.begin(),
                   Other.Monomials.end());
  canonicalize();
  return *this;
}

Signomial Signomial::operator-(const Signomial &Other) const {
  return *this + Other.scaled(-1.0);
}

Signomial Signomial::operator*(const Signomial &Other) const {
  Signomial Out;
  for (const Monomial &A : Monomials)
    for (const Monomial &B : Other.Monomials)
      Out.Monomials.push_back(A * B);
  Out.canonicalize();
  return Out;
}

Signomial Signomial::operator*(const Monomial &M) const {
  Signomial Out;
  for (const Monomial &A : Monomials)
    Out.Monomials.push_back(A * M);
  Out.canonicalize();
  return Out;
}

Signomial Signomial::scaled(double Scale) const {
  if (Scale == 0.0)
    return Signomial();
  Signomial Out;
  for (const Monomial &A : Monomials)
    Out.Monomials.push_back(A.scaled(Scale));
  // Scaling preserves canonical order and cannot create merges.
  return Out;
}

Signomial Signomial::substituted(VarId Var, const Monomial &Repl) const {
  Signomial Out;
  for (const Monomial &A : Monomials)
    Out.Monomials.push_back(A.substituted(Var, Repl));
  Out.canonicalize();
  return Out;
}

Signomial Signomial::posynomialUpperBound() const {
  Signomial Out;
  for (const Monomial &A : Monomials)
    if (A.coefficient() > 0.0)
      Out.Monomials.push_back(A);
  return Out;
}

double Signomial::evaluate(const Assignment &Values) const {
  double Sum = 0.0;
  for (const Monomial &A : Monomials)
    Sum += A.evaluate(Values);
  return Sum;
}

bool Signomial::mentions(VarId Var) const {
  for (const Monomial &A : Monomials)
    if (A.mentions(Var))
      return true;
  return false;
}

std::string Signomial::toString(const VarTable &Table) const {
  if (Monomials.empty())
    return "0";
  // Print variable terms before constants (paper style: "x + y - 1").
  std::vector<Monomial> Ordered;
  for (const Monomial &M : Monomials)
    if (!M.isConstant())
      Ordered.push_back(M);
  for (const Monomial &M : Monomials)
    if (M.isConstant())
      Ordered.push_back(M);
  std::ostringstream OS;
  for (std::size_t I = 0; I < Ordered.size(); ++I) {
    const Monomial &M = Ordered[I];
    if (I == 0) {
      OS << M.toString(Table);
      continue;
    }
    if (M.coefficient() < 0.0)
      OS << " - " << M.scaled(-1.0).toString(Table);
    else
      OS << " + " << M.toString(Table);
  }
  return OS.str();
}

bool Signomial::operator==(const Signomial &Other) const {
  if (Monomials.size() != Other.Monomials.size())
    return false;
  for (std::size_t I = 0; I < Monomials.size(); ++I) {
    if (Monomials[I].coefficient() != Other.Monomials[I].coefficient() ||
        !Monomials[I].sameVariablesAs(Other.Monomials[I]))
      return false;
  }
  return true;
}
