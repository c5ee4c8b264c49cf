//===- expr/Signomial.h - Sums of monomials ---------------------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A signomial is a finite sum of monomials whose coefficients may be
/// negative. CNN halo footprints produce signomials (e.g. the extent
/// q_h*r_h + q_r*r_r - 1 of the input's third dimension, paper section
/// III-A); a posynomial is the special case with all-positive coefficients
/// and is what Disciplined Geometric Programming requires. The
/// posynomialUpperBound() operation drops the negative terms, which is a
/// valid upper bound because all variables are positive; this is how
/// signomial footprints enter the DGP-compatible optimization problems.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_EXPR_SIGNOMIAL_H
#define THISTLE_EXPR_SIGNOMIAL_H

#include "expr/Monomial.h"

#include <string>
#include <vector>

namespace thistle {

/// Sum of monomials, kept in canonical (combined, variable-sorted) form.
class Signomial {
public:
  /// The zero signomial.
  Signomial() = default;

  /// A single-monomial signomial.
  /*implicit*/ Signomial(Monomial M);

  /// The constant signomial \p Value.
  static Signomial constant(double Value);

  /// The signomial consisting of the single variable \p Var.
  static Signomial variable(VarId Var);

  const std::vector<Monomial> &monomials() const { return Monomials; }
  bool isZero() const { return Monomials.empty(); }

  /// True if every coefficient is positive (the DGP-admissible case).
  bool isPosynomial() const;

  /// True if this is a single monomial with positive coefficient.
  bool isMonomial() const { return Monomials.size() == 1 && isPosynomial(); }

  Signomial operator+(const Signomial &Other) const;
  Signomial operator-(const Signomial &Other) const;
  Signomial operator*(const Signomial &Other) const;
  Signomial operator*(const Monomial &M) const;
  Signomial scaled(double Scale) const;

  Signomial &operator+=(const Signomial &Other);

  /// Substitutes \p Var := \p Repl in every monomial (the Algorithm 1
  /// replace() step lifted to sums).
  Signomial substituted(VarId Var, const Monomial &Repl) const;

  /// Drops all negative-coefficient monomials. Since variables are
  /// positive, the result over-approximates the signomial pointwise.
  Signomial posynomialUpperBound() const;

  /// Exact numeric evaluation under \p Values.
  double evaluate(const Assignment &Values) const;

  /// True if any monomial mentions \p Var.
  bool mentions(VarId Var) const;

  /// Renders e.g. "q_h*r_h + q_r*r_r - 1".
  std::string toString(const VarTable &Table) const;

  bool operator==(const Signomial &Other) const;

private:
  std::vector<Monomial> Monomials;

  /// Re-sorts and merges monomials with identical variable parts; drops
  /// zero-coefficient terms.
  void canonicalize();
};

/// Alias used where the math requires all-positive coefficients; checked
/// dynamically by the solver.
using Posynomial = Signomial;

} // namespace thistle

#endif // THISTLE_EXPR_SIGNOMIAL_H
