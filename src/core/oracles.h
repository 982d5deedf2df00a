#ifndef SKYPREF_CORE_ORACLES_H_
#define SKYPREF_CORE_ORACLES_H_

/// \file
/// Numeric-generic access to preference probabilities.
///
/// The exact solvers are templated on an Oracle so the same algorithm can
/// run in fast double precision (production) or exact Rational arithmetic
/// (the bit-exact correctness oracle used by the test suite). An Oracle
/// provides:
///
///   using NumType = ...;                    // double or Rational
///   NumType LessEq(dim, a, b) const;        // Pr(a <= b); 1 when a == b
///   NumType Less(dim, a, b) const;          // Pr(a < b);  0 when a == b
///
/// NumType must support {+,-,*,/}, comparison, and construction from int.

#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/kahan.h"
#include "src/util/rational.h"

namespace skypref {

/// Oracle over any PreferenceModel, computing in double precision.
class DoubleOracle {
 public:
  using NumType = double;

  explicit DoubleOracle(const PreferenceModel& model) : model_(&model) {}

  double LessEq(DimensionId dim, ValueId a, ValueId b) const {
    return model_->LessEq(dim, a, b);
  }
  double Less(DimensionId dim, ValueId a, ValueId b) const {
    return model_->Less(dim, a, b);
  }

 private:
  const PreferenceModel* model_;
};

/// Oracle over a RationalPreferenceModel, computing exactly.
class RationalOracle {
 public:
  using NumType = Rational;

  explicit RationalOracle(const RationalPreferenceModel& model)
      : model_(&model) {}

  Rational LessEq(DimensionId dim, ValueId a, ValueId b) const {
    return model_->LessEqRational(dim, a, b);
  }
  Rational Less(DimensionId dim, ValueId a, ValueId b) const {
    if (a == b) return Rational(0);
    return model_->GetRational(dim, a, b).less;
  }

 private:
  const RationalPreferenceModel* model_;
};

/// Numeric accumulation policy: doubles get compensated summation (the
/// inclusion-exclusion series alternates signs over up to 2^n terms),
/// rationals are exact and accumulate directly.
///
/// Compensated summation is NOT associative: splitting one sum into
/// partial accumulators and folding them re-associates the compensation
/// terms. Parallel reductions therefore fix the split as a pure function
/// of the instance — never of the thread count — and fold the partial
/// values in a fixed order, so any thread count produces the identical
/// bits. Rational accumulation is exact and associative.
template <typename Num>
class Accumulator {
 public:
  void Add(const Num& term) { total_ = total_ + term; }
  Num Value() const { return total_; }

 private:
  Num total_{};
};

template <>
class Accumulator<double> {
 public:
  void Add(const double& term) { sum_.Add(term); }
  double Value() const { return sum_.Value(); }

 private:
  KahanSum sum_;
};

}  // namespace skypref

#endif  // SKYPREF_CORE_ORACLES_H_
