#ifndef SEMANDAQ_CFD_PATTERN_H_
#define SEMANDAQ_CFD_PATTERN_H_

#include <string>

#include "relational/value.h"

namespace semandaq::cfd {

/// One entry of a CFD pattern tuple: either a constant or the wildcard '_'
/// ("don't care" in the paper's notation).
///
/// NULL semantics mirror the SQL-based detection of Fan et al. [TODS'08],
/// where a wildcard is encoded as SQL NULL and matching is the predicate
/// `(t.A = tp.A OR tp.A IS NULL)`:
///   * a wildcard matches every tuple value, NULL included;
///   * a constant matches only an equal, non-NULL tuple value.
class PatternValue {
 public:
  /// Constructs the wildcard.
  PatternValue() : wildcard_(true) {}

  static PatternValue Wildcard() { return PatternValue(); }
  static PatternValue Constant(relational::Value v);

  bool is_wildcard() const { return wildcard_; }
  bool is_constant() const { return !wildcard_; }
  /// The constant NULL, which matches no tuple value.
  bool is_null_constant() const { return !wildcard_ && constant_.is_null(); }

  /// The constant; only valid when is_constant().
  const relational::Value& constant() const { return constant_; }

  /// Pattern-match against a tuple value (see class comment for NULLs).
  bool Matches(const relational::Value& v) const;

  /// Two constants are *compatible* when equal; a wildcard is compatible
  /// with anything. Compatibility is the pairwise-consistency primitive of
  /// the satisfiability analysis.
  bool CompatibleWith(const PatternValue& other) const;

  /// "_" for the wildcard, the display form of the constant otherwise.
  std::string ToString() const;

  bool operator==(const PatternValue& other) const {
    if (wildcard_ != other.wildcard_) return false;
    return wildcard_ || constant_ == other.constant_;
  }
  bool operator!=(const PatternValue& other) const { return !(*this == other); }

 private:
  bool wildcard_;
  relational::Value constant_;
};

}  // namespace semandaq::cfd

#endif  // SEMANDAQ_CFD_PATTERN_H_
