#ifndef SEMANDAQ_RELATIONAL_ENCODED_RELATION_H_
#define SEMANDAQ_RELATIONAL_ENCODED_RELATION_H_

#include "relational/relation.h"

namespace semandaq::relational {

/// Holds nothing; kept only because perfbench/ compiles against it.
class EncodedRelation {
 public:
  explicit EncodedRelation(const Relation* /*rel*/) {}
  EncodedRelation Freeze(const Relation* rel) const { return EncodedRelation(rel); }
};

}  // namespace semandaq::relational

#endif  // SEMANDAQ_RELATIONAL_ENCODED_RELATION_H_
