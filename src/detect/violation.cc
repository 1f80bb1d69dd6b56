#include "detect/violation.h"

#include <algorithm>
#include <cassert>

namespace semandaq::detect {

void ViolationTable::EnsureTid(relational::TupleId tid) {
  const size_t need = static_cast<size_t>(tid) + 1;
  if (vio_.size() < need) vio_.resize(need, 0);
}

void ViolationTable::AddVio(relational::TupleId tid, int64_t amount) {
  int64_t& v = vio_[static_cast<size_t>(tid)];
  if (v == 0 && amount > 0) ++num_violating_;
  v += amount;
  total_ += amount;
}

bool ViolationTable::AddSingle(SingleViolation v) {
  singles_.push_back(v);
  const bool fresh = counted_singles_.insert({v.tid, v.cfd_index}).second;
  if (fresh) {
    EnsureTid(v.tid);
    AddVio(v.tid, 1);
  }
  return fresh;
}

void ViolationTable::AddGroup(ViolationGroup g) {
  if (!g.members.empty()) {
    relational::TupleId max_tid = g.members.front();
    for (relational::TupleId tid : g.members) max_tid = std::max(max_tid, tid);
    EnsureTid(max_tid);
  }
  assert(g.member_partners.size() == g.members.size());
  for (size_t i = 0; i < g.members.size(); ++i) {
    const int64_t partners = g.member_partners[i];
    if (partners > 0) AddVio(g.members[i], partners);
  }
  groups_.push_back(std::move(g));
}

int64_t ViolationTable::vio(relational::TupleId tid) const {
  const size_t i = static_cast<size_t>(tid);
  return tid >= 0 && i < vio_.size() ? vio_[i] : 0;
}

std::vector<relational::TupleId> ViolationTable::ViolatingTuples() const {
  std::vector<relational::TupleId> out;
  out.reserve(num_violating_);
  for (size_t i = 0; i < vio_.size(); ++i) {
    if (vio_[i] > 0) out.push_back(static_cast<relational::TupleId>(i));
  }
  return out;
}

std::string ViolationTable::Summary() const {
  return std::to_string(singles_.size()) + " single-tuple violation(s), " +
         std::to_string(groups_.size()) + " multi-tuple group(s), " +
         std::to_string(NumViolatingTuples()) + " violating tuple(s), total vio " +
         std::to_string(total_);
}

}  // namespace semandaq::detect
