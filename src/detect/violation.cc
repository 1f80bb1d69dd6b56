#include "detect/violation.h"

#include <algorithm>
#include <cassert>

namespace semandaq::detect {

namespace {

uint64_t PairKey(relational::TupleId tid, int cfd) {
  return (static_cast<uint64_t>(tid) << 20) ^ static_cast<uint64_t>(cfd + 1);
}

}  // namespace

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
  drilldown_built_ = false;
  const bool fresh = counted_singles_.insert(PairKey(v.tid, v.cfd_index)).second;
  if (fresh) {
    EnsureTid(v.tid);
    AddVio(v.tid, 1);
  }
  return fresh;
}

void ViolationTable::AddGroup(ViolationGroup g) {
  drilldown_built_ = false;
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

void ViolationTable::EnsureDrilldownIndex() const {
  if (drilldown_built_) return;
  single_cfds_.clear();
  group_membership_.clear();
  std::unordered_set<uint64_t> seen;
  seen.reserve(singles_.size());
  for (const SingleViolation& v : singles_) {
    if (seen.insert(PairKey(v.tid, v.cfd_index)).second) {
      single_cfds_[v.tid].push_back(v.cfd_index);
    }
  }
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    for (relational::TupleId tid : groups_[gi].members) {
      group_membership_[tid].push_back(static_cast<int>(gi));
    }
  }
  drilldown_built_ = true;
}

int64_t ViolationTable::vio(relational::TupleId tid) const {
  const size_t i = static_cast<size_t>(tid);
  return tid >= 0 && i < vio_.size() ? vio_[i] : 0;
}

std::vector<int> ViolationTable::SingleCfdsOf(relational::TupleId tid) const {
  EnsureDrilldownIndex();
  const auto it = single_cfds_.find(tid);
  return it != single_cfds_.end() ? it->second : std::vector<int>{};
}

std::vector<int> ViolationTable::GroupsOf(relational::TupleId tid) const {
  EnsureDrilldownIndex();
  const auto it = group_membership_.find(tid);
  return it != group_membership_.end() ? it->second : std::vector<int>{};
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
