#include "detect/sql_detector.h"

#include <unordered_map>

#include "cfd/tableau_store.h"
#include "common/string_util.h"
#include "sql/binder.h"
#include "sql/engine.h"

namespace semandaq::detect {

using common::Status;
using relational::Relation;
using relational::Row;
using relational::RowEq;
using relational::RowHash;
using relational::TupleId;
using relational::Value;

common::Result<ViolationTable> SqlDetector::Detect() {
  const Relation* target = db_->FindRelation(relation_);
  if (target == nullptr) {
    return Status::NotFound("no relation named " + relation_);
  }
  SEMANDAQ_RETURN_IF_ERROR(cfd::ResolveAll(&cfds_, target->schema()));
  // The generated queries read tuple ids through the __tid pseudo-column,
  // which an attribute of that name would hide, and the tableau relations
  // put __cfd_id, __pattern_id and __null_const beside the CFDs' attributes.
  auto reserved = [](const std::string& attr) {
    return Status::InvalidArgument("attribute '" + attr +
                                   "' is reserved by the SQL detector");
  };
  if (target->schema().IndexOf(sql::kTidPseudoColumn) >= 0) {
    return reserved(sql::kTidPseudoColumn);
  }
  for (const cfd::Cfd& c : cfds_) {
    std::vector<std::string> attrs = c.lhs_attrs();
    attrs.push_back(c.rhs_attr());
    for (const std::string& a : attrs) {
      if (common::EqualsIgnoreCase(a, "__cfd_id") ||
          common::EqualsIgnoreCase(a, "__pattern_id") ||
          common::EqualsIgnoreCase(a, cfd::TableauStore::kNullConstColumn)) {
        return reserved(a);
      }
    }
  }

  // The tableau relations live in db_ only while this call runs, whichever
  // path it returns by.
  struct TableauGuard {
    relational::Database* db;
    ~TableauGuard() { cfd::TableauStore::Clear(db); }
  } tableau_guard{db_};
  std::vector<std::string> tableau_names;
  SEMANDAQ_RETURN_IF_ERROR(cfd::TableauStore::Store(cfds_, db_, &tableau_names));
  queries_ = GenerateDetectionSql(cfds_, relation_, tableau_names);

  const std::vector<cfd::EmbeddedFdGroup> groups = cfd::GroupByEmbeddedFd(cfds_);
  sql::Engine engine(db_);
  ViolationTable table;

  for (const DetectionQueries& q : queries_) {
    // Representative CFD for multi-tuple groups: the first variable-RHS
    // member of this tableau group.
    int representative = -1;
    for (const auto& [ci, pi] :
         groups[static_cast<size_t>(q.fd_group)].members) {
      if (!cfds_[ci].tableau()[pi].is_constant_rhs()) {
        representative = static_cast<int>(ci);
        break;
      }
    }

    if (q.has_constant_rows) {
      SEMANDAQ_ASSIGN_OR_RETURN(Relation qc, engine.Query(q.qc, "qc"));
      qc.ForEach([&](TupleId, const Row& row) {
        table.AddSingle(SingleViolation{row[0].AsInt(),
                                        static_cast<int>(row[1].AsInt()),
                                        static_cast<int>(row[2].AsInt())});
      });
    }

    if (q.has_variable_rows) {
      SEMANDAQ_ASSIGN_OR_RETURN(Relation keys, engine.Query(q.qv_keys, q.keys_relation));
      if (!keys.empty()) {
        db_->PutRelation(std::move(keys));
        auto members = engine.Query(q.qv_members, "qv_members");
        (void)db_->DropRelation(q.keys_relation);
        if (!members.ok()) return members.status();

        const size_t key_arity =
            groups[static_cast<size_t>(q.fd_group)].lhs_attrs.size();
        struct Bucket {
          std::vector<TupleId> members;
          std::vector<Value> rhs;
        };
        std::unordered_map<Row, Bucket, RowHash, RowEq> buckets;
        members->ForEach([&](TupleId, const Row& row) {
          // Layout: tid, k0..k{n-1}, rhs.
          Row key(row.begin() + 1, row.begin() + 1 + key_arity);
          Bucket& b = buckets[std::move(key)];
          b.members.push_back(row[0].AsInt());
          b.rhs.push_back(row[1 + key_arity]);
        });
        for (auto& [key, b] : buckets) {
          ViolationGroup vg;
          vg.fd_group = q.fd_group;
          vg.cfd_index = representative;
          vg.lhs_key = key;
          // Partners of a member: the members whose RHS value differs
          // (two NULLs agree).
          std::unordered_map<Value, int64_t, relational::ValueHash> freq;
          for (const Value& v : b.rhs) ++freq[v];
          const int64_t n = static_cast<int64_t>(b.members.size());
          vg.member_partners.reserve(b.rhs.size());
          for (const Value& v : b.rhs) vg.member_partners.push_back(n - freq[v]);
          vg.members = std::move(b.members);
          table.AddGroup(std::move(vg));
        }
      }
    }
  }

  return table;
}

}  // namespace semandaq::detect
