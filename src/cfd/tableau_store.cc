#include "cfd/tableau_store.h"

#include "common/string_util.h"

namespace semandaq::cfd {

using common::Status;
using relational::DataType;
using relational::Relation;
using relational::Row;
using relational::Schema;
using relational::Value;

common::Status TableauStore::Store(const std::vector<Cfd>& cfds,
                                   relational::Database* db,
                                   std::vector<std::string>* tableau_names) {
  Clear(db);

  Schema meta_schema = Schema::AllStrings(
      {"tableau_name", "target_relation", "lhs_attrs", "rhs_attr"});
  Relation meta{kMetaRelation, meta_schema};

  const std::vector<EmbeddedFdGroup> groups = GroupByEmbeddedFd(cfds);
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const EmbeddedFdGroup& g = groups[gi];
    const std::string name = kTableauPrefix + std::to_string(gi);

    // Pattern columns adopt the target relation's attribute types when it is
    // registered, so the generated detection SQL compares like with like.
    const Relation* target = db->FindRelation(g.relation);
    auto attr_type = [&](const std::string& attr) {
      if (target == nullptr) return DataType::kString;
      const int idx = target->schema().IndexOf(attr);
      return idx < 0 ? DataType::kString : target->schema().attr(idx).type;
    };
    Schema schema;
    for (const std::string& a : g.lhs_attrs) {
      SEMANDAQ_RETURN_IF_ERROR(
          schema.AddAttribute(relational::AttributeDef{a, attr_type(a), {}}));
    }
    SEMANDAQ_RETURN_IF_ERROR(schema.AddAttribute(
        relational::AttributeDef{g.rhs_attr, attr_type(g.rhs_attr), {}}));
    SEMANDAQ_RETURN_IF_ERROR(schema.AddAttribute(
        relational::AttributeDef{"__cfd_id", DataType::kInt, {}}));
    SEMANDAQ_RETURN_IF_ERROR(schema.AddAttribute(
        relational::AttributeDef{"__pattern_id", DataType::kInt, {}}));
    SEMANDAQ_RETURN_IF_ERROR(schema.AddAttribute(
        relational::AttributeDef{kNullConstColumn, DataType::kInt, {}}));

    Relation tableau{name, schema};
    for (const auto& [ci, pi] : g.members) {
      const PatternTuple& pt = cfds[ci].tableau()[pi];
      int64_t marker = pt.rhs.is_null_constant() ? 2 : 0;
      Row row;
      row.reserve(g.lhs_attrs.size() + 4);
      for (const PatternValue& pv : pt.lhs) {
        if (pv.is_null_constant()) marker = 1;
        row.push_back(pv.is_wildcard() ? Value::Null() : pv.constant());
      }
      row.push_back(pt.rhs.is_wildcard() ? Value::Null() : pt.rhs.constant());
      row.push_back(Value::Int(static_cast<int64_t>(ci)));
      row.push_back(Value::Int(static_cast<int64_t>(pi)));
      row.push_back(Value::Int(marker));
      auto ins = tableau.Insert(std::move(row));
      if (!ins.ok()) return ins.status();
    }
    db->PutRelation(std::move(tableau));

    std::vector<std::string> lhs_copy = g.lhs_attrs;
    meta.MustInsert(Row{Value::String(name), Value::String(g.relation),
                        Value::String(common::Join(lhs_copy, ";")),
                        Value::String(g.rhs_attr)});
    if (tableau_names != nullptr) tableau_names->push_back(name);
  }
  db->PutRelation(std::move(meta));
  return Status::OK();
}

common::Result<std::vector<Cfd>> TableauStore::Load(const relational::Database& db) {
  SEMANDAQ_ASSIGN_OR_RETURN(const Relation* meta, db.GetRelation(kMetaRelation));
  std::vector<Cfd> out;
  Status status;
  meta->ForEach([&](relational::TupleId, const Row& mrow) {
    if (!status.ok()) return;
    const std::string& tableau_name = mrow[0].AsString();
    const std::string& target = mrow[1].AsString();
    std::vector<std::string> lhs_attrs = common::Split(mrow[2].AsString(), ';');
    const std::string& rhs_attr = mrow[3].AsString();

    const Relation* tab = db.FindRelation(tableau_name);
    if (tab == nullptr) {
      status = Status::Internal("missing tableau relation " + tableau_name);
      return;
    }
    std::vector<PatternTuple> tableau;
    // Tableaux stored before the marker existed hold wildcards only.
    const int marker_col = tab->schema().IndexOf(kNullConstColumn);
    // A stored NULL is a constant where the marker says so.
    const auto entry = [](const Value& v, bool null_is_constant) {
      return v.is_null() && !null_is_constant ? PatternValue::Wildcard()
                                              : PatternValue::Constant(v);
    };
    tab->ForEach([&](relational::TupleId, const Row& trow) {
      const int64_t marker =
          marker_col < 0 ? 0 : trow[static_cast<size_t>(marker_col)].AsInt();
      PatternTuple pt;
      for (size_t i = 0; i < lhs_attrs.size(); ++i) {
        pt.lhs.push_back(entry(trow[i], marker == 1));
      }
      pt.rhs = entry(trow[lhs_attrs.size()], marker == 2);
      tableau.push_back(std::move(pt));
    });
    out.emplace_back(target, std::move(lhs_attrs), rhs_attr, std::move(tableau));
  });
  if (!status.ok()) return status;
  return out;
}

void TableauStore::Clear(relational::Database* db) {
  std::vector<std::string> to_drop;
  for (const std::string& name : db->RelationNames()) {
    if (common::StartsWith(name, kTableauPrefix) || name == kMetaRelation) {
      to_drop.push_back(name);
    }
  }
  for (const std::string& name : to_drop) (void)db->DropRelation(name);
}

}  // namespace semandaq::cfd
