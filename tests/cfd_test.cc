#include <gtest/gtest.h>

#include "cfd/cfd.h"
#include "cfd/cfd_parser.h"
#include "cfd/pattern.h"
#include "test_util.h"

namespace semandaq::cfd {
namespace {

using relational::DataType;
using relational::Schema;
using relational::Value;

TEST(PatternValueTest, WildcardMatchesEverything) {
  PatternValue w = PatternValue::Wildcard();
  EXPECT_TRUE(w.is_wildcard());
  EXPECT_TRUE(w.Matches(Value::String("x")));
  EXPECT_TRUE(w.Matches(Value::Int(1)));
  EXPECT_TRUE(w.Matches(Value::Null()));  // mirrors `tp.A IS NULL` in SQL
  EXPECT_EQ(w.ToString(), "_");
}

TEST(PatternValueTest, ConstantMatchesEqualNonNull) {
  PatternValue c = PatternValue::Constant(Value::String("UK"));
  EXPECT_TRUE(c.is_constant());
  EXPECT_TRUE(c.Matches(Value::String("UK")));
  EXPECT_FALSE(c.Matches(Value::String("US")));
  EXPECT_FALSE(c.Matches(Value::Null()));  // NULL never matches a constant
  EXPECT_EQ(c.ToString(), "UK");
}

TEST(PatternValueTest, Compatibility) {
  PatternValue w = PatternValue::Wildcard();
  PatternValue uk = PatternValue::Constant(Value::String("UK"));
  PatternValue us = PatternValue::Constant(Value::String("US"));
  EXPECT_TRUE(w.CompatibleWith(uk));
  EXPECT_TRUE(uk.CompatibleWith(w));
  EXPECT_TRUE(uk.CompatibleWith(uk));
  EXPECT_FALSE(uk.CompatibleWith(us));
}

TEST(PatternValueTest, Equality) {
  EXPECT_EQ(PatternValue::Wildcard(), PatternValue::Wildcard());
  EXPECT_EQ(PatternValue::Constant(Value::Int(1)), PatternValue::Constant(Value::Int(1)));
  EXPECT_NE(PatternValue::Wildcard(), PatternValue::Constant(Value::Int(1)));
}

TEST(CfdTest, ResolveFillsColumns) {
  Schema schema = Schema::AllStrings({"CNT", "ZIP", "STR"});
  Cfd cfd("customer", {"CNT", "ZIP"}, "STR",
          {PatternTuple{{PatternValue::Constant(Value::String("UK")),
                         PatternValue::Wildcard()},
                        PatternValue::Wildcard()}});
  ASSERT_OK(cfd.Resolve(schema));
  EXPECT_EQ(cfd.lhs_cols(), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(cfd.rhs_col(), 2u);
}

TEST(CfdTest, ResolveRejectsUnknownAttribute) {
  Schema schema = Schema::AllStrings({"A"});
  Cfd cfd("t", {"MISSING"}, "A", {});
  EXPECT_FALSE(cfd.Resolve(schema).ok());
}

TEST(CfdTest, ResolveRejectsRhsInLhs) {
  Schema schema = Schema::AllStrings({"A", "B"});
  Cfd cfd("t", {"A", "B"}, "A",
          {PatternTuple{{PatternValue::Wildcard(), PatternValue::Wildcard()},
                        PatternValue::Wildcard()}});
  EXPECT_FALSE(cfd.Resolve(schema).ok());
}

TEST(CfdTest, ResolveCoercesTypedConstants) {
  Schema schema;
  ASSERT_OK(schema.AddAttribute({"CC", DataType::kInt, {}}));
  ASSERT_OK(schema.AddAttribute({"CNT", DataType::kString, {}}));
  Cfd cfd("t", {"CC"}, "CNT",
          {PatternTuple{{PatternValue::Constant(Value::String("44"))},
                        PatternValue::Constant(Value::String("UK"))}});
  ASSERT_OK(cfd.Resolve(schema));
  EXPECT_EQ(cfd.tableau()[0].lhs[0].constant(), Value::Int(44));
  EXPECT_EQ(cfd.tableau()[0].rhs.constant(), Value::String("UK"));
}

TEST(CfdTest, ResolveRejectsNonCoercibleConstant) {
  Schema schema;
  ASSERT_OK(schema.AddAttribute({"CC", DataType::kInt, {}}));
  ASSERT_OK(schema.AddAttribute({"CNT", DataType::kString, {}}));
  Cfd cfd("t", {"CC"}, "CNT",
          {PatternTuple{{PatternValue::Constant(Value::String("not_int"))},
                        PatternValue::Wildcard()}});
  EXPECT_FALSE(cfd.Resolve(schema).ok());
}

TEST(CfdTest, IsStandardFd) {
  Cfd fd("t", {"A"}, "B",
         {PatternTuple{{PatternValue::Wildcard()}, PatternValue::Wildcard()}});
  EXPECT_TRUE(fd.IsStandardFd());
  Cfd cond("t", {"A"}, "B",
           {PatternTuple{{PatternValue::Constant(Value::String("x"))},
                         PatternValue::Wildcard()}});
  EXPECT_FALSE(cond.IsStandardFd());
}

TEST(CfdTest, GroupByEmbeddedFdMergesSameFd) {
  Cfd a("t", {"A", "B"}, "C",
        {PatternTuple{{PatternValue::Wildcard(), PatternValue::Wildcard()},
                      PatternValue::Wildcard()}});
  Cfd b("t", {"A", "B"}, "C",
        {PatternTuple{{PatternValue::Constant(Value::String("1")),
                       PatternValue::Wildcard()},
                      PatternValue::Wildcard()},
         PatternTuple{{PatternValue::Constant(Value::String("2")),
                       PatternValue::Wildcard()},
                      PatternValue::Wildcard()}});
  Cfd c("t", {"A"}, "C",
        {PatternTuple{{PatternValue::Wildcard()}, PatternValue::Wildcard()}});
  auto groups = GroupByEmbeddedFd({a, b, c});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members.size(), 3u);  // a's row + b's two rows
  EXPECT_EQ(groups[1].members.size(), 1u);
}

TEST(CfdTest, GroupKeyRespectsAttributeOrder) {
  // [A,B] -> C and [B,A] -> C are the same FD semantically, but pattern
  // positions differ; grouping must keep them apart. Names still compare
  // case-insensitively, so [a,b] -> c joins [A,B] -> C.
  const PatternTuple any{{PatternValue::Wildcard(), PatternValue::Wildcard()},
                         PatternValue::Wildcard()};
  Cfd ab("t", {"A", "B"}, "C", {any});
  Cfd ba("t", {"B", "A"}, "C", {any});
  Cfd ab_lower("t", {"a", "b"}, "c", {any});
  const auto groups = GroupByEmbeddedFd({ab, ba, ab_lower});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].lhs_attrs, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(groups[0].members,
            (std::vector<std::pair<size_t, size_t>>{{0, 0}, {2, 0}}));
  EXPECT_EQ(groups[1].lhs_attrs, (std::vector<std::string>{"B", "A"}));
  EXPECT_EQ(groups[1].members, (std::vector<std::pair<size_t, size_t>>{{1, 0}}));
}

// ---------------------------------------------------------------- Parser --

TEST(CfdParserTest, ParsesConstantCfd) {
  ASSERT_OK_AND_ASSIGN(Cfd cfd, ParseCfd("customer: [CC=44] -> [CNT=UK]"));
  EXPECT_EQ(cfd.relation(), "customer");
  EXPECT_EQ(cfd.lhs_attrs(), (std::vector<std::string>{"CC"}));
  EXPECT_EQ(cfd.rhs_attr(), "CNT");
  ASSERT_EQ(cfd.tableau().size(), 1u);
  EXPECT_EQ(cfd.tableau()[0].lhs[0].constant(), Value::String("44"));
  EXPECT_EQ(cfd.tableau()[0].rhs.constant(), Value::String("UK"));
}

TEST(CfdParserTest, ParsesVariableCfdWithWildcards) {
  ASSERT_OK_AND_ASSIGN(Cfd cfd, ParseCfd("customer: [CNT=UK, ZIP=_] -> [STR=_]"));
  EXPECT_EQ(cfd.lhs_attrs(), (std::vector<std::string>{"CNT", "ZIP"}));
  EXPECT_TRUE(cfd.tableau()[0].lhs[1].is_wildcard());
  EXPECT_TRUE(cfd.tableau()[0].rhs.is_wildcard());
}

TEST(CfdParserTest, BareAttributesMeanWildcard) {
  ASSERT_OK_AND_ASSIGN(Cfd cfd, ParseCfd("t: [A, B] -> [C]"));
  EXPECT_TRUE(cfd.tableau()[0].lhs[0].is_wildcard());
  EXPECT_TRUE(cfd.tableau()[0].rhs.is_wildcard());
  EXPECT_TRUE(cfd.IsStandardFd());
}

TEST(CfdParserTest, ParsesTableauBlock) {
  ASSERT_OK_AND_ASSIGN(
      Cfd cfd, ParseCfd("customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | _) }"));
  ASSERT_EQ(cfd.tableau().size(), 3u);
  EXPECT_EQ(cfd.tableau()[0].lhs[0].constant(), Value::String("44"));
  EXPECT_EQ(cfd.tableau()[1].rhs.constant(), Value::String("NL"));
  EXPECT_TRUE(cfd.tableau()[2].rhs.is_wildcard());
}

TEST(CfdParserTest, QuotedConstantsAllowSpacesAndEscapes) {
  ASSERT_OK_AND_ASSIGN(Cfd cfd,
                       ParseCfd("t: [M='PN-2'] -> [N='Pneumonia ''x'' care']"));
  EXPECT_EQ(cfd.tableau()[0].rhs.constant(), Value::String("Pneumonia 'x' care"));
}

TEST(CfdParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCfd("").ok());
  EXPECT_FALSE(ParseCfd("customer").ok());
  EXPECT_FALSE(ParseCfd("customer: [A] -> ").ok());
  EXPECT_FALSE(ParseCfd("customer: [A] [B]").ok());
  EXPECT_FALSE(ParseCfd("customer: [A] -> [B, C]").ok());  // multi-attr RHS
  EXPECT_FALSE(ParseCfd("customer: [A] -> [B] trailing").ok());
  EXPECT_FALSE(ParseCfd("customer: [A] -> [B] { (1 | 2 }").ok());
  // Inline '=' combined with a tableau block is ambiguous.
  EXPECT_FALSE(ParseCfd("t: [A=1] -> [B] { (1 | 2) }").ok());
}

TEST(CfdParserTest, ParsesDocumentWithComments) {
  ASSERT_OK_AND_ASSIGN(auto cfds, ParseCfdSet("# a comment\n"
                                              "t: [A] -> [B]\n"
                                              "\n"
                                              "t: [B=1] -> [C=2]\n"));
  EXPECT_EQ(cfds.size(), 2u);
}

TEST(CfdParserTest, DocumentStopsOnBadLine) {
  EXPECT_FALSE(ParseCfdSet("t: [A] -> [B]\nbroken line\n").ok());
}

TEST(CfdParserTest, ToStringReparses) {
  const char* inputs[] = {
      "customer: [CC=44] -> [CNT=UK]",
      "customer: [CNT, ZIP] -> [CITY]",
      "customer: [CC] -> [CNT] { (44 | UK), (31 | _) }",
  };
  for (const char* in : inputs) {
    ASSERT_OK_AND_ASSIGN(Cfd cfd, ParseCfd(in));
    ASSERT_OK_AND_ASSIGN(Cfd again, ParseCfd(cfd.ToString()));
    EXPECT_EQ(cfd.ToString(), again.ToString()) << in;
  }
}

}  // namespace
}  // namespace semandaq::cfd
