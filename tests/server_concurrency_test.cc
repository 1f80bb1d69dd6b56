// The server's concurrency contract under real thread interleaving: N
// reader sessions hammer detect/mine against epochs they pin while one
// writer keeps appending batches — and EVERY reader result must be
// byte-identical to a serial recomputation against a standalone rebuild
// of exactly the epoch it pinned. This is the end-to-end composition of
// the determinism invariant (same bytes across thread counts and SIMD
// tiers) with snapshot immutability (pins never observe later writes).
// The same holds for a `clean` that writes copy-on-write into the codes
// it adopted from the epoch other sessions are detecting on.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "detect/native_detector.h"
#include "discovery/cfd_miner.h"
#include "relational/encoded_relation.h"
#include "relational/relation.h"
#include "relational/value.h"
#include "server/service.h"
#include "test_util.h"

namespace semandaq::server {
namespace {

using relational::EncodedRelation;
using relational::Relation;
using relational::Row;
using relational::TupleId;
using relational::Value;

using relational::Code;

constexpr size_t kReaders = 6;
constexpr size_t kReadsPerReader = 6;
constexpr size_t kWriterBatches = 40;

std::vector<cfd::Cfd> TestCfds() {
  auto r = cfd::ParseCfdSet(
      "customer: [CNT=UK, ZIP=_] -> [STR=_]\n"
      "customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }\n");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<cfd::Cfd>{};
}

/// Canonical detect output: the summary line plus every violating tuple
/// id with its violation count — enough to pin down the full table.
std::string CanonicalDetect(const detect::ViolationTable& table) {
  std::string out = table.Summary();
  for (TupleId tid : table.ViolatingTuples()) {
    out += " " + std::to_string(tid) + ":" + std::to_string(table.vio(tid));
  }
  return out;
}

std::string CanonicalMine(const std::vector<cfd::Cfd>& mined) {
  std::string out;
  for (const auto& c : mined) out += c.ToString() + "\n";
  return out;
}

/// One observation: the pinned snapshot and what a reader computed on it.
struct Observation {
  SnapshotPtr snap;
  bool is_mine = false;
  std::string result;
};

/// Serial ground truth: rebuild a standalone relation from the pinned
/// snapshot's rows (append-only writer, so tuple ids are dense and
/// preserved), encode it from scratch on this thread, and rerun the
/// engine with one lane.
std::string SerialRecompute(const Observation& obs,
                            const std::vector<cfd::Cfd>& cfds) {
  Relation rebuilt{obs.snap->name, obs.snap->relation.schema()};
  const TupleId bound = obs.snap->relation.IdBound();
  for (TupleId tid = 0; tid < bound; ++tid) {
    EXPECT_TRUE(obs.snap->relation.IsLive(tid));
    rebuilt.MustInsert(obs.snap->relation.row(tid));
  }
  EncodedRelation enc(&rebuilt);
  if (obs.is_mine) {
    discovery::CfdMiner miner(&rebuilt, {});
    auto mined = miner.Mine();
    EXPECT_TRUE(mined.ok()) << mined.status().ToString();
    return mined.ok() ? CanonicalMine(*mined) : std::string();
  }
  detect::NativeDetector det(&rebuilt, cfds);
  det.set_encoded(&enc);
  auto table = det.Detect();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? CanonicalDetect(*table) : std::string();
}

Row CustomerRow(size_t seq) {
  // Cycle through a small value pool so appended rows join existing
  // violation groups (the interesting case) instead of being inert.
  static const char* kCnt[] = {"UK", "NL", "US"};
  static const char* kCc[] = {"44", "31", "1"};
  const size_t k = seq % 3;
  Row row;
  row.push_back(Value::String("writer_" + std::to_string(seq)));  // NAME
  row.push_back(Value::String(kCnt[(k + seq / 7) % 3]));          // CNT
  row.push_back(Value::String("Springfield"));                    // CITY
  row.push_back(Value::String("Z" + std::to_string(seq % 5)));    // ZIP
  row.push_back(Value::String("Main St " + std::to_string(seq % 4)));
  row.push_back(Value::String(kCc[k]));                           // CC
  row.push_back(Value::String("131"));                            // AC
  return row;
}

TEST(ServerConcurrencyTest, ReadersAreByteIdenticalToSerialRunsOnTheirEpoch) {
  SemandaqService service;
  SemandaqService::SessionState boot;
  {
    auto r = service.Execute(&boot, "gen customer 400 10");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const std::vector<cfd::Cfd> cfds = TestCfds();
  for (const auto& c : cfds) {
    ASSERT_OK(service.system_unsynchronized().constraints().AddCfd(c));
  }

  std::atomic<bool> writer_done{false};
  std::vector<std::vector<Observation>> observed(kReaders);

  std::thread writer([&] {
    for (size_t b = 0; b < kWriterBatches; ++b) {
      std::vector<Row> batch;
      for (size_t i = 0; i < 3; ++i) batch.push_back(CustomerRow(b * 3 + i));
      auto appended = service.AppendBatch("customer", std::move(batch));
      EXPECT_TRUE(appended.ok()) << appended.status().ToString();
      std::this_thread::yield();
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = 0; i < kReadsPerReader; ++i) {
        Observation obs;
        obs.snap = service.Pin("customer");
        ASSERT_NE(obs.snap, nullptr);
        obs.is_mine = (r + i) % 3 == 0;
        if (obs.is_mine) {
          // Lease worker lanes the way `mine` does: contended requests
          // degrade toward serial, output unchanged.
          ThreadLease lease = service.scheduler().Acquire((r % 4) + 1);
          discovery::CfdMinerOptions options;
          options.num_threads = lease.lanes();
          options.pool = lease.pool();
          discovery::CfdMiner miner(&obs.snap->relation, options);
          auto mined = miner.Mine();
          ASSERT_TRUE(mined.ok()) << mined.status().ToString();
          obs.result = CanonicalMine(*mined);
        } else {
          detect::NativeDetector det(&obs.snap->relation, cfds);
          det.set_encoded(&*obs.snap->encoded);
          auto table = det.Detect();
          ASSERT_TRUE(table.ok()) << table.status().ToString();
          obs.result = CanonicalDetect(*table);
        }
        observed[r].push_back(std::move(obs));
      }
    });
  }
  for (auto& t : readers) t.join();
  writer.join();
  ASSERT_TRUE(writer_done.load());

  // Epochs only ever grow, and a pinned epoch's size is frozen: relation
  // size must be monotone in epoch across every observation.
  for (const auto& per_reader : observed) {
    for (size_t i = 1; i < per_reader.size(); ++i) {
      ASSERT_GE(per_reader[i].snap->epoch, per_reader[i - 1].snap->epoch);
      ASSERT_GE(per_reader[i].snap->relation.size(),
                per_reader[i - 1].snap->relation.size());
    }
  }

  // The core assertion: every concurrent result is byte-identical to the
  // serial recomputation against its own pinned epoch.
  size_t checked = 0;
  for (const auto& per_reader : observed) {
    for (const Observation& obs : per_reader) {
      ASSERT_EQ(obs.result, SerialRecompute(obs, cfds))
          << "epoch " << obs.snap->epoch << " size "
          << obs.snap->relation.size();
      ++checked;
    }
  }
  EXPECT_EQ(checked, kReaders * kReadsPerReader);

  // The final epoch contains every appended row.
  SnapshotPtr last = service.Pin("customer");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->relation.size(), 400u + kWriterBatches * 3);

  // All leases returned: the full lane budget is free again.
  EXPECT_EQ(service.scheduler().available(), service.scheduler().total_lanes());
}

// Every epoch's relation hydrates its rows lazily on first row access. A
// `sql` or `clean` clone of a fresh epoch racing that epoch's first `show`
// must copy either the unhydrated or the hydrated state — never a half-
// decoded one. The relation is large enough that decoding it spans the
// clone.
TEST(ServerConcurrencyTest, CloneRacingFirstHydrationIsSafe) {
  constexpr size_t kRows = 100000;
  auto dict = std::make_shared<relational::Dictionary>();
  relational::CodeColumn codes;
  for (size_t i = 0; i < kRows; ++i) {
    codes.PushBack(dict->Encode(Value::String(std::to_string(i % 5000))));
  }
  for (int iter = 0; iter < 20; ++iter) {
    const Relation lazy = Relation::FromColumns(
        "t", relational::Schema::AllStrings({"A"}),
        std::vector<uint8_t>(kRows, 1), {dict}, {codes});
    std::thread reader([&lazy] { (void)lazy.row(0); });
    // Give the reader a head start into the decode, which takes
    // milliseconds at this size.
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    const Relation copy = lazy.Clone();
    reader.join();
    ASSERT_EQ(copy.row(kRows - 1)[0].AsString(), std::to_string((kRows - 1) % 5000))
        << "iteration " << iter;
    ASSERT_EQ(lazy.row(kRows - 1)[0].AsString(), copy.row(kRows - 1)[0].AsString());
  }
}

// `clean` writes its private copy-on-write codes while other sessions run
// `detect` on the epoch whose codes it adopted. On a freshly opened
// relation, whose dictionaries build their lookup maps on first use, every
// detect reply must equal a serial one, the clean reply and its diff must
// equal a serial clean's, and the epoch's codes and dictionaries must be
// unchanged afterwards. A write that skipped a detach shows in all three.
TEST(ServerConcurrencyTest, CleanRacingDetectReadersOfItsEpochIsSafe) {
  constexpr size_t kDetectors = 3;
  constexpr size_t kDetectsPerReader = 6;
  const std::string dir = ::testing::TempDir() + "/concurrency_clean_db";
  {
    SemandaqService source;
    SemandaqService::SessionState state;
    ASSERT_TRUE(source.Execute(&state, "gen customer 20000 10").ok());
    ASSERT_TRUE(source.Execute(&state, "savedb " + dir).ok());
  }
  SemandaqService service;
  SemandaqService::SessionState boot;
  ASSERT_TRUE(service.Execute(&boot, "opendb " + dir).ok());
  for (const char* cfd : {"cfd customer: [CNT=UK, ZIP=_] -> [STR=_]",
                          "cfd customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }"}) {
    ASSERT_TRUE(service.Execute(&boot, cfd).ok());
  }

  // The bytes the clean adopts: the epoch relation's build columns.
  const SnapshotPtr epoch = service.Pin("customer");
  ASSERT_NE(epoch, nullptr);
  const Relation& rel = epoch->relation;
  ASSERT_TRUE(rel.has_columns());
  std::vector<std::vector<Code>> codes_before;
  std::vector<std::vector<Value>> values_before;
  for (size_t c = 0; c < rel.schema().size(); ++c) {
    codes_before.emplace_back(rel.columns()[c].begin(), rel.columns()[c].end());
    values_before.push_back(rel.dictionaries()[c]->values());
  }

  auto run = [&service](SemandaqService::SessionState* session,
                        const std::string& cmd) {
    auto r = service.Execute(session, cmd);
    EXPECT_TRUE(r.ok()) << cmd << " -> " << r.status().ToString();
    return r.ok() ? *r : std::string();
  };
  std::string clean_reply;
  std::string diff_reply;
  std::vector<std::vector<std::string>> detected(kDetectors);
  std::thread cleaner([&] {
    SemandaqService::SessionState session;
    clean_reply = run(&session, "clean customer");
    diff_reply = run(&session, "diff");
  });
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kDetectors; ++r) {
    readers.emplace_back([&, r] {
      SemandaqService::SessionState session;
      for (size_t i = 0; i < kDetectsPerReader; ++i) {
        detected[r].push_back(run(&session, "detect customer"));
      }
    });
  }
  cleaner.join();
  for (auto& t : readers) t.join();

  // Nothing was applied, so the epoch is still current: the serial runs
  // below see exactly the epoch the racing ones saw.
  ASSERT_EQ(service.Pin("customer")->epoch, epoch->epoch);
  SemandaqService::SessionState serial;
  const std::string detect_ref = run(&serial, "detect customer");
  EXPECT_NE(detect_ref.find("violating tuple"), std::string::npos);
  for (const auto& per_reader : detected) {
    for (const std::string& reply : per_reader) EXPECT_EQ(reply, detect_ref);
  }
  EXPECT_NE(clean_reply.find("candidate repair: "), std::string::npos);
  EXPECT_EQ(clean_reply, run(&serial, "clean customer"));
  EXPECT_EQ(diff_reply, run(&serial, "diff"));

  for (size_t c = 0; c < rel.schema().size(); ++c) {
    EXPECT_EQ(codes_before[c],
              std::vector<Code>(rel.columns()[c].begin(), rel.columns()[c].end()))
        << "column " << c;
    EXPECT_EQ(values_before[c], rel.dictionaries()[c]->values()) << "column " << c;
  }
}

}  // namespace
}  // namespace semandaq::server
