// Traced in-process replicas of the service's verbs. Each replica follows
// the verb's public call sequence in src/server/service.cc (Pin -> engine
// -> render) with a span around every call, so a replayed request splits
// into per-layer self times. The replica's output must equal
// SemandaqService::Execute's output byte for byte; the workloads check it.
#ifndef SEMANDAQ_PERFBENCH_REPLAY_H_
#define SEMANDAQ_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/value.h"
#include "server/service.h"

namespace perfbench {

/// Root span name of every replayed request.
inline constexpr const char* kRequestSpan = "request";

/// Replays `line` on `svc` under request id `req`. `lanes`, when given,
/// receives the lanes the scheduler granted (0 for verbs that lease none).
/// `mine` replicas time CfdMiner::Mine but skip the Sigma append (repeated
/// appends would grow Sigma twice as fast as the measured stream), so
/// their output stops after "from REL". Verbs without a replica run
/// through Execute inside a `service.execute` span. The caller guarantees
/// no concurrent writer mutates Sigma or the catalog while replicas read
/// them.
semandaq::common::Result<std::string> Replay(
    semandaq::server::SemandaqService& svc,
    semandaq::server::SemandaqService::SessionState* session,
    const std::string& line, uint64_t req, size_t* lanes = nullptr);

/// Mirrors SemandaqService::AppendBatch step by step on the service's
/// facade: Relation::Insert with the WAL attached, CompactIfDue,
/// WarmOrEncode (encode Sync) and BuildRelationSnapshot. The snapshot is
/// built but not published. Requires exclusive access to `svc`.
semandaq::common::Result<bool> ReplayAppend(
    semandaq::server::SemandaqService& svc, const std::string& relation,
    std::vector<semandaq::relational::Row> rows, uint64_t req);

/// The part of a mine response a replica reproduces ("mined N CFD(s) from
/// REL"); the Sigma size after it depends on how many mines ran before.
std::string MinePrefix(const std::string& response);

}  // namespace perfbench

#endif  // SEMANDAQ_PERFBENCH_REPLAY_H_
