// Server-side cancellation and admission control over real sockets
// (src/server): per-request deadlines expire into wire status 3, a CANCEL
// control frame stops an in-flight mine with wire status 2, a client that
// vanishes mid-request gets its engine work cancelled by the watchdog,
// and cost-aware admission sheds the overflow with a busy frame whose
// retry hint CallIdempotent honors. Companion to the engine-level
// determinism sweep in tests/cancel_sweep_test.cc.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/status.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/scheduler.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "test_util.h"

namespace semandaq::server {
namespace {

using Clock = std::chrono::steady_clock;

int64_t MsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

/// Calls one command and requires both transport and server success.
std::string Call(Client* client, const std::string& command) {
  auto response = client->Call(command);
  EXPECT_TRUE(response.ok()) << command << ": "
                             << response.status().ToString();
  if (!response.ok()) return "";
  EXPECT_TRUE(response->ok) << command << ": " << response->text;
  return response->text;
}

/// A mine big enough (~hundreds of ms) that a cancel injected a few tens
/// of ms in lands mid-sweep, not after the fact. Hospital's wider schema
/// gives the lattice more candidates per row than customer's.
void LoadSlowWorkload(Client* client) {
  EXPECT_NE(Call(client, "gen hospital 100000 10").find("generated hospital"),
            std::string::npos);
}

/// Polls a stats counter until it reaches `want` or the timeout passes.
template <typename Counter>
bool AwaitCounter(const Counter& counter, uint64_t want,
                  int timeout_ms = 5000) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (counter.load(std::memory_order_relaxed) < want &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return counter.load(std::memory_order_relaxed) >= want;
}

TEST(ServerCancelTest, DeadlineRequestExpiresIntoWireStatus3) {
  SemandaqService service;
  TcpServer server(&service);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server.port()));
  LoadSlowWorkload(&client);

  const auto start = Clock::now();
  ASSERT_OK_AND_ASSIGN(WireResponse resp,
                       client.CallWithDeadline("mine hospital", 50));
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.status, WireStatus::kDeadlineExceeded);
  // The engine checkpoints densely enough that an expired deadline comes
  // back within tens of ms, not after the full sweep.
  EXPECT_LT(MsSince(start), 2000);

  // The cancelled mine published nothing: Sigma is still empty, and the
  // same command under no deadline succeeds from scratch.
  EXPECT_NE(Call(&client, "mine hospital").find("mined"), std::string::npos);

  server.Shutdown();
  server.Wait();
}

TEST(ServerCancelTest, CancelFrameStopsAnInFlightMine) {
  SemandaqService service;
  TcpServer server(&service);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server.port()));
  LoadSlowWorkload(&client);

  // Fire the CANCEL from a second thread while Call blocks on the
  // response — the intended use of SendCancel (write-side only; the
  // blocked reader owns the read side).
  std::thread canceller([&client] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_OK(client.SendCancel());
  });
  const auto start = Clock::now();
  ASSERT_OK_AND_ASSIGN(WireResponse resp, client.Call("mine hospital"));
  canceller.join();
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.status, WireStatus::kCancelled);
  EXPECT_LT(MsSince(start), 2000);
  EXPECT_TRUE(AwaitCounter(service.stats().cancels, 1));

  // The connection stays healthy after a cancelled request.
  EXPECT_NE(Call(&client, "ls").find("hospital"), std::string::npos);

  server.Shutdown();
  server.Wait();
}

TEST(ServerCancelTest, DeadSocketMidMineCancelsTheEngineWork) {
  SemandaqService service;
  TcpServer server(&service);
  ASSERT_OK(server.Start());
  {
    ASSERT_OK_AND_ASSIGN(Client loader,
                         Client::Connect("127.0.0.1", server.port()));
    LoadSlowWorkload(&loader);
  }

  // A raw peer: one request frame out, then gone without reading the
  // response.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_OK(WriteFrame(fd, "mine hospital"));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // Vanish mid-request. The watchdog notices the dead fd and cancels the
  // mine instead of letting it run to completion for nobody.
  ::close(fd);
  EXPECT_TRUE(AwaitCounter(service.stats().cancels, 1));

  server.Shutdown();
  server.Wait();
}

TEST(ServerCancelTest, AdmissionShedsWithARetryHintThatWorks) {
  ServiceOptions options;
  options.scheduler_lanes = 2;
  options.admission.enabled = true;
  options.admission.max_expensive = 1;
  options.admission.queue_limit_expensive = 0;  // overflow sheds at once
  options.admission.retry_after_ms = 25;
  SemandaqService service(options);
  TcpServer server(&service);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(Client loader,
                       Client::Connect("127.0.0.1", server.port()));
  LoadSlowWorkload(&loader);

  // Occupy the one expensive slot from the test itself, so that how long a
  // mine runs decides nothing below...
  ASSERT_TRUE(
      service.admission().Admit(RequestClass::kExpensive, nullptr).admitted);

  // ...so the competing mine is shed with a machine-readable hint.
  ASSERT_OK_AND_ASSIGN(Client rival,
                       Client::Connect("127.0.0.1", server.port()));
  ASSERT_OK_AND_ASSIGN(WireResponse busy, rival.Call("mine hospital"));
  EXPECT_FALSE(busy.ok);
  EXPECT_EQ(busy.status, WireStatus::kBusy);
  EXPECT_GE(busy.retry_after_ms, 25u);
  EXPECT_GE(service.stats().sheds.load(std::memory_order_relaxed), 1u);

  // Cheap verbs sail past the congested expensive class — the whole point
  // of classed admission.
  EXPECT_NE(Call(&rival, "ls").find("hospital"), std::string::npos);

  // The retrying client honors the hint: refused while the slot is held,
  // it lands once the slot frees.
  const uint64_t sheds_before =
      service.stats().sheds.load(std::memory_order_relaxed);
  ClientOptions retrying;
  retrying.max_retries = 50;
  ASSERT_OK_AND_ASSIGN(
      Client patient,
      Client::Connect("127.0.0.1", server.port(), retrying));
  common::Result<WireResponse> mined =
      common::Status::Internal("the patient client never answered");
  std::thread patient_call(
      [&] { mined = patient.CallIdempotent("mine hospital"); });
  EXPECT_TRUE(AwaitCounter(service.stats().sheds, sheds_before + 1))
      << "the patient client was never refused";
  service.admission().Release(RequestClass::kExpensive);
  patient_call.join();
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_TRUE(mined->ok) << mined->text;

  // The stats surface reports the episode.
  const std::string stats = Call(&rival, "stats");
  EXPECT_NE(stats.find("admission.enabled=1"), std::string::npos);
  EXPECT_NE(stats.find("sheds="), std::string::npos);
  EXPECT_NE(stats.find("lanes.total=2"), std::string::npos);

  server.Shutdown();
  server.Wait();
}

TEST(ServerCancelTest, StatsCommandIsMachineParseable) {
  SemandaqService service;
  TcpServer server(&service);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server.port()));
  const std::string stats = Call(&client, "stats");
  for (const char* key :
       {"lanes.total=", "lanes.free=", "admission.enabled=", "cheap.active=",
        "cheap.queued=", "expensive.active=", "expensive.queued=", "sheds=",
        "timeouts=", "cancels=", "epochs_served="}) {
    EXPECT_NE(stats.find(key), std::string::npos) << "missing " << key;
  }
  server.Shutdown();
  server.Wait();
}

}  // namespace
}  // namespace semandaq::server
