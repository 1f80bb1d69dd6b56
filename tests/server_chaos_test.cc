// Loopback chaos for the hardened TCP front end (src/server/tcp_server):
// stalled clients are disconnected at the read deadline instead of pinning
// a thread forever, connections past the cap are shed with a clean busy
// frame, handler threads and fds are reclaimed as concurrent churn runs
// (counted via /proc/self) while every reply stays correct, and the
// retrying client rides through busy-shedding to an eventual answer.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "test_util.h"

namespace semandaq::server {
namespace {

using common::StatusCode;

/// A raw loopback connection (no Client conveniences): the tool for
/// playing a stalled, half-framed, or vanishing peer.
int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

size_t CountDirEntries(const char* dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

size_t OpenFdCount() { return CountDirEntries("/proc/self/fd"); }
size_t ThreadCount() { return CountDirEntries("/proc/self/task"); }

/// Polls until the server has no open connections (handlers observed the
/// disconnects) or the timeout passes.
void AwaitQuiesce(TcpServer& server, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (server.active_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST(ServerChaosTest, StalledClientIsDisconnectedAtTheReadDeadline) {
  SemandaqService service;
  TcpServerOptions options;
  options.read_deadline_ms = 150;
  TcpServer server(&service, options);
  ASSERT_OK(server.Start());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  // Send nothing. The server owes us a courtesy frame naming the timeout,
  // then the close that reclaims its handler thread.
  std::string payload;
  ASSERT_OK_AND_ASSIGN(bool got, ReadFrame(fd, &payload, /*deadline_ms=*/5000));
  ASSERT_TRUE(got);
  ASSERT_OK_AND_ASSIGN(WireResponse resp, DecodeResponse(payload));
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.text.find("idle connection timed out"), std::string::npos);
  ASSERT_OK_AND_ASSIGN(bool eof, ReadFrame(fd, &payload, /*deadline_ms=*/5000));
  EXPECT_FALSE(eof);
  ::close(fd);

  AwaitQuiesce(server);
  server.Shutdown();
  server.Wait();
}

TEST(ServerChaosTest, MidFrameStallIsDisconnectedTheSameWay) {
  SemandaqService service;
  TcpServerOptions options;
  options.read_deadline_ms = 150;
  TcpServer server(&service, options);
  ASSERT_OK(server.Start());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  const uint32_t len = 64;  // promise 64 bytes...
  ASSERT_EQ(::send(fd, &len, sizeof len, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof len));
  ASSERT_EQ(::send(fd, "det", 3, MSG_NOSIGNAL), 3);  // ...deliver 3, stall
  std::string payload;
  ASSERT_OK_AND_ASSIGN(bool got, ReadFrame(fd, &payload, /*deadline_ms=*/5000));
  ASSERT_TRUE(got);
  ASSERT_OK_AND_ASSIGN(WireResponse resp, DecodeResponse(payload));
  EXPECT_FALSE(resp.ok);
  ::close(fd);

  AwaitQuiesce(server);
  server.Shutdown();
  server.Wait();
}

TEST(ServerChaosTest, ConnectionsPastTheCapAreShedWithABusyFrame) {
  SemandaqService service;
  TcpServerOptions options;
  options.max_connections = 2;
  TcpServer server(&service, options);
  ASSERT_OK(server.Start());

  ASSERT_OK_AND_ASSIGN(Client a, Client::Connect("127.0.0.1", server.port()));
  ASSERT_OK_AND_ASSIGN(auto ra, a.Call("ls"));  // a is accepted + registered
  EXPECT_TRUE(ra.ok);
  ASSERT_OK_AND_ASSIGN(Client b, Client::Connect("127.0.0.1", server.port()));
  ASSERT_OK_AND_ASSIGN(auto rb, b.Call("ls"));
  EXPECT_TRUE(rb.ok);

  // The third connection completes at TCP level (listen backlog) but gets
  // one clean busy frame and a close — not a hang, not a silent RST. The
  // frame is sent proactively at accept, so read it without writing first:
  // a request racing the server's close can draw an RST that discards the
  // buffered frame (CallIdempotent retries that case either way).
  const int shed_fd = RawConnect(server.port());
  ASSERT_GE(shed_fd, 0);
  std::string shed_payload;
  ASSERT_OK_AND_ASSIGN(bool shed_got,
                       ReadFrame(shed_fd, &shed_payload, /*deadline_ms=*/5000));
  ASSERT_TRUE(shed_got);
  ASSERT_OK_AND_ASSIGN(WireResponse rc, DecodeResponse(shed_payload));
  EXPECT_FALSE(rc.ok);
  EXPECT_EQ(rc.text.rfind("Unavailable:", 0), 0u) << rc.text;
  ::close(shed_fd);
  EXPECT_GE(server.connections_shed(), 1u);

  // Capacity comes back as soon as a slot frees.
  { Client drop = std::move(a); }  // destructor closes a's connection
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool recovered = false;
  while (!recovered && std::chrono::steady_clock::now() < deadline) {
    auto d = Client::Connect("127.0.0.1", server.port());
    if (d.ok()) {
      auto rd = d->Call("ls");
      recovered = rd.ok() && rd->ok;
    }
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(recovered);

  server.Shutdown();
  server.Wait();
}

// Concurrent clients churn connections in three shapes while the
// well-behaved ones keep detecting: every detect reply must equal the
// serial reference, and the churn must leave no fd or handler thread
// behind.
TEST(ServerChaosTest, ConnectionChurnLeaksNoFdsOrThreads) {
  SemandaqService service;
  TcpServerOptions options;
  options.read_deadline_ms = 250;
  TcpServer server(&service, options);
  ASSERT_OK(server.Start());
  std::string reference;
  {
    ASSERT_OK_AND_ASSIGN(Client boot,
                         Client::Connect("127.0.0.1", server.port()));
    for (const char* cmd :
         {"gen customer 2000 10", "cfd customer: [CNT=UK, ZIP=_] -> [STR=_]",
          "cfd customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }"}) {
      ASSERT_OK_AND_ASSIGN(auto r, boot.Call(cmd));
      ASSERT_TRUE(r.ok) << cmd << ": " << r.text;
    }
    ASSERT_OK_AND_ASSIGN(auto r, boot.Call("detect customer"));
    ASSERT_TRUE(r.ok) << r.text;
    reference = r.text;
  }
  ASSERT_NE(reference.find("violating tuple"), std::string::npos);
  AwaitQuiesce(server);
  const size_t fd_baseline = OpenFdCount();
  const size_t thread_baseline = ThreadCount();

  constexpr int kClients = 16;
  constexpr int kRounds = 15;  // per client, five of each shape
  std::atomic<int> detects{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        switch ((i + t) % 3) {
          case 0: {
            // A well-behaved client: one command, clean close.
            auto c = Client::Connect("127.0.0.1", server.port());
            if (!c.ok()) {
              ADD_FAILURE() << c.status().ToString();
              break;
            }
            auto r = c->Call("detect customer");
            if (!r.ok()) {
              ADD_FAILURE() << r.status().ToString();
              break;
            }
            EXPECT_TRUE(r->ok) << r->text;
            EXPECT_EQ(r->text, reference);
            detects.fetch_add(1);
            break;
          }
          case 1: {
            // A mid-frame vanisher: promises a body, disconnects instead.
            const int fd = RawConnect(server.port());
            if (fd < 0) {
              ADD_FAILURE() << "connect failed";
              break;
            }
            const uint32_t len = 100;
            (void)::send(fd, &len, sizeof len, MSG_NOSIGNAL);
            ::close(fd);
            break;
          }
          default: {
            // Connect-and-run: never sends a byte.
            const int fd = RawConnect(server.port());
            if (fd < 0) {
              ADD_FAILURE() << "connect failed";
              break;
            }
            ::close(fd);
            break;
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(detects.load(), kClients * kRounds / 3);

  AwaitQuiesce(server);
  // One more clean call makes the accept loop run and reap the finished
  // handler threads from the churn above.
  {
    auto c = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(c.ok());
    (void)c->Call("ls");
  }
  AwaitQuiesce(server);

  // Slack covers transient races (a handler between close and reap, proc
  // enumeration itself) — what must NOT appear is growth proportional to
  // the 240 churned connections.
  EXPECT_LE(OpenFdCount(), fd_baseline + 4)
      << "fd leak across connection churn";
  EXPECT_LE(ThreadCount(), thread_baseline + 4)
      << "thread leak across connection churn";

  server.Shutdown();
  server.Wait();
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST(ServerChaosTest, StalledClientsDoNotStarveHealthyOnes) {
  SemandaqService service;
  TcpServerOptions options;
  options.read_deadline_ms = 300;
  TcpServer server(&service, options);
  ASSERT_OK(server.Start());
  {
    ASSERT_OK_AND_ASSIGN(Client boot,
                         Client::Connect("127.0.0.1", server.port()));
    ASSERT_OK_AND_ASSIGN(auto r, boot.Call("gen hospital 120 5"));
    EXPECT_TRUE(r.ok);
  }

  // Four stalled connections camp on their handler threads...
  std::vector<int> stalled;
  for (int i = 0; i < 4; ++i) {
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    stalled.push_back(fd);
  }
  // ...while healthy clients keep getting identical answers.
  std::string first;
  for (int round = 0; round < 6; ++round) {
    ASSERT_OK_AND_ASSIGN(Client c, Client::Connect("127.0.0.1", server.port()));
    ASSERT_OK_AND_ASSIGN(auto r, c.Call("detect hospital"));
    ASSERT_TRUE(r.ok) << r.text;
    if (round == 0) {
      first = r.text;
    } else {
      EXPECT_EQ(r.text, first);
    }
  }
  for (int fd : stalled) ::close(fd);

  AwaitQuiesce(server);
  server.Shutdown();
  server.Wait();
}

TEST(ServerChaosTest, RetryingClientRidesThroughBusyShedding) {
  SemandaqService service;
  TcpServerOptions options;
  options.max_connections = 1;
  TcpServer server(&service, options);
  ASSERT_OK(server.Start());

  // `holder` owns the single slot and seeds the relation the retrier asks
  // about.
  std::optional<Client> holder;
  {
    auto connected = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(connected.ok());
    holder.emplace(std::move(*connected));
  }
  ASSERT_OK_AND_ASSIGN(auto seeded, holder->Call("gen customer 40 10"));
  EXPECT_TRUE(seeded.ok);

  ClientOptions retrying;
  retrying.max_retries = 12;
  retrying.backoff_initial_ms = 25;
  retrying.backoff_max_ms = 100;
  retrying.backoff_seed = 7;
  ASSERT_OK_AND_ASSIGN(
      Client b, Client::Connect("127.0.0.1", server.port(), retrying));

  // Free the slot while b is mid-backoff: its busy refusals turn into a
  // reconnect and a real answer.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    holder.reset();
  });
  ASSERT_OK_AND_ASSIGN(WireResponse resp, b.CallIdempotent("epoch customer"));
  releaser.join();
  EXPECT_TRUE(resp.ok) << resp.text;
  EXPECT_EQ(resp.text, "epoch 1\n");
  EXPECT_GE(b.reconnects(), 1u);

  server.Shutdown();
  server.Wait();
}

TEST(ServerChaosTest, SlowQueryStormKeepsCheapTrafficAndTheServerAlive) {
  // The overload scenario admission control exists for: a storm of
  // expensive mines — some with tight server-side deadlines, some
  // cancelled mid-flight, some left to finish — while cheap traffic keeps
  // arriving. Every response must be a well-formed member of the status
  // alphabet, cheap requests must keep succeeding throughout, and the
  // server must come out healthy (this test doubles as the TSan
  // interleaving workload for the watchdog + admission + token paths).
  ServiceOptions service_options;
  service_options.scheduler_lanes = 4;
  service_options.admission.enabled = true;
  service_options.admission.max_expensive = 1;
  service_options.admission.queue_limit_expensive = 1;
  service_options.admission.retry_after_ms = 20;
  SemandaqService service(service_options);
  TcpServer server(&service);
  ASSERT_OK(server.Start());

  {
    auto seeder = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(seeder.ok());
    ASSERT_OK_AND_ASSIGN(auto seeded, seeder->Call("gen customer 30000 10"));
    EXPECT_TRUE(seeded.ok) << seeded.text;
  }

  constexpr int kMiners = 6;
  constexpr int kCheapWorkers = 3;
  std::atomic<int> malformed{0};
  std::atomic<int> cheap_failures{0};
  std::atomic<int> cheap_successes{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int m = 0; m < kMiners; ++m) {
    threads.emplace_back([&, m] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        ++malformed;
        return;
      }
      common::Result<WireResponse> resp = common::Status::Internal("unset");
      if (m % 3 == 0) {
        // Tight server-side deadline: expires mid-sweep.
        resp = client->CallWithDeadline("mine customer", 40);
      } else if (m % 3 == 1) {
        // Client-initiated cancel mid-flight.
        std::thread canceller([&client] {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          (void)client->SendCancel();
        });
        resp = client->Call("mine customer");
        canceller.join();
      } else {
        resp = client->Call("mine customer");
      }
      if (!resp.ok()) {
        ++malformed;  // transport failures are not part of this storm
        return;
      }
      switch (resp->status) {
        case WireStatus::kOk:
        case WireStatus::kCancelled:
        case WireStatus::kDeadlineExceeded:
          break;
        case WireStatus::kBusy:
          if (resp->retry_after_ms == 0) ++malformed;  // hint is mandatory
          break;
        default:
          ++malformed;
      }
    });
  }
  for (int c = 0; c < kCheapWorkers; ++c) {
    threads.emplace_back([&] {
      ClientOptions retrying;
      retrying.max_retries = 20;
      retrying.backoff_initial_ms = 10;
      retrying.backoff_max_ms = 50;
      auto client = Client::Connect("127.0.0.1", server.port(), retrying);
      if (!client.ok()) {
        ++cheap_failures;
        return;
      }
      while (!stop.load(std::memory_order_relaxed)) {
        auto resp = client->CallIdempotent("epoch customer");
        if (resp.ok() && resp->ok) {
          ++cheap_successes;
        } else {
          ++cheap_failures;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }

  // Let the storm rage for a fixed window, then stop the cheap loops once
  // the miners are done.
  for (int m = 0; m < kMiners; ++m) threads[m].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = kMiners; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(malformed.load(), 0);
  EXPECT_EQ(cheap_failures.load(), 0);
  EXPECT_GT(cheap_successes.load(), 0);

  // The server is intact: a fresh connection gets real answers and the
  // stats surface still renders.
  {
    auto after = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(after.ok());
    ASSERT_OK_AND_ASSIGN(WireResponse stats, after->Call("stats"));
    EXPECT_TRUE(stats.ok);
    EXPECT_NE(stats.text.find("admission.enabled=1"), std::string::npos);
  }
  AwaitQuiesce(server, 5000);

  server.Shutdown();
  server.Wait();
}

}  // namespace
}  // namespace semandaq::server
