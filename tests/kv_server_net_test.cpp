// Tests for the networked KV server's store and request path
// (src/apps/kv_server_net): SCAN over the striped store returns the global
// first `limit` keys >= start, in key order, and the same holds end to end
// over real loopback TCP; a GET through the appending Serve into a reused
// buffer makes no allocation; UDP serves one frame per datagram and drops
// broken ones; pipelined frames followed by a half-close get every reply, in
// order, before the server closes. The loopback tests run once per I/O backend: the
// epoll engine serves the data calls with syscalls, the io_uring engine with
// completions.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/kv_server_net.h"
#include "src/net/frame.h"
#include "src/runtime/uthread.h"

// Allocation counter for the no-allocation gate: the binary's own operator
// new, counting only on a thread that armed it.
namespace {
thread_local bool t_count_news = false;
thread_local std::uint64_t t_news = 0;

void* CountedNew(std::size_t n) {
  if (t_count_news) {
    t_news++;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedNew(n); }
void* operator new[](std::size_t n) { return CountedNew(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace skyloft {
namespace {

// The reply SCAN owes for `model`: the first `limit` pairs with key >= start.
std::string ExpectedScan(const std::map<std::string, std::string>& model,
                         const std::string& start, std::size_t limit) {
  std::string reply;
  std::size_t n = 0;
  for (auto it = model.lower_bound(start); it != model.end() && n < limit; ++it, ++n) {
    reply += it->first + "=" + it->second + ";";
  }
  return reply.empty() ? "EMPTY" : reply;
}

// k000 .. k099: zero-padded so string order matches numeric order.
std::string KeyName(int i) {
  const std::string digits = std::to_string(i);
  return "k" + std::string(3 - digits.size(), '0') + digits;
}

TEST(KvStripedStoreTest, ScanIsGloballyOrderedAndLimited) {
  KvStripedStore store(/*workers=*/1, /*stripes_override=*/16);
  ASSERT_EQ(store.stripes(), 16);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 100; i++) {
    store.Preload(KeyName(i), "v" + std::to_string(i));
    model[KeyName(i)] = "v" + std::to_string(i);
  }

  EXPECT_EQ(store.Serve("SCAN k000 5", 0), "k000=v0;k001=v1;k002=v2;k003=v3;k004=v4;");
  // A limit above the number of matching keys returns all of them, in order.
  EXPECT_EQ(store.Serve("SCAN k090 50", 0), ExpectedScan(model, "k090", 50));
  EXPECT_EQ(store.Serve("SCAN k0 1000", 0), ExpectedScan(model, "k0", 1000));
  // A start between keys begins at the next key.
  EXPECT_EQ(store.Serve("SCAN k0505 3", 0), "k051=v51;k052=v52;k053=v53;");
  // A start past the last key matches nothing.
  EXPECT_EQ(store.Serve("SCAN k100 5", 0), "EMPTY");
  EXPECT_EQ(store.Serve("SCAN zzz 1", 0), "EMPTY");
}

TEST(KvStripedStoreTest, ScanSeesInsertsDeletesAndOverwrites) {
  KvStripedStore store(/*workers=*/1, /*stripes_override=*/16);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 100; i++) {
    store.Preload(KeyName(i), "v" + std::to_string(i));
    model[KeyName(i)] = "v" + std::to_string(i);
  }
  // Build every stripe's ordered view first, so the changes below must
  // invalidate it.
  ASSERT_EQ(store.Serve("SCAN k050 3", 0), "k050=v50;k051=v51;k052=v52;");

  EXPECT_EQ(store.Serve("SET k0505 new", 0), "STORED");
  EXPECT_EQ(store.Serve("SCAN k050 3", 0), "k050=v50;k0505=new;k051=v51;");

  EXPECT_TRUE(store.Delete("k051"));
  EXPECT_FALSE(store.Delete("k051"));
  EXPECT_EQ(store.Serve("SCAN k050 3", 0), "k050=v50;k0505=new;k052=v52;");

  // An overwrite keeps the view but must show the new value.
  EXPECT_EQ(store.Serve("SET k052 changed", 0), "STORED");
  EXPECT_EQ(store.Serve("SCAN k052 2", 0), "k052=changed;k053=v53;");

  model["k0505"] = "new";
  model.erase("k051");
  model["k052"] = "changed";
  EXPECT_EQ(store.Serve("SCAN k 1000", 0), ExpectedScan(model, "k", 1000));
}

TEST(KvStripedStoreTest, ScanRejectsMalformedLimits) {
  KvStripedStore store(/*workers=*/1, /*stripes_override=*/16);
  store.Preload("k000", "v0");
  EXPECT_EQ(store.Serve("SCAN k000 0", 0), "ERROR");
  EXPECT_EQ(store.Serve("SCAN k000 x", 0), "ERROR");
  EXPECT_EQ(store.Serve("SCAN k000", 0), "ERROR");
}

TEST(KvStripedStoreTest, GetAppendsWithoutAllocating) {
  KvStripedStore store(/*workers=*/2);
  store.Reserve(1000);
  // Values past the small-string buffer, so any copy of one would allocate.
  for (int i = 0; i < 1000; i++) {
    store.Preload(KeyName(i), "a-longer-value-" + std::to_string(i));
  }
  std::vector<std::string> requests;
  for (int i = 0; i < 1000; i++) {
    requests.push_back(i % 10 == 0 ? "GET missing" : "GET " + KeyName(i * 7 % 1000));
  }
  std::string reply;
  // Warm-up. The GET of a 4 MiB key hashes for milliseconds, so the lane's
  // latency histogram, which grows by use, already spans any service time
  // the window below can record.
  store.Serve("GET " + std::string(4 << 20, 'x'), 0, &reply);
  EXPECT_EQ(reply, "NOT_FOUND");
  for (const std::string& request : requests) {
    reply.clear();
    store.Serve(request, 0, &reply);
  }

  t_news = 0;
  t_count_news = true;
  for (const std::string& request : requests) {
    reply.clear();
    store.Serve(request, 0, &reply);
  }
  t_count_news = false;
  EXPECT_EQ(t_news, 0u) << "operator new calls in 1000 GETs";
  EXPECT_EQ(reply, "VALUE a-longer-value-" + std::to_string(999 * 7 % 1000));
}

// Sends each request as one frame over a blocking loopback socket and
// collects the replies in order.
std::vector<std::string> RoundTrips(std::uint16_t port, const std::vector<std::string>& requests) {
  std::vector<std::string> replies;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    ADD_FAILURE() << "socket failed";
    return replies;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ADD_FAILURE() << "connect failed";
    close(fd);
    return replies;
  }
  FrameDecoder decoder;
  char buf[4096];
  for (const std::string& request : requests) {
    const std::string frame = EncodeFrame(request);
    if (write(fd, frame.data(), frame.size()) != static_cast<ssize_t>(frame.size())) {
      ADD_FAILURE() << "short write";
      break;
    }
    std::string reply;
    while (decoder.Next(&reply) != FrameDecodeStatus::kFrame) {
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n <= 0) {
        ADD_FAILURE() << "connection closed before the reply to: " << request;
        close(fd);
        return replies;
      }
      decoder.Feed(buf, static_cast<std::size_t>(n));
    }
    replies.push_back(reply);
  }
  close(fd);
  return replies;
}

class KvServerNetTest : public ::testing::TestWithParam<IoEngineOptions::Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, KvServerNetTest,
                         ::testing::Values(IoEngineOptions::Backend::kEpoll,
                                           IoEngineOptions::Backend::kIoUring),
                         [](const ::testing::TestParamInfo<IoEngineOptions::Backend>& info) {
                           return info.param == IoEngineOptions::Backend::kIoUring ? "IoUring"
                                                                                   : "Epoll";
                         });

// Runs `client` on an OS thread against a server started with `sopts`, on a
// two-worker runtime of the test's backend, and stops the server once the
// client returns. `inspect` sees the stopped server.
void ServeWhile(IoEngineOptions::Backend backend, KvServerNetOptions sopts,
                const std::function<void(const KvServerNet&)>& client,
                const std::function<void(const KvServerNet&)>& inspect) {
  RuntimeOptions ropts;
  ropts.workers = 2;
  ropts.io_engine = true;
  ropts.io.backend = backend;
  Runtime rt(ropts);
  std::thread thread;
  rt.Run([&] {
    KvServerNet server(&rt, sopts);
    server.Start();
    std::atomic<bool> done{false};
    thread = std::thread([&] {
      client(server);
      done.store(true, std::memory_order_release);
    });
    // Wait on the runtime clock, not by joining: a join would block the
    // worker pthread that has to serve the client.
    while (!done.load(std::memory_order_acquire)) {
      Runtime::SleepFor(500);
    }
    server.Stop();
    inspect(server);
  });
  thread.join();
}

// A receive timeout turns a lost reply into a test failure instead of a hang.
void SetRecvTimeout(int fd) {
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

sockaddr_in Loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

TEST_P(KvServerNetTest, UdpRoundTrip) {
  KvServerNetOptions sopts;
  sopts.tcp = false;
  sopts.preload_keys = 100;
  std::vector<std::string> replies;
  std::uint64_t frame_errors = 0;
  std::uint64_t udp_requests = 0;
  ServeWhile(
      GetParam(), sopts,
      [&](const KvServerNet& server) {
        const int fd = socket(AF_INET, SOCK_DGRAM, 0);
        ASSERT_GE(fd, 0);
        SetRecvTimeout(fd);
        const sockaddr_in addr = Loopback(server.udp_port());
        const auto send_datagram = [&](const std::string& bytes) {
          ASSERT_EQ(sendto(fd, bytes.data(), bytes.size(), 0,
                           reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
                    static_cast<ssize_t>(bytes.size()));
        };
        const auto reply = [&]() -> std::string {
          char buf[2048];
          const ssize_t n = recvfrom(fd, buf, sizeof(buf), 0, nullptr, nullptr);
          std::string payload;
          if (n <= 0 || DecodeFrame(reinterpret_cast<const std::uint8_t*>(buf),
                                    static_cast<std::size_t>(n),
                                    &payload) != FrameDecodeStatus::kFrame) {
            return "<no reply>";
          }
          return payload;
        };
        // One client socket: the kernel steers all of its datagrams to the
        // same worker's socket, which serves them in arrival order.
        for (const char* request : {"GET user7", "SET fresh v1", "GET fresh"}) {
          send_datagram(EncodeFrame(request));
          replies.push_back(reply());
        }
        // A frame cut short: its header promises more payload than the
        // datagram carries. It is dropped without a reply.
        const std::string frame = EncodeFrame("GET user8");
        send_datagram(frame.substr(0, frame.size() - 3));
        send_datagram(EncodeFrame("GET user9"));
        replies.push_back(reply());
        close(fd);
      },
      [&](const KvServerNet& server) {
        frame_errors = server.frame_errors();
        udp_requests = server.udp_requests();
      });
  EXPECT_EQ(replies, (std::vector<std::string>{"VALUE profile-7", "STORED", "VALUE v1",
                                               "VALUE profile-9"}));
  EXPECT_EQ(frame_errors, 1u);
  EXPECT_EQ(udp_requests, 4u);
}

TEST_P(KvServerNetTest, PipelinedFramesThenHalfClose) {
  constexpr int kFrames = 32;
  std::string batch;
  std::vector<std::string> expected;
  for (int i = 0; i < kFrames; i++) {
    const std::string k = std::to_string(i);
    switch (i % 3) {
      case 0:
        batch += EncodeFrame("SET piped" + k + " v" + k);
        expected.push_back("STORED");
        break;
      case 1:  // reads the SET of the frame before it
        batch += EncodeFrame("GET piped" + std::to_string(i - 1));
        expected.push_back("VALUE v" + std::to_string(i - 1));
        break;
      default:
        batch += EncodeFrame("GET user" + k);
        expected.push_back("VALUE profile-" + k);
        break;
    }
  }
  KvServerNetOptions sopts;
  sopts.udp = false;
  sopts.preload_keys = 100;
  std::vector<std::string> replies;
  bool eof = false;
  std::uint64_t tcp_requests = 0;
  std::uint64_t peer_resets = 0;
  ServeWhile(
      GetParam(), sopts,
      [&](const KvServerNet& server) {
        const int fd = socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        SetRecvTimeout(fd);
        const sockaddr_in addr = Loopback(server.tcp_port());
        ASSERT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
        // All frames in one write, then the half-close: the server reads
        // them and the EOF in one go, and still owes every reply.
        ASSERT_EQ(write(fd, batch.data(), batch.size()), static_cast<ssize_t>(batch.size()));
        ASSERT_EQ(shutdown(fd, SHUT_WR), 0);
        FrameDecoder decoder;
        char buf[4096];
        while (true) {
          const ssize_t n = read(fd, buf, sizeof(buf));
          if (n <= 0) {
            eof = n == 0;
            break;
          }
          decoder.Feed(buf, static_cast<std::size_t>(n));
        }
        std::string reply;
        while (decoder.Next(&reply) == FrameDecodeStatus::kFrame) {
          replies.push_back(reply);
        }
        close(fd);
      },
      [&](const KvServerNet& server) {
        tcp_requests = server.tcp_requests();
        peer_resets = server.peer_resets();
      });
  EXPECT_TRUE(eof) << "the server must close after the last reply, not reset or stall";
  EXPECT_EQ(replies, expected);
  EXPECT_EQ(tcp_requests, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(peer_resets, 0u);
}

TEST_P(KvServerNetTest, ScanOverLoopbackTcp) {
  // The server preloads user<i> -> profile-<i>, so keys sort as strings:
  // user0, user1, user10, user11, ...
  constexpr int kKeys = 100;
  std::map<std::string, std::string> model;
  for (int i = 0; i < kKeys; i++) {
    model["user" + std::to_string(i)] = "profile-" + std::to_string(i);
  }
  const std::vector<std::string> requests = {
      "SCAN user5 5", "SCAN user 1000", "SCAN user99 4", "SCAN zzz 3",
      "SET user505 fresh", "SCAN user50 3", "GET user505"};
  KvServerNetOptions sopts;
  sopts.udp = false;
  sopts.preload_keys = kKeys;
  std::vector<std::string> replies;
  ServeWhile(
      GetParam(), sopts,
      [&](const KvServerNet& server) { replies = RoundTrips(server.tcp_port(), requests); },
      [](const KvServerNet&) {});

  ASSERT_EQ(replies.size(), requests.size());
  EXPECT_EQ(replies[0], "user5=profile-5;user50=profile-50;user51=profile-51;"
                        "user52=profile-52;user53=profile-53;");
  EXPECT_EQ(replies[1], ExpectedScan(model, "user", 1000));
  EXPECT_EQ(replies[2], "user99=profile-99;");
  EXPECT_EQ(replies[3], "EMPTY");
  EXPECT_EQ(replies[4], "STORED");
  EXPECT_EQ(replies[5], "user50=profile-50;user505=fresh;user51=profile-51;");
  EXPECT_EQ(replies[6], "VALUE fresh");
}

}  // namespace
}  // namespace skyloft
