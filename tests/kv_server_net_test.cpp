// Tests for the networked KV server's store and request path
// (src/apps/kv_server_net): SCAN over the striped store returns the global
// first `limit` keys >= start, in key order, and the same holds end to end
// over real loopback TCP. The loopback test runs once per I/O backend: the
// epoll engine serves the readiness path, the io_uring engine the
// completion data path.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/kv_server_net.h"
#include "src/net/frame.h"
#include "src/runtime/uthread.h"

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

TEST_P(KvServerNetTest, ScanOverLoopbackTcp) {
  RuntimeOptions ropts;
  ropts.workers = 2;
  ropts.io_engine = true;
  ropts.io.backend = GetParam();
  Runtime rt(ropts);

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
  std::vector<std::string> replies;
  std::thread client;

  rt.Run([&] {
    KvServerNetOptions sopts;
    sopts.udp = false;
    sopts.preload_keys = kKeys;
    KvServerNet server(&rt, sopts);
    server.Start();
    std::atomic<bool> done{false};
    client = std::thread([&] {
      replies = RoundTrips(server.tcp_port(), requests);
      done.store(true, std::memory_order_release);
    });
    // Wait on the runtime clock, not by joining: a join would block the
    // worker pthread that has to serve the client.
    while (!done.load(std::memory_order_acquire)) {
      Runtime::SleepFor(500);
    }
    server.Stop();
  });
  client.join();

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
