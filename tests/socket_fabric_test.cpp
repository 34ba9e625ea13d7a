// Socket fabric unit tests: mesh setup, framing over stream sockets,
// large-message handling and the anti-deadlock send path — exercised with
// real UNIX sockets between kernel threads in this process.
#include "fabric/socket_fabric.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <thread>

#include "common/time.hpp"
#include "temp_dir.hpp"

namespace pm2::fabric {
namespace {

SocketFabricConfig config_for(NodeId node, NodeId nodes,
                              const std::string& dir) {
  SocketFabricConfig cfg;
  cfg.node_id = node;
  cfg.n_nodes = nodes;
  cfg.dir = dir;
  return cfg;
}

TEST(SocketFabric, PairSendReceive) {
  test::TempDir tmp("pm2-socktest");
  const std::string& dir = tmp.path();
  std::unique_ptr<Fabric> f0, f1;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 2, dir)); });
  f0 = make_socket_fabric(config_for(0, 2, dir));
  t1.join();

  Message m;
  m.type = 9;
  m.dst = 1;
  m.corr = 1234;
  m.payload = {5, 6, 7};
  f0->send(std::move(m));

  auto got = f1->recv(2000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, 9);
  EXPECT_EQ(got->src, 0u);
  EXPECT_EQ(got->corr, 1234u);
  EXPECT_EQ(got->payload, (std::vector<uint8_t>{5, 6, 7}));
}

TEST(SocketFabric, LargeMessageSurvivesFraming) {
  test::TempDir tmp("pm2-socktest");
  const std::string& dir = tmp.path();
  std::unique_ptr<Fabric> f0, f1;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 2, dir)); });
  f0 = make_socket_fabric(config_for(0, 2, dir));
  t1.join();

  // Bigger than both the socket buffers and the fabric's 64 KB read chunk.
  Message m;
  m.type = 1;
  m.dst = 1;
  m.payload.resize(5 * 1024 * 1024);
  for (size_t i = 0; i < m.payload.size(); ++i)
    m.payload[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  auto expect = m.payload;

  std::thread sender([&] { f0->send(std::move(m)); });
  std::optional<Message> got;
  while (!got) got = f1->recv(100);
  sender.join();
  EXPECT_EQ(got->payload, expect);
}

TEST(SocketFabric, SimultaneousLargeSendsDoNotDeadlock) {
  // Both sides fire multi-megabyte messages at each other at once: the
  // send path must drain incoming traffic while its own pipe is full.
  test::TempDir tmp("pm2-socktest");
  const std::string& dir = tmp.path();
  std::unique_ptr<Fabric> f0, f1;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 2, dir)); });
  f0 = make_socket_fabric(config_for(0, 2, dir));
  t1.join();

  auto pump = [](Fabric& f, NodeId peer) {
    Message m;
    m.type = 2;
    m.dst = peer;
    m.payload.resize(8 * 1024 * 1024, 0x5A);
    f.send(std::move(m));
    std::optional<Message> got;
    while (!got) got = f.recv(100);
    EXPECT_EQ(got->payload.size(), 8u * 1024 * 1024);
  };
  std::thread a([&] { pump(*f0, 1); });
  std::thread b([&] { pump(*f1, 0); });
  a.join();
  b.join();
}

TEST(SocketFabric, WakeEventfdInterruptsBlockedRecv) {
  // The readiness handle's cross-thread wake: a write to the fabric's
  // eventfd (registered in its epoll set) pops an indefinitely blocked
  // recv_until without a frame.
  test::TempDir tmp("pm2-socktest");
  const std::string& dir = tmp.path();
  std::unique_ptr<Fabric> f0, f1;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 2, dir)); });
  f0 = make_socket_fabric(config_for(0, 2, dir));
  t1.join();

  std::thread waker([&] {
    ::usleep(10'000);  // land the wake inside the epoll wait
    f0->wake();
  });
  Stopwatch sw;
  auto got = f0->recv_until(now_ns() + 5'000'000'000ull);
  waker.join();
  EXPECT_FALSE(got.has_value());
  EXPECT_LT(sw.elapsed_ms(), 1000.0) << "wake() did not interrupt recv_until";
  // The wake is consumed; frames still flow afterwards.
  Message m;
  m.type = 11;
  m.dst = 0;
  f1->send(std::move(m));
  auto after = f0->recv(2000);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->type, 11);
}

TEST(SocketFabric, ThreeNodeMeshRoutes) {
  test::TempDir tmp("pm2-socktest");
  const std::string& dir = tmp.path();
  std::unique_ptr<Fabric> f0, f1, f2;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 3, dir)); });
  std::thread t2([&] { f2 = make_socket_fabric(config_for(2, 3, dir)); });
  f0 = make_socket_fabric(config_for(0, 3, dir));
  t1.join();
  t2.join();

  // 2 -> 1 directly (not through 0): the mesh is full.
  Message m;
  m.type = 77;
  m.dst = 1;
  f2->send(std::move(m));
  auto got = f1->recv(2000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, 2u);
  EXPECT_FALSE(f0->try_recv().has_value());
}

TEST(SocketFabric, ManySmallMessagesInOrder) {
  test::TempDir tmp("pm2-socktest");
  const std::string& dir = tmp.path();
  std::unique_ptr<Fabric> f0, f1;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 2, dir)); });
  f0 = make_socket_fabric(config_for(0, 2, dir));
  t1.join();

  for (uint16_t i = 0; i < 500; ++i) {
    Message m;
    m.type = i;
    m.dst = 1;
    f0->send(std::move(m));
  }
  for (uint16_t i = 0; i < 500; ++i) {
    std::optional<Message> got;
    while (!got) got = f1->recv(100);
    EXPECT_EQ(got->type, i);
  }
}

TEST(SocketFabric, ChainedSendGathersWithZeroCopies) {
  test::TempDir tmp("pm2-socktest");
  const std::string& dir = tmp.path();
  std::unique_ptr<Fabric> f0, f1;
  std::thread t1([&] { f1 = make_socket_fabric(config_for(1, 2, dir)); });
  f0 = make_socket_fabric(config_for(0, 2, dir));
  t1.join();

  // A many-segment chain of borrowed extents (the migration payload shape),
  // big enough to exercise partial sendmsg and the direct scatter-read path.
  std::vector<uint8_t> slab(3 * 1024 * 1024);
  for (size_t i = 0; i < slab.size(); ++i)
    slab[i] = static_cast<uint8_t>(i * 2654435761u >> 16);

  Message m;
  m.type = 5;
  m.dst = 1;
  m.chain.append_copy("extent-table", 12);
  size_t off = 0;
  while (off < slab.size()) {
    size_t len = std::min<size_t>(37 * 1024 + off % 4096, slab.size() - off);
    m.chain.append_borrow(slab.data() + off, len);
    off += len;
  }
  std::vector<uint8_t> expect = m.chain.flatten();

  std::thread sender([&] { f0->send(std::move(m)); });
  std::optional<Message> got;
  while (!got) got = f1->recv(100);
  sender.join();

  EXPECT_EQ(got->flat(), expect);
  // The tentpole claim: payload segments went borrowed memory -> writev
  // with no intermediate flatten on the send path.
  EXPECT_EQ(f0->payload_copy_bytes(), 0u);
  EXPECT_EQ(f0->bytes_sent(), sizeof(WireHeader) + expect.size());
}

TEST(SocketFabric, TcpVariant) {
  std::unique_ptr<Fabric> f0, f1;
  SocketFabricConfig c0, c1;
  c0.node_id = 0;
  c0.n_nodes = 2;
  c0.use_tcp = true;
  c0.base_port = static_cast<uint16_t>(24000 + (::getpid() % 10000));
  c1 = c0;
  c1.node_id = 1;
  std::thread t1([&] { f1 = make_socket_fabric(c1); });
  f0 = make_socket_fabric(c0);
  t1.join();

  Message m;
  m.type = 4;
  m.dst = 0;
  m.payload = {1};
  f1->send(std::move(m));
  auto got = f0->recv(2000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, 4);
}

}  // namespace
}  // namespace pm2::fabric
